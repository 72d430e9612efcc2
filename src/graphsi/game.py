"""Cooperative games induced by a GNN on a fixed graph.

GraphGame is the masked-prediction game: nu(T) is the model output for
the frozen target class when every node outside T has its features
replaced by the baseline. NodeGame is the vector-valued analogue for a
single node's embedding. Both run on one masked-game engine: a memo
that forwards each distinct coalition exactly once, behind a single
lock. A batch's memo misses are forwarded in first-seen order as
chunked (B, n, d0) stacks, which give every coalition the same bits as
a forward of its matrix alone. A game's call_count() is the number of
distinct coalitions it forwarded; a run's cost is the sets of its
Moebius map (its InteractionValues.call_count).

A GraphGame with a linear readout also splits into node games
(GraphSHAP-IQ, arXiv 2501.16944): nu(T) = b + sum_i nu_i(T & N_i), where
N_i is node i's model.num_layers-hop ball and nu_i its last-layer
embedding dotted with the readout column (over n under mean pooling).
The Moebius transform is linear too, so m(S) sums the ball tables'
transforms at S over the balls holding S, plus b at S = empty.
node_tables takes each ball's nu_i on its 2^|N_i| local coalitions (bit
j of a table index keeps the ball's j-th node in graph.ball_layouts' hop
order) from one nn._forward_ball call per ball shape (size and per-layer
row counts), and transforms each table in place. That one build serves
an exact run at the model's depth twice without reading nu back set by
set: moebius_arrays sums it into the run's Moebius values, and
convert.convert_tables takes the index values from it. A truncated run
at order cap lam needs m(S) only for |S| <= lam, which reads ball i's
table only on subsets of S: node_tables(lam) forwards a ball of more
than lam nodes on its local codes of at most lam bits alone, and
moebius_arrays sums those into the kept sets' values. A ball forward
reads its first conv layer off the coalition bits and folds the readout
column into its last layer; its values agree with the dense stack to
rounding (about 1e-14 relative), not bit for bit. The node tables write
nothing into the game: every coalition it evaluates is forwarded on the
dense stack.
"""

from __future__ import annotations

import threading
from math import comb
from typing import Protocol

import numpy as np

from .coalitions import MAX_PLAYERS, full_mask
from .errors import ParseError, as_vector
from .graph import Graph, ball_layouts
from .nn import (_CHUNK_BYTES, GnnModel, _forward_ball, default_baseline, forward_graph,
                 forward_node, masked_features)


def _capped_codes(h: int, cap: int) -> tuple[np.ndarray, ...]:
    """The local codes of h bits with at most cap set, ascending, as
    (codes, sizes, held, drop): held[c, t] is code c's t-th lowest bit and
    drop[c, t] the position of code c without it (past c's size, -1 and an
    unread position). Built by doubling over the bits, so the codes of
    fewer bits come first: a ball of h' < h nodes takes a prefix."""
    total = sum(comb(h, t) for t in range(cap + 1))
    codes, sizes = np.zeros(total, dtype="<u8"), np.zeros(total, dtype=np.uint8)
    held, drop = np.full((total, cap), -1, dtype=np.int8), np.zeros((total, cap), dtype=np.intp)
    filled = 1  # code 0
    for j in range(h):  # each code with room gains bit j, its highest
        fits = np.flatnonzero(sizes[:filled] < cap)
        new = slice(filled, filled + len(fits))
        slot = (np.arange(len(fits)), sizes[fits])
        gained = np.zeros(filled, dtype=np.intp)  # a code's position once it gains j
        gained[fits] = np.arange(new.start, new.stop)
        codes[new], sizes[new] = codes[fits] | np.uint64(1 << j), sizes[fits] + 1
        held[new], drop[new] = held[fits], gained[drop[fits]]  # a lower bit dropped keeps j
        held[new][slot], drop[new][slot] = j, fits
        filled = new.stop
    return codes, sizes, held, drop


def _unique_inverse(parts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(np.concatenate(parts), return_inverse=True) for 1-d parts,
    with fewer arrays of their total length alive at once."""
    masks = np.concatenate(parts)
    order = masks.argsort()
    masks.sort()  # in place, where masks[order] would hold a third array
    first = np.empty(len(masks), dtype=bool)
    first[:1] = True
    np.not_equal(masks[1:], masks[:-1], out=first[1:])
    keys = masks[first]
    del masks
    rank = np.cumsum(first, dtype=np.intp)
    rank -= 1
    where = np.empty_like(rank)
    where[order] = rank
    return keys, where


class GameOracle(Protocol):
    """What the interaction routines need from a game over n_players."""

    n_players: int

    def evaluate(self, coalition: int) -> float: ...

    def evaluate_batch(self, coalitions) -> list[float]: ...

    def call_count(self) -> int: ...


class _MaskedGame:
    """Memoized masked forwards; subclasses supply _forward_stack(x), the
    values of a (B, n, d0) stack of realized feature matrices."""

    def __init__(self, model: GnnModel, graph: Graph, baseline=None):
        if graph.n > MAX_PLAYERS:
            raise ParseError(
                f"graph has {graph.n} nodes; coalition engine supports at most {MAX_PLAYERS}")
        if baseline is None:
            baseline = default_baseline(graph)
        self.model = model
        self.graph = graph
        self.baseline = as_vector(baseline, "baseline", graph.d0)
        self.n_players = graph.n
        self.grand = full_mask(graph.n)
        self._rows = max(1, _CHUNK_BYTES // (8 * graph.n * model.width))
        self._memo: dict = {}
        self._lock = threading.Lock()

    def _values(self, coalitions: list[int]) -> list:
        """Memoized values in input order; each new coalition is evaluated once."""
        if coalitions and (min(coalitions) < 0 or max(coalitions) > self.grand):
            bad = next(t for t in coalitions if t & ~self.grand)
            raise ValueError(f"coalition {bin(bad)} has members outside 0..{self.n_players - 1}")
        with self._lock:
            memo = self._memo
            misses = list(dict.fromkeys(t for t in coalitions if t not in memo))
            values = []  # forwarded as chunked stacks
            for start in range(0, len(misses), self._rows):
                chunk = misses[start:start + self._rows]
                values += self._forward_stack(masked_features(self.graph, self.baseline, chunk))
            memo.update(zip(misses, values))
            return [memo[t] for t in coalitions]

    def evaluate_batch(self, coalitions) -> list:
        return self._values(list(coalitions))

    def evaluate(self, coalition: int):
        return self.evaluate_batch([coalition])[0]

    def call_count(self) -> int:
        """Distinct coalitions this game forwarded (memo misses), whichever
        runs asked for them; node tables add none."""
        with self._lock:
            return len(self._memo)


class GraphGame(_MaskedGame):
    """GNN-induced graph game over node coalitions.

    The target output component is frozen at construction: argmax of the
    unmasked forward pass, ties broken by lowest index (for a 1-d output
    this selects the sole component). That construction pass is not a
    coalition evaluation and does not enter call_count.

    Coalitions are forwarded on the dense stack, and call_count counts
    them. With a linear readout a run may instead take its Moebius values
    from node tables (node_tables), which counts nothing; a truncated one
    still forwards its oversized fields. moebius._tables_take decides
    which.

    Args:
        model: loaded GnnModel
        graph: loaded Graph, at most 64 nodes
        baseline: masking vector of length d0; defaults to the
            columnwise feature mean
        normalize: report nu(T) - nu(empty) instead of nu(T)
    """

    def __init__(self, model: GnnModel, graph: Graph, baseline=None,
                 normalize: bool = False):
        super().__init__(model, graph, baseline)
        self.normalize = bool(normalize)
        full_out = forward_graph(model, graph, graph.features)
        self.target = int(np.argmax(full_out))  # argmax takes the lowest index on ties
        self._raw_full = float(full_out[self.target])

    def _forward_stack(self, x: np.ndarray) -> list[float]:
        return forward_graph(self.model, self.graph, x)[:, self.target].tolist()

    def node_tables(self, cap: int | None = None,
                    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Each ball shape's transformed node tables, freshly built: a list of
        (tables, masks, sizes), shapes ascending. Reads the model, graph,
        baseline and target; writes nothing into the game. cap is a
        truncated run's order cap (None: no cap).

        Node i's table holds at local index L its node game nu_i, the
        last-layer embedding dotted with the target's readout column (over n
        under mean pooling), with the ball's j-th node in hop order
        (graph.ball_layouts) kept for each bit j of L. The balls of one shape,
        (size h, keep), take one _forward_ball call, whose (balls, 2^h) stack
        takes the dense subset butterfly in place: tables[b, L] is m_b(L),
        ball b's Moebius value at L. Its local indices become the global
        masks (balls, 2^h) and the set sizes (2^h,) by doubling.

        With an order cap, a shape of more than cap nodes holds only its local
        codes of at most cap bits, ascending (_capped_codes): C(h, <= cap)
        columns of tables and masks, and their sizes. That family is
        down-closed, and cap passes transform it: pass t subtracts from each
        code of more than t bits the value of that code without its t-th
        lowest bit, all reads before the writes, so after pass t a code holds
        the transform over its t + 1 lowest bits (the butterfly, with each
        code's bits counted from its lowest). A code's mask ORs its held
        bits' nodes. Shapes of at most cap nodes keep the full 2^h path.
        """
        model = self.model
        w = model.readout.weight[:, self.target] / {"sum": 1, "mean": self.n_players}[model.pooling]
        shapes: dict[tuple, list] = {}
        for nodes, keep in ball_layouts(self.graph, model.num_layers):
            shapes.setdefault((len(nodes), tuple(keep)), []).append(nodes)
        widest = max(h for h, _ in shapes)
        if cap is not None and cap < widest:  # one family: a shape's codes are a prefix
            codes, counts, held, drop = _capped_codes(widest, cap)
        tables = []
        for (h, keep), group in sorted(shapes.items()):
            members = np.array(group, dtype="<u8")  # (balls, h)
            capped = cap is not None and h > cap
            local = codes[:np.searchsorted(codes, 1 << h)] if capped else np.arange(1 << h)
            stack = _forward_ball(model, self.graph, self.baseline, members, keep, local, w)
            if capped:  # one pass per bit slot t: m(L) -= m(L less its t-th lowest bit)
                size = counts[:len(local)]
                for t in range(cap):
                    at = np.flatnonzero(size > t)
                    partners = drop[at, t]
                    for row in stack:  # 1-d fancy indexing: 2-3 times faster than (balls, at)
                        row[at] -= row[partners]
                bit = np.concatenate([np.left_shift(1, members), np.zeros_like(members[:, :1])],
                                     axis=1)  # held's -1 picks the trailing 0
                glob = np.take(bit, held[:len(local), 0], axis=1)
                for t in range(1, cap):
                    glob |= np.take(bit, held[:len(local), t], axis=1)
            else:
                glob, size = np.zeros((len(group), 1), dtype="<u8"), np.zeros(1, dtype=np.uint8)
                for j in range(h):
                    v = stack.reshape(len(group), -1, 2, 1 << j)
                    v[:, :, 1, :] -= v[:, :, 0, :]
                    glob = np.concatenate([glob, glob | np.left_shift(1, members[:, j:j + 1])],
                                          axis=1)
                    size = np.concatenate([size, size + 1])
            tables.append((stack, glob, size))
        return tables

    def moebius_arrays(self, tables) -> tuple[np.ndarray, np.ndarray]:
        """Moebius values on I, the union of the balls' power sets, from
        node_tables: (keys, values) in canonical order; from capped tables,
        on I's sets of at most cap members. The tables, which hold the
        pooling, are summed by global mask, by ascending shape and then node;
        m(empty), that sum at mask 0, then takes the readout bias (0 under
        normalize).
        """
        keys, where = _unique_inverse([glob.ravel() for _, glob, _ in tables])
        # adds in input order
        sums = np.bincount(where, weights=np.concatenate([stack.ravel() for stack, _, _ in tables]))
        # keys ascend, so sums[0] is m(empty) without the readout bias
        sums[0] = 0.0 if self.normalize else sums[0] + float(self.model.readout.bias[self.target])
        count = np.empty(len(keys), dtype=np.uint8)
        count[where] = np.concatenate([np.tile(size, len(stack)) for stack, _, size in tables])
        order = np.argsort(count, kind="stable")  # keys ascend already: (size, mask) order
        return keys[order], sums[order]

    def evaluate_batch(self, coalitions) -> list[float]:
        """Values in input order; the empty coalition is forwarded last when normalizing."""
        coalitions = list(coalitions)
        if not self.normalize or not coalitions:
            return self._values(coalitions)
        *values, empty = self._values(coalitions + [0])
        return [v - empty for v in values]

    @property
    def nu_full(self) -> float:
        """Value of the grand coalition under the current normalization."""
        if self.normalize:
            return self._raw_full - self._values([0])[0]
        return self._raw_full

    @property
    def nu_empty(self) -> float:
        return self.evaluate(0)


class NodeGame(_MaskedGame):
    """Vector-valued game nu_i(T): node i's embedding under masking."""

    def __init__(self, model: GnnModel, graph: Graph, i: int, baseline=None):
        if not (0 <= i < graph.n):
            raise IndexError(f"node index {i} out of range for n={graph.n}")
        super().__init__(model, graph, baseline)
        self.node = i

    def _forward_stack(self, x: np.ndarray) -> list[np.ndarray]:
        values = forward_node(self.model, self.graph, x, self.node)
        values.setflags(write=False)
        return list(values)
