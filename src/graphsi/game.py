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
embedding dotted with the readout column w (over n under mean pooling).
No activation follows the last conv layer, so a GCN last layer after
another splits one hop deeper (nn._table_hops): nu(T) = b + n (b_L . w) +
sum_r c_r phi_r(T & N'_r), with N'_r node r's ball one hop narrower than
N_r, phi_r = ReLU(h_r) . (W_L w) for r's embedding h_r before that layer,
and c_r = sum_i A_hat[i, r]. Such a model's tables hold these row games;
GIN last layers and 1-layer models keep the node games. The Moebius
transform is linear too, so m(S) sums the tables' transforms at S over
the balls holding S, plus the biases at S = empty (moebius_arrays). For
|S| <= lam that reads a ball's table only on subsets of S, so a table
capped at lam holds only its codes of at most lam bits. A ball forward
reads its first conv layer off the coalition bits and folds the readout
column into its last layer; its values agree with the dense stack to
about 1e-14 relative (measured), not bit for bit. The tables write
nothing into the game.
"""

from __future__ import annotations

import threading
from math import comb
from typing import Protocol

import numpy as np

from .coalitions import MAX_PLAYERS, _capped_codes, _masks, field_sets, full_mask, set_sizes
from .errors import ParseError, as_vector
from .graph import Graph, ball_layouts, khop_neighborhoods
from .nn import (_CHUNK_BYTES, GnnModel, _forward_ball, _table_hops, default_baseline,
                 forward_graph, forward_node, masked_features)


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

    call_count counts the coalitions forwarded on the dense stack; node_tables adds none.

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

    def _shapes(self, hops: int, cap: int | None):
        """Per ball shape (size h, keep) at hops hops, ascending: (members, keep,
        local codes, sizes, held, drop), as node_tables reads them; held and
        drop are the capped codes' (_capped_codes), None on the 2^h path."""
        shapes: dict[tuple, list] = {}
        for nodes, keep in ball_layouts(self.graph, hops):
            shapes.setdefault((len(nodes), tuple(keep)), []).append(nodes)
        widest = max(h for h, _ in shapes)
        full = np.arange(1 << (widest if cap is None else min(cap, widest)), dtype="<u8")
        full_sizes = set_sizes(full)  # on either path a shape's codes and sizes are a prefix
        if cap is not None and cap < widest:
            codes, counts, held, drop = _capped_codes(widest, cap)
        for (h, keep), group in sorted(shapes.items()):
            members = np.array(group, dtype="<u8")  # (balls, h)
            if cap is not None and h > cap:
                width = sum(comb(h, t) for t in range(cap + 1))
                yield members, keep, codes[:width], counts[:width], held[:width], drop[:width]
            else:
                yield members, keep, full[:1 << h], full_sizes[:1 << h], None, None

    def node_tables(self, cap: int | None = None) -> list[tuple]:
        """Each ball shape's transformed node tables, freshly built: a list of
        (tables, masks, sizes, drop), shapes ascending; drop is the capped
        codes' (below), None on the 2^h path. Reads the model, graph,
        baseline and target; writes nothing into the game. cap is a
        truncated run's order cap (None: no cap).

        Ball b's table holds at local index L its node (or row) game
        (nn._forward_ball, on balls nn._table_hops(model) hops wide), with the
        ball's j-th node in hop order (graph.ball_layouts) kept for each bit j
        of L. The balls of one shape, (size h, keep), take one _forward_ball
        call, whose (balls, 2^h) stack takes the dense subset butterfly in
        place: tables[b, L] is m_b(L), ball b's Moebius value at L. Its local
        indices become the global masks (balls, 2^h) by doubling
        (coalitions._masks), and their set sizes (2^h,) are set_sizes'.

        With an order cap, a shape of more than cap nodes holds only its local
        codes of at most cap bits, ascending (_capped_codes): C(h, <= cap)
        columns of tables and masks, their sizes, and drop (C(h, <= cap), cap):
        each code's position less its t-th lowest bit. That family is
        down-closed, and cap passes transform it: pass t subtracts from each
        code of more than t bits the value of that code without its t-th
        lowest bit, all reads before the writes, so after pass t a code holds
        the transform over its t + 1 lowest bits (the butterfly, with each
        code's bits counted from its lowest). A code's mask ORs its held
        bits' nodes. Shapes of at most cap nodes keep the full 2^h path.
        """
        model = self.model
        w = model.readout.weight[:, self.target] / {"sum": 1, "mean": self.n_players}[model.pooling]
        tables = []
        for members, keep, local, size, held, drop in self._shapes(_table_hops(model), cap):
            stack = _forward_ball(model, self.graph, self.baseline, members, keep, local, w)
            glob = _masks(members, held)
            if held is None:
                for j in range(members.shape[1]):
                    v = stack.reshape(len(stack), -1, 2, 1 << j)
                    v[:, :, 1, :] -= v[:, :, 0, :]
            else:  # one pass per bit slot t: m(L) -= m(L less its t-th lowest bit)
                for t in range(cap):
                    at = np.flatnonzero(size > t)
                    partners = drop[at, t]
                    for row in stack:  # 1-d fancy indexing: 2-3 times faster than (balls, at)
                        row[at] -= row[partners]
            tables.append((stack, glob, size, drop))
        return tables

    def moebius_arrays(self, cap: int | None = None) -> tuple[np.ndarray, np.ndarray, list]:
        """Moebius values on I, the union of the fields' power sets, and the
        node_tables(cap) they are summed from: (keys, values, tables), keys in
        canonical order; with cap, on I's sets of at most cap members. The
        tables, which hold the pooling, are summed by global mask, by
        ascending shape and then node; m(empty), that sum at mask 0, then
        takes the readout bias (0 under normalize).

        Node tables hold I's masks: one argsort of them gives the keys and
        where each table entry goes, and a stable sort by set_sizes the
        canonical order. Row tables are one hop narrower than the fields, so
        the keys are the fields' sets (coalitions.field_sets, capped at cap)
        and the row masks are looked up among them: a set in no row ball
        reads exactly 0.0, and m(empty) also takes n (b_L . w). Each way is
        the faster one on its own tables (BENCH_28.json).
        """
        model, tables = self.model, self.node_tables(cap)
        bias = float(model.readout.bias[self.target])
        globs = [table[1].ravel() for table in tables]
        stacks = [table[0].ravel() for table in tables]  # concatenated once the keys are known
        if _table_hops(model) == model.num_layers:
            keys, where = _unique_inverse(globs)
            order = np.argsort(set_sizes(keys), kind="stable")  # keys ascend: (size, mask) order
            keys, sums = keys[order], np.bincount(where, weights=np.concatenate(stacks))[order]
        else:
            keys = field_sets(khop_neighborhoods(self.graph, model.num_layers).hoods, cap)
            rank = np.argsort(keys)  # every row ball lies in its center's field
            where = rank[np.searchsorted(keys, np.concatenate(globs), sorter=rank)]
            sums = np.bincount(where, weights=np.concatenate(stacks), minlength=len(keys))
            bias += (float(model.layers[-1].bias @ model.readout.weight[:, self.target])
                     * {"sum": self.n_players, "mean": 1}[model.pooling])  # n (b_L . w)
        # bincount adds in input order; keys[0] is the empty set, sums[0] without the biases
        sums[0] = 0.0 if self.normalize else sums[0] + bias
        return keys, sums, tables

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
