"""Cooperative games induced by a GNN on a fixed graph.

GraphGame is the masked-prediction game: nu(T) is the model output for
the frozen target class when every node outside T has its features
replaced by the baseline. NodeGame is the vector-valued analogue for a
single node's embedding. Both run on one masked-game engine: a memo
that forwards each distinct coalition exactly once, behind a single
lock. A batch's memo misses are forwarded in first-seen order as
chunked (B, n, d0) stacks, which give every coalition the same bits as
a forward of its matrix alone. The number of distinct evaluated
coalitions is the unit of every complexity claim here.

A GraphGame with a linear readout may instead split into node games
(GraphSHAP-IQ, arXiv 2501.16944): nu(T) = b + sum_i w . h_i(T & N_i),
where h_i is node i's last-layer embedding and N_i its
model.num_layers-hop ball, divided by n under mean pooling. It then
forwards each ball's 2^|N_i| local coalitions once and fills every memo
miss from those tables. graph.ball_layouts lays each ball out in hop
order; the cost rule and the tables both read it, and bit j of a table
index keeps the ball's j-th node. Which evaluator runs is
decided by counted work (the cost constants below). A ball forward reads
its first conv layer off the coalition bits, as an affine function of
them. These values
agree with the dense stack to rounding (about 1e-14 relative), not bit
for bit.

The Moebius transform is linear too, so an exact run at the model's depth
takes its Moebius values straight from the tables (table_moebius):
m(S) = sum over the balls holding S of each table's transform at S, and
m(empty) = nu(empty). Reading nu from the tables one coalition at a time
(_table_values) then serves only the memo: nu(empty), samplers that share
the game, and runs at another ell.
"""

from __future__ import annotations

import threading
from functools import cached_property
from typing import Protocol

import numpy as np

from .coalitions import MAX_PLAYERS, full_mask, mask_of
from .errors import ParseError, as_vector
from .graph import Graph, ball_layouts
from .nn import (GnnModel, _forward_ball, default_baseline, forward_graph, forward_node,
                 masked_features)


class GameOracle(Protocol):
    """What the interaction routines need from a game over n_players."""

    n_players: int

    def evaluate(self, coalition: int) -> float: ...

    def evaluate_batch(self, coalitions) -> list[float]: ...

    def call_count(self) -> int: ...


# Bytes of the widest (B, n, width) float64 intermediate of one stacked
# forward; rows per chunk follow from it (64 at n=64, width 16). Stacks
# much larger than the CPU cache run slower per row.
_CHUNK_BYTES = 512 * 1024

# Costs of the two GraphGame evaluators, in one unit: a multiply-add of a
# dense layer's aggregation, of which one coalition's matrix needs n^2.
# - Dense stack: num_layers (n^2 + _MATRIX_COST) per coalition. Its fixed
#   part is per matrix, not per chunk: a stacked conv layer runs NumPy's
#   kernels once per matrix of the stack.
# - Node tables: _TABLE_COST per node and conv layer (each layer of a ball
#   forward is a few NumPy calls, whatever the ball) plus _BALL_ROW_COST
#   per ball row and member, sum_i 2^|N_i| |N_i| sum_l keep_l, where keep_l
#   counts the rows conv layer l computes (node i's nodes within
#   num_layers - 1 - l hops).
# The constants were fitted once to a timing run on one core (the least of
# 3 runs of best of 7; a unit took about 1.8 ns) that evaluated all of I
# both ways on 65 instances: stars of 6-15 nodes, trees, paths and ER
# graphs of 6-64 nodes under 1-3 layers, and 10 molecule-sized trees, GIN
# and GCN. They are rounded from a least-squares fit of each evaluator's
# time, moved toward the middle of the range that picks the faster
# evaluator wherever one is faster by more than 25%: there, the cost of
# the evaluator not taken is at least 1.38 times the other (tree20 under 2
# layers comes closest).
_MATRIX_COST = 700
_TABLE_COST = 40_000
_BALL_ROW_COST = 8


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
            if misses:
                memo.update(zip(misses, self._fill(misses)))
            return [memo[t] for t in coalitions]

    def _fill(self, misses: list[int]) -> list:
        """Values of distinct new coalitions, forwarded as chunked stacks."""
        values = []
        for start in range(0, len(misses), self._rows):
            chunk = misses[start:start + self._rows]
            values += self._forward_stack(masked_features(self.graph, self.baseline, chunk))
        return values

    def evaluate_batch(self, coalitions) -> list:
        return self._values(list(coalitions))

    def evaluate(self, coalition: int):
        return self.evaluate_batch([coalition])[0]

    def call_count(self) -> int:
        """Distinct coalitions ever evaluated (memo misses)."""
        with self._lock:
            return len(self._memo)


class GraphGame(_MaskedGame):
    """GNN-induced graph game over node coalitions.

    The target output component is frozen at construction: argmax of the
    unmasked forward pass, ties broken by lowest index (for a 1-d output
    this selects the sole component). That construction pass is not a
    coalition evaluation and does not enter call_count.

    Node tables replace the dense stack from the first batch they cost
    less than: that batch's dense work, num_layers (n^2 + _MATRIX_COST) per
    new coalition, against _TABLE_COST per node and layer plus
    _BALL_ROW_COST per trimmed ball row and member, counted from the ball
    layouts. A batch whose dense work is below the tables' fixed part
    alone stays dense without a look at the balls, so small graphs never
    lay them out. Only a linear readout splits. call_count still counts
    distinct coalitions, not the ball rows forwarded. An exact run at the
    model's depth puts the same rule to |I| before it evaluates anything,
    and on the tables takes table_moebius (moebius.graphshapiq_exact).

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
        self._tables = None
        self._determined = None  # (|I|, ball masks) once table_moebius ran

    def _forward_stack(self, x: np.ndarray) -> list[float]:
        return forward_graph(self.model, self.graph, x)[:, self.target].tolist()

    def _fill(self, misses: list[int]) -> list[float]:
        if self._tables is None and self._tables_pay(len(misses)):
            self._tables = self._node_tables()
        if self._tables is None:
            return super()._fill(misses)
        return self._table_values(misses)

    def _tables_pay(self, count: int) -> bool:
        """Whether building node tables costs less than forwarding count
        new coalitions on the dense stack (constants above)."""
        if self.model.readout.kind != "linear":  # only a linear readout splits
            return False
        n, depth = self.n_players, self.model.num_layers
        dense = count * depth * (n * n + _MATRIX_COST)
        fixed = n * depth * _TABLE_COST
        if dense <= fixed:  # decided without looking at the balls
            return False
        work = sum((1 << len(nodes)) * len(nodes) * sum(keep) for nodes, keep in self._layouts)
        return fixed + _BALL_ROW_COST * work < dense

    @cached_property
    def _layouts(self) -> list[tuple[list[int], list[int]]]:
        return ball_layouts(self.graph, self.model.num_layers)

    def _node_tables(self) -> list[tuple[list[int], np.ndarray]]:
        """(ball nodes, table) per node i in order, the nodes in hop order
        (graph.ball_layouts): table[L] is node i's last-layer embedding
        projected on the target's readout column, with nodes[j] kept for
        each bit j of L and the other ball nodes masked."""
        weight = self.model.readout.weight[:, self.target]
        tables = []
        for nodes, keep in self._layouts:
            size = 1 << len(nodes)
            # widest array of a ball forward per row: the bits or layer 0's rows
            widest = max(len(nodes), keep[0] * self.model.width)
            rows = max(1, _CHUNK_BYTES // (8 * widest))
            table = np.concatenate([
                _forward_ball(self.model, self.graph, self.baseline, nodes, keep,
                              np.arange(start, min(start + rows, size))) @ weight
                for start in range(0, size, rows)])
            tables.append((nodes, table))
        return tables

    def _table_values(self, misses: list[int]) -> list[float]:
        """b + sum_i table_i[T & N_i] per coalition T (the sum divided by n
        under mean pooling), summed in node order."""
        keys = np.array(misses, dtype="<u8")
        # Row k holds bit k of every coalition, so a ball gathers whole rows.
        bits = np.unpackbits(keys.view(np.uint8).reshape(-1, 8).T, axis=0, bitorder="little")
        total = np.zeros(len(keys))
        for nodes, table in self._tables:
            # einsum casts in small buffers; @ would copy the rows to int64 first
            total += table[np.einsum("j,jm->m", 1 << np.arange(len(nodes)), bits[nodes])]
        if self.model.pooling == "mean":
            total /= self.n_players
        return (total + self.model.readout.bias[self.target]).tolist()

    def table_moebius(self) -> dict[int, float]:
        """Moebius values on I, the union of the balls' power sets, in canonical
        order, from the node tables (built if need be).

        Balls of one size go together: their tables, stacked, take the dense
        subset butterfly, and their local indices become global masks (and
        set sizes) by doubling. The values are summed by global mask, by
        ascending ball size and then node (divided by n under mean pooling).
        m(empty) is nu(empty), read through the memo. From then on
        call_count counts I as evaluated.
        """
        with self._lock:
            if self._tables is None:
                self._tables = self._node_tables()
        by_size: dict[int, list] = {}
        for nodes, table in self._tables:
            by_size.setdefault(len(nodes), []).append((nodes, table))
        values, masks, sizes = [], [], []
        for h, balls in sorted(by_size.items()):
            stack = np.stack([table for _, table in balls])  # a copy: the tables stay as built
            members = np.array([nodes for nodes, _ in balls], dtype="<u8").reshape(len(balls), h)
            glob, size = np.zeros((len(balls), 1), dtype="<u8"), np.zeros(1, dtype=np.uint8)
            for j in range(h):
                v = stack.reshape(len(balls), -1, 2, 1 << j)
                v[:, :, 1, :] -= v[:, :, 0, :]
                glob = np.concatenate([glob, glob | np.left_shift(1, members[:, j:j + 1])], axis=1)
                size = np.concatenate([size, size + 1])
            values.append(stack.ravel())
            masks.append(glob.ravel())
            sizes.append(np.tile(size, len(balls)))
        keys, where = np.unique(np.concatenate(masks), return_inverse=True)
        sums = np.bincount(where, weights=np.concatenate(values))  # adds in input order
        if self.model.pooling == "mean":
            sums /= self.n_players
        count = np.empty(len(keys), dtype=np.uint8)
        count[where] = np.concatenate(sizes)
        order = np.argsort(count, kind="stable")  # keys ascend already: (size, mask) order
        mi = dict(zip(keys[order].tolist(), sums[order].tolist()))
        mi[0] = 0.0 if self.normalize else self._values([0])[0]
        with self._lock:
            self._determined = (len(mi), {mask_of(nodes) for nodes, _ in self._tables})
        return mi

    def call_count(self) -> int:
        """Distinct coalitions evaluated, counting every member of I once
        table_moebius has determined them."""
        if self._determined is None:
            return super().call_count()
        size, balls = self._determined
        with self._lock:
            return size + sum(all(t & ~ball for ball in balls) for t in self._memo)

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
