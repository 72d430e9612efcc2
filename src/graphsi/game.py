"""Cooperative games induced by a GNN on a fixed graph.

GraphGame is the masked-prediction game: nu(T) is the model output for
the frozen target class when every node outside T has its features
replaced by the baseline. NodeGame is the vector-valued analogue for a
single node's embedding. Both run on one masked-game engine: a memo
that forwards each distinct coalition exactly once, behind a single
lock. A batch's memo misses are forwarded in first-seen order as
chunked (B, n, d0) stacks, which give every coalition the same bits as
a forward of its matrix alone. The number of distinct forwarded
coalitions is the unit of every complexity claim here.
"""

from __future__ import annotations

import threading
from typing import Protocol

import numpy as np

from .coalitions import MAX_PLAYERS, full_mask
from .errors import ParseError, as_vector
from .graph import Graph
from .nn import GnnModel, default_baseline, forward_graph, forward_node, masked_features


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
        """Memoized values in input order; each new coalition is forwarded once."""
        for t in coalitions:
            if t & ~self.grand:
                raise ValueError(f"coalition {bin(t)} has members outside 0..{self.n_players - 1}")
        with self._lock:
            memo = self._memo
            misses = list(dict.fromkeys(t for t in coalitions if t not in memo))
            for start in range(0, len(misses), self._rows):
                chunk = misses[start:start + self._rows]
                x = masked_features(self.graph, self.baseline, chunk)
                memo.update(zip(chunk, self._forward_stack(x)))
            return [memo[t] for t in coalitions]

    def evaluate_batch(self, coalitions) -> list:
        return self._values(list(coalitions))

    def evaluate(self, coalition: int):
        return self.evaluate_batch([coalition])[0]

    def call_count(self) -> int:
        """Distinct coalitions ever forwarded (memo misses)."""
        with self._lock:
            return len(self._memo)


class GraphGame(_MaskedGame):
    """GNN-induced graph game over node coalitions.

    The target output component is frozen at construction: argmax of the
    unmasked forward pass, ties broken by lowest index (for a 1-d output
    this selects the sole component). That construction pass is not a
    coalition evaluation and does not enter call_count.

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
