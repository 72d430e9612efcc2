"""Seeded synthetic instances: small graphs plus matching random models.

One seed drives one counter-based stream consumed in a fixed order
(edges, features, weights), so the same arguments always produce the
same bytes on disk.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, make_graph
from .nn import GcnLayer, GinLayer, GnnModel, LinearReadout, Mlp2Readout


def seeded_rng(seed: int) -> np.random.Generator:
    """Counter-based generator: replicates across platforms for a fixed seed."""
    return np.random.Generator(np.random.Philox(seed))


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    if n < 3:
        raise ValueError(f"a cycle needs at least 3 nodes, got {n}")
    return path_edges(n) + [(0, n - 1)]


def random_tree_edges(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Random recursive tree of degree at most 3: node i attaches to a
    uniform earlier node that still has an open slot.

    The cap keeps receptive fields small at every ell, which is the regime
    this library targets; an uncapped recursive tree grows log(n)-degree
    hubs whose neighborhoods dominate the call count. A slot is always
    open: i attached nodes carry 2(i-1) degree total, under 3i.
    """
    degree = [0] * n
    edges = []
    for i in range(1, n):
        open_slots = [j for j in range(i) if degree[j] < 3]
        j = open_slots[int(rng.integers(0, len(open_slots)))]
        edges.append((j, i))
        degree[j] += 1
        degree[i] += 1
    return edges


def random_er_edges(n: int, p: float, rng: np.random.Generator) -> list[tuple[int, int]]:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if rng.random() < p]


def random_graph(kind: str, n: int, d0: int, seed: int,
                 edge_prob: float = 0.3) -> Graph:
    """Graph of the requested family with standard-normal features."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if d0 < 1:
        raise ValueError(f"d0 must be >= 1, got {d0}")
    rng = seeded_rng(seed)
    if kind == "path":
        edges = path_edges(n)
    elif kind == "cycle":
        edges = cycle_edges(n)
    elif kind == "tree":
        edges = random_tree_edges(n, rng)
    elif kind == "er":
        edges = random_er_edges(n, edge_prob, rng)
    else:
        raise ValueError(f"unknown graph kind {kind!r}")
    features = rng.normal(0.0, 1.0, size=(n, d0))
    return make_graph(n, edges, features)


def _weight(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    return rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))


def random_model(kind: str, d0: int, layers: int, hidden: int, seed: int,
                 d_out: int = 2, readout: str = "linear") -> GnnModel:
    """Random model with the documented init: weights ~ normal(0, 1/sqrt(fan_in)),
    zero biases. The seed stream is independent of the graph stream."""
    if kind not in ("gcn", "gin"):
        raise ValueError(f"unknown model kind {kind!r}")
    if layers < 1 or hidden < 1 or d_out < 1:
        raise ValueError("layers, hidden, and d_out must all be >= 1")
    rng = seeded_rng(seed)
    stack = []
    width = d0
    for _ in range(layers):
        if kind == "gcn":
            stack.append(GcnLayer(weight=_weight(rng, width, hidden),
                                  bias=np.zeros(hidden)))
        else:
            stack.append(GinLayer(epsilon=0.0,
                                  w1=_weight(rng, width, hidden),
                                  b1=np.zeros(hidden),
                                  w2=_weight(rng, hidden, hidden),
                                  b2=np.zeros(hidden)))
        width = hidden
    if readout == "linear":
        head = LinearReadout(weight=_weight(rng, width, d_out), bias=np.zeros(d_out))
    elif readout == "mlp2":
        head = Mlp2Readout(w1=_weight(rng, width, hidden), b1=np.zeros(hidden),
                           w2=_weight(rng, hidden, d_out), b2=np.zeros(d_out))
    else:
        raise ValueError(f"unknown readout {readout!r}")
    return GnnModel(layers=tuple(stack), pooling="sum", readout=head)


def generate_instance(kind: str, n: int, d0: int, seed: int, model_kind: str,
                      layers: int, hidden: int, edge_prob: float = 0.3,
                      readout: str = "linear") -> tuple[Graph, GnnModel]:
    """(graph, model) pair from one seed; sub-streams are derived so graph
    and weights do not shift when only the architecture changes."""
    graph = random_graph(kind, n, d0, seed, edge_prob)
    model = random_model(model_kind, d0, layers, hidden, seed + 0x9E3779B9,
                         readout=readout)
    return graph, model
