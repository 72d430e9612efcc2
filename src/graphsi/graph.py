"""Graph representation, l-hop neighborhoods, and size statistics.

Graphs are simple and undirected. Node features are a dense float64
matrix with one row per node. Neighborhoods are coalitions (bitmasks),
so they plug directly into the interaction machinery.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .coalitions import iter_members
from .errors import ParseError, as_count, as_matrix, read_json


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph with node features.

    Compared and hashed by identity (eq=False): the generated __eq__ would
    compare feature arrays elementwise. Derived matrices are computed once
    per graph and kept on the instance (matrices).

    Attributes:
        n: node count (>= 1)
        edges: tuple of (i, j) pairs with i < j, sorted, no duplicates
        features: float64 array of shape (n, d0)
        neighbor_masks: per-node bitmask of adjacent nodes (node itself excluded)
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    features: np.ndarray
    neighbor_masks: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        masks = [0] * self.n
        for i, j in self.edges:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        object.__setattr__(self, "neighbor_masks", tuple(masks))
        self.features.setflags(write=False)

    @property
    def d0(self) -> int:
        return self.features.shape[1]

    @cached_property
    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (adjacency A, normalized A_hat = D^-1/2 (A+I) D^-1/2)."""
        adj = np.zeros((self.n, self.n), dtype=np.float64)
        for i, j in self.edges:
            adj[i, j] = 1.0
            adj[j, i] = 1.0
        with_loops = adj + np.eye(self.n)
        inv_sqrt_deg = 1.0 / np.sqrt(with_loops.sum(axis=1))
        a_hat = with_loops * inv_sqrt_deg[:, None] * inv_sqrt_deg[None, :]
        adj.setflags(write=False)
        a_hat.setflags(write=False)
        return adj, a_hat

    def degree(self, i: int) -> int:
        return self.neighbor_masks[i].bit_count()

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "edges": [list(e) for e in self.edges],
            "features": self.features.tolist(),
        }


@dataclass(frozen=True)
class NeighborhoodIndex:
    """Closed l-hop neighborhoods of every node, as coalitions.

    hoods[i] contains i itself plus every node within shortest-path
    distance ell of i. Unreachable nodes are absent, so an isolated
    node has hoods[i] == {i}.
    """

    ell: int
    hoods: tuple[int, ...]


def make_graph(n: int, edges, features) -> Graph:
    """Validate and canonicalize raw graph data.

    Raises ParseError for self-loops, duplicate edges (in either
    orientation), out-of-range endpoints, or a malformed feature matrix.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f"node count must be a positive integer, got {n!r}")
    canon = []
    seen = set()
    for e in edges:
        pair = tuple(e) if not isinstance(e, tuple) else e
        if len(pair) != 2:
            raise ParseError(f"edge must have exactly two endpoints, got {e!r}")
        i, j = pair
        for v in (i, j):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ParseError(f"edge endpoint must be an integer, got {v!r}")
        if i == j:
            raise ParseError(f"self-loop on node {i} is not allowed")
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"edge ({i}, {j}) has an endpoint outside 0..{n - 1}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ParseError(f"duplicate edge ({i}, {j})")
        seen.add(key)
        canon.append(key)
    canon.sort()

    feats = as_matrix(features, "features")
    if feats.shape[0] != n:
        raise ParseError(f"feature matrix has {feats.shape[0]} rows for {n} nodes")
    return Graph(n=n, edges=tuple(canon), features=feats)


def graph_from_json(obj) -> Graph:
    """Build a Graph from a parsed JSON object of the documented schema.

    Schema: {"n": int, "edges": [[i, j], ...], "features": [[f, ...], ...]}
    """
    if not isinstance(obj, dict):
        raise ParseError("graph JSON must be an object")
    missing = {"n", "edges", "features"} - obj.keys()
    if missing:
        raise ParseError(f"graph JSON is missing keys: {sorted(missing)}")
    edges = obj["edges"]
    if not isinstance(edges, list) or any(not isinstance(e, list) for e in edges):
        raise ParseError("edges must be a list of [i, j] pairs")
    features = obj["features"]
    if not isinstance(features, list) or any(not isinstance(r, list) for r in features):
        raise ParseError("features must be a list of per-node rows")
    return make_graph(obj["n"], edges, features)


def load_graph(path) -> Graph:
    """Load a graph from a JSON file. Raises ParseError on any defect."""
    return graph_from_json(read_json(path, "graph"))


def ensure_graph(source) -> Graph:
    """A Graph from a Graph, a parsed JSON object, or a file path."""
    if isinstance(source, Graph):
        return source
    if isinstance(source, dict):
        return graph_from_json(source)
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        return load_graph(os.fspath(source))
    raise ParseError(f"cannot interpret {type(source).__name__} as a graph")


def hop_rings(g: Graph, i: int, hops: int) -> list[int]:
    """Node i's rings out to hops, as hops + 1 masks: ring k holds the nodes
    exactly k hops from i, so ring 0 is i alone and rings past the last
    reachable node are 0. The package's one breadth-first search."""
    seen = ring = 1 << i
    rings = [ring]
    for _ in range(hops):
        reached = 0
        for j in iter_members(ring):
            reached |= g.neighbor_masks[j]
        ring = reached & ~seen
        seen |= ring
        rings.append(ring)
    return rings


def khop_neighborhoods(g: Graph, ell: int) -> NeighborhoodIndex:
    """Closed ell-hop neighborhoods: the union of each node's hop rings.
    No shortest path has more than n - 1 hops, so the search stops there;
    the index keeps the ell asked for: an integer >= 1 (else ParseError)."""
    hops = min(as_count(ell, "ell"), g.n - 1)
    # the rings are disjoint, so their sum is their union
    return NeighborhoodIndex(ell=ell, hoods=tuple(sum(hop_rings(g, i, hops)) for i in range(g.n)))


def ball_layouts(g: Graph, hops: int) -> list[tuple[list[int], list[int]]]:
    """Per node i, (nodes, keep) for its closed hops-hop ball. nodes lists the
    ball by hop distance from i, ascending index within a hop, so nodes[0]
    is i. keep[l] counts the nodes within hops - 1 - l hops: the leading
    rows conv layer l of a hops-layer ball forward computes (keep[-1] == 1).
    """
    layouts = []
    for i in range(g.n):
        rings = hop_rings(g, i, hops)
        within = list(accumulate(ring.bit_count() for ring in rings))  # nodes within k hops
        layouts.append(([j for ring in rings for j in iter_members(ring)], within[hops - 1::-1]))
    return layouts


def graph_stats(g: Graph, ell: int) -> tuple[int, int, float]:
    """(d_max, n_max_ell, density) for the complexity bounds.

    d_max is the maximum degree, n_max_ell the largest closed ell-hop
    neighborhood size, density the filled fraction of possible edges
    (0.0 for a single-node graph).
    """
    d_max = max((g.degree(i) for i in range(g.n)), default=0)
    hoods = khop_neighborhoods(g, ell).hoods
    n_max_ell = max(h.bit_count() for h in hoods)
    if g.n == 1:
        density = 0.0
    else:
        density = len(g.edges) / (g.n * (g.n - 1) / 2)
    return d_max, n_max_ell, density
