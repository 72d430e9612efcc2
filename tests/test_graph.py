import json

import numpy as np
import pytest

from graphsi.coalitions import mask_of
from graphsi.errors import ParseError
from graphsi.generate import random_graph
from graphsi.graph import (
    ball_layouts,
    graph_from_json,
    graph_stats,
    hop_rings,
    khop_neighborhoods,
    load_graph,
    make_graph,
)

from helpers import mask_to_set
from oracles import khop_oracle


def path4():
    return make_graph(4, [(0, 1), (1, 2), (2, 3)], np.zeros((4, 2)))


# -- construction and validation ---------------------------------------------


def test_edges_canonicalized():
    g = make_graph(3, [(2, 1), (1, 0)], np.zeros((3, 1)))
    assert g.edges == ((0, 1), (1, 2))


def test_features_read_only():
    g = path4()
    with pytest.raises(ValueError):
        g.features[0, 0] = 1.0


@pytest.mark.parametrize("edges", [
    [(0, 0)],                  # self-loop
    [(0, 1), (0, 1)],          # duplicate
    [(0, 1), (1, 0)],          # duplicate in the other orientation
    [(0, 4)],                  # endpoint out of range
    [(-1, 2)],
])
def test_bad_edges_rejected(edges):
    with pytest.raises(ParseError):
        make_graph(4, edges, np.zeros((4, 2)))


def test_bad_features_rejected():
    with pytest.raises(ParseError):
        make_graph(2, [(0, 1)], np.zeros((3, 2)))  # wrong row count
    with pytest.raises(ParseError):
        make_graph(2, [(0, 1)], [[1.0], [float("nan")]])
    with pytest.raises(ParseError):
        make_graph(2, [(0, 1)], np.zeros((2, 0)))  # d0 must be >= 1
    with pytest.raises(ParseError):
        make_graph(0, [], np.zeros((0, 1)))


def test_graph_from_json_round_trip():
    g = random_graph("er", 7, 3, seed=5, edge_prob=0.4)
    doc = g.to_json_dict()
    back = graph_from_json(json.loads(json.dumps(doc)))
    assert back.n == g.n and back.edges == g.edges
    np.testing.assert_array_equal(back.features, g.features)


@pytest.mark.parametrize("doc", [
    {},
    {"n": 2, "edges": []},                                   # features missing
    {"n": "two", "edges": [], "features": [[0], [0]]},
    {"n": 2, "edges": [[0]], "features": [[0], [0]]},        # malformed edge
    {"n": 2, "edges": [[0, 1, 2]], "features": [[0], [0]]},
    {"n": 2, "edges": [], "features": [[0], ["x"]]},
    {"n": 2, "edges": [], "features": "nope"},
    [1, 2, 3],
    {"n": 1, "edges": [], "features": [[10 ** 400]]},       # int beyond float range
    {"n": 2, "edges": [], "features": [[0], ["1.5"]]},      # numeric string
    {"n": 2, "edges": [], "features": [[0], [True]]},       # boolean
])
def test_graph_from_json_rejects_malformed(doc):
    with pytest.raises(ParseError):
        graph_from_json(doc)


def test_load_graph_wraps_io_and_syntax(tmp_path):
    p = tmp_path / "g.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        load_graph(p)
    with pytest.raises(ParseError):
        load_graph(tmp_path / "absent.json")


# -- neighborhoods -----------------------------------------------------------


def test_path4_one_hop():
    hoods = khop_neighborhoods(path4(), 1)
    assert [mask_to_set(h) for h in hoods.hoods] == [
        {0, 1}, {0, 1, 2}, {1, 2, 3}, {2, 3}]
    assert hoods.ell == 1


def test_path4_three_hop_reaches_everything():
    hoods = khop_neighborhoods(path4(), 3)
    assert hoods.hoods[0] == mask_of([0, 1, 2, 3])


def test_star_two_hop_is_everything():
    star = make_graph(5, [(0, i) for i in range(1, 5)], np.zeros((5, 1)))
    hoods = khop_neighborhoods(star, 2)
    assert all(h == mask_of(range(5)) for h in hoods.hoods)


def test_isolated_node_hood_is_itself():
    g = make_graph(3, [(0, 1)], np.zeros((3, 1)))
    hoods = khop_neighborhoods(g, 2)
    assert mask_to_set(hoods.hoods[2]) == {2}


def test_ell_must_be_positive():
    with pytest.raises(ValueError):
        khop_neighborhoods(path4(), 0)


@pytest.mark.parametrize("seed", range(12))
def test_hoods_match_shortest_path_oracle(seed):
    kind = ["path", "cycle", "tree", "er"][seed % 4]
    g = random_graph(kind, 3 + seed % 9 + 3, 2, seed, edge_prob=0.3)
    for ell in (1, 2, 3):
        hoods = khop_neighborhoods(g, ell)
        expected = khop_oracle(g.n, g.edges, ell)
        assert [mask_to_set(h) for h in hoods.hoods] == expected


@pytest.mark.parametrize("seed", range(6))
def test_hood_invariants(seed):
    g = random_graph("er", 9, 2, seed, edge_prob=0.25)
    prev = None
    for ell in (1, 2, 3):
        hoods = khop_neighborhoods(g, ell).hoods
        for i, h in enumerate(hoods):
            assert h & (1 << i)  # contains self
            for j in range(g.n):
                assert bool(h & (1 << j)) == bool(hoods[j] & (1 << i))  # symmetric
        if prev is not None:
            assert all(p & ~h == 0 for p, h in zip(prev, hoods))  # monotone in ell
        prev = hoods


def test_hoods_permutation_equivariant(rng):
    g = random_graph("er", 8, 2, 3, edge_prob=0.35)
    perm = [int(x) for x in rng.permutation(g.n)]
    relabeled = make_graph(
        g.n,
        [(perm[a], perm[b]) for a, b in g.edges],
        np.asarray(g.features)[np.argsort(perm)],
    )
    base = khop_neighborhoods(g, 2).hoods
    moved = khop_neighborhoods(relabeled, 2).hoods
    for i in range(g.n):
        expected = mask_of(perm[j] for j in mask_to_set(base[i]))
        assert moved[perm[i]] == expected


# Path, cycle, tree and ER graphs, one with isolated nodes, and a single node.
RING_GRAPHS = {
    "path": random_graph("path", 7, 2, 1),
    "cycle": random_graph("cycle", 8, 2, 2),
    "tree": random_graph("tree", 10, 2, 3),
    "er": random_graph("er", 9, 2, 4, edge_prob=0.25),
    "isolated": make_graph(7, [(i, i + 1) for i in range(4)], np.zeros((7, 2))),
    "single": make_graph(1, [], np.zeros((1, 2))),
}


@pytest.mark.parametrize("hops", [1, 2, 3])
@pytest.mark.parametrize("name", RING_GRAPHS)
def test_hop_rings_are_the_oracle_shells(name, hops):
    g = RING_GRAPHS[name]
    within = [khop_oracle(g.n, g.edges, k) for k in range(hops + 1)]
    for i in range(g.n):
        rings = hop_rings(g, i, hops)
        assert len(rings) == hops + 1
        for k, ring in enumerate(rings):
            inner = within[k - 1][i] if k else frozenset()
            assert mask_to_set(ring) == within[k][i] - inner


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("name", RING_GRAPHS)
def test_ball_layouts_order_the_oracle_ball_by_hops(name, layers):
    g = RING_GRAPHS[name]
    within = [khop_oracle(g.n, g.edges, k) for k in range(layers + 1)]
    layouts = ball_layouts(g, layers)
    assert len(layouts) == g.n
    for i, (nodes, keep) in enumerate(layouts):
        assert nodes[0] == i
        assert len(nodes) == len(set(nodes)) and set(nodes) == within[layers][i]
        hop = [min(k for k in range(layers + 1) if v in within[k][i]) for v in nodes]
        assert hop == sorted(hop)  # the oracle's hop distance never decreases
        assert nodes == sorted(nodes, key=lambda v: (hop[nodes.index(v)], v))
        assert keep == [len(within[layers - 1 - l][i]) for l in range(layers)]
        assert keep[-1] == 1


# -- stats -------------------------------------------------------------------


def test_stats_path4():
    assert graph_stats(path4(), 1) == (2, 3, 0.5)


def test_stats_complete_and_star():
    k4 = make_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)],
                    np.zeros((4, 1)))
    assert graph_stats(k4, 1) == (3, 4, 1.0)
    star = make_graph(5, [(0, i) for i in range(1, 5)], np.zeros((5, 1)))
    assert graph_stats(star, 1) == (4, 5, 0.4)


def test_stats_single_node():
    g = make_graph(1, [], np.zeros((1, 1)))
    d_max, n_max, density = graph_stats(g, 1)
    assert (d_max, n_max, density) == (0, 1, 0.0)


def test_degree():
    g = path4()
    assert [g.degree(i) for i in range(4)] == [1, 2, 2, 1]
