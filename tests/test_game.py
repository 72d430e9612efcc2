import dataclasses
from itertools import combinations
from math import comb
import re
import sys
import threading

import numpy as np
import pytest

import graphsi.convert
import graphsi.game
import graphsi.moebius
import graphsi.nn
from graphsi.coalitions import full_mask, mask_of
from graphsi.errors import ParseError
from graphsi.explainer import GraphInteractionExplainer
from graphsi.game import GraphGame, NodeGame
from graphsi.generate import generate_instance, random_graph, random_model
from graphsi.graph import ball_layouts, khop_neighborhoods, load_graph, make_graph
from graphsi.moebius import build_interaction_set, graphshapiq_exact, truncated_bound
from graphsi.nn import (
    GcnLayer,
    GinLayer,
    GnnModel,
    LinearReadout,
    _conv_stack,
    _forward_ball,
    _table_hops,
    default_baseline,
    ensure_baseline,
    forward_graph,
    forward_node,
    load_model,
    masked_features,
)
from helpers import force_route, star_instance, table_moebius
from oracles import fast_moebius_oracle, moebius_oracle


def demo_game(**kwargs) -> GraphGame:
    g, model = generate_instance("er", 5, 3, 41, "gin", 1, 4, edge_prob=0.5)
    return GraphGame(model, g, **kwargs)


# -- value semantics ---------------------------------------------------------


def test_grand_coalition_is_unmasked_logit():
    g, model = generate_instance("er", 5, 3, 41, "gin", 1, 4, edge_prob=0.5)
    game = GraphGame(model, g)
    full_out = forward_graph(model, g, g.features)
    assert game.target == int(np.argmax(full_out))
    assert game.evaluate(full_mask(g.n)) == float(full_out[game.target])
    assert game.nu_full == float(full_out[game.target])


def test_constant_features_make_masking_invisible():
    # the default baseline is the feature mean, which here is every row
    g = make_graph(3, [(0, 1), (1, 2)], [[1.0, -2.0]] * 3)
    _, model = generate_instance("path", 3, 2, 8, "gcn", 2, 3)
    game = GraphGame(model, g)
    assert game.evaluate(0) == game.evaluate(full_mask(3))


def test_hand_masked_path_value():
    feats = np.array([[1.0, 2.0], [-1.0, 0.5], [0.0, 3.0], [2.0, -2.0]])
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)], feats)
    w = np.array([[0.5], [-1.0]])
    model = GnnModel(
        layers=(GcnLayer(weight=w, bias=np.array([0.25])),),
        pooling="sum",
        readout=LinearReadout(weight=np.array([[1.0]]), bias=np.array([0.0])),
    )
    b = np.array([10.0, -3.0])
    game = GraphGame(model, g, baseline=b)

    # independent arithmetic: rows 2 and 3 swapped for the baseline,
    # symmetric normalization built from scratch
    x = feats.copy()
    x[2] = b
    x[3] = b
    adj = np.zeros((4, 4))
    for i, j in g.edges:
        adj[i, j] = adj[j, i] = 1.0
    with_loops = adj + np.eye(4)
    d = np.diag(1.0 / np.sqrt(with_loops.sum(axis=1)))
    a_hat = d @ with_loops @ d
    expected = float((a_hat @ x @ w + 0.25).sum(axis=0)[0])

    assert game.evaluate(mask_of([0, 1])) == pytest.approx(expected, abs=1e-12)


def test_evaluate_rejects_out_of_range_coalition():
    game = demo_game()
    with pytest.raises(ValueError):
        game.evaluate(1 << game.n_players)
    with pytest.raises(ValueError):
        game.evaluate_batch([0, 1 << game.n_players])
    too_big = 1 << game.n_players
    for batch, first_bad in (([0, 3, -3, 1, too_big], -3), ([1, too_big, 2, -1], too_big)):
        with pytest.raises(ValueError, match=f"coalition {re.escape(bin(first_bad))} has"):
            game.evaluate_batch(batch)


# -- batching and caching ----------------------------------------------------


def test_batch_duplicates_cost_one_forward():
    game = demo_game()
    t = mask_of([0, 2])
    values = game.evaluate_batch([t, t, t])
    assert values[0] == values[1] == values[2]
    assert game.call_count() == 1


def test_batch_matches_per_coalition_evaluate():
    game_a = demo_game()
    game_b = demo_game()
    masks = list(range(1 << 5))
    batched = game_a.evaluate_batch(masks)
    assert batched == [game_b.evaluate(t) for t in masks]


def test_batch_empty_list():
    game = demo_game()
    assert game.evaluate_batch([]) == []
    assert game.call_count() == 0


def test_fresh_game_has_zero_calls():
    assert demo_game().call_count() == 0


def test_call_count_counts_distinct_coalitions():
    game = demo_game()
    for t in (0, 1, 0):
        game.evaluate(t)
    assert game.call_count() == 2


def test_concurrent_callers_forward_each_coalition_once(monkeypatch):
    forwards = []  # coalitions (rows) per forward_graph call
    real = graphsi.game.forward_graph

    def counting(model, g, x):
        forwards.append(len(x) if x.ndim == 3 else 1)
        return real(model, g, x)

    monkeypatch.setattr(graphsi.game, "forward_graph", counting)
    game = demo_game(normalize=True)
    forwards.clear()  # drop the construction pass
    masks = list(range(1 << 5))
    results = {}

    def caller(shift):
        results[shift] = game.evaluate_batch(masks[shift:] + masks[:shift])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(s,)) for s in range(0, 32, 4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sum(forwards) == game.call_count() == 32
    assert len(forwards) < sum(forwards)  # coalitions were forwarded in stacks
    want = demo_game(normalize=True).evaluate_batch(masks)
    assert results == {s: want[s:] + want[:s] for s in range(0, 32, 4)}


def _lone_matrix(g, baseline, t):
    """X^(T) built row by row, apart from the game's stacked mask."""
    return np.array([g.features[i] if t >> i & 1 else baseline for i in range(g.n)])


@pytest.mark.parametrize("readout", ["linear", "mlp2"])
@pytest.mark.parametrize("pooling", ["sum", "mean"])
@pytest.mark.parametrize("kind", ["gin", "gcn"])
def test_stacked_values_bit_identical_to_lone_forwards(kind, pooling, readout, monkeypatch):
    g, model = generate_instance("er", 16, 3, 17, kind, 2, 32, edge_prob=0.2,
                                 readout=readout)
    model = dataclasses.replace(model, pooling=pooling)
    rows = GraphGame(model, g)._rows
    rng = np.random.Generator(np.random.Philox(5))
    masks = [int(t) for t in rng.choice(1 << g.n, size=rows + 1, replace=False)]
    stacks = []
    real = graphsi.game.forward_graph

    def recording(model, g, x):
        stacks.append(len(x))
        return real(model, g, x)

    monkeypatch.setattr(graphsi.game, "forward_graph", recording)
    for size, chunks in ((rows - 1, [rows - 1]), (rows, [rows]), (rows + 1, [rows, 1])):
        game = GraphGame(model, g)
        stacks.clear()  # drop the construction pass
        values = game.evaluate_batch(masks[:size])
        assert stacks == chunks
        for t, value in zip(masks, values):
            x = _lone_matrix(g, game.baseline, t)
            assert value == float(real(model, g, x)[game.target])  # no tolerance
    node = NodeGame(model, g, 3)
    for t, value in zip(masks, node.evaluate_batch(masks)):
        want = forward_node(model, g, _lone_matrix(g, node.baseline, t), 3)
        assert (value == want).all()
        assert not value.flags.writeable


@pytest.mark.parametrize("kind", ["gin", "gcn"])
def test_single_node_stack_bit_identical(kind):
    g, model = generate_instance("path", 1, 2, 3, kind, 1, 4)
    game, node = GraphGame(model, g), NodeGame(model, g, 0)
    for t, value, embedding in zip([0, 1], game.evaluate_batch([0, 1]),
                                   node.evaluate_batch([0, 1])):
        x = _lone_matrix(g, game.baseline, t)
        assert value == float(forward_graph(model, g, x)[game.target])
        assert (embedding == forward_node(model, g, x, 0)).all()


# -- node tables -------------------------------------------------------------


def _biased_model(kinds, pooling: str, seed: int, d0: int = 3, hidden: int = 4) -> GnnModel:
    """Conv layers of the given kinds in order, with random weights, biases
    and GIN epsilons, and a linear readout with a random bias."""
    rng = np.random.Generator(np.random.Philox(seed))
    layers, width = [], d0
    for kind in kinds:
        if kind == "gcn":
            layers.append(GcnLayer(weight=rng.normal(size=(width, hidden)),
                                   bias=rng.normal(size=hidden)))
        else:
            layers.append(GinLayer(
                epsilon=float(rng.uniform(-0.5, 0.5)),
                w1=rng.normal(size=(width, hidden)), b1=rng.normal(size=hidden),
                w2=rng.normal(size=(hidden, hidden)), b2=rng.normal(size=hidden)))
        width = hidden
    readout = LinearReadout(weight=rng.normal(size=(width, 2)), bias=rng.normal(size=2))
    return GnnModel(layers=tuple(layers), pooling=pooling, readout=readout)


def _table_graph(shape: str, seed: int):
    rng = np.random.Generator(np.random.Philox(seed))
    if shape == "isolated":  # a path 0-1-2-3-4 and node 5 alone
        return make_graph(6, [(i, i + 1) for i in range(4)], rng.normal(size=(6, 3)))
    if shape == "single":
        return make_graph(1, [], rng.normal(size=(1, 3)))
    return random_graph(shape, 7, 3, seed, edge_prob=0.4)


TABLE_CASES = [
    (1, ("gin",), "sum", "er"),
    (2, ("gcn",), "mean", "path"),
    (3, ("gcn", "gcn"), "mean", "tree"),
    (4, ("gin", "gcn", "gin"), "sum", "path"),
    (5, ("gcn", "gin"), "mean", "isolated"),
    (6, ("gcn", "gin", "gcn"), "mean", "er"),
    (7, ("gin", "gin"), "sum", "single"),
]


@pytest.mark.parametrize("seed,kinds,pooling,shape", TABLE_CASES)
def test_node_tables_match_the_dense_game(seed, kinds, pooling, shape):
    g, model = _table_graph(shape, seed), _biased_model(kinds, pooling, seed)
    dense = GraphGame(model, g)
    oracle = fast_moebius_oracle(dense.evaluate_batch(range(1 << g.n)))
    tol = 1e-12 * max(1.0, abs(dense.nu_full))
    mi = table_moebius(GraphGame(model, g))
    assert list(mi) == list(build_interaction_set(khop_neighborhoods(g, model.num_layers)).members)
    assert max(abs(mi.get(t, 0.0) - m) for t, m in enumerate(oracle)) <= tol


@pytest.mark.parametrize("normalize", [False, True])
def test_node_tables_write_nothing_into_the_game(normalize):
    for g, model in (star_instance(), generate_instance("tree", 64, 3, 9, "gin", 2, 16)):
        game = GraphGame(model, g, normalize=normalize)
        first = table_moebius(game)
        assert game.call_count() == 0 and game._memo == {}
        second = table_moebius(game)
        assert [(t, v.hex()) for t, v in first.items()] == \
            [(t, v.hex()) for t, v in second.items()]  # bit for bit, in the same order
        assert (first[0] == 0.0) == normalize


# node tables (the star's 1-layer GIN) and row tables (2-layer GCNs, as in
# ROUTES); er48's 2-hop fields of up to 34 nodes admit only a truncated run
@pytest.mark.parametrize("case,cap", [("star14", None), ("star14", 2), ("tree64-gcn", None),
                                      ("tree64-gcn", 2), ("er48-gcn", 2)])
def test_moebius_arrays_place_each_table_entry_among_the_keys(case, cap):
    if case == "star14":
        g, model = star_instance()
    else:
        kind, n = {"tree64-gcn": ("tree", 64), "er48-gcn": ("er", 48)}[case]
        g, model = generate_instance(kind, n, 3, 9, "gcn", 2, 16, edge_prob=0.1)
    keys, _, tables = GraphGame(model, g).moebius_arrays(cap)
    shapes = {}  # (size, keep) -> its balls, as ball_layouts lists them
    for nodes, keep in ball_layouts(g, _table_hops(model)):
        shapes.setdefault((len(nodes), tuple(keep)), []).append(nodes)
    assert len(tables) == len(shapes) > 0
    for ((h, _), group), (stack, place, sizes, drop) in zip(sorted(shapes.items()), tables):
        codes = sorted(sum(1 << j for j in bits) for size in range(min(h, cap or h) + 1)
                       for bits in combinations(range(h), size))
        masks = [[mask_of(v for j, v in enumerate(nodes) if code >> j & 1) for code in codes]
                 for nodes in group]
        assert place.dtype == np.intp and place.shape == stack.shape == (len(group), len(codes))
        assert keys[place].tolist() == masks
        assert sizes.tolist() == [code.bit_count() for code in codes]
        assert (drop is None) == (cap is None or h <= cap)


def _ball_forwards_match_the_stack(g, model, cap=None):
    """Each ball shape's projected ball forward against the untrimmed dense
    stack on the ball, at the center: times the readout column, or, when
    _table_hops drops a GCN last layer, the row game c_r ReLU(h_r) . W_L w
    over the layers before it, with c_r center r's column sum of A_hat; with
    cap, on the local codes of at most cap bits only."""
    baseline = default_baseline(g)
    adj, a_hat = g.matrices
    game = GraphGame(model, g)
    w = model.readout.weight[:, game.target]
    tol = 1e-12 * max(1.0, abs(game.nu_full))
    rows = _table_hops(model) < model.num_layers
    below = dataclasses.replace(model, layers=model.layers[:-1]) if rows else model
    shapes = {}
    for nodes, keep in ball_layouts(g, _table_hops(model)):
        shapes.setdefault((len(nodes), tuple(keep)), []).append(nodes)
    for (h, keep), group in shapes.items():  # each shape's balls in one forward
        local = sorted(sum(1 << j for j in bits) for size in range(min(h, cap or h) + 1)
                       for bits in combinations(range(h), size))
        got = _forward_ball(model, g, baseline, np.array(group).reshape(len(group), h),
                            list(keep), local, w)
        assert got.shape == (len(group), len(local))
        for nodes, row in zip(group, got):
            x = np.array([[g.features[v] if t >> j & 1 else baseline
                           for j, v in enumerate(nodes)] for t in local])
            restricted = np.ix_(nodes, nodes)
            center = _conv_stack(below, adj[restricted], a_hat[restricted], x)[:, 0]
            if rows:
                want = a_hat[:, nodes[0]].sum() * (np.maximum(center, 0.0)
                                                   @ (model.layers[-1].weight @ w))
            else:
                want = center @ w
            assert row.shape == want.shape
            assert np.abs(row - want).max() <= tol


@pytest.mark.parametrize("seed,kinds,pooling,shape", TABLE_CASES)
def test_trimmed_ball_forward_matches_the_untrimmed_stack(seed, kinds, pooling, shape):
    _ball_forwards_match_the_stack(_table_graph(shape, seed), _biased_model(kinds, pooling, seed))


def test_capped_ball_forward_of_64_nodes_matches_the_untrimmed_stack():
    # the hub's ball holds all 64 nodes, so every bit of a uint64 code is a node
    g, _ = star_instance(64)
    _ball_forwards_match_the_stack(g, random_model("gcn", 3, 1, 16, 3), cap=2)


# (case, moebius._route, the conversion that ran). Runs whose fields all
# have at most DIRECT_MAX members take the per-set sums; larger fields at
# another ell than the model's depth (er8-ell2) the family butterfly; the
# rest the tables: row tables under a GCN last layer after another (er48,
# tree64-gcn), else node tables, which a truncated run (star14-lam3) converts
# with convert_mi. Only table routes lay out or forward a ball.
ROUTES = [("path4", "sums", "convert_mi"), ("er8", "nodes", "convert_tables"),
          ("tree20", "sums", "convert_mi"), ("path40", "sums", "convert_mi"),
          ("er48", "rows", "convert_tables"), ("path40-ell1", "sums", "convert_mi"),
          ("star14", "nodes", "convert_tables"), ("tree64", "nodes", "convert_tables"),
          ("er8-ell2", "butterfly", "convert_mi"), ("star14-lam3", "nodes", "convert_mi"),
          ("tree64-gcn", "rows", "convert_tables")]


def _route_run(name: str, demo_dir) -> GraphInteractionExplainer:
    if name in ("path4", "er8", "er8-ell2"):  # the demo graphs; path4's MI output is pinned
        demo = name.split("-")[0]
        g = load_graph(demo_dir / f"{demo}_graph.json")
        model = load_model(demo_dir / f"{demo}_model.json")
    elif name.startswith("star14"):
        g, model = star_instance()
    else:  # a molecule-sized tree and paths; ER and a degree-3 tree, 2 layers
        kind, n, layers, model_kind = {"tree20": ("tree", 20, 1, "gin"),
                                       "path40": ("path", 40, 1, "gin"),
                                       "path40-ell1": ("path", 40, 2, "gin"),
                                       "er48": ("er", 48, 2, "gcn"),
                                       "tree64": ("tree", 64, 2, "gin"),
                                       "tree64-gcn": ("tree", 64, 2, "gcn")}[name]
        g, model = generate_instance(kind, n, 3, 9, model_kind, layers, 16, edge_prob=0.1)
    if name == "er48":  # 2-hop balls of up to 34 nodes: a truncated run
        assert max(h.bit_count() for h in khop_neighborhoods(g, 2).hoods) == 34
        return GraphInteractionExplainer(model, lam=2).fit(g)
    if name == "star14-lam3":  # the hub's field of 14 nodes is oversized
        return GraphInteractionExplainer(model, lam=3).fit(g)
    if name == "path40-ell1":  # 1-hop fields of 3 nodes, 2-hop balls of 5
        return GraphInteractionExplainer(model, ell=1).fit(g)
    if name == "er8-ell2":  # the demo model has one layer
        return GraphInteractionExplainer(model, ell=2).fit(g)
    return GraphInteractionExplainer(model).fit(g)


@pytest.mark.parametrize("name,route,conversion", ROUTES)
def test_each_case_takes_its_route(demo_dir, monkeypatch, name, route, conversion):
    routes, conversions = [], []
    laid_out, ball_forwards = [], []  # a ball layout is computed only to build node tables
    real_layouts, real_ball = graphsi.game.ball_layouts, graphsi.game._forward_ball

    def recording(into, value, fn):
        def wrapper(*args):
            out = fn(*args)
            into.append(out if value is None else value)
            return out
        return wrapper

    monkeypatch.setattr(graphsi.moebius, "_route", recording(routes, None, graphsi.moebius._route))
    for converter in ("convert_mi", "convert_tables"):
        monkeypatch.setattr(graphsi.convert, converter,
                            recording(conversions, converter, getattr(graphsi.convert, converter)))
    monkeypatch.setattr(graphsi.game, "ball_layouts", recording(laid_out, True, real_layouts))
    monkeypatch.setattr(graphsi.game, "_forward_ball", recording(ball_forwards, True, real_ball))
    _route_run(name, demo_dir)
    assert routes == [route]
    assert conversions == [conversion]
    assert bool(ball_forwards) == bool(laid_out) == (route in ("nodes", "rows"))


def test_ball_forwards_build_no_masked_stack(monkeypatch):
    def refuse(*args):
        raise AssertionError("a ball forward built a masked feature stack")

    rows = []  # table rows per ball forward
    real = graphsi.game._forward_ball

    def counting(model, g, baseline, nodes, keep, local, *args):
        rows.append(len(nodes) * len(local))
        return real(model, g, baseline, nodes, keep, local, *args)

    monkeypatch.setattr(graphsi.nn, "masked_features", refuse)
    monkeypatch.setattr(graphsi.game, "masked_features", refuse)
    monkeypatch.setattr(graphsi.game, "_forward_ball", counting)
    for g, model in (star_instance(), generate_instance("tree", 64, 3, 9, "gin", 2, 16)):
        rows.clear()
        table_moebius(GraphGame(model, g))
        assert sum(rows) == sum(
            2 ** h.bit_count() for h in khop_neighborhoods(g, model.num_layers).hoods)


@pytest.mark.parametrize("kind", ["gin", "gcn"])
@pytest.mark.parametrize("lam", [2, 3])
def test_a_truncated_run_forwards_each_ball_on_its_capped_codes(monkeypatch, lam, kind):
    rows = []  # table rows per ball forward
    real = graphsi.game._forward_ball

    def counting(model, g, baseline, nodes, keep, local, *args):
        rows.append(len(nodes) * len(local))
        return real(model, g, baseline, nodes, keep, local, *args)

    monkeypatch.setattr(graphsi.game, "_forward_ball", counting)
    g, model = generate_instance("er", 48, 3, 9, kind, 2, 16, edge_prob=0.1)  # as in ROUTES
    ex = GraphInteractionExplainer(model, lam=lam).fit(g)
    hoods = ex.hoods_
    sizes = [h.bit_count() for h in hoods.hoods]
    assert max(sizes) > lam
    oversized = {h for h in hoods.hoods if h.bit_count() > lam}
    # sum_i C(|N_i|, <= lam): the truncated bound less one row per oversized field
    fields = sum(comb(h, j) for h in sizes for j in range(min(h, lam) + 1))
    assert fields == truncated_bound(hoods, lam) - len(oversized)
    if kind == "gin":
        assert sum(rows) == fields
    else:  # a GCN last layer: row tables over the 1-hop balls, sum_r C(|N_1(r)|, <= lam)
        narrow = [h.bit_count() for h in khop_neighborhoods(g, 1).hoods]
        assert sum(rows) == sum(comb(h, j) for h in narrow for j in range(min(h, lam) + 1))
        assert sum(rows) * 10 < fields  # lam 2: 1,139 rows against 13,663
    # the game forwards the oversized fields, and nu(empty) for the efficiency check
    assert set(ex.game_._memo) == oversized | {0}


@pytest.mark.parametrize("kind", ["gin", "gcn"])
@pytest.mark.parametrize("lam", [1, 2])
def test_a_truncated_run_on_a_64_node_ball_matches_the_dense_route(monkeypatch, kind, lam):
    # the star's hub holds all 64 nodes in its ball: local bit 63 is a node
    g, _ = star_instance(64)
    model = random_model(kind, 3, 1, 16, 3)
    widths, real = [], graphsi.game._forward_ball

    def recording(model, g, baseline, nodes, keep, local, *args):
        widths.append(nodes.shape[1])
        return real(model, g, baseline, nodes, keep, local, *args)

    monkeypatch.setattr(graphsi.game, "_forward_ball", recording)
    tabled = GraphInteractionExplainer(model, lam=lam).fit(g)
    assert 64 in widths  # the capped-table route
    with monkeypatch.context() as patch:
        force_route(patch, tables=False)
        dense = GraphInteractionExplainer(model, lam=lam).fit(g)
    assert tabled.call_count_ == dense.call_count_
    tol = 1e-12 * max(1.0, abs(dense.game_.nu_full))
    for got, want in ((tabled.moebius_, dense.moebius_),
                      (tabled.interactions_, dense.interactions_)):
        (got_keys, got_values), (want_keys, want_values) = got.arrays, want.arrays
        assert got_keys.tolist() == want_keys.tolist()
        assert np.abs(got_values - want_values).max() <= tol


def test_a_capped_table_is_its_balls_moebius_transform():
    g, model = _table_graph("tree", 3), _biased_model(("gcn", "gin"), "sum", 3)
    game = GraphGame(model, g)
    weight = model.readout.weight[:, game.target]
    layouts = {nodes[0]: nodes for nodes, _ in ball_layouts(g, model.num_layers)}
    cap = 2
    checked = 0
    keys, _, tables = game.moebius_arrays(cap)
    for stack, place, sizes, _ in tables:
        for values, masks in zip(stack, keys[place]):
            nodes = layouts[int(masks[1]).bit_length() - 1]  # local code 1 keeps the center
            codes = [c for c in range(1 << len(nodes)) if c.bit_count() <= cap]
            assert len(values) == len(masks) == len(sizes) == len(codes)
            node_game = NodeGame(model, g, nodes[0])

            def nu(members):
                return float(node_game.evaluate(mask_of(members)) @ weight)

            for code, value, mask, size in zip(codes, values, masks, sizes):
                members = frozenset(v for j, v in enumerate(nodes) if code >> j & 1)
                assert (int(mask), int(size)) == (mask_of(members), len(members))
                want = moebius_oracle(nu, members)
                assert abs(value - want) <= 1e-12 * max(1.0, abs(want))
            checked += len(nodes) > cap
    assert checked  # some ball holds more than cap nodes


def test_balls_of_one_shape_share_one_forward(monkeypatch):
    calls = []  # (balls, keep, local indices) per ball forward
    real = graphsi.game._forward_ball

    def recording(model, g, baseline, nodes, keep, local, *args):
        calls.append((np.atleast_2d(nodes).tolist(), list(keep), list(local)))
        return real(model, g, baseline, nodes, keep, local, *args)

    monkeypatch.setattr(graphsi.game, "_forward_ball", recording)
    for g, model in (generate_instance("tree", 64, 3, 9, "gin", 2, 16), star_instance()):
        calls.clear()
        table_moebius(GraphGame(model, g))
        layouts = {nodes[0]: (nodes, keep) for nodes, keep in ball_layouts(g, model.num_layers)}
        shapes = {}  # (size, keep) -> the centers of its balls
        for center, (nodes, keep) in layouts.items():
            shapes.setdefault((len(nodes), tuple(keep)), set()).add(center)
        assert len(calls) == len(shapes)  # tree64 11, star14 2
        for balls, keep, local in calls:  # one forward per shape, on all its balls and codes
            h = len(balls[0])
            assert {nodes[0] for nodes in balls} == shapes.pop((h, tuple(keep)))
            assert all(layouts[nodes[0]] == (nodes, keep) for nodes in balls)
            assert local == list(range(1 << h))
        assert not shapes


@pytest.mark.parametrize("kind", ["gin", "gcn"])
def test_middle_layers_compute_only_the_rows_the_next_layer_reads(monkeypatch, kind):
    # a 3-layer ball forward runs every layer after layer 0 through _conv_stack
    # on keep[1:]. Under GIN each layer's MLP reads the rows that layer keeps:
    # keep[0], keep[1] (within one hop of the center), then the center alone.
    # A GCN last layer is a row game's product, so _conv_stack runs the one
    # middle layer on keep[1] rows.
    g = make_graph(12, [(i, i + 1) for i in range(11)],
                   np.random.Generator(np.random.Philox(5)).normal(size=(12, 3)))
    model = random_model(kind, 3, 3, 16, 5)
    w = model.readout.weight[:, GraphGame(model, g).target]
    calls = []  # GIN: rows per _gin_mlp call; GCN: (layers, keep, output rows) per _conv_stack
    if kind == "gin":
        real_mlp = graphsi.nn._gin_mlp

        def recording(layer, agg, flat):
            calls.append(agg.shape[-2])
            return real_mlp(layer, agg, flat)

        monkeypatch.setattr(graphsi.nn, "_gin_mlp", recording)
    else:
        real_stack = graphsi.nn._conv_stack

        def recording(model, adj, a_hat, x, keep=None):
            h = real_stack(model, adj, a_hat, x, keep)
            calls.append((len(model.layers), keep, h.shape[-2]))
            return h

        monkeypatch.setattr(graphsi.nn, "_conv_stack", recording)
    shapes = {}
    for nodes, keep in ball_layouts(g, model.num_layers):
        shapes.setdefault((len(nodes), tuple(keep)), []).append(nodes)
    assert any(keep[0] > keep[1] for _, keep in shapes)  # so keep[:-1] would be caught
    for (h, keep), group in shapes.items():
        calls.clear()
        _forward_ball(model, g, default_baseline(g), np.array(group), list(keep),
                      list(range(1 << h)), w)
        if kind == "gin":  # every chunk: keep[0], keep[1], 1
            assert keep[-1] == 1 and calls and calls == list(keep) * (len(calls) // 3)
        else:
            assert calls and all(call == (1, list(keep[1:]), keep[1]) for call in calls)


@pytest.mark.parametrize("pooling", ["sum", "mean"])
@pytest.mark.parametrize("kind", ["gin", "gcn"])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_node_tables_do_not_depend_on_the_chunk_size(monkeypatch, layers, kind, pooling):
    g = random_graph("er", 8, 3, layers, edge_prob=0.35)
    model = _biased_model((kind,) * layers, pooling, layers)
    game = GraphGame(model, g)
    tol = 1e-12 * max(1.0, abs(game.nu_full))
    for cap in (None, 2):
        keys, _, default = game.moebius_arrays(cap)
        with monkeypatch.context() as patch:
            patch.setattr(graphsi.nn, "_CHUNK_BYTES", 1)  # one code per chunk
            chunked_keys, _, chunked = game.moebius_arrays(cap)
        assert chunked_keys.tolist() == keys.tolist() and len(chunked) == len(default)
        for (stack, place, sizes, _), (want, want_place, want_sizes, _) in zip(chunked, default):
            assert place.tolist() == want_place.tolist() and sizes.tolist() == want_sizes.tolist()
            assert stack.shape == want.shape and np.abs(stack - want).max() <= tol


def test_repeated_evaluations_bitwise_identical(rng):
    game = demo_game()
    draws = [int(rng.integers(0, 1 << 5)) for _ in range(1000)]
    first = {}
    for t in draws:
        v = game.evaluate(t)
        assert first.setdefault(t, v) == v  # exact, not approx


# -- normalization -----------------------------------------------------------


def test_normalized_game_reports_zero_empty_value():
    game = demo_game(normalize=True)
    assert game.evaluate(0) == 0.0
    assert game.nu_empty == 0.0


def test_normalization_shifts_values_but_not_attributions():
    g, model = generate_instance("er", 5, 3, 41, "gin", 1, 4, edge_prob=0.5)
    hoods = khop_neighborhoods(g, 1)

    plain = GraphGame(model, g)
    shifted = GraphGame(model, g, normalize=True)
    mi_plain, sv_plain = graphshapiq_exact(plain, hoods, k=1)
    mi_shift, sv_shift = graphshapiq_exact(shifted, hoods, k=1)

    for t in sv_plain.values:
        assert sv_plain.values[t] == pytest.approx(sv_shift.values[t], abs=1e-10)
    nonempty = {t for t in mi_plain.values if t} | {t for t in mi_shift.values if t}
    for t in nonempty:
        assert mi_plain.get(t) == pytest.approx(mi_shift.get(t), abs=1e-10)


# -- construction validation -------------------------------------------------


def test_target_tie_breaks_to_lowest_index():
    g = make_graph(2, [(0, 1)], [[1.0], [2.0]])
    model = GnnModel(
        layers=(GcnLayer(weight=np.zeros((1, 2)), bias=np.zeros(2)),),
        pooling="sum",
        readout=LinearReadout(weight=np.zeros((2, 3)), bias=np.full(3, 0.7)),
    )
    assert GraphGame(model, g).target == 0


def test_bad_baseline_rejected():
    g, model = generate_instance("er", 5, 3, 41, "gin", 1, 4, edge_prob=0.5)
    with pytest.raises(ParseError):
        GraphGame(model, g, baseline=[1.0, 2.0])  # d0 is 3
    with pytest.raises(ParseError):
        GraphGame(model, g, baseline=[1.0, float("nan"), 0.0])


def test_caller_baseline_stays_writable():
    g, model = generate_instance("er", 5, 3, 41, "gin", 1, 4, edge_prob=0.5)
    arr = np.array([1.0, 2.0, 3.0])
    GraphGame(model, g, baseline=arr)
    assert arr.flags.writeable
    ensure_baseline(arr, g)
    assert arr.flags.writeable


def test_too_many_nodes_rejected():
    g = random_graph("path", 65, 1, seed=0)
    _, model = generate_instance("path", 4, 1, 0, "gcn", 1, 2)
    with pytest.raises(ParseError):
        GraphGame(model, g)
    with pytest.raises(ParseError):
        NodeGame(model, g, 0)


# -- node games --------------------------------------------------------------


def test_node_game_evaluates_embeddings():
    g, model = generate_instance("er", 5, 3, 41, "gin", 1, 4, edge_prob=0.5)
    node = NodeGame(model, g, 2)
    t = mask_of([0, 2, 4])
    want = forward_node(model, g, masked_features(g, node.baseline, [t])[0], 2)
    np.testing.assert_array_equal(node.evaluate(t), want)
    assert node.evaluate(t).shape == (model.layers[-1].d_out,)
    node.evaluate(t)
    assert node.call_count() == 1


def test_node_game_rejects_bad_baseline():
    g, model = generate_instance("er", 5, 3, 41, "gin", 1, 4, edge_prob=0.5)
    with pytest.raises(ParseError):
        NodeGame(model, g, 0, baseline=[1.0, 2.0])  # d0 is 3
    with pytest.raises(ParseError):
        NodeGame(model, g, 0, baseline=[1.0, float("nan"), 0.0])


def test_node_game_rejects_bad_index():
    g, model = generate_instance("er", 5, 3, 41, "gin", 1, 4, edge_prob=0.5)
    with pytest.raises(IndexError):
        NodeGame(model, g, 5)
