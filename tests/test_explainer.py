import json

import pytest

from graphsi.errors import NonlinearReadout, ParseError
from graphsi.explainer import GraphInteractionExplainer
from graphsi.game import GraphGame
from graphsi.generate import generate_instance
from graphsi.graph import load_graph
from graphsi.moebius import DEFAULT_CEILING, graphshapiq_exact
from graphsi.nn import load_model
from helpers import star_instance
from oracles import interaction_set_oracle, khop_oracle


@pytest.fixture(scope="module")
def path4(demo_dir):
    return load_graph(demo_dir / "path4_graph.json"), demo_dir / "path4_model.json"


def test_get_params_lists_every_hyperparameter(path4):
    _, weights = path4
    ex = GraphInteractionExplainer(weights, index="sv", order=1, ell=2, lam=1,
                                   baseline="mean", normalize=True, ceiling=512)
    params = ex.get_params()
    assert params == {
        "model": weights, "index": "sv", "order": 1, "ell": 2, "lam": 1,
        "baseline": "mean", "normalize": True, "ceiling": 512,
    }
    clone = GraphInteractionExplainer(**params)
    assert clone.get_params() == params


def test_set_params_returns_self_and_rejects_unknown(path4):
    _, weights = path4
    ex = GraphInteractionExplainer(weights)
    assert ex.set_params(index="mi", normalize=True) is ex
    assert ex.index == "mi" and ex.normalize is True
    with pytest.raises(ValueError, match="unknown parameter"):
        ex.set_params(gamma=0.1)


def test_constructor_defaults(path4):
    _, weights = path4
    ex = GraphInteractionExplainer(weights)
    p = ex.get_params()
    assert p["index"] == "ksii" and p["order"] is None and p["lam"] is None
    assert p["ceiling"] == DEFAULT_CEILING


@pytest.mark.parametrize("index,expected_k", [
    ("sv", 1), ("mi", 4), ("ksii", 2), ("sii", 2), ("stii", 2),
])
def test_default_order_per_index(path4, index, expected_k):
    graph, weights = path4
    ex = GraphInteractionExplainer(weights, index=index).fit(graph)
    assert ex.interactions_.k == expected_k
    assert ex.interactions_.kind == index


def test_order_one_graph_caps_default():
    g, model = generate_instance("path", 1, 2, 5, "gcn", 1, 3)
    ex = GraphInteractionExplainer(model).fit(g)
    assert ex.interactions_.k == 1  # min(2, n) on a single node


@pytest.mark.parametrize("kwargs,match", [
    ({"order": 9}, "exceeds"),
    ({"index": "sv", "order": 2}, "order-1"),
    ({"order": 0}, "integer"),
    ({"index": "banzhaf"}, "unknown index"),
    ({"lam": 9}, "lambda 9 exceeds"),
    ({"ell": 0}, "ell"),
])
def test_fit_rejects_bad_settings(path4, kwargs, match):
    graph, weights = path4
    with pytest.raises(ParseError, match=match):
        GraphInteractionExplainer(weights, **kwargs).fit(graph)


def test_fit_accepts_paths_dicts_and_objects(path4, demo_dir):
    graph, weights = path4
    model = load_model(weights)
    with open(demo_dir / "path4_graph.json", encoding="utf-8") as fh:
        graph_doc = json.load(fh)
    with open(weights, encoding="utf-8") as fh:
        model_doc = json.load(fh)

    runs = [
        GraphInteractionExplainer(weights, index="mi").fit(demo_dir / "path4_graph.json"),
        GraphInteractionExplainer(model_doc, index="mi").fit(graph_doc),
        GraphInteractionExplainer(model, index="mi").fit(graph),
    ]
    reference = runs[0].interactions_.values
    for run in runs[1:]:
        assert run.interactions_.values == reference


def test_fitted_attributes_exact(path4):
    graph, weights = path4
    ex = GraphInteractionExplainer(weights, index="mi").fit(graph)
    assert ex.interaction_set_size_ == 12
    assert ex.call_count_ == 12
    assert ex.hoods_.ell == 1  # defaults to the model's layer count
    assert abs(ex.efficiency_residual_) < 1e-8
    assert ex.moebius_ is ex.interactions_  # mi requested, k == n
    assert ex.graph_.n == 4


@pytest.mark.parametrize("normalize", [False, True])
def test_call_count_is_the_forwards_actually_run(demo_dir, monkeypatch, normalize):
    import graphsi.game

    forwards = []  # coalitions (rows) per forward_graph call
    real = graphsi.game.forward_graph

    def counting(model, g, x):
        forwards.append(len(x) if x.ndim == 3 else 1)
        return real(model, g, x)

    def no_ball(*args):
        raise AssertionError("er8 stays on the dense stack")

    monkeypatch.setattr(graphsi.game, "forward_graph", counting)
    monkeypatch.setattr(graphsi.game, "_forward_ball", no_ball)
    ex = GraphInteractionExplainer(demo_dir / "er8_model.json", index="ksii",
                                   normalize=normalize).fit(demo_dir / "er8_graph.json")
    construction, *stacks = forwards  # one unmasked pass freezes the target
    assert construction == 1
    assert sum(stacks) == ex.call_count_ == ex.interaction_set_size_
    assert len(stacks) < sum(stacks)  # coalitions were forwarded in stacks


def test_node_tables_count_coalitions_and_ball_rows(monkeypatch):
    import graphsi.game

    graph_rows, ball_rows = [], []
    real_graph, real_ball = graphsi.game.forward_graph, graphsi.game._forward_ball

    def counting_graph(model, g, x):
        graph_rows.append(len(x) if x.ndim == 3 else 1)
        return real_graph(model, g, x)

    def counting_ball(model, g, baseline, nodes, keep, local):
        ball_rows.append(len(local))
        return real_ball(model, g, baseline, nodes, keep, local)

    monkeypatch.setattr(graphsi.game, "forward_graph", counting_graph)
    monkeypatch.setattr(graphsi.game, "_forward_ball", counting_ball)
    for g, model in (generate_instance("tree", 48, 3, 7, "gin", 2, 4), star_instance()):
        graph_rows.clear()
        ball_rows.clear()
        ex = GraphInteractionExplainer(model, index="ksii").fit(g)
        balls = khop_oracle(g.n, g.edges, model.num_layers)
        assert ex.call_count_ == ex.interaction_set_size_ == len(interaction_set_oracle(balls))
        assert graph_rows == [1]  # the construction pass; every coalition came from the tables
        assert sum(ball_rows) == sum(2 ** len(ball) for ball in balls)


def test_node_tables_follow_the_model_depth_not_ell(monkeypatch):
    import graphsi.game

    # 2-hop balls on a path hold 5 nodes, the 1-hop fields explained here 3;
    # the 156 coalitions of I would stay on the dense stack at the fitted cost
    monkeypatch.setattr(graphsi.game, "_TABLE_COST", 0)
    g, model = generate_instance("path", 40, 3, 11, "gin", 2, 4)
    ex = GraphInteractionExplainer(model, index="mi", ell=1).fit(g)
    assert ex.game_._tables is not None
    dense = GraphGame(model, g)
    dense._tables_pay = lambda count: False  # keep this one on the dense stack
    mi, _ = graphshapiq_exact(dense, ex.hoods_, g.n, index="mi")
    assert mi.values.keys() == ex.moebius_.values.keys()
    tol = 1e-12 * max(1.0, abs(dense.nu_full))
    assert max(abs(v - ex.moebius_.values[t]) for t, v in mi.values.items()) <= tol


def test_fitted_attributes_truncated(path4):
    graph, weights = path4
    ex = GraphInteractionExplainer(weights, index="ksii", lam=1).fit(graph)
    assert ex.interaction_set_size_ is None
    assert ex.moebius_.lam == 1
    assert abs(ex.efficiency_residual_) < 1e-8
    assert ex.interactions_.kind == "ksii"


def test_ell_override_widens_neighborhoods(path4):
    graph, weights = path4
    near = GraphInteractionExplainer(weights, index="mi").fit(graph)
    far = GraphInteractionExplainer(weights, index="mi", ell=3).fit(graph)
    assert far.hoods_.ell == 3
    assert far.interaction_set_size_ == 16  # full power set on a 4-path
    assert near.interaction_set_size_ < far.interaction_set_size_


def test_normalize_shifts_empty_value(path4):
    graph, weights = path4
    ex = GraphInteractionExplainer(weights, normalize=True).fit(graph)
    assert ex.game_.nu_empty == 0.0
    doc = ex.to_export()
    assert doc["metadata"]["nu_empty"] == 0.0


def test_unfitted_access_raises(path4):
    _, weights = path4
    ex = GraphInteractionExplainer(weights)
    with pytest.raises(RuntimeError, match=r"call fit\(graph\) first"):
        ex.to_export()
    with pytest.raises(RuntimeError, match=r"call fit\(graph\) first"):
        ex.to_dot()


def test_export_matches_fit_results(path4):
    graph, weights = path4
    ex = GraphInteractionExplainer(weights, index="mi").fit(graph)
    doc = ex.to_export()
    assert doc["metadata"]["index"] == "mi"
    assert doc["metadata"]["k"] == 4
    assert doc["metadata"]["call_count"] == 12
    by_node = {n["id"]: n["value"] for n in doc["nodes"]}
    for i in range(4):
        assert by_node[i] == pytest.approx(ex.interactions_.get(1 << i), abs=1e-12)
    dot = ex.to_dot()
    assert dot.startswith("graph si {") and dot.endswith("}\n")


def test_nonlinear_readout_propagates(path4, demo_dir):
    graph, _ = path4
    ex = GraphInteractionExplainer(demo_dir / "path4_mlp2.json", index="mi")
    with pytest.raises(NonlinearReadout):
        ex.fit(graph)


def test_refit_replaces_results(path4):
    graph, weights = path4
    other, _ = generate_instance("path", 4, 3, 99, "gin", 1, 4)
    ex = GraphInteractionExplainer(weights, index="sv")
    first = ex.fit(graph).interactions_.values
    second = ex.fit(other).interactions_.values
    assert first != second
