import functools
import json
import re

import pytest

from graphsi.errors import BudgetExceeded, NonlinearReadout, ParseError
from graphsi.explainer import GraphInteractionExplainer
from graphsi.game import GraphGame
from graphsi.generate import generate_instance
from graphsi.graph import khop_neighborhoods, load_graph
from graphsi.moebius import DEFAULT_CEILING, truncated_bound
from graphsi.nn import load_model
from helpers import star_instance, table_moebius
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
    ({"order": 9}, "order k must be in 1..4, got 9"),
    ({"index": "sv", "order": 2}, "order-1"),
    ({"order": 0}, "order k must be in 1..4, got 0"),
    ({"index": "banzhaf"}, "unknown index"),
    ({"lam": 9}, "lambda must be in 1..4, got 9"),
    ({"ell": 0}, "ell"),
    ({"ceiling": "big"}, "ceiling must be an integer >= 1, got 'big'"),
    ({"ceiling": 2.5}, "ceiling must be an integer >= 1, got 2.5"),
    ({"ceiling": True}, "ceiling must be an integer >= 1, got True"),
    ({"ceiling": 0}, "ceiling must be an integer >= 1, got 0"),
    ({"lam": 1, "ceiling": 0}, "ceiling must be an integer >= 1, got 0"),
])
def test_fit_rejects_bad_settings(path4, kwargs, match):
    graph, weights = path4
    with pytest.raises(ParseError, match=re.escape(match)):
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
        raise AssertionError("er8 at ell=2 stays on the dense stack")

    monkeypatch.setattr(graphsi.game, "forward_graph", counting)
    monkeypatch.setattr(graphsi.game, "_forward_ball", no_ball)
    ex = GraphInteractionExplainer(demo_dir / "er8_model.json", index="ksii", ell=2,
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

    def counting_ball(model, g, baseline, nodes, keep, local, *args):
        ball_rows.append(len(nodes) * len(local))
        return real_ball(model, g, baseline, nodes, keep, local, *args)

    monkeypatch.setattr(graphsi.game, "forward_graph", counting_graph)
    monkeypatch.setattr(graphsi.game, "_forward_ball", counting_ball)
    for g, model in (generate_instance("tree", 48, 3, 7, "gin", 2, 4), star_instance()):
        graph_rows.clear()
        ball_rows.clear()
        ex = GraphInteractionExplainer(model, index="ksii").fit(g)
        balls = khop_oracle(g.n, g.edges, model.num_layers)
        assert ex.call_count_ == ex.interaction_set_size_ == len(interaction_set_oracle(balls))
        # the construction pass, then nu(empty) for the efficiency check;
        # every member of I came from the tables
        assert graph_rows == [1, 1]
        assert sum(ball_rows) == sum(2 ** len(ball) for ball in balls)


def _table_cases():
    """A 48-node degree-3 tree under a 2-layer GIN and the 14-node star:
    exact runs whose fields exceed DIRECT_MAX, so they take node tables."""
    return (generate_instance("tree", 48, 3, 7, "gin", 2, 4), star_instance())


@pytest.mark.parametrize("normalize", [False, True])
def test_table_runs_build_the_moebius_map_on_first_read(normalize):
    for g, model in _table_cases():
        ex = GraphInteractionExplainer(model, index="ksii", normalize=normalize).fit(g)
        balls = khop_oracle(g.n, g.edges, model.num_layers)
        assert ex.interaction_set_size_ == ex.call_count_ == len(interaction_set_oracle(balls))
        fresh = table_moebius(ex.game_)
        assert [(t, v.hex()) for t, v in ex.moebius_.values.items()] == \
            [(t, v.hex()) for t, v in fresh.items()]  # bit for bit, in the same order
        assert ex.moebius_.values is ex.moebius_.values  # built once


def _maps_built_by_a_ksii_then_an_mi_run(tmp_path, monkeypatch, route):
    """Kinds of the maps whose values dict each star14 CLI run (ksii, then mi)
    built from arrays, read through a wrapper on InteractionValues.values."""
    import graphsi.cli
    from graphsi.interactions import InteractionValues

    built = []
    real_values = InteractionValues.values

    def values(self):
        built.append(self.kind)
        return real_values.func(self)

    lazy = functools.cached_property(values)
    lazy.__set_name__(InteractionValues, "values")
    monkeypatch.setattr(InteractionValues, "values", lazy)
    g, model = star_instance()
    paths = [tmp_path / "star14_graph.json", tmp_path / "star14_model.json"]
    paths[0].write_text(json.dumps(g.to_json_dict()))
    paths[1].write_text(json.dumps(model.to_json_dict()))
    argv = ["explain", *map(str, paths), *route, "--out", str(tmp_path / "out.json")]
    runs = []
    for index in ("ksii", "mi"):
        assert graphsi.cli.main(argv + ["--index", index]) == 0
        runs.append(built.copy())
        built.clear()
    return runs


def test_a_ksii_cli_run_on_node_tables_builds_no_moebius_map(tmp_path, monkeypatch):
    # the mi run exports its map, so the wrapper sees a read
    assert _maps_built_by_a_ksii_then_an_mi_run(tmp_path, monkeypatch, []) == [[], ["mi"]]


def test_a_truncated_ksii_cli_run_builds_no_moebius_map(tmp_path, monkeypatch):
    route = ["--lambda", "3"]  # the hub's 14-node field is oversized
    assert _maps_built_by_a_ksii_then_an_mi_run(tmp_path, monkeypatch, route) == [[], ["mi"]]


def test_table_runs_stop_before_any_ball_forward_past_the_ceiling(monkeypatch):
    import graphsi.game

    def refuse(*args):
        raise AssertionError("a node table was built past the ceiling")

    for g, model in _table_cases():
        balls = khop_oracle(g.n, g.edges, model.num_layers)
        bound = sum(2 ** len(ball) for ball in balls)
        size = len(interaction_set_oracle(balls))
        assert size < bound  # the ceiling bounds |I|, not the ball rows
        with monkeypatch.context() as patch:
            patch.setattr(graphsi.game, "_forward_ball", refuse)
            with pytest.raises(BudgetExceeded) as err:
                GraphInteractionExplainer(model, ceiling=size - 1).fit(g)
        assert err.value.bound_sum == bound and err.value.ceiling == size - 1
        assert err.value.bound_dmax is not None  # the graph game's degree bound joins the chain
        assert GraphInteractionExplainer(model, ceiling=size).fit(g).call_count_ == size


def test_table_runs_count_later_evaluations_outside_i(monkeypatch):
    import graphsi.game

    rows = []  # coalitions (rows) per forward_graph call
    real = graphsi.game.forward_graph

    def counting(model, g, x):
        rows.append(len(x) if x.ndim == 3 else 1)
        return real(model, g, x)

    monkeypatch.setattr(graphsi.game, "forward_graph", counting)
    g, model = _table_cases()[0]
    ex = GraphInteractionExplainer(model, index="mi").fit(g)
    game, size = ex.game_, ex.interaction_set_size_
    assert game._memo.keys() == {0}  # nu(empty) for the efficiency check; I came from the tables
    inside = max(ex.moebius_.values)
    outside = next(1 << i | 1 << j for i in range(g.n) for j in range(i)
                   if (1 << i | 1 << j) not in ex.moebius_.values)
    game.evaluate_batch([inside, outside, inside])
    construction, *forwarded = rows
    assert sum(forwarded) == game.call_count() == 3  # nu(empty), inside and outside
    assert ex.call_count_ == size == len(ex.moebius_.values)


def test_fitted_attributes_truncated(path4):
    graph, weights = path4
    ex = GraphInteractionExplainer(weights, index="ksii", lam=1).fit(graph)
    assert ex.interaction_set_size_ is None
    assert ex.moebius_.lam == 1
    assert abs(ex.efficiency_residual_) < 1e-8
    assert ex.interactions_.kind == "ksii"


def test_truncated_run_past_the_ceiling_suggests_a_lambda_that_fits(demo_dir):
    weights = demo_dir / "er8_model.json"
    graph = load_graph(demo_dir / "er8_graph.json")
    with pytest.raises(BudgetExceeded) as err:
        GraphInteractionExplainer(weights, lam=2, ceiling=5).fit(graph)
    exc = err.value
    assert exc.suggested_lambda == 1 and exc.ceiling == 5
    # the count of sets the run evaluates, not the per-field bound
    assert truncated_bound(khop_neighborhoods(graph, load_model(weights).num_layers), 2) == 112
    assert exc.bound_sum == 40
    assert str(exc).endswith("up to 40 sets > ceiling 5; try --lambda 1")
    # lambda = 1 is the cheapest run there is, so it runs whatever the ceiling
    assert GraphInteractionExplainer(weights, lam=1, ceiling=5).fit(graph).call_count_ > 5


def test_truncated_guard_counts_the_sets_the_run_evaluates(demo_dir, monkeypatch):
    weights = demo_dir / "er8_model.json"
    graph = load_graph(demo_dir / "er8_graph.json")
    assert GraphInteractionExplainer(weights, lam=2, ceiling=40).fit(graph).call_count_ == 40
    with pytest.raises(BudgetExceeded) as err:
        GraphInteractionExplainer(weights, lam=2, ceiling=39).fit(graph)
    assert err.value.bound_sum == 40
    assert "the lambda 2 run evaluates up to 40 sets > ceiling 39" in str(err.value)
    # a count that runs out of steps leaves the refusal to the bound
    monkeypatch.setattr("graphsi.complexity.COUNT_STEP_BUDGET", 2)
    with pytest.raises(BudgetExceeded) as err:
        GraphInteractionExplainer(weights, lam=2, ceiling=40).fit(graph)
    assert err.value.bound_sum == 112


def test_truncated_guard_stops_before_any_evaluation(monkeypatch):
    # 48-node ER graph under a 2-layer GCN, as in the truncated benchmark
    # workload: lambda = 3 evaluates 15,897 sets (its bound is 91,564);
    # lambda = 8 would need ~1.0e8
    g, model = generate_instance("er", 48, 3, 0, "gcn", 2, 4, edge_prob=0.10)
    hoods = khop_neighborhoods(g, 2)
    assert truncated_bound(hoods, 3) == 91_563
    ex = GraphInteractionExplainer(model, lam=3, ceiling=20_000).fit(g)
    assert ex.call_count_ == 15_897
    games = []

    class RecordedGame(GraphGame):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            games.append(self)

    monkeypatch.setattr("graphsi.explainer.GraphGame", RecordedGame)
    with pytest.raises(BudgetExceeded) as err:
        GraphInteractionExplainer(model, lam=8).fit(g)
    assert err.value.bound_sum > DEFAULT_CEILING
    assert 3 <= err.value.suggested_lambda < 8
    assert [game.call_count() for game in games] == [0]


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
