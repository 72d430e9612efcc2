from itertools import combinations
from math import comb

import numpy as np
import pytest

import graphsi.game
import graphsi.moebius
from graphsi.baselines import (
    audit_nonlinear_readout,
    brute_force_mi,
    compare_estimators,
    permutation_sampling_sii,
    permutation_sampling_sv,
)
from graphsi.coalitions import iter_subsets, mask_of
from graphsi.convert import convert_mi
from graphsi.explainer import GraphInteractionExplainer
from graphsi.game import GraphGame
from graphsi.generate import generate_instance, random_graph
from graphsi.graph import khop_neighborhoods, load_graph
from graphsi.moebius import (build_interaction_set, graphshapiq_approx, graphshapiq_exact,
                             moebius_transform)
from graphsi.nn import GnnModel, Mlp2Readout, load_model

from helpers import DictGame, mask_to_set, random_table, table_as_nu
from oracles import fast_moebius_oracle, shapley_oracle, sii_oracle, stii_oracle


def brute_force_index(game, n, index, k):
    return convert_mi(brute_force_mi(game, n), index, k)


def er8_instance(readout="linear"):
    return generate_instance("er", 8, 3, 27, "gin", 1, 5, edge_prob=0.4,
                             readout=readout)


# -- brute force -------------------------------------------------------------


def test_majority_game_moebius_masses():
    # nu = 1 iff at least two of three players show up
    table = {t: float(t.bit_count() >= 2) for t in range(8)}
    mi = brute_force_mi(DictGame(3, table), 3)
    assert mi.values[0] == 0.0
    for single in (0b001, 0b010, 0b100):
        assert mi.values[single] == 0.0
    for pair in (0b011, 0b101, 0b110):
        assert mi.values[pair] == 1.0
    assert mi.values[0b111] == -2.0


def test_constant_game_mass_sits_on_the_empty_set():
    mi = brute_force_mi(DictGame(3, {t: 4.5 for t in range(8)}), 3)
    assert mi.values[0] == 4.5
    assert all(v == pytest.approx(0.0, abs=1e-12)
               for t, v in mi.values.items() if t)


def test_brute_force_agrees_with_sparse_exact_and_dp():
    g, model = generate_instance("path", 4, 3, 13, "gcn", 1, 4)
    hoods = khop_neighborhoods(g, 1)
    iset = build_interaction_set(hoods)

    mi_full = brute_force_mi(GraphGame(model, g), 4)
    mi_sparse, _ = graphshapiq_exact(GraphGame(model, g), hoods, k=2)
    dp = fast_moebius_oracle(GraphGame(model, g).evaluate_batch(list(range(16))))

    for t in range(16):
        assert mi_full.values[t] == pytest.approx(dp[t], abs=1e-10)
        if t in iset:
            assert mi_full.values[t] == pytest.approx(mi_sparse.values[t], abs=1e-8)
        else:
            assert abs(mi_full.values[t]) < 1e-8


def test_one_player_shapley_value():
    sv = brute_force_index(DictGame(1, {0: 0.25, 1: 2.0}), 1, "sv", 1)
    assert sv.values[0b1] == pytest.approx(1.75, abs=1e-12)


def test_symmetric_players_get_equal_shares():
    table = {0b00: 0.0, 0b01: 1.0, 0b10: 1.0, 0b11: 3.0}
    sv = brute_force_index(DictGame(2, table), 2, "sv", 1)
    assert sv.values[0b01] == pytest.approx(sv.values[0b10], abs=1e-12)
    assert sv.values[0b01] == pytest.approx(1.5, abs=1e-12)


def test_glove_game_shapley_values():
    # player 0 owns the left glove, 1 and 2 each a right one
    table = {t: 0.0 for t in range(8)}
    table[0b011] = table[0b101] = table[0b111] = 1.0
    sv = brute_force_index(DictGame(3, table), 3, "sv", 1)
    assert sv.values[0b001] == pytest.approx(2 / 3, abs=1e-12)
    assert sv.values[0b010] == pytest.approx(1 / 6, abs=1e-12)
    assert sv.values[0b100] == pytest.approx(1 / 6, abs=1e-12)


def test_brute_force_size_caps():
    with pytest.raises(ValueError, match="capped at n=16"):
        brute_force_mi(DictGame(17, {}), 17)


def test_direct_definitions_agree_with_mi_conversion():
    # end-to-end check of the redistribution weights against the definitions
    k = 3
    for n, seed in ((5, 73), (8, 74)):
        table = random_table(n, seed)
        nu = table_as_nu(table)
        mi = brute_force_mi(DictGame(n, table), n)
        sv = convert_mi(mi, "sv", 1).values
        assert sorted(sv) == [1 << i for i in range(n)]
        for i in range(n):
            assert sv[1 << i] == pytest.approx(shapley_oracle(nu, n, i), abs=1e-8)
        sii = convert_mi(mi, "sii", k).values
        assert len(sii) == sum(comb(n, r) for r in range(1, k + 1))
        for t, v in sii.items():
            assert v == pytest.approx(sii_oracle(nu, n, mask_to_set(t)), abs=1e-8)
        stii = convert_mi(mi, "stii", k).values
        want = stii_oracle(nu, n, k)
        assert {mask_to_set(t) for t in stii} == set(want)
        for t, v in stii.items():
            assert v == pytest.approx(want[mask_to_set(t)], abs=1e-8)


def test_pairwise_derivative_recursion():
    # Delta_S(T) is the Moebius sum of the game shifted by T, as the SII sampler takes it
    n = 6
    values = random_table(n, seed=75)

    def derivative(s, t):
        return moebius_transform(None, s, {sub: values[t | sub] for sub in iter_subsets(s)})

    for i, j in ((0, 1), (2, 5)):
        s = (1 << i) | (1 << j)
        rest = [t for t in range(1 << n) if not t & s]
        for t in rest:
            joint = values[t | s] - values[t]
            di = derivative(1 << i, t)
            dj = derivative(1 << j, t)
            dij = derivative(s, t)
            assert dij == pytest.approx(joint - di - dj, abs=1e-12)


# -- permutation sampling: Shapley values ------------------------------------


def test_sv_sampler_statistical_gate():
    n = 6
    table = random_table(n, seed=71)
    truth = brute_force_index(DictGame(n, table), n, "sv", 1)
    hits = 0
    for seed in range(20):
        est, stderr = permutation_sampling_sv(DictGame(n, table), 20_000, seed)
        for i in range(n):
            if abs(est.values[1 << i] - truth.values[1 << i]) <= 3 * stderr[i]:
                hits += 1
    assert hits >= 0.95 * 20 * n


def test_sv_sampler_mean_is_unbiased():
    n = 6
    table = random_table(n, seed=71)
    truth = brute_force_index(DictGame(n, table), n, "sv", 1)
    samples = np.zeros((500, n))
    for seed in range(500):
        est, _ = permutation_sampling_sv(DictGame(n, table), 280, seed)
        samples[seed] = [est.values[1 << i] for i in range(n)]
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
    for i in range(n):
        assert abs(mean[i] - truth.values[1 << i]) <= 2 * se[i]


def test_sv_sampler_constant_game_is_exactly_zero():
    est, _ = permutation_sampling_sv(DictGame(4, {t: 2.0 for t in range(16)}),
                                     500, seed=0)
    assert all(v == 0.0 for v in est.values.values())


def test_sv_sampler_reproducible_and_seed_sensitive():
    table = random_table(5, seed=76)
    a, se_a = permutation_sampling_sv(DictGame(5, table), 600, seed=3)
    b, se_b = permutation_sampling_sv(DictGame(5, table), 600, seed=3)
    assert a.values == b.values and se_a == se_b
    c, _ = permutation_sampling_sv(DictGame(5, table), 600, seed=4)
    assert c.values != a.values


def test_sv_sampler_budget_and_accounting():
    table = random_table(4, seed=77)
    with pytest.raises(ValueError):
        permutation_sampling_sv(DictGame(4, table), 4, seed=0)
    game = DictGame(4, table)
    est, stderr = permutation_sampling_sv(game, 5, seed=0)  # one round
    assert game.call_count() <= 5
    assert all(v == float("inf") for v in stderr.values())
    assert est.call_count == game.call_count()


def test_sampler_costs_are_the_coalitions_each_run_asked_for(demo_dir):
    # the same count on a fresh game and on one a lambda = 2 run filled first
    g, model = load_graph(demo_dir / "er8_graph.json"), load_model(demo_dir / "er8_model.json")
    runs = {"sv": lambda game: permutation_sampling_sv(game, 18, seed=0)[0],
            "sii": lambda game: permutation_sampling_sii(game, 2, 400, seed=0),
            "brute": lambda game: brute_force_mi(game, g.n)}
    costs = {}
    for name, run in runs.items():
        fresh = GraphGame(model, g)
        costs[name] = run(fresh).call_count
        assert costs[name] == fresh.call_count()  # a fresh game forwards just what it is asked
        shared = GraphGame(model, g)
        graphshapiq_approx(shared, khop_neighborhoods(g, model.num_layers), 2, k=2)
        assert shared.call_count() > 0
        assert run(shared).call_count == costs[name]
    assert costs["sv"] == 15 and costs["brute"] == 1 << g.n


# -- permutation sampling: interactions --------------------------------------


def test_sii_sampler_informed_zeros_are_exact():
    g, model = er8_instance()
    iset = build_interaction_set(khop_neighborhoods(g, 1))
    est = permutation_sampling_sii(GraphGame(model, g), 2, len(iset), seed=1,
                                   informed=iset)
    outside = [t for t in est.values if t not in iset]
    assert outside and all(est.values[t] == 0.0 for t in outside)


def test_sii_sampler_informed_filter_usually_wins():
    g, model = er8_instance()
    iset = build_interaction_set(khop_neighborhoods(g, 1))
    truth = brute_force_index(GraphGame(model, g), 8, "sii", 2)

    def mse(est):
        return sum((est.get(t) - truth.values[t]) ** 2
                   for t in truth.values) / len(truth.values)

    wins = 0
    for seed in range(20):
        informed = permutation_sampling_sii(GraphGame(model, g), 2, len(iset),
                                            seed, informed=iset)
        blind = permutation_sampling_sii(GraphGame(model, g), 2, len(iset), seed)
        if mse(informed) <= mse(blind):
            wins += 1
    assert wins >= 16


def test_sii_sampler_order_one_estimates_shapley_values():
    n = 5
    table = random_table(n, seed=72)
    truth = brute_force_index(DictGame(n, table), n, "sv", 1)
    est = permutation_sampling_sii(DictGame(n, table), 1, 60_000, seed=9)
    assert est.kind == "sii" and set(est.values) == {1 << i for i in range(n)}
    for i in range(n):
        assert est.values[1 << i] == pytest.approx(truth.values[1 << i], abs=0.1)


def test_sii_sampler_validation():
    table = random_table(4, seed=78)
    with pytest.raises(ValueError):
        permutation_sampling_sii(DictGame(4, table), 0, 100, seed=0)
    with pytest.raises(ValueError):
        # one draw per target set costs 4*2 + 6*4 = 32
        permutation_sampling_sii(DictGame(4, table), 2, 31, seed=0)


def test_sii_sampler_reproducible():
    g, model = er8_instance()
    a = permutation_sampling_sii(GraphGame(model, g), 2, 200, seed=5)
    b = permutation_sampling_sii(GraphGame(model, g), 2, 200, seed=5)
    assert a.values == b.values


# -- readout audit -----------------------------------------------------------


def test_audit_flags_only_the_nonlinear_readout():
    g, linear = generate_instance("path", 4, 3, 13, "gin", 1, 4)
    _, mlp2 = generate_instance("path", 4, 3, 13, "gin", 1, 4, readout="mlp2")
    report = audit_nonlinear_readout(linear, mlp2, g)
    assert report["n"] == 4 and report["ell"] == 1
    assert report["interaction_set_size"] == 12
    assert report["max_abs_mi_outside_linear"] < 1e-8
    assert report["linear_ok"] is True
    assert report["max_abs_mi_outside_mlp2"] > 1e-4


def test_audit_zero_hidden_weights_are_effectively_linear():
    g, linear = generate_instance("path", 4, 3, 13, "gin", 1, 4)
    _, mlp2 = generate_instance("path", 4, 3, 13, "gin", 1, 4, readout="mlp2")
    degenerate = GnnModel(
        layers=mlp2.layers, pooling=mlp2.pooling,
        readout=Mlp2Readout(w1=np.zeros_like(mlp2.readout.w1),
                            b1=mlp2.readout.b1, w2=mlp2.readout.w2,
                            b2=mlp2.readout.b2))
    report = audit_nonlinear_readout(linear, degenerate, g)
    assert report["max_abs_mi_outside_mlp2"] < 1e-8


def test_audit_validation():
    g, linear = generate_instance("path", 4, 3, 13, "gin", 1, 4)
    _, deep = generate_instance("path", 4, 3, 13, "gin", 2, 4, readout="mlp2")
    with pytest.raises(ValueError):
        audit_nonlinear_readout(linear, deep, g)
    big = random_graph("path", 15, 3, seed=0)
    _, mlp2 = generate_instance("path", 4, 3, 13, "gin", 1, 4, readout="mlp2")
    with pytest.raises(ValueError):
        audit_nonlinear_readout(linear, mlp2, big)


def test_audit_rejects_swapped_models():
    g, linear = generate_instance("path", 4, 3, 13, "gin", 1, 4)
    _, mlp2 = generate_instance("path", 4, 3, 13, "gin", 1, 4, readout="mlp2")
    with pytest.raises(ValueError, match="linear readout"):
        audit_nonlinear_readout(mlp2, linear, g)


# -- estimator comparison -----------------------------------------------------


def test_compare_estimators_rows(demo_dir):
    rows = compare_estimators(demo_dir / "path4_model.json", demo_dir / "path4_graph.json",
                              2, [31, 136], [0, 1])
    methods = [method for method, _, _, _ in rows]
    lam_rows = [row for row in rows if row[0].startswith("graphshapiq_l")]
    assert methods[:len(lam_rows)] == ["graphshapiq_l1", "graphshapiq_l2", "graphshapiq_l3"]
    # lambda = n_max is the exact run: |I| = 12 calls, no error at all
    assert lam_rows[-1][1:] == (12, 0, 0.0)
    by_key = {(method, budget, seed): mse for method, budget, seed, mse in rows}
    assert by_key["permutation_sii_uninformed", 31, 0] is None
    assert by_key["permutation_sii_informed", 31, 0] >= 0.0
    assert len(rows) == 3 + 2 * 2 * 2
    with pytest.raises(ValueError, match="non-negative"):
        compare_estimators(demo_dir / "path4_model.json", demo_dir / "path4_graph.json",
                           2, [136], [0, -1])


def test_compare_estimators_forwards_each_coalition_once(demo_dir, monkeypatch):
    model, graph = demo_dir / "er8_model.json", demo_dir / "er8_graph.json"
    forwards = []  # coalitions (rows) per forward_graph call
    real = graphsi.game.forward_graph

    def counting(model, g, x):
        forwards.append(len(x) if x.ndim == 3 else 1)
        return real(model, g, x)

    monkeypatch.setattr(graphsi.game, "forward_graph", counting)
    rows = compare_estimators(model, graph, 2, [], [0])
    construction, *stacks = forwards
    assert construction == 1  # one game serves every run
    # the exact run takes node tables, which forward nothing, and its
    # efficiency check forwards nu(empty); the lambda runs take capped node
    # tables too and forward only their oversized fields: every field of more
    # than one node at lambda = 1, the later runs' a subset of those. So
    # nu(empty) and the 8 distinct fields, and nothing twice
    g = load_graph(graph)
    fields = set(khop_neighborhoods(g, load_model(model).num_layers).hoods)
    assert len({h for h in fields if h.bit_count() > 1}) == 8
    assert sum(stacks) == 1 + 8
    forwards.clear()
    with monkeypatch.context() as patch:  # on the dense stack every run reads I, 136 sets
        patch.setattr(graphsi.moebius, "_tables_take", lambda game, hoods: False)
        dense = compare_estimators(model, graph, 2, [], [0])
    assert [row[:3] for row in dense] == [row[:3] for row in rows]
    construction, *stacks = forwards
    assert construction == 1 and sum(stacks) == 136
    monkeypatch.undo()

    # each row equals a run on a game of its own: budget and mse bits
    truth = GraphInteractionExplainer(model, index="sii", order=2).fit(graph).interactions_
    sets = [mask_of(c) for size in (1, 2) for c in combinations(range(8), size)]
    want = []
    for lam in range(1, 8):
        own = GraphInteractionExplainer(model, index="sii", order=2, lam=lam).fit(graph)
        mse = sum((own.interactions_.get(s) - truth.get(s)) ** 2 for s in sets) / len(sets)
        want.append((f"graphshapiq_l{lam}", own.call_count_, 0, mse))
    assert rows == want
    assert [budget for _, budget, _, _ in rows] == [17, 40, 77, 110, 129, 136, 136]

    # k = 1: each permutation's n + 1 prefixes go to the model as one stack
    monkeypatch.setattr(graphsi.game, "forward_graph", counting)
    forwards.clear()
    compare_estimators(model, graph, 1, [], [0])
    without_sampler = len(forwards)
    forwards.clear()
    rows = compare_estimators(model, graph, 1, [136], [0])
    assert rows[-1][:3] == ("permutation_sv", 136, 0)
    assert len(forwards) - without_sampler <= 136 // 9  # at most one stack per permutation
    assert len(forwards) < sum(forwards)
