from fractions import Fraction

import pytest

import graphsi.convert as convert
import graphsi.game
import graphsi.moebius as moebius
from graphsi.baselines import brute_force_mi
from graphsi.coalitions import DIRECT_MAX, full_mask, iter_subsets, mask_of, sort_key
from graphsi.complexity import degree_bound
from graphsi.errors import BudgetExceeded, NonlinearReadout, ParseError
from graphsi.game import GraphGame
from graphsi.generate import generate_instance, random_graph
from graphsi.graph import NeighborhoodIndex, khop_neighborhoods, load_graph, make_graph
from graphsi.moebius import (
    build_interaction_set,
    check_budget,
    graphshapiq_approx,
    graphshapiq_exact,
    moebius_transform,
)
from graphsi.nn import load_model

from helpers import (DictGame, force_route, mask_to_set, random_table, star_instance,
                     table_as_nu)
from oracles import (
    fast_moebius_oracle,
    field_masks,
    gamma,
    interaction_set_oracle,
    subsets_of,
    truncated_mi_oracle,
)


def full_hoods(n: int) -> NeighborhoodIndex:
    """Synthetic index whose interaction set is the whole power set."""
    return NeighborhoodIndex(ell=1, hoods=(full_mask(n),) * n)


def path4_instance(**kwargs):
    g, model = generate_instance("path", 4, 3, 13, "gcn", 1, 4, **kwargs)
    return g, model, khop_neighborhoods(g, 1)


def star14_instance():
    _, model = generate_instance("path", 2, 3, 41, "gin", 1, 4)
    g = random_graph("path", 14, 3, seed=41)
    star = make_graph(14, [(0, i) for i in range(1, 14)], g.features.tolist())
    return star, model, khop_neighborhoods(star, 1)


def tree30_instance():
    g, model = generate_instance("tree", 30, 3, 0, "gcn", 2, 4)
    return g, model, khop_neighborhoods(g, 2)


# -- interaction set ---------------------------------------------------------


def test_path4_interaction_set():
    g = random_graph("path", 4, 2, seed=0)
    iset = build_interaction_set(khop_neighborhoods(g, 1))
    assert len(iset) == 12
    members = {mask_to_set(m) for m in iset.members}
    excluded = {frozenset(s) for s in ({0, 3}, {0, 1, 3}, {0, 2, 3}, {0, 1, 2, 3})}
    assert members & excluded == set()
    assert members | excluded == {frozenset(s) for s in subsets_of(range(4))}
    assert members == interaction_set_oracle(
        [frozenset({0, 1}), frozenset({0, 1, 2}), frozenset({1, 2, 3}),
         frozenset({2, 3})])


def test_complete_graph_set_is_the_power_set():
    k3 = make_graph(3, [(0, 1), (0, 2), (1, 2)], [[0.0]] * 3)
    iset = build_interaction_set(khop_neighborhoods(k3, 1))
    assert list(iset.members) == sorted(range(8), key=sort_key)


def test_isolated_nodes_give_singletons_only():
    g = make_graph(3, [], [[0.0]] * 3)
    iset = build_interaction_set(khop_neighborhoods(g, 1))
    assert [mask_to_set(m) for m in iset.members] == [
        frozenset(), {0}, {1}, {2}]


def test_set_is_downward_closed_and_canonically_ordered():
    g = random_graph("er", 9, 2, seed=6, edge_prob=0.3)
    iset = build_interaction_set(khop_neighborhoods(g, 2))
    assert list(iset.members) == sorted(iset.members, key=sort_key)
    for m in iset.members:
        assert all(sub in iset for sub in iter_subsets(m))
    assert 0 in iset
    for i in range(9):
        assert (1 << i) in iset


def test_set_matches_union_of_power_sets_oracle():
    for seed in range(8):
        g = random_graph("er", 8, 2, seed=seed, edge_prob=0.35)
        hoods = khop_neighborhoods(g, 1)
        iset = build_interaction_set(hoods)
        want = interaction_set_oracle([mask_to_set(h) for h in hoods.hoods])
        assert {mask_to_set(m) for m in iset.members} == want


def test_budget_guard_raises_with_fallback_order():
    star = make_graph(21, [(0, i) for i in range(1, 21)], [[0.0]] * 21)
    hoods = khop_neighborhoods(star, 1)
    with pytest.raises(BudgetExceeded) as err:
        check_budget(hoods, None, 1 << 10)
    exc = err.value
    assert exc.bound_sum > 1 << 20
    assert exc.bound_nmax == 21 * (1 << 21)
    assert exc.suggested_lambda >= 1
    assert str(exc.suggested_lambda) in str(exc)
    # lambda = 2 evaluates 232 + 1 sets; lambda = 3 evaluates 1,562 + 1
    assert exc.suggested_lambda == 2
    assert_largest_admitted(hoods, exc.suggested_lambda, 1 << 10)


def test_the_budget_refuses_a_bad_ceiling_then_a_bad_lambda():
    star = make_graph(21, [(0, i) for i in range(1, 21)], [[0.0]] * 21)
    hoods = khop_neighborhoods(star, 1)  # over a ceiling of 10 from lambda 2 up
    for lam, ceiling, message in [(0, 10, "lambda must be in 1..21, got 0"),
                                  (22, 10, "lambda must be in 1..21, got 22"),
                                  (2.5, 10, "lambda must be in 1..21, got 2.5"),
                                  (0, 0, "ceiling must be an integer >= 1, got 0"),
                                  (1, 0, "ceiling must be an integer >= 1, got 0"),
                                  (1, True, "ceiling must be an integer >= 1, got True"),
                                  (None, 2.5, "ceiling must be an integer >= 1, got 2.5")]:
        with pytest.raises(ParseError) as err:
            check_budget(hoods, lam, ceiling)
        assert str(err.value) == message


def assert_largest_admitted(hoods: NeighborhoodIndex, lam: int, ceiling: int) -> None:
    """The budget rule runs lam under the ceiling and refuses lam + 1."""
    check_budget(hoods, lam, ceiling)
    with pytest.raises(BudgetExceeded):
        check_budget(hoods, lam + 1, ceiling)


def test_exact_run_on_a_graph_game_carries_the_degree_bound():
    g, model = generate_instance("er", 10, 3, 5, "gin", 1, 4, edge_prob=0.5)
    hoods = khop_neighborhoods(g, 1)
    with pytest.raises(BudgetExceeded) as err:
        graphshapiq_exact(GraphGame(model, g), hoods, k=2, ceiling=64)
    bound = degree_bound(g, 1)
    assert isinstance(bound, int) and err.value.bound_dmax == bound
    assert f"<= degree bound = {bound} > ceiling 64" in str(err.value)
    assert_largest_admitted(hoods, err.value.suggested_lambda, 64)
    table = DictGame(10, {t: 0.0 for t in range(1 << 10)})  # no graph, so no degree bound
    with pytest.raises(BudgetExceeded) as err:
        graphshapiq_exact(table, hoods, k=2, ceiling=64)
    assert err.value.bound_dmax is None


# -- Moebius transform -------------------------------------------------------


def test_hand_inclusion_exclusion():
    game = DictGame(2, {0b00: 0.0, 0b01: 1.0, 0b10: 2.0, 0b11: 5.0})
    assert moebius_transform(game, 0b11) == 5.0 - 1.0 - 2.0 + 0.0
    # same from a precomputed table
    assert moebius_transform(None, 0b11, game.table) == 2.0


def test_constant_game_concentrates_on_the_empty_set():
    c = 3.25
    game = DictGame(4, {t: c for t in range(16)})
    assert moebius_transform(game, 0) == c
    for t in range(1, 16):
        assert moebius_transform(game, t) == pytest.approx(0.0, abs=1e-12)


def test_additive_game_is_singleton_mass():
    game = DictGame(4, {t: float(t.bit_count()) for t in range(16)})
    for t in range(16):
        want = 1.0 if t.bit_count() == 1 else 0.0
        assert moebius_transform(game, t) == pytest.approx(want, abs=1e-12)


def test_missing_subset_value_is_an_internal_error():
    with pytest.raises(RuntimeError, match="internal error"):
        moebius_transform(None, 0b11, {0b00: 0.0, 0b01: 1.0, 0b11: 5.0})


@pytest.mark.parametrize("n", [1, 3, 5])
def test_transform_agrees_with_subset_sum_dp(n):
    table = random_table(n, seed=100 + n)
    dp = fast_moebius_oracle([table[t] for t in range(1 << n)])
    for t in range(1 << n):
        assert moebius_transform(None, t, table) == pytest.approx(dp[t], abs=1e-10)


# -- field butterfly ---------------------------------------------------------


@pytest.mark.parametrize("instance", [star14_instance, tree30_instance])
def test_tabulated_fields_within_rounding_bound(instance):
    g, model, hoods = instance()
    mi, _ = graphshapiq_exact(GraphGame(model, g), hoods, k=2)
    probe = GraphGame(model, g)
    fields = [f for f in build_interaction_set(hoods).maximal_hoods if f.bit_count() > DIRECT_MAX]
    assert fields
    for field in fields:
        masks = field_masks(field)
        nu = probe.evaluate_batch(masks)
        exact = fast_moebius_oracle([Fraction(v) for v in nu])  # the same sums, in rationals
        floats = fast_moebius_oracle(nu)
        bound = gamma(field.bit_count()) * sum(Fraction(abs(v)) for v in nu)
        for mask, want, oracle in zip(masks, exact, floats):
            assert abs(Fraction(mi.values[mask]) - want) <= bound
            assert abs(Fraction(mi.values[mask]) - Fraction(oracle)) <= 2 * bound


def test_overlapping_fields_agree_bit_for_bit(monkeypatch):
    g, model, hoods = tree30_instance()
    game = GraphGame(model, g)
    force_route(monkeypatch, tables=False)
    mi, _ = graphshapiq_exact(game, hoods, k=2)
    probe = game  # memo hits: the values the run used
    alone = {}
    for field in build_interaction_set(hoods).maximal_hoods:
        if field.bit_count() > DIRECT_MAX:
            masks = field_masks(field)
            alone[field] = dict(zip(masks, fast_moebius_oracle(probe.evaluate_batch(masks))))
    shared = 0
    for a, first in alone.items():
        for b, second in alone.items():
            if a < b:
                for mask in first.keys() & second.keys():
                    assert mi.values[mask] == first[mask] == second[mask]
                    shared += mask.bit_count() >= 2
    assert shared > 0


def test_per_set_sum_serves_only_small_fields(monkeypatch, demo_dir):
    calls: list[int] = []
    per_set = moebius.moebius_transform

    def counted(game, coalition, values=None):
        calls.append(coalition)
        return per_set(game, coalition, values)

    monkeypatch.setattr(moebius, "moebius_transform", counted)
    g, model, hoods = star14_instance()
    graphshapiq_exact(GraphGame(model, g), hoods, k=2)
    assert calls == []

    g, model, hoods = path4_instance()
    mi, _ = graphshapiq_exact(GraphGame(model, g), hoods, k=2)
    assert len(calls) == 12
    assert calls == list(mi.values)

    # mixed runs, with fields on both sides of DIRECT_MAX, take the butterfly for every set
    calls.clear()
    g, model = load_graph(demo_dir / "er8_graph.json"), load_model(demo_dir / "er8_model.json")
    hoods = khop_neighborhoods(g, model.num_layers)
    sizes = {h.bit_count() for h in hoods.hoods}
    assert min(sizes) <= DIRECT_MAX < max(sizes)
    graphshapiq_exact(GraphGame(model, g), hoods, k=2)
    assert calls == []

    g, model = generate_instance("er", 12, 3, 27, "gin", 1, 4, edge_prob=0.4)
    hoods = khop_neighborhoods(g, 1)
    graphshapiq_approx(GraphGame(model, g), hoods, lam=3, k=2)
    assert calls == []

    # truncated with every field small: each kept set takes the per-set sum
    g, model = generate_instance("path", 6, 3, 5, "gcn", 1, 4)
    hoods = khop_neighborhoods(g, 1)
    oversized = {h for h in hoods.hoods if h.bit_count() > 2}
    mi, _ = graphshapiq_approx(GraphGame(model, g), hoods, lam=2, k=2)
    assert oversized and calls == [t for t in mi.values if t not in oversized]


def test_small_runs_never_build_the_pair_index(monkeypatch):
    built: list[int] = []
    real = moebius.pair_index

    def counted(keys):
        built.append(len(keys))
        return real(keys)

    monkeypatch.setattr(moebius, "pair_index", counted)
    monkeypatch.setattr(convert, "pair_index", counted)
    g, model = generate_instance("tree", 20, 3, 0, "gcn", 1, 4)
    tree = (g, model, khop_neighborhoods(g, 1))
    for g, model, hoods in (path4_instance(), tree):
        assert max(h.bit_count() for h in hoods.hoods) <= DIRECT_MAX
        for index in ("mi", "sv", "sii", "ksii", "stii"):
            graphshapiq_exact(GraphGame(model, g), hoods, 1 if index == "sv" else 2, index)
    assert built == []
    g, model, hoods = star14_instance()
    graphshapiq_exact(GraphGame(model, g), hoods, k=2)
    assert built == []  # an exact table run converts on its node tables
    graphshapiq_approx(GraphGame(model, g), hoods, lam=3, k=2)
    assert built  # a large truncated run's conversion takes the butterflies


def test_a_truncated_run_builds_one_pair_index_per_butterfly(monkeypatch):
    calls: list[str] = []
    real = moebius.pair_index

    def counted(name):
        def pair_index(keys):
            calls.append(name)
            return real(keys)
        return pair_index

    monkeypatch.setattr(moebius, "pair_index", counted("transform"))
    monkeypatch.setattr(convert, "pair_index", counted("conversion"))
    g, model, hoods = star14_instance()
    lam = 3
    # the hub's field reaches lam + 2 nodes, so the conversion's D has gaps
    assert max(h.bit_count() for h in hoods.hoods) >= lam + 2
    # capped node tables transform each ball on its local codes: only the
    # conversion indexes the run's sets
    mi, _ = graphshapiq_approx(GraphGame(model, g), hoods, lam=lam, k=2)
    assert calls == ["conversion"]
    assert max(t.bit_count() for t in mi.values) >= lam + 2
    calls.clear()
    force_route(monkeypatch, tables=False)
    dense, _ = graphshapiq_approx(GraphGame(model, g), hoods, lam=lam, k=2)
    assert calls == ["transform", "conversion"]  # the dense route's butterfly takes its own
    assert list(dense.values) == list(mi.values)


@pytest.mark.parametrize("kind,converted",
                         [("gcn", []), ("gin", ["_convert_family", "pair_index"])])
def test_a_truncated_row_table_run_converts_on_its_tables(monkeypatch, kind, converted):
    # the truncated benchmark workload's shape, a 2-layer GCN on an ER graph of
    # 48 nodes at lambda 3: its row tables give the index values; a GIN last
    # layer keeps node tables, converted by the pair index and ranked zeta
    calls: list[str] = []

    def counted(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    monkeypatch.setattr(moebius, "pair_index", counted("pair_index", moebius.pair_index))
    monkeypatch.setattr(convert, "pair_index", counted("pair_index", convert.pair_index))
    monkeypatch.setattr(convert, "_convert_family",
                        counted("_convert_family", convert._convert_family))
    g, model = generate_instance("er", 48, 3, 9, kind, 2, 16, edge_prob=0.1)
    hoods = khop_neighborhoods(g, 2)
    assert moebius._route(GraphGame(model, g), hoods) == {"gcn": "rows", "gin": "nodes"}[kind]
    mi, si = graphshapiq_approx(GraphGame(model, g), hoods, lam=3, k=2)
    assert sorted(set(calls)) == converted
    assert len(si.values) > 48 and any(t.bit_count() > 3 for t in mi.values)  # surrogates


def test_brute_force_mi_is_one_field():
    for n in (4, 6):
        table = random_table(n, seed=40 + n)
        mi = brute_force_mi(DictGame(n, table), n)
        dp = fast_moebius_oracle([table[t] for t in range(1 << n)])
        direct = [moebius_transform(None, t, table) for t in range(1 << n)]
        assert list(mi.values) == list(range(1 << n))
        assert list(mi.values.values()) == (direct if n <= DIRECT_MAX else dp)


# -- exact sparse computation ------------------------------------------------


def test_exact_on_path_matches_dense_brute_force():
    g, model, hoods = path4_instance()
    game = GraphGame(model, g)
    mi, _ = graphshapiq_exact(game, hoods, k=2)
    assert game.call_count() == 12

    dense = GraphGame(model, g)
    dp = fast_moebius_oracle(dense.evaluate_batch(list(range(16))))
    for t in range(16):
        assert mi.get(t) == pytest.approx(dp[t], abs=1e-9)


def test_values_outside_the_set_are_never_materialized():
    g, model, hoods = path4_instance()
    mi, _ = graphshapiq_exact(GraphGame(model, g), hoods, k=2)
    iset = build_interaction_set(hoods)
    assert set(mi.values) == set(iset.members)
    assert mi.get(mask_of([0, 3])) == 0.0


def test_top_order_si_is_the_moebius_map():
    g, model, hoods = path4_instance()
    mi, si = graphshapiq_exact(GraphGame(model, g), hoods, k=4)
    assert set(si.values) == {t for t in mi.values if t}
    for t, v in si.values.items():
        assert v == pytest.approx(mi.values[t], abs=1e-12)


def test_single_node_graph_sv():
    g = make_graph(1, [], [[2.0, -1.0]])
    _, model = generate_instance("path", 2, 2, 3, "gin", 1, 3)
    game = GraphGame(model, g)
    _, sv = graphshapiq_exact(game, khop_neighborhoods(g, 1), k=1, index="sv")
    assert sv.values[0b1] == pytest.approx(
        game.evaluate(0b1) - game.evaluate(0), abs=1e-12)


def test_order_validation():
    g, model, hoods = path4_instance()
    game = GraphGame(model, g)
    for bad in (0, 5):
        with pytest.raises(ValueError):
            graphshapiq_exact(game, hoods, k=bad)
        with pytest.raises(ValueError):
            graphshapiq_approx(game, hoods, lam=bad, k=1)
        with pytest.raises(ValueError):
            graphshapiq_approx(game, hoods, lam=1, k=bad)


def test_nonlinear_readout_is_refused():
    g, model, hoods = path4_instance(readout="mlp2")
    game = GraphGame(model, g)
    with pytest.raises(NonlinearReadout):
        graphshapiq_exact(game, hoods, k=2)
    with pytest.raises(NonlinearReadout):
        graphshapiq_approx(game, hoods, lam=2, k=2)


def record_forwards(monkeypatch) -> list[str]:
    """The names of graphsi.game's forwards (_forward_ball for the tables,
    forward_graph for the dense stack) in the order they are called from now on."""
    calls = []
    for name in ("_forward_ball", "forward_graph"):
        def recording(*args, real=getattr(graphsi.game, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(graphsi.game, name, recording)
    return calls


def refusal_run(name: str, demo_dir):
    """(game, hoods, lam) of one route's run; lam None is an exact run."""
    if name in ("path4", "er8-ell2"):  # the demo graphs: per-set sums, family butterfly
        demo = name.split("-")[0]
        g = load_graph(demo_dir / f"{demo}_graph.json")
        return GraphGame(load_model(demo_dir / f"{demo}_model.json"), g), \
            khop_neighborhoods(g, 2 if name == "er8-ell2" else 1), None
    if name == "star14-lam2":  # node tables capped at lambda
        g, model = star_instance()
        return GraphGame(model, g), khop_neighborhoods(g, 1), 2
    g, model = generate_instance("tree", 64, 3, 9, "gin", 2, 16)  # exact node tables
    return GraphGame(model, g), khop_neighborhoods(g, 2), None


@pytest.mark.parametrize("name,route", [("tree64", "nodes"), ("star14-lam2", "nodes"),
                                        ("path4", "sums"), ("er8-ell2", "butterfly")])
@pytest.mark.parametrize("case", ["index", "sv", "k=0", "k=n+1", "lambda=0", "k=2.0", "k=True",
                                  "lambda=2.5", "lambda=True"])
def test_bad_arguments_are_refused_before_any_evaluation(demo_dir, monkeypatch, name, route,
                                                         case):
    game, hoods, lam = refusal_run(name, demo_dir)
    assert moebius._route(game, hoods) == route
    n = len(hoods.hoods)
    index, k, bad_lam, message = {
        "index": ("banzhaf", 2, None, "unknown index 'banzhaf'"),
        "sv": ("sv", 2, None, "the Shapley value is an order-1 index; use k=1"),
        "k=0": ("ksii", 0, None, f"order k must be in 1..{n}, got 0"),
        "k=n+1": ("ksii", n + 1, None, f"order k must be in 1..{n}, got {n + 1}"),
        "lambda=0": ("ksii", 2, 0, f"lambda must be in 1..{n}, got 0"),
        "k=2.0": ("ksii", 2.0, None, f"order k must be in 1..{n}, got 2.0"),
        "k=True": ("ksii", True, None, f"order k must be in 1..{n}, got True"),
        "lambda=2.5": ("ksii", 2, 2.5, f"lambda must be in 1..{n}, got 2.5"),
        "lambda=True": ("ksii", 2, True, f"lambda must be in 1..{n}, got True")}[case]
    lam = lam if bad_lam is None else bad_lam
    forwards = record_forwards(monkeypatch)
    with pytest.raises(ParseError) as err:
        if lam is None:
            graphshapiq_exact(game, hoods, k, index=index)
        else:
            graphshapiq_approx(game, hoods, lam, k, index=index)
    assert str(err.value) == message
    assert forwards == [] and game.call_count() == 0


def test_refusals_come_in_order_before_any_evaluation(monkeypatch):
    g, model, hoods = path4_instance(readout="mlp2")
    nonlinear = GraphGame(model, g)
    g, model, hoods = path4_instance()
    game = GraphGame(model, g)
    forwards = record_forwards(monkeypatch)
    # the readout before any argument or the budget
    with pytest.raises(NonlinearReadout):
        graphshapiq_exact(nonlinear, hoods, k=0, index="banzhaf", ceiling=1)
    with pytest.raises(NonlinearReadout):
        graphshapiq_approx(nonlinear, hoods, lam=0, k=0, index="banzhaf")
    # lambda before the index, the index before k, the arguments before the budget
    with pytest.raises(ValueError, match="^lambda must be in 1..4, got 0$"):
        graphshapiq_approx(game, hoods, lam=0, k=0, index="banzhaf")
    with pytest.raises(ValueError, match="^unknown index 'banzhaf'$"):
        graphshapiq_exact(game, hoods, k=0, index="banzhaf", ceiling=1)
    with pytest.raises(ValueError, match="^order k must be in 1..4, got 0$"):
        graphshapiq_exact(game, hoods, k=0, index="mi", ceiling=1)
    with pytest.raises(BudgetExceeded):
        graphshapiq_exact(game, hoods, k=2, ceiling=1)
    assert forwards == []
    assert nonlinear.call_count() == game.call_count() == 0


def test_exact_recovery_and_efficiency():
    g, model = generate_instance("er", 8, 3, 27, "gin", 1, 5, edge_prob=0.4)
    hoods = khop_neighborhoods(g, 1)
    game = GraphGame(model, g)
    mi, _ = graphshapiq_exact(game, hoods, k=2)
    probe = GraphGame(model, g)
    for t in mi.values:
        recovered = sum(mi.values[s] for s in iter_subsets(t))
        assert recovered == pytest.approx(probe.evaluate(t), abs=1e-8)
    assert mi.total() == pytest.approx(game.nu_full, abs=1e-8)


def test_moebius_off_the_set_vanishes_for_linear_readouts():
    for seed in (4, 9):
        g, model = generate_instance("er", 8, 2, seed, "gcn", 2, 3, edge_prob=0.3)
        game = GraphGame(model, g)
        hoods = khop_neighborhoods(g, 2)
        iset = build_interaction_set(hoods)
        dp = fast_moebius_oracle(game.evaluate_batch(list(range(1 << 8))))
        for t in range(1 << 8):
            if t not in iset:
                assert abs(dp[t]) < 1e-8


def test_mi_is_linear_in_the_game():
    n, c = 5, -1.75
    table1 = random_table(n, seed=21)
    table2 = random_table(n, seed=22)
    combo = {t: c * table1[t] + table2[t] for t in range(1 << n)}
    hoods = full_hoods(n)
    mi1, _ = graphshapiq_exact(DictGame(n, table1), hoods, k=1)
    mi2, _ = graphshapiq_exact(DictGame(n, table2), hoods, k=1)
    mi3, _ = graphshapiq_exact(DictGame(n, combo), hoods, k=1)
    for t in range(1 << n):
        assert mi3.get(t) == pytest.approx(c * mi1.get(t) + mi2.get(t), abs=1e-10)


def test_metadata_records_the_run():
    g, model, hoods = path4_instance()
    mi, si = graphshapiq_exact(GraphGame(model, g), hoods, k=2, index="stii")
    assert (mi.kind, mi.k, mi.n, mi.ell, mi.lam, mi.call_count) == \
        ("mi", 4, 4, 1, None, 12)
    assert (si.kind, si.k, si.lam, si.call_count) == ("stii", 2, None, 12)


# -- order-truncated computation ---------------------------------------------


def test_truncation_at_full_width_matches_exact(monkeypatch):
    g, model = generate_instance("er", 8, 3, 27, "gin", 1, 5, edge_prob=0.4)
    hoods = khop_neighborhoods(g, 1)
    n_max = max(h.bit_count() for h in hoods.hoods)
    assert n_max > DIRECT_MAX  # so the default exact run takes node tables
    tabled_mi, _ = graphshapiq_exact(GraphGame(model, g), hoods, k=2)
    force_route(monkeypatch, tables=False)
    exact_mi, _ = graphshapiq_exact(GraphGame(model, g), hoods, k=2)
    assert tabled_mi.values.keys() == exact_mi.values.keys()
    tol = 1e-12 * max(1.0, abs(GraphGame(model, g).nu_full))
    assert max(abs(v - tabled_mi.values[t]) for t, v in exact_mi.values.items()) <= tol
    approx_mi, _ = graphshapiq_approx(GraphGame(model, g), hoods,
                                      lam=n_max - 1, k=2)
    keys = set(exact_mi.values) | set(approx_mi.values)
    for t in keys:
        assert approx_mi.get(t) == pytest.approx(exact_mi.get(t), abs=1e-9)
    # at lam = n_max nothing is oversized: the truncated run is the exact run
    full_game = GraphGame(model, g)
    full_mi, _ = graphshapiq_approx(full_game, hoods, lam=n_max, k=2)
    assert full_mi.values == exact_mi.values
    assert full_game.call_count() == exact_mi.call_count


def test_truncated_sum_hits_the_full_prediction_at_every_order():
    g, model = generate_instance("er", 8, 3, 27, "gin", 1, 5, edge_prob=0.4)
    hoods = khop_neighborhoods(g, 1)
    n_max = max(h.bit_count() for h in hoods.hoods)
    target = GraphGame(model, g).nu_full
    for lam in range(1, n_max + 1):
        mi_hat, _ = graphshapiq_approx(GraphGame(model, g), hoods, lam=lam, k=2)
        assert mi_hat.total() == pytest.approx(target, abs=1e-9)
        assert mi_hat.lam == lam


def test_truncation_matches_independent_reimplementation():
    g, model = generate_instance("er", 6, 3, 33, "gin", 1, 4, edge_prob=0.35)
    hoods = khop_neighborhoods(g, 1)
    probe = GraphGame(model, g)
    nu = lambda s: probe.evaluate(mask_of(s))
    frozen_hoods = [mask_to_set(h) for h in hoods.hoods]

    exact_mi, _ = graphshapiq_exact(GraphGame(model, g), hoods, k=2)
    for lam in (1, 2):
        mi_hat, _ = graphshapiq_approx(GraphGame(model, g), hoods, lam=lam, k=2)
        want = truncated_mi_oracle(nu, frozen_hoods, lam, g.n)
        assert {mask_to_set(t) for t in mi_hat.values} == set(want)
        for s, v in want.items():
            assert mi_hat.values[mask_of(s)] == pytest.approx(v, abs=1e-9)
        mse = sum((mi_hat.get(t) - exact_mi.get(t)) ** 2
                  for t in set(mi_hat.values) | set(exact_mi.values))
        assert 0.0 <= mse < float("inf")


def test_truncated_call_count_is_kept_plus_oversized(monkeypatch):
    g, model = generate_instance("er", 8, 3, 27, "gin", 1, 5, edge_prob=0.4)
    hoods = khop_neighborhoods(g, 1)
    lam = 2
    iset = build_interaction_set(hoods)
    kept = {t for t in iset.members if t.bit_count() <= lam}
    oversized = {h for h in hoods.hoods if h.bit_count() > lam}
    assert oversized and kept.isdisjoint(oversized)
    for normalize in (False, True):
        # the kept sets come from capped node tables: the game forwards the
        # oversized fields, and nu(empty) when it normalizes
        game = GraphGame(model, g, normalize=normalize)
        mi_hat, _ = graphshapiq_approx(game, hoods, lam=lam, k=2)
        assert mi_hat.call_count == len(kept | oversized)
        assert set(game._memo) == oversized | ({0} if normalize else set())
    force_route(monkeypatch, tables=False)
    game = GraphGame(model, g)  # the dense route forwards every set it reports
    mi_hat, _ = graphshapiq_approx(game, hoods, lam=lam, k=2)
    assert game.call_count() == mi_hat.call_count == len(kept | oversized)
    assert set(mi_hat.values) == kept | oversized


def test_each_run_on_a_shared_game_reports_its_own_sets(demo_dir):
    # the later runs forward nothing new, yet each reports the sets of its map
    g, model = load_graph(demo_dir / "path4_graph.json"), load_model(demo_dir / "path4_model.json")
    hoods = khop_neighborhoods(g, model.num_layers)
    game = GraphGame(model, g)
    counts = [graphshapiq_exact(game, hoods, k=2)[0].call_count,
              graphshapiq_approx(game, hoods, lam=1, k=2)[0].call_count,
              graphshapiq_exact(game, hoods, k=2)[0].call_count]
    assert counts == [12, 9, 12]
    assert game.call_count() == 12


def test_a_run_after_node_tables_reports_the_sets_it_forwards(demo_dir, monkeypatch):
    # node tables forward nothing; the lambda run after them takes capped
    # tables and forwards its oversized fields, yet reports all 40 sets of its map
    g, model = load_graph(demo_dir / "er8_graph.json"), load_model(demo_dir / "er8_model.json")
    hoods = khop_neighborhoods(g, model.num_layers)
    game = GraphGame(model, g)
    assert graphshapiq_exact(game, hoods, k=2)[0].call_count == 136
    assert game.call_count() == 0
    assert graphshapiq_approx(game, hoods, lam=2, k=2)[0].call_count == 40
    assert set(game._memo) == {h for h in hoods.hoods if h.bit_count() > 2}
    assert game.call_count() == 7
    # on the dense stack the lambda run forwards its own sets
    force_route(monkeypatch, tables=False)
    game = GraphGame(model, g)
    assert graphshapiq_approx(game, hoods, lam=2, k=2)[0].call_count == 40
    assert game.call_count() == 40


def nested_oversized_instance():
    """Hub 0 sees 1..8, and 1-2, 2-3 close triangles, so at lambda = 2 the
    oversized fields {0,1,2} and {0,2,3} sit inside {0,1,2,3}, which sits
    inside node 0's field. Hub 8 adds 9..14: its field is not the one that
    absorbs tau, and it holds dozens of kept subsets, well past the eight
    at which numpy's pairwise sum departs from a running one (on these
    weights it does, at both lambdas)."""
    _, model = generate_instance("path", 2, 3, 6, "gcn", 1, 4)
    feats = random_graph("path", 15, 3, seed=6).features.tolist()
    edges = [(0, i) for i in range(1, 9)] + [(1, 2), (2, 3)] + [(8, i) for i in range(9, 15)]
    g = make_graph(15, edges, feats)
    return g, model, khop_neighborhoods(g, 1)


@pytest.mark.parametrize("lam", [2, 3])
def test_surrogates_match_a_running_sum(lam):
    g, model, hoods = nested_oversized_instance()
    oversized = sorted({h for h in hoods.hoods if h.bit_count() > lam}, key=sort_key)
    assert any(a != b and a & ~b == 0 for a in oversized for b in oversized)
    mi, _ = graphshapiq_approx(GraphGame(model, g), hoods, lam=lam, k=2)
    probe = GraphGame(model, g)
    # the recovery identity as a plain left-to-right loop over the map so far
    want = {t: v for t, v in mi.values.items() if t not in oversized}
    for hood in oversized:
        explained = 0.0
        for t, v in want.items():
            if t & ~hood == 0:
                explained += v
        want[hood] = probe.evaluate(hood) - explained
    star = min(oversized, key=lambda h: (-h.bit_count(), h))
    want[star] += probe.nu_full - sum(want.values())
    assert list(mi.values) == list(want)
    for hood in oversized:
        assert mi.values[hood] == want[hood]
