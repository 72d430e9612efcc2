import csv
import math

from hypothesis import given, settings, strategies as st

from graphsi import complexity
from graphsi.complexity import (
    INAPPLICABLE,
    NOT_ENUMERATED,
    SATURATED,
    SATURATION_LIMIT,
    CallEstimate,
    _saturate,
    count_evaluated,
    degree_bound,
    estimate_calls,
    scaling_study,
)
from graphsi.generate import random_graph
from graphsi.graph import NeighborhoodIndex, khop_neighborhoods, make_graph
from graphsi.errors import BudgetExceeded, TruncatedBudgetExceeded
from graphsi.moebius import build_interaction_set, check_budget

from helpers import mask_to_set
from oracles import interaction_set_oracle


def complete_graph(n: int):
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)],
                      [[0.0]] * n)


# -- estimate_calls ----------------------------------------------------------


def test_path4_bound_chain():
    g = random_graph("path", 4, 1, seed=0)
    assert estimate_calls(g, 1) == CallEstimate(12, 24, 32, 32)


def test_complete_graph_has_no_savings():
    est = estimate_calls(complete_graph(4), 1)
    assert est.exact_I == 16
    assert est == CallEstimate(16, 64, 64, 64)


def test_long_path_stays_linear_while_the_power_set_explodes():
    g = random_graph("path", 100, 1, seed=0)
    est = estimate_calls(g, 2)
    hoods = khop_neighborhoods(g, 2)
    assert max(h.bit_count() for h in hoods.hoods) == 5
    want = len(interaction_set_oracle([mask_to_set(h) for h in hoods.hoods]))
    assert est.exact_I == want
    assert est.exact_I < 2_000
    # the full power set is far past what saturated arithmetic will print
    assert (1 << 100) > SATURATION_LIMIT
    assert _saturate(1 << 100) == SATURATED
    assert all(isinstance(b, int) and b <= SATURATION_LIMIT
               for b in (est.bound_sum, est.bound_nmax, est.bound_dmax))


def test_oversized_neighborhoods_saturate_every_field():
    star = make_graph(70, [(0, i) for i in range(1, 70)], [[0.0]] * 70)
    est = estimate_calls(star, 1)
    assert est.exact_I == NOT_ENUMERATED
    assert est.bound_sum == SATURATED
    assert est.bound_nmax == SATURATED
    assert est.bound_dmax == SATURATED


def test_degree_bound_saturates_from_ell_63_without_a_huge_power():
    cases = [random_graph("er", 10, 1, seed=s, edge_prob=0.3) for s in range(3)]
    cases += [random_graph("tree", 12, 1, seed=0), complete_graph(5)]
    for g in cases:
        d_max = max(g.degree(i) for i in range(g.n))
        assert d_max >= 2
        for ell in range(1, 63):
            size = sum(d_max ** j for j in range(ell + 1))  # 1 + d_max + ... + d_max^ell
            want = g.n << size if size <= 63 and g.n << size <= SATURATION_LIMIT else SATURATED
            assert degree_bound(g, ell) == want
        assert degree_bound(g, 63) == degree_bound(g, 10 ** 9) == SATURATED
    assert degree_bound(random_graph("path", 2, 1, seed=0), 10 ** 9) is None


def test_isolated_nodes_report_inapplicable_degree_bound():
    g = make_graph(3, [], [[0.0]] * 3)
    est = estimate_calls(g, 1)
    assert est.exact_I == 4  # empty set plus singletons
    assert est.bound_dmax == INAPPLICABLE


def test_bound_chain_ordering():
    cases = [random_graph("er", 10, 1, seed=s, edge_prob=0.3) for s in range(6)]
    cases += [random_graph("tree", 12, 1, seed=s) for s in range(3)]
    cases.append(random_graph("path", 9, 1, seed=0))
    cases.append(complete_graph(5))
    for g in cases:
        for ell in (1, 2):
            est = estimate_calls(g, ell)
            assert isinstance(est.exact_I, int)
            assert g.n + 1 <= est.exact_I <= 1 << g.n
            assert est.exact_I <= est.bound_sum <= est.bound_nmax
            d_max = max(g.degree(i) for i in range(g.n))
            if d_max >= 2:
                if isinstance(est.bound_dmax, int):
                    assert est.bound_nmax <= est.bound_dmax
                else:
                    assert est.bound_dmax == SATURATED
            else:
                assert est.bound_dmax == INAPPLICABLE


def test_count_matches_sparse_builder():
    for seed in range(5):
        g = random_graph("er", 11, 1, seed=seed, edge_prob=0.25)
        hoods = khop_neighborhoods(g, 2)
        n_max = max(h.bit_count() for h in hoods.hoods)
        assert count_evaluated(hoods, n_max) == len(build_interaction_set(hoods))


# neighborhood families of up to 6 fields over 10 nodes
FIELDS = st.lists(st.integers(min_value=1, max_value=(1 << 10) - 1), min_size=1, max_size=6)


def evaluated_sets(masks: list[int], lam: int) -> int:
    """Oracle: distinct sets a run at order cap lam evaluates, the members of
    at most lam nodes of the materialized interaction set plus each larger field."""
    family = interaction_set_oracle([mask_to_set(m) for m in masks])
    oversized = {m for m in masks if m.bit_count() > lam}
    return sum(len(s) <= lam for s in family) + len(oversized)


@settings(max_examples=150)
@given(FIELDS, st.integers(min_value=1, max_value=10))
def test_count_equals_materialized_union(masks, lam):
    hoods = NeighborhoodIndex(ell=1, hoods=tuple(masks))
    family = interaction_set_oracle([mask_to_set(m) for m in masks])
    n_max = max(m.bit_count() for m in masks)
    assert count_evaluated(hoods, n_max) == len(family)
    assert count_evaluated(hoods, lam) == evaluated_sets(masks, lam)


@settings(max_examples=150)
@given(FIELDS, st.integers(min_value=1, max_value=1100))
def test_budget_refuses_exactly_the_runs_whose_sets_exceed_the_ceiling(masks, ceiling):
    hoods = NeighborhoodIndex(ell=1, hoods=tuple(masks))
    n_max = max(m.bit_count() for m in masks)

    def refusal(lam):
        try:
            check_budget(hoods, lam, ceiling)
        except BudgetExceeded as exc:
            return exc
        return None

    for lam in [*range(1, n_max + 1), None]:  # None: the exact run, as lam = n_max
        cap = n_max if lam is None else lam
        exc = refusal(lam)
        assert (exc is not None) == (cap > 1 and evaluated_sets(masks, cap) > ceiling)
        if exc is None:
            continue
        assert isinstance(exc, TruncatedBudgetExceeded) == (lam is not None)
        if lam is None:
            assert exc.bound_sum == sum(1 << m.bit_count() for m in masks)
        else:
            assert exc.bound_sum == evaluated_sets(masks, lam)
        suggestion = exc.suggested_lambda
        assert 1 <= suggestion < cap and refusal(suggestion) is None
        assert refusal(suggestion + 1) is not None


def test_count_gives_up_within_the_step_budget(monkeypatch):
    masks = [(0b111111 << i) & 0xFFF for i in range(7)]
    hoods = NeighborhoodIndex(ell=1, hoods=tuple(masks))
    with monkeypatch.context() as patch:
        patch.setattr(complexity, "COUNT_STEP_BUDGET", 2)
        assert count_evaluated(hoods, 6) is None
        assert count_evaluated(hoods, 2) is None
    assert isinstance(count_evaluated(hoods, 6), int)
    assert isinstance(count_evaluated(hoods, 2), int)


# -- scaling study -----------------------------------------------------------


def test_study_rows_carry_the_documented_fields():
    graphs = [random_graph("path", n, 1, seed=0) for n in (6, 10, 14)]
    rows, fits = scaling_study(graphs, [1, 2])
    assert len(rows) == 6
    for row in rows:
        assert set(row) == {"graph_id", "n", "ell", "calls", "is_exact",
                            "density", "speedup_log10"}
        assert row["is_exact"] is True
        assert row["speedup_log10"] > 0.0
    assert not fits[1]["degenerate"] and fits[1]["slope"] > 0.0


def test_study_flags_a_degenerate_fit():
    g = random_graph("tree", 8, 1, seed=4)
    _, fits = scaling_study([g] * 5, [1])
    assert fits[1]["degenerate"] is True
    assert fits[1]["r2"] is None


def test_study_of_nothing_is_empty():
    rows, fits = scaling_study([], [1])
    assert rows == []
    assert fits[1]["degenerate"] is True


def test_study_csv_round_trip(tmp_path):
    out = tmp_path / "study.csv"
    graphs = [random_graph("er", n, 1, seed=n, edge_prob=0.3) for n in (5, 8)]
    rows, _ = scaling_study(graphs, [1], out=out, ids=["a", "b"])
    with open(out, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert [r["graph_id"] for r in parsed] == ["a", "b"]
    for written, row in zip(parsed, rows):
        assert int(written["n"]) == row["n"]
        assert int(written["calls"]) == row["calls"]
        assert written["is_exact"] == "true"
        assert float(written["density"]) == row["density"]
        assert float(written["speedup_log10"]) == row["speedup_log10"]


def test_a_saturated_row_has_no_speedup(tmp_path):
    # the hub's 1-hop field holds all 64 nodes: not enumerated, every bound saturated
    star = make_graph(64, [(0, i) for i in range(1, 64)], [[0.0]] * 64)
    out = tmp_path / "study.csv"
    rows, fits = scaling_study([star], [1], out=out)
    assert rows == [{"graph_id": "0", "n": 64, "ell": 1, "calls": SATURATED, "is_exact": False,
                     "density": 0.03125, "speedup_log10": None}]
    assert fits[1]["count"] == 0 and fits[1]["degenerate"] is True
    assert out.read_text().splitlines()[1] == "0,64,1,saturated,false,0.03125,"


def test_tree_scaling_fits_a_line_in_log_space():
    graphs = []
    grid = [10, 12, 14, 16, 20, 25, 30] + list(range(40, 101, 5))
    for n in grid:
        for s in range(10):
            graphs.append(random_graph("tree", n, 1, seed=1000 * n + s))
    rows, fits = scaling_study(graphs, [1])
    assert all(r["is_exact"] for r in rows)
    assert fits[1]["r2"] > 0.9
    assert fits[1]["slope"] > 0.0
