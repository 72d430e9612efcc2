"""Pre-flight call estimation and dataset-scale scaling studies.

Everything here works from neighborhood sizes alone, so arbitrary node
counts are fine; nothing ever touches a model. Bounds are reported with
saturated arithmetic: anything beyond 2^63-1 becomes an explicit marker
instead of a silently huge number.
"""

from __future__ import annotations

import csv
import io
import math
from typing import NamedTuple

from .coalitions import _unique_maximal
from .graph import Graph, NeighborhoodIndex, graph_stats, khop_neighborhoods

SATURATION_LIMIT = 2 ** 63 - 1
SATURATED = "saturated"
NOT_ENUMERATED = "not enumerated"
INAPPLICABLE = "inapplicable"

# enumeration cutoff on the largest neighborhood size; beyond it the
# bound stands in for the exact count so scaling tables stay comparable
# with the usual experimental convention
ENUMERATION_MAX_HOOD = 23

# recursion-step allowance for count_evaluated; fields that overlap too
# intricately fall back to the bounds
COUNT_STEP_BUDGET = 200_000


class _OutOfSteps(Exception):
    pass


def _union_powerset_size(masks: list[int], steps: list[int], weight: list[int]) -> int:
    """|P(m_1) u ... u P(m_k)| for mutually incomparable masks, counted
    without materializing any subset; P(m) holds weight[|m|] subsets of m,
    2^|m| for the full power set, sum_{s <= lam} C(|m|, s) under a cap lam.

    Sequential difference: mask i contributes its own weight[|m_i|] sets,
    minus whatever it shares with earlier masks, and the shared part is again
    such a union over the pairwise intersections (strictly smaller, so the
    recursion terminates). The empty set is shared by every pair, which the
    zero mask accounts for.
    """
    total = 0
    for i, h in enumerate(masks):
        steps[0] -= 1
        if steps[0] < 0:
            raise _OutOfSteps
        shared = [x for x in (h & masks[j] for j in range(i)) if x]
        if shared:
            overlap = _union_powerset_size(_unique_maximal(shared), steps, weight)
        elif i:
            overlap = 1  # only the empty set
        else:
            overlap = 0
        total += weight[h.bit_count()] - overlap
    return total


def _capped_subsets(n_max: int, lam: int) -> list[int]:
    """weight[s] = sum_{j <= lam} C(s, j), the subsets of at most lam members
    of an s-set, for s = 0..n_max: 2^s when s <= lam."""
    return [1 << s if s <= lam else sum(math.comb(s, j) for j in range(lam + 1))
            for s in range(n_max + 1)]


def truncated_bound(hoods: NeighborhoodIndex, lam: int) -> int:
    """Evaluations a run at order cap lam makes at most: sum_i C(|N_i|, <= lam)
    sets plus one per distinct field of more than lam nodes. At lam >= n_max
    it is sum_i 2^|N_i|, the bound on |I| that heads the exact chain."""
    sizes = [h.bit_count() for h in hoods.hoods]
    weight = _capped_subsets(max(sizes), lam)
    return sum(weight[s] for s in sizes) + len({h for h in hoods.hoods if h.bit_count() > lam})


def count_evaluated(hoods: NeighborhoodIndex, lam: int) -> int | None:
    """Distinct sets a run at order cap lam evaluates: the subsets of at most
    lam members of the fields, plus each distinct field of more than lam
    nodes. At lam >= n_max that is |I|, the union of the fields' power sets.
    None if counting would exceed COUNT_STEP_BUDGET recursion steps, a
    number that does not depend on lam."""
    weight = _capped_subsets(max(h.bit_count() for h in hoods.hoods), lam)
    try:
        capped = _union_powerset_size(_unique_maximal(hoods.hoods), [COUNT_STEP_BUDGET], weight)
    except _OutOfSteps:
        return None
    return capped + len({h for h in hoods.hoods if h.bit_count() > lam})


class CallEstimate(NamedTuple):
    exact_I: int | str  # exact interaction-set size, or "not enumerated"
    bound_sum: int | str  # sum_i 2^|N_i|
    bound_nmax: int | str  # n * 2^n_max
    bound_dmax: int | str  # n * 2^((d_max^(ell+1)-1)/(d_max-1)), or "inapplicable"


def _saturate(value: int) -> int | str:
    return value if value <= SATURATION_LIMIT else SATURATED


def _pow2_times(n: int, exponent: int) -> int | str:
    if exponent > 63 or n << exponent > SATURATION_LIMIT:
        return SATURATED
    return n << exponent


def degree_bound(g: Graph, ell: int) -> int | str | None:
    """n * 2^((d_max^(ell+1)-1)/(d_max-1)), saturated: the bound on
    sum_i 2^|N_i| from the maximum degree alone, since no ell-hop
    neighborhood holds more than 1 + d_max + ... + d_max^ell nodes.
    None when d_max <= 1, where that geometric sum does not apply. With
    d_max >= 2 the exponent exceeds 63 for every ell >= 63, so ell is
    capped there rather than raising d_max to a huge power."""
    d_max = max(g.degree(i) for i in range(g.n))
    if d_max <= 1:
        return None
    return _pow2_times(g.n, (d_max ** (min(ell, 63) + 1) - 1) // (d_max - 1))


def estimate_calls(g: Graph, ell: int) -> CallEstimate:
    """The full complexity bound chain for an exact run on g at range ell.

    exact_I is counted combinatorially from the maximal receptive fields
    when the largest neighborhood has at most 23 members; larger
    receptive fields, or overlap structure that defeats the counting
    budget, fall back to the bound chain.
    """
    hoods = khop_neighborhoods(g, ell)
    n_max = max(h.bit_count() for h in hoods.hoods)
    bound_sum = _saturate(truncated_bound(hoods, n_max))
    bound_nmax = _pow2_times(g.n, n_max)

    bound_dmax = degree_bound(g, ell)
    if bound_dmax is None:
        bound_dmax = INAPPLICABLE

    counted = None if n_max > ENUMERATION_MAX_HOOD else count_evaluated(hoods, n_max)
    exact: int | str = NOT_ENUMERATED if counted is None else counted
    return CallEstimate(exact, bound_sum, bound_nmax, bound_dmax)


def _row_calls(est: CallEstimate) -> tuple[int | str, bool]:
    """(calls, is_exact) for one study row: the exact count when
    enumerated, else sum_i 2^|N_i|, the tightest bound of the chain: the
    later bounds are no smaller (or inapplicable), so none is an int when
    it saturates."""
    if isinstance(est.exact_I, int):
        return est.exact_I, True
    return est.bound_sum, False


def scaling_study(graphs: list[Graph], ell_values: list[int], out=None,
                  ids: list[str] | None = None) -> tuple[list[dict], dict[int, dict]]:
    """One row per (graph, ell) plus a log-linear fit per ell.

    Rows carry graph_id, n, ell, calls, is_exact, density and the
    saving over the full power set in log10 units. The fit regresses
    log10(calls) on n; fewer than two rows or a zero-variance column
    makes it degenerate.
    When `out` is a path or file object, rows are written there as CSV.
    """
    if ids is None:
        ids = [str(i) for i in range(len(graphs))]
    rows: list[dict] = []
    for graph_id, g in zip(ids, graphs):
        for ell in ell_values:
            est = estimate_calls(g, ell)
            calls, is_exact = _row_calls(est)
            _, _, density = graph_stats(g, ell)
            if isinstance(calls, int):
                speedup = g.n * math.log10(2.0) - math.log10(calls)
            else:
                speedup = None
            rows.append({"graph_id": graph_id, "n": g.n, "ell": ell,
                         "calls": calls, "is_exact": is_exact,
                         "density": density, "speedup_log10": speedup})

    from statistics import StatisticsError, correlation, linear_regression

    fits: dict[int, dict] = {}
    for ell in ell_values:
        pts = [(r["n"], math.log10(r["calls"])) for r in rows
               if r["ell"] == ell and isinstance(r["calls"], int)]
        xs, ys = [p[0] for p in pts], [p[1] for p in pts]
        fit = fits[ell] = {"count": len(pts), "slope": None, "intercept": None,
                           "r2": None, "degenerate": True}
        try:
            slope, intercept = linear_regression(xs, ys)
            r2 = correlation(xs, ys) ** 2
        except StatisticsError:  # fewer than two rows, or a constant column
            continue
        fit.update(slope=slope, intercept=intercept, r2=r2, degenerate=False)

    if out is not None:
        _write_csv(rows, out)
    return rows, fits


def _write_csv(rows: list[dict], out) -> None:
    from .export import format_float, atomic_write_text

    def render(buf) -> None:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["graph_id", "n", "ell", "calls", "is_exact",
                         "density", "speedup_log10"])
        for r in rows:
            writer.writerow([
                r["graph_id"], r["n"], r["ell"], r["calls"],
                "true" if r["is_exact"] else "false",
                format_float(r["density"]),
                "" if r["speedup_log10"] is None else format_float(r["speedup_log10"]),
            ])

    if isinstance(out, (str, bytes)) or hasattr(out, "__fspath__"):
        buf = io.StringIO()
        render(buf)
        atomic_write_text(out, buf.getvalue())
    else:
        render(out)
