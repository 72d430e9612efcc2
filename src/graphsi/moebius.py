"""Sparse exact and truncated-order interaction computation.

The central fact: with a linear readout, the graph game's Moebius
interactions vanish outside the union of the power sets of the
receptive fields. The exact routine therefore evaluates the game on
that union only, which is typically exponentially smaller than the full
power set, and still recovers every interaction index exactly.

The truncated variant caps the interaction order at lambda, evaluates
the surviving sets plus each full receptive field, and repairs the
efficiency gap so the recovered values still sum to the full
prediction.

_route picks each run's route once, testing in this order: no field of
more than DIRECT_MAX members (coalitions.small_family) gives sums; then a
game that is no GraphGame, or an ell other than the model's depth, gives
butterfly; then nn._table_hops gives nodes at the model's depth and rows
one hop short (a GCN last layer after another). _run follows the route.
F is the family a dense route evaluates: I, or the sets of at most lambda
members (coalitions.field_sets), plus a truncated run's oversized fields.

  route      evaluation      Moebius values    index values     m(S) rounds within
  sums       F, dense stack  per-set sums      subset loop      gamma_{2^|S|-1} sum|nu|
  butterfly  F, dense stack  family butterfly  convert_mi       gamma_{|S|} sum|nu|
  nodes      node tables     table sums        exact: tables,   table transforms, sums
                                               else convert_mi  by mask, ball forwards
  rows       row tables      table sums        tables           as nodes

sum|nu| sums |nu(T)| over the subsets T of S. Per-set sums (moebius_transform)
take 2^|S| <= 16 terms a set without NumPy: twice the butterfly's speed
there (coalitions.DIRECT_MAX), and the bits demo/path4_mi.json pins, which
alone keep small families off the tables. The family butterfly
(_moebius_map) runs m[S] -= m[S ^ j] over the down-closed F, node bit j
ascending (Bjorklund, Husfeldt, Kaski & Koivisto 2008): n*|F| operations a
pass, no 2^h table. Table sums (GraphGame.moebius_arrays) transform each
ball's table, capped at lambda on a truncated run, and sum them onto the
keys by each entry's position, which convert.convert_tables reuses. Index
values come from convert.convert_mi or, off the tables, convert_tables,
each rounding once per term. Capped node tables keep convert_mi: their
codes outnumber the kept sets (114,241 to 17,292 on the truncated
benchmark's graph under a GIN), and converting on them measured slower.
Every route ends in _surrogates, for the oversized fields. On the tables
convert_tables adds the surrogates' shares in one array pass, and leaves
the subset loop only their sets of more than lambda members (k > lambda).
The map is an InteractionValues built from key and value arrays.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import reduce
from operator import or_

import numpy as np

from . import convert  # convert.convert_mi is looked up per call, so a wrapper set on it applies
from .coalitions import (_unique_maximal, field_sets, full_mask, iter_subsets, pair_index,
                         small_family, sort_key)
from .complexity import count_evaluated, degree_bound, truncated_bound
from .errors import BudgetExceeded, NonlinearReadout, TruncatedBudgetExceeded, as_count
from .game import GameOracle, GraphGame
from .graph import NeighborhoodIndex
from .interactions import InteractionSet, InteractionValues
from .nn import _table_hops

DEFAULT_CEILING = 2 ** 24


def check_budget(hoods: NeighborhoodIndex, lam: int | None, ceiling: int, graph=None) -> None:
    """The evaluation budget: refuses, before anything is evaluated, a run
    whose distinct evaluated sets (its call_count) would exceed the ceiling.

    lam is the run's order cap; an exact run (None) evaluates what a run at
    lam = n_max does, the interaction set I. truncated_bound clears most
    runs; a run it does not clear is counted (complexity.count_evaluated)
    and refused on that count, or on the bound when the count runs out of
    COUNT_STEP_BUDGET steps. lam = 1 always runs: no run is cheaper.

    Refuses first a ceiling that is no integer >= 1, then a lam outside
    1..n, n the nodes the fields hold (ParseError). Raises BudgetExceeded
    carrying the bound chain (with graph's degree bound, when given) for
    an exact run, TruncatedBudgetExceeded carrying the refused count for a
    truncated one. Both suggest the largest lam this rule admits, or 1
    when none does.
    """
    def refused(cap: int) -> int | None:
        """The sets a run at cap evaluates, when they exceed the ceiling."""
        if cap == 1:
            return None
        bound = truncated_bound(hoods, cap)
        if bound <= ceiling:
            return None
        count = count_evaluated(hoods, cap)
        if count is None:
            return bound
        return count if count > ceiling else None

    as_count(ceiling, "ceiling")
    if lam is not None:  # the nodes the fields hold: on a graph, all n
        as_count(lam, "lambda", reduce(or_, hoods.hoods).bit_count())
    n_max = max(h.bit_count() for h in hoods.hoods)
    run = n_max if lam is None else min(lam, n_max)
    sets = refused(run)
    if sets is None:
        return
    # Bound and count only grow with the cap, and the count's steps do not
    # depend on it, so the first refused cap ends the search.
    suggestion = next((cap - 1 for cap in range(2, run) if refused(cap)), run - 1)
    if lam is not None:
        raise TruncatedBudgetExceeded(lam, sets, ceiling, suggestion)
    raise BudgetExceeded(truncated_bound(hoods, n_max), len(hoods.hoods) << n_max,
                         None if graph is None else degree_bound(graph, hoods.ell),
                         ceiling, suggestion)


def build_interaction_set(hoods: NeighborhoodIndex) -> InteractionSet:
    """Union of the power sets of all receptive fields, canonically ordered.

    Unguarded: it holds |I| sets, so an exact run puts check_budget to the
    fields first, which refuses it when |I| exceeds the ceiling.
    """
    maximal = _unique_maximal(hoods.hoods)
    return InteractionSet(members=tuple(field_sets(maximal).tolist()),
                          maximal_hoods=tuple(maximal))


def moebius_transform(game, coalition: int, values: dict[int, float] | None = None) -> float:
    """Inclusion-exclusion sum m(S) = sum_{T subset S} (-1)^{|S|-|T|} nu(T).

    Reads nu from `values` when given (a missing subset is a caller
    bug), otherwise evaluates every subset through the game in one batch.
    """
    if values is None:
        subsets = list(iter_subsets(coalition))
        values = dict(zip(subsets, game.evaluate_batch(subsets)))
    s = coalition.bit_count()
    total = 0.0
    try:
        for sub in iter_subsets(coalition):
            term = values[sub]
            total += term if (s - sub.bit_count()) % 2 == 0 else -term
    except KeyError as exc:
        raise RuntimeError(
            f"internal error: subset {exc.args[0]!r} of {coalition:#x} was never evaluated") from exc
    return total


def _moebius_map(keys: np.ndarray, nu: Sequence[float], small: bool) -> np.ndarray:
    """m on every set of the down-closed family keys, in key order, from nu
    in key order (entries past the keys are not read): moebius_transform's
    per-set sums when small, else the butterfly over the family."""
    if small:
        values = dict(zip(keys.tolist(), nu))
        return np.fromiter((moebius_transform(None, s, values) for s in values),
                           dtype=float, count=len(values))
    m = np.fromiter(nu, dtype=float, count=len(keys))
    for rows, partners in pair_index(keys):
        m[rows] -= m[partners]
    return m


def _check_readout(game) -> None:
    model = getattr(game, "model", None)
    if model is not None and getattr(model.readout, "kind", "linear") != "linear":
        raise NonlinearReadout(
            "the sparse computation is only exact for linear readouts; this model's "
            "readout is nonlinear and produces interactions outside the receptive "
            "fields (run the readout audit to quantify them)")


def _surrogates(game: GameOracle, hoods: NeighborhoodIndex, kept: np.ndarray, m: np.ndarray,
                oversized: list[int], nu: Sequence[float], lam: int | None) -> InteractionValues:
    """The run's Moebius map, kept + oversized in that order, which is
    canonical (the oversized fields, sorted, hold more than lam members and
    the kept sets at most lam).

    kept holds the kept sets and m their Moebius values, nu the oversized
    fields' game values. Each oversized field, smallest first, gets what the
    recovery identity leaves unexplained by the values assigned so far; the
    largest (ties: smallest bitmask) also takes the gap tau to nu(N). Exact
    runs have none.
    """
    keys = np.concatenate([kept, np.array(oversized, dtype=np.uint64)])
    found = np.concatenate([m, np.empty(len(oversized))])
    for i, (hood, value) in enumerate(zip(oversized, nu), start=len(kept)):
        inside = (keys[:i] & ~np.uint64(hood)) == 0
        # cumsum adds left to right in map order, as a running sum would; np.sum is pairwise
        found[i] = value - float(np.cumsum(found[:i][inside])[-1])
    if oversized:
        star = min(oversized, key=lambda h: (-h.bit_count(), h))
        grand = getattr(game, "nu_full", None)  # a GraphGame's, known from construction
        if grand is None:  # table games evaluate (and cache) the grand coalition
            grand = game.evaluate(full_mask(len(hoods.hoods)))
        # the builtin sum in map order keeps the outputs' bits (it compensates from Python 3.12)
        found[len(kept) + oversized.index(star)] += grand - sum(found.tolist())
    n = len(hoods.hoods)
    return InteractionValues(kind="mi", k=n, n=n, arrays=(keys, found), ell=hoods.ell, lam=lam,
                             call_count=len(keys))


def _route(game: GameOracle, hoods: NeighborhoodIndex) -> str:
    """The run's route, a row of the module docstring's table."""
    if small_family(hoods.hoods):
        return "sums"
    if not (isinstance(game, GraphGame) and hoods.ell == game.model.num_layers):
        return "butterfly"
    return "nodes" if _table_hops(game.model) == game.model.num_layers else "rows"


def _run(game: GameOracle, hoods: NeighborhoodIndex, lam: int | None, k: int, index: str,
         ceiling: int = DEFAULT_CEILING) -> tuple[InteractionValues, InteractionValues]:
    """(mi, si) of an exact run (lam None) or one capped at lam, on its
    _route, after every refusal the entry points list, in their order."""
    _check_readout(game)
    n = len(hoods.hoods)
    if lam is not None:
        as_count(lam, "lambda", n)
    weight = convert._index_weight(index, k, n)
    if lam is None:
        check_budget(hoods, None, ceiling, getattr(game, "graph", None))
    route = _route(game, hoods)
    oversized = sorted({h for h in hoods.hoods if lam is not None and h.bit_count() > lam},
                       key=sort_key)
    if route in ("nodes", "rows"):
        keys, m, tables = game.moebius_arrays(lam)
        nu = game.evaluate_batch(oversized)
    else:
        kept = (build_interaction_set(hoods).members if lam is None
                else field_sets(hoods.hoods, lam).tolist())
        nu = game.evaluate_batch([*kept, *oversized])
        keys = np.fromiter(kept, dtype=np.uint64, count=len(kept))
        m = _moebius_map(keys, nu, route == "sums")
        nu = nu[len(kept):]  # free the kept sets' game values: the rest needs only the map
    mi = _surrogates(game, hoods, keys, m, oversized, nu, lam)
    if weight is not None and (route == "rows" or route == "nodes" and lam is None):
        return mi, convert.convert_tables(mi, tables, index, weight, k)
    return mi, convert.convert_mi(mi, index, k)


def graphshapiq_exact(game: GameOracle, hoods: NeighborhoodIndex, k: int, index: str = "ksii",
                      ceiling: int = DEFAULT_CEILING,
                      ) -> tuple[InteractionValues, InteractionValues]:
    """Exact interactions: the Moebius values on the interaction set I,
    converted to the requested index at order k. Interactions outside I
    are exactly zero and never materialized; mi's call_count is |I|.

    Returns (mi, si). Refuses, before anything is evaluated: an mlp2
    readout (NonlinearReadout); an unknown index, "sv" at k != 1 or k
    outside 1..n, then a ceiling that is no integer >= 1 (ParseError, a
    ValueError); then |I| above the ceiling (BudgetExceeded with a graph
    game's degree bound, check_budget).
    """
    return _run(game, hoods, None, k, index, ceiling)


def graphshapiq_approx(game: GameOracle, hoods: NeighborhoodIndex, lam: int, k: int,
                       index: str = "ksii",
                       ) -> tuple[InteractionValues, InteractionValues]:
    """Order-truncated interactions with an efficiency repair.

    The Moebius values of the interaction-set members of at most lam
    members, plus one surrogate per distinct oversized receptive field
    (_surrogates), converted to the requested index at order k; mi's
    call_count is the kept sets plus the oversized fields. Exact whenever
    lam >= n_max - 1.

    Refuses, before anything is evaluated: an mlp2 readout
    (NonlinearReadout); lam outside 1..n, an unknown index, "sv" at k != 1
    or k outside 1..n (ParseError, a ValueError). It checks no budget;
    check_budget(hoods, lam, ceiling) does.
    """
    return _run(game, hoods, lam, k, index)
