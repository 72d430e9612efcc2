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

An exact run of a GraphGame at the model's depth whose fields are not a
coalitions.small_family evaluates nothing set by set: it builds the
game's node tables once, sums them by global mask into its Moebius
values (GraphGame.moebius_arrays) and reads its index values off them
(convert.convert_tables). A truncated run on such a game sums node
tables capped at lambda into its kept sets' Moebius values, evaluates
only its oversized fields and converts with convert.convert_mi. Every
other run evaluates its family, transforms it here and converts it with
convert.convert_mi. Either way the Moebius map is an InteractionValues
built from key and value arrays; its values dict is made only when
something reads it.

Cost of the transform: each run off the tables takes one of two routes,
decided by coalitions.small_family over the evaluated sets. A large run
(some set of more than DIRECT_MAX members) transforms its down-closed kept
family with one trimmed butterfly (Bjorklund, Husfeldt, Kaski & Koivisto 2008),
m[S] -= m[S ^ j] on every set holding node bit j for each j in ascending
order: n*|F| operations per pass and no 2^h table. A small run gives
each set its per-set sum, 2^|S| <= 16 terms, without NumPy: twice as
fast there (coalitions.DIRECT_MAX), with the bits path4_mi.json pins.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations
from math import comb

import numpy as np

from . import convert  # convert.convert_mi is looked up per call, so a wrapper set on it applies
from .coalitions import (_unique_maximal, full_mask, iter_members, iter_subsets, pair_index,
                         small_family, sort_key)
from .complexity import count_evaluated, degree_bound
from .errors import BudgetExceeded, NonlinearReadout, TruncatedBudgetExceeded
from .game import GameOracle, GraphGame
from .graph import NeighborhoodIndex
from .interactions import InteractionSet, InteractionValues

DEFAULT_CEILING = 2 ** 24


def truncated_bound(hoods: NeighborhoodIndex, lam: int) -> int:
    """Evaluations a run at order cap lam makes at most: sum_i C(|N_i|, <= lam)
    sets plus one per distinct field of more than lam nodes. At lam >= n_max
    it is sum_i 2^|N_i|, the bound on |I| that heads the exact chain."""
    sizes = [h.bit_count() for h in hoods.hoods]
    return (sum(1 << h if h <= lam else sum(comb(h, j) for j in range(lam + 1)) for h in sizes)
            + len({h for h in hoods.hoods if h.bit_count() > lam}))


def check_budget(hoods: NeighborhoodIndex, lam: int | None, ceiling: int, graph=None) -> None:
    """The evaluation budget: refuses, before anything is evaluated, a run
    whose distinct evaluated sets (its call_count) would exceed the ceiling.

    lam is the run's order cap; an exact run (None) evaluates what a run at
    lam = n_max does, the interaction set I. truncated_bound clears most
    runs; a run it does not clear is counted (complexity.count_evaluated)
    and refused on that count, or on the bound when the count runs out of
    COUNT_STEP_BUDGET steps. lam = 1 always runs: no run is cheaper.

    Raises BudgetExceeded carrying the bound chain (with graph's degree
    bound, when given) for an exact run, TruncatedBudgetExceeded carrying
    the refused count for a truncated one. Both suggest the largest lam
    this rule admits, or 1 when none does.
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


def _support(maximal: list[int], lam: int) -> list[int]:
    """Every subset of size <= lam of the given fields, canonically ordered.

    A subset is a combination of its field's member bits, so its mask is
    their sum. lam = n_max gives the union of the fields' power sets.
    Collecting the subsets by size and sorting each size by mask gives the
    sort_key order without a key call per member.
    """
    by_size: list[set[int]] = [set() for _ in range(lam + 1)]
    for hood in maximal:
        bits = [1 << i for i in iter_members(hood)]
        for size in range(min(lam, len(bits)) + 1):
            by_size[size].update(map(sum, combinations(bits, size)))
    return [m for same_size in by_size for m in sorted(same_size)]


def build_interaction_set(hoods: NeighborhoodIndex) -> InteractionSet:
    """Union of the power sets of all receptive fields, canonically ordered.

    Unguarded: it holds |I| sets, so an exact run puts check_budget to the
    fields first, which refuses it when |I| exceeds the ceiling.
    """
    maximal = _unique_maximal(hoods.hoods)
    n_max = max(h.bit_count() for h in hoods.hoods)
    return InteractionSet(members=tuple(_support(maximal, n_max)),
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
    in key order (entries past the keys are not read). A small run (no
    evaluated set of more than DIRECT_MAX members) takes moebius_transform's
    per-set sum, any other the butterfly over the family.
    """
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


def _interactions(game: GameOracle, hoods: NeighborhoodIndex, kept: Sequence[int],
                  oversized: list[int], k: int, index: str, lam: int | None,
                  ) -> tuple[InteractionValues, InteractionValues]:
    """Evaluate kept + oversized in one batch, transform the kept sets, then
    _surrogates. The map runs as arrays from the game values to the conversion.
    """
    sets = [*kept, *oversized]
    nu = game.evaluate_batch(sets)
    keys = np.fromiter(kept, dtype=np.uint64, count=len(kept))
    m = _moebius_map(keys, nu, small_family(reversed(sets)))
    del sets
    nu = nu[len(kept):]  # free the kept sets' game values: the rest needs only the map
    return _surrogates(game, hoods, keys, m, oversized, nu, k, index, lam)


def _surrogates(game: GameOracle, hoods: NeighborhoodIndex, kept: np.ndarray, m: np.ndarray,
                oversized: list[int], nu: Sequence[float], k: int, index: str, lam: int | None,
                ) -> tuple[InteractionValues, InteractionValues]:
    """The run's map, kept + oversized in that order, and its conversion.

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
    mi = InteractionValues(kind="mi", k=n, n=n, arrays=(keys, found), ell=hoods.ell, lam=lam,
                           call_count=len(keys))
    return mi, convert.convert_mi(mi, index, k)


def _tables_take(game: GameOracle, hoods: NeighborhoodIndex) -> bool:
    """Whether a run reads its Moebius values off the game's node tables
    (capped at lambda on a truncated run): a GraphGame whose balls are the
    fields (ell is the model's depth) and whose fields are not a small
    family. A small family keeps the dense stack only for the bits
    demo/path4_mi.json pins: tables would make its fits faster too."""
    return (isinstance(game, GraphGame) and hoods.ell == game.model.num_layers
            and not small_family(hoods.hoods))


def graphshapiq_exact(game: GameOracle, hoods: NeighborhoodIndex, k: int, index: str = "ksii",
                      ceiling: int = DEFAULT_CEILING,
                      ) -> tuple[InteractionValues, InteractionValues]:
    """Exact interactions from one game evaluation per non-trivial set.

    Evaluates nu on every member of the interaction set (and nothing
    else), computes the Moebius interactions there, and converts them to
    the requested index at order k. Interactions outside the set are
    exactly zero and never materialized.

    A GraphGame at the model's depth whose fields are not a small family
    gives the Moebius and index values straight from its node tables
    instead (GraphGame.node_tables), which forwards nothing; mi builds its
    map on first read, and call_count is |I|.

    Returns (mi, si). Raises NonlinearReadout for mlp2 readouts and, before
    anything is evaluated, BudgetExceeded (with a graph game's degree bound)
    when |I| exceeds the ceiling (check_budget).
    """
    _check_readout(game)
    n = len(hoods.hoods)
    if not 1 <= k <= n:
        raise ValueError(f"order k must be in 1..{n}, got {k}")
    check_budget(hoods, None, ceiling, getattr(game, "graph", None))
    if _tables_take(game, hoods):
        tables = game.node_tables()
        keys, values = game.moebius_arrays(tables)
        mi = InteractionValues(kind="mi", k=n, n=n, arrays=(keys, values), ell=hoods.ell,
                               call_count=len(keys))
        return mi, convert.convert_tables(mi, tables, index, k)
    iset = build_interaction_set(hoods)
    return _interactions(game, hoods, iset.members, [], k, index, None)


def graphshapiq_approx(game: GameOracle, hoods: NeighborhoodIndex, lam: int, k: int,
                       index: str = "ksii",
                       ) -> tuple[InteractionValues, InteractionValues]:
    """Order-truncated interactions with an efficiency repair.

    Keeps interaction-set members of size at most lam, evaluates them
    plus each distinct oversized receptive field, and recovers one
    surrogate Moebius value per such field from the recovery identity,
    with the efficiency gap tau on the largest one. Exact whenever
    lam >= n_max - 1.

    A game that _tables_take admits takes the kept sets' Moebius values
    from its node tables capped at lam (GraphGame.node_tables) and
    evaluates only the oversized fields; call_count is still the kept sets
    plus the oversized fields.
    """
    _check_readout(game)
    n = len(hoods.hoods)
    if not 1 <= lam <= n:
        raise ValueError(f"lambda must be in 1..{n}, got {lam}")
    if not 1 <= k <= n:
        raise ValueError(f"order k must be in 1..{n}, got {k}")
    oversized = sorted({h for h in hoods.hoods if h.bit_count() > lam}, key=sort_key)
    if not _tables_take(game, hoods):
        kept = _support(_unique_maximal(hoods.hoods), lam)
        return _interactions(game, hoods, kept, oversized, k, index, lam)
    keys, m = game.moebius_arrays(game.node_tables(lam))
    return _surrogates(game, hoods, keys, m, oversized, game.evaluate_batch(oversized),
                       k, index, lam)
