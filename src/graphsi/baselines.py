"""Exhaustive oracles, permutation samplers, the estimator comparison, the readout audit.

The brute-force Moebius map evaluates the full power set and transforms
it as one field, as the sparse pipeline does; every index follows from
it through `convert_mi`, the same linear maps the sparse pipeline uses.
The term-by-term SV/SII/STII definitions live only in the test oracles.
The samplers draw discrete derivatives with the exact Shapley
distribution over predecessor sets; budgets count nominal evaluations
under the documented schedule while actual model calls still dedupe
through the game cache. Every run's call_count is the distinct
coalitions it asked for (2^n for the brute-force map), whatever the
game has forwarded for other runs.
"""

from __future__ import annotations

from itertools import combinations, product
from math import inf, sqrt
from typing import Container

import numpy as np

from .coalitions import field_sets, full_mask, iter_subsets, mask_of, small_family
from .explainer import GraphInteractionExplainer
from .game import GameOracle, GraphGame
from .generate import seeded_rng
from .graph import Graph, ensure_graph, khop_neighborhoods
from .interactions import InteractionValues
from .moebius import (DEFAULT_CEILING, _moebius_map, build_interaction_set, graphshapiq_approx,
                      moebius_transform)
from .nn import ensure_model

BRUTE_FORCE_MI_MAX = 16
AUDIT_MAX = 14


def brute_force_mi(game: GameOracle, n: int) -> InteractionValues:
    """Exact Moebius interactions of every subset: the whole player set is one field."""
    if n > BRUTE_FORCE_MI_MAX:
        raise ValueError(f"brute-force MI is capped at n={BRUTE_FORCE_MI_MAX}, got {n}")
    keys = np.arange(1 << n, dtype=np.uint64)
    m = _moebius_map(keys, game.evaluate_batch(keys.tolist()), small_family([full_mask(n)]))
    return InteractionValues(kind="mi", k=n, n=n, arrays=(keys, m), call_count=len(keys))


def permutation_sampling_sv(game: GameOracle, budget: int, seed: int,
                            ) -> tuple[InteractionValues, dict[int, float]]:
    """Castro-style Shapley value estimator.

    Walks random permutations from the empty set to the grand coalition;
    each player's estimate is the mean of its marginal contributions.
    A full permutation is charged n+1 nominal evaluations; a new one
    starts only while the budget allows it.

    Returns (estimates, stderr map). Fixed seed, fixed output.
    """
    n = game.n_players
    if budget < n + 1:
        raise ValueError(f"budget must be at least n+1 = {n + 1}, got {budget}")
    rng = seeded_rng(seed)
    sums = np.zeros(n)
    squares = np.zeros(n)
    rounds = 0
    spent = 0
    asked: set[int] = set()
    while spent + n + 1 <= budget:
        spent += n + 1
        order = rng.permutation(n).tolist()
        prefixes = [0]
        for player in order:
            prefixes.append(prefixes[-1] | 1 << player)
        values = game.evaluate_batch(prefixes)
        asked.update(prefixes)
        for player, before, after in zip(order, values, values[1:]):
            delta = after - before
            sums[player] += delta
            squares[player] += delta * delta
        rounds += 1
    means = sums / rounds
    stderr: dict[int, float] = {}
    for i in range(n):
        if rounds >= 2:
            var = (squares[i] - rounds * means[i] ** 2) / (rounds - 1)
            stderr[i] = sqrt(max(var, 0.0) / rounds)
        else:
            stderr[i] = inf
    values = {1 << i: float(means[i]) for i in range(n)}
    iv = InteractionValues(kind="sv", k=1, n=n, values=values, call_count=len(asked))
    return iv, stderr


def permutation_sampling_sii(game: GameOracle, k: int, budget: int, seed: int,
                             informed: Container[int] | None = None) -> InteractionValues:
    """Sampled Shapley interaction index for every set of size 1..k.

    Per target set S, one draw samples a predecessor set T with the
    exact SII distribution (uniform size, then uniform set of that size
    from the non-members) and evaluates the discrete derivative, at a
    nominal cost of 2^|S|. Draws go round-robin over target sets in
    canonical order until the next draw would exceed the budget.

    With `informed`, sets outside it are never sampled and are reported
    as exact zeros, so the whole budget goes to the survivors. The map
    holds the targets, then the zeros, each in canonical order.
    """
    n = game.n_players
    if k < 1:
        raise ValueError(f"order k must be >= 1, got {k}")
    sets = field_sets([full_mask(n)], k)[1:].tolist()  # every set of 1..k players
    targets = [s for s in sets if informed is None or s in informed]
    zeros = [s for s in sets if informed is not None and s not in informed]
    round_cost = sum(1 << t.bit_count() for t in targets)
    if targets and budget < round_cost:
        raise ValueError(
            f"budget {budget} cannot afford one draw per target set (needs {round_cost})")

    rng = seeded_rng(seed)
    sums = {s: 0.0 for s in targets}
    draws = {s: 0 for s in targets}
    spent = 0
    position = 0
    asked: set[int] = set()
    while targets:
        s_mask = targets[position]
        cost = 1 << s_mask.bit_count()
        if spent + cost > budget:
            break
        spent += cost
        others = np.array([i for i in range(n) if not s_mask & (1 << i)], dtype=np.int64)
        t_size = int(rng.integers(0, len(others) + 1))
        t_mask = mask_of(int(j) for j in rng.permutation(others)[:t_size])
        subs = list(iter_subsets(s_mask))
        coalitions = [t_mask | sub for sub in subs]
        asked.update(coalitions)
        shifted = dict(zip(subs, game.evaluate_batch(coalitions)))
        sums[s_mask] += moebius_transform(None, s_mask, shifted)  # Delta_S(T)
        draws[s_mask] += 1
        position = (position + 1) % len(targets)

    out = {s: (sums[s] / draws[s] if draws[s] else 0.0) for s in targets}
    for s in zeros:
        out[s] = 0.0
    return InteractionValues(kind="sii", k=k, n=n, values=out, call_count=len(asked))


def audit_nonlinear_readout(model_linear, model_mlp2, g: Graph,
                            baseline=None) -> dict:
    """Largest Moebius interaction outside the receptive-field family,
    for a linear-readout model and an mlp2-readout sibling.

    The linear model's off-family mass must vanish (< 1e-8); the mlp2
    model's mass is the reported finding, with no threshold.
    """
    if model_linear.readout.kind != "linear":
        raise ValueError("the first model must use a linear readout")
    if model_mlp2.readout.kind != "mlp2":
        raise ValueError("the second model must use an mlp2 readout")
    if g.n > AUDIT_MAX:
        raise ValueError(f"audit is capped at n={AUDIT_MAX}, got {g.n}")
    if model_linear.num_layers != model_mlp2.num_layers:
        raise ValueError("models must share the conv layer count")
    ell = model_linear.num_layers
    hoods = khop_neighborhoods(g, ell)
    iset = build_interaction_set(hoods)

    report: dict = {"n": g.n, "ell": ell, "interaction_set_size": len(iset)}
    for label, model in (("linear", model_linear), ("mlp2", model_mlp2)):
        game = GraphGame(model, g, baseline=baseline)
        mi = brute_force_mi(game, g.n)
        off = max((abs(v) for s, v in mi.values.items() if s not in iset), default=0.0)
        report[f"max_abs_mi_outside_{label}"] = off
    report["linear_ok"] = report["max_abs_mi_outside_linear"] < 1e-8
    return report


def compare_estimators(model, graph, k: int, budgets: list[int], seeds: list[int],
                       ceiling: int = DEFAULT_CEILING,
                       ) -> list[tuple[str, int, int, float | None]]:
    """Error of each estimator against the exact index, at equal budgets.

    The index is SV at k=1 and SII above. Rows are (method, budget,
    seed, mse over every set of size 1..k): first the truncated run at
    each order 1..n_max (its budget is the calls it makes on a game of
    its own, seed 0), then
    permutation sampling at each budget and seed, for k >= 2 both
    uninformed and informed by the exact run's interaction set. A
    budget too small for one sampling round gives mse None.
    """
    if any(seed < 0 for seed in seeds):
        raise ValueError(f"seeds must be non-negative integers, got {min(seeds)}")
    g, model = ensure_graph(graph), ensure_model(model)
    index = "sv" if k == 1 else "sii"
    exact = GraphInteractionExplainer(model, index=index, order=k, ceiling=ceiling).fit(g)
    sets = [mask_of(c) for size in range(1, k + 1) for c in combinations(range(g.n), size)]

    def mse(estimate: InteractionValues) -> float:
        truth = exact.interactions_
        return sum((estimate.get(s) - truth.get(s)) ** 2 for s in sets) / len(sets)

    # Every run reads the exact run's game, so no coalition is forwarded twice;
    # a lambda run's budget is its own call_count, the sets of its Moebius map.
    game = exact.game_
    rows = []
    n_max = max(h.bit_count() for h in exact.hoods_.hoods)
    for lam in range(1, n_max + 1):
        mi, estimate = graphshapiq_approx(game, exact.hoods_, lam, k, index=index)
        rows.append((f"graphshapiq_l{lam}", mi.call_count, 0, mse(estimate)))

    methods = ([("permutation_sv", None)] if k == 1 else
               [("permutation_sii_uninformed", None),
                ("permutation_sii_informed", exact.moebius_.values)])
    for budget, seed in product(budgets, seeds):
        for method, informed in methods:
            try:
                estimate = (permutation_sampling_sv(game, budget, seed)[0] if k == 1 else
                            permutation_sampling_sii(game, k, budget, seed, informed=informed))
            except ValueError:  # the budget cannot fund one sampling round
                estimate = None
            rows.append((method, budget, seed, None if estimate is None else mse(estimate)))
    return rows
