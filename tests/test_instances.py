"""Property tests of the whole pipeline on drawn graph instances.

Instances come from generate_instance: path, cycle, tree and ER graphs of
at most 12 nodes, GIN, GCN or mixed stacks of 1-3 layers, sum or mean
pooling, explained at a drawn range ell of 1-3 hops, which may differ from
the layer count. The two evaluators are also compared at a drawn baseline,
with and without normalization.
Each is small enough to evaluate the game on its whole power set, so the
sparse results are held against the dense game and the exact-rational
Moebius transform of the same floats.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import graphsi.game
from graphsi.coalitions import DIRECT_MAX, mask_of, small_family
from graphsi.convert import convert_mi, efficiency_check
from graphsi.explainer import GraphInteractionExplainer
from graphsi.export import dumps_json, dumps_si_graph
from graphsi.game import GraphGame
from graphsi.generate import generate_instance, random_model
from graphsi.graph import khop_neighborhoods
from graphsi.interactions import InteractionValues
from graphsi.moebius import build_interaction_set, graphshapiq_approx, graphshapiq_exact
from graphsi.nn import GcnLayer, _table_hops

from helpers import force_route, mask_to_set, table_moebius
from oracles import (conversion_oracle, fast_moebius_oracle, fast_zeta_oracle, gamma,
                     interaction_set_oracle, khop_oracle, si_graph_oracle)

# An ER graph whose 1-hop fields lie on both sides of DIRECT_MAX, so the
# exact run is mixed: tested on every run, whatever the draws cover.
MIXED = ("er", 9, 4, ("gin",), "sum", None, False, 1)


@st.composite
def instances(draw):
    kind = draw(st.sampled_from(["path", "cycle", "tree", "er"]))
    n = draw(st.integers(min_value=3 if kind == "cycle" else 1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    # the depth first, uniformly: a list strategy would draw mostly one-layer stacks
    depth = draw(st.integers(min_value=1, max_value=3))
    kinds = tuple(draw(st.sampled_from(["gin", "gcn"])) for _ in range(depth))
    pooling = draw(st.sampled_from(["sum", "mean"]))
    baseline = draw(st.none() | st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
    normalize = draw(st.booleans())
    ell = draw(st.integers(min_value=1, max_value=3))
    return kind, n, seed, kinds, pooling, baseline, normalize, ell


def build(kind, n, seed, kinds, pooling):
    """Graph and model; conv layer l is GIN or GCN as kinds[l] says."""
    g, gin = generate_instance(kind, n, 3, seed, "gin", len(kinds), 4, edge_prob=0.4)
    gcn = random_model("gcn", 3, len(kinds), 4, seed)
    layers = tuple((gin if k == "gin" else gcn).layers[idx] for idx, k in enumerate(kinds))
    return g, dataclasses.replace(gin, layers=layers, pooling=pooling)


def test_the_fixed_example_is_mixed():
    g, model = build(*MIXED[:5])
    sizes = {h.bit_count() for h in khop_neighborhoods(g, model.num_layers).hoods}
    assert min(sizes) <= DIRECT_MAX < max(sizes)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(instances())
@example(MIXED)
def test_pipeline_agrees_with_the_dense_power_set(case):
    *shape, baseline, normalize, ell = case
    g, model = build(*shape)
    every = list(range(1 << g.n))
    dense = GraphGame(model, g)
    nu = dense.evaluate_batch(every)
    scale = max(1.0, abs(dense.nu_full))

    # property 1: Moebius values from node tables against the transform of the
    # dense stack on the whole power set, at the drawn baseline and normalization
    want = fast_moebius_oracle(GraphGame(model, g, baseline, normalize).evaluate_batch(every))
    got = table_moebius(GraphGame(model, g, baseline, normalize))
    assert max(abs(got.get(t, 0.0) - m) for t, m in enumerate(want)) <= 1e-12 * scale
    # the route rule: an exact run builds node tables exactly when it explains
    # at the model's depth and some field has more than DIRECT_MAX members
    balls, real_ball = [], graphsi.game._forward_ball

    def ball(*args):
        balls.append(args)
        return real_ball(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphsi.game, "_forward_ball", ball)
        ex = GraphInteractionExplainer(model, index="mi", ell=ell, baseline=baseline,
                                       normalize=normalize).fit(g)
    fields = khop_neighborhoods(g, ell).hoods
    assert bool(balls) == (ell == model.num_layers and not small_family(fields))
    with pytest.MonkeyPatch.context() as patch:
        force_route(patch, tables=False)
        stacked = GraphInteractionExplainer(model, index="mi", ell=ell, baseline=baseline,
                                            normalize=normalize).fit(g).moebius_.values
    assert list(ex.moebius_.values) == list(stacked)
    assert max(abs(v - ex.moebius_.values[t]) for t, v in stacked.items()) <= 1e-12 * scale

    # property 2: exact MI within the rounding bound on I and zero off it, where
    # I covers the receptive fields (nu's Moebius transform vanishes off them)
    if ell >= model.num_layers:
        with pytest.MonkeyPatch.context() as patch:  # the dense stack, whose values nu holds
            force_route(patch, tables=False)
            mi, _ = graphshapiq_exact(GraphGame(model, g), khop_neighborhoods(g, ell),
                                      k=1, index="sv")
        # exact rationals, all scaled by one power of two that makes every nu an integer
        ratios = [v.as_integer_ratio() for v in nu]
        scale2 = max(den for _, den in ratios)
        scaled = [num * (scale2 // den) for num, den in ratios]
        exact = fast_moebius_oracle(scaled)
        magnitude = fast_zeta_oracle([abs(v) for v in scaled])
        small = small_family(mi.values)
        for t, value in mi.values.items():
            # one rounding per butterfly pass over T's bits; 2^|T| - 1 for a small run's sum
            depth = (1 << t.bit_count()) - 1 if small else t.bit_count()
            assert abs(Fraction(value) * scale2 - exact[t]) <= gamma(depth) * magnitude[t]
        floats = fast_moebius_oracle(nu)
        off = [t for t in every if t not in mi.values]
        assert all(mi.get(t) == 0.0 for t in off)
        assert max((abs(floats[t]) for t in off), default=0.0) <= 1e-12 * scale

    # property 4: truncated runs are efficient at every order cap
    hoods = khop_neighborhoods(g, model.num_layers)
    n_max = max(h.bit_count() for h in hoods.hoods)
    for lam in range(1, n_max + 1):
        game = GraphGame(model, g)
        mi, si = graphshapiq_approx(game, hoods, lam, k=min(2, g.n), index="ksii")
        assert efficiency_check(mi, game.nu_full, game.nu_empty) <= 1e-12 * scale
        assert efficiency_check(si, game.nu_full, game.nu_empty) <= 1e-12 * scale

    # property 5: one model evaluation per member of the interaction set at ell
    ex = GraphInteractionExplainer(model, index="mi", ell=ell).fit(g)
    fields = khop_oracle(g.n, g.edges, ell)
    assert ex.call_count_ == ex.interaction_set_size_ == len(interaction_set_oracle(fields))


# (index, k) pairs the table conversion is checked at
CONVERSIONS = [("sv", 1)] + [(index, k) for index in ("sii", "ksii", "stii") for k in (1, 2, 3)]


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(instances())
@example(MIXED)
@example(("tree", 10, 16, ("gin", "gin"), "mean", None, True, 2))  # seed 16: k-SII at k = 3
def test_index_values_from_node_tables(case):
    # exact runs forced onto the node tables, whatever the field sizes: their
    # index values against convert_mi of the same tables' Moebius map at every
    # pooling and normalization, and at the drawn ones and one index picked by
    # the drawn seed against the exact rational conversion of that map
    *shape, baseline, normalize, _ = case
    g, model = build(*shape)
    hoods = khop_neighborhoods(g, model.num_layers)
    oracle = CONVERSIONS[shape[2] % len(CONVERSIONS)]  # by the drawn seed
    for pooling in ("sum", "mean"):
        pooled = dataclasses.replace(model, pooling=pooling)
        for norm in (False, True):
            game = GraphGame(pooled, g, baseline, norm)
            mi = InteractionValues(kind="mi", k=g.n, n=g.n, values=table_moebius(game))
            tol = 1e-12 * max(1.0, abs(game.nu_full))
            for index, k in CONVERSIONS:
                if k > g.n:
                    continue
                with pytest.MonkeyPatch.context() as patch:
                    force_route(patch, tables=True)
                    _, got = graphshapiq_exact(game, hoods, k, index)
                want = convert_mi(mi, index, k).values
                assert list(got.values) == list(want)  # the same sets, in the same order
                assert max(abs(v - want[t]) for t, v in got.values.items()) <= tol
                if (pooling, norm, index, k) != (shape[-1], normalize, *oracle):
                    continue
                moebius = {mask_to_set(t): v for t, v in mi.values.items()}
                for sub, (exact, _, _) in conversion_oracle(moebius, g.n, index, k).items():
                    assert abs(Fraction(got.get(mask_of(sub))) - exact) <= tol


INDICES = ("mi", "sv", "sii", "ksii", "stii")


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(instances())
@example(MIXED)
def test_truncated_runs_from_capped_tables_match_the_dense_route(case):
    # every order cap and index, on the node tables capped at lambda and on
    # the dense stack, each route forced whatever the field sizes
    *shape, baseline, normalize, _ = case
    g, model = build(*shape)
    hoods = khop_neighborhoods(g, model.num_layers)
    n_max = max(h.bit_count() for h in hoods.hoods)
    tol = 1e-12 * max(1.0, abs(GraphGame(model, g, baseline, normalize).nu_full))
    for lam in range(1, n_max + 1):
        for index in INDICES:
            k = 1 if index == "sv" else min(2, g.n)
            runs = []
            for tables in (True, False):
                with pytest.MonkeyPatch.context() as patch:
                    force_route(patch, tables)
                    game = GraphGame(model, g, baseline, normalize)
                    runs.append(graphshapiq_approx(game, hoods, lam, k, index))
            for got, want in zip(*runs):  # the Moebius maps, then the index values
                assert list(got.values) == list(want.values)  # the same sets, in the same order
                assert got.call_count == want.call_count
                assert max(abs(v - want.values[t]) for t, v in got.values.items()) <= tol


@st.composite
def gcn_last_instances(draw):
    """Instances whose last conv layer is a GCN layer after one or two
    others, so their node tables are row tables over the balls one hop
    narrower than the fields: (kind, n, seed, kinds, baseline)."""
    kind = draw(st.sampled_from(["path", "cycle", "tree", "er"]))
    n = draw(st.integers(min_value=3 if kind == "cycle" else 1, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    depth = draw(st.integers(min_value=2, max_value=3))
    kinds = tuple(draw(st.sampled_from(["gin", "gcn"])) for _ in range(depth - 1)) + ("gcn",)
    baseline = draw(st.none() | st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
    return kind, n, seed, kinds, baseline


def build_biased(kind, n, seed, kinds, pooling):
    """build's graph and model, with drawn biases on the GCN layers (the
    last one's reaches the pooled value through no ball)."""
    g, model = build(kind, n, seed, kinds, pooling)
    rng = np.random.Generator(np.random.Philox(seed))
    return g, dataclasses.replace(model, layers=tuple(
        dataclasses.replace(layer, bias=rng.normal(size=layer.bias.shape))
        if isinstance(layer, GcnLayer) else layer for layer in model.layers))


# a 9-node path under two GCN layers: {0, 3} lies in node 1's 2-hop field
# but in no 1-hop ball
ROW_PATH = ("path", 9, 5, ("gcn", "gcn"), None)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(gcn_last_instances())
@example(ROW_PATH)
def test_sets_off_the_row_balls_read_exactly_zero(case):
    # every set of I in no row ball's power set, under sum and mean pooling:
    # exactly 0.0 from the row tables, exact and capped at lambda, and within
    # the rounding bound of 0 in the transform of the dense power set
    kind, n, seed, kinds, baseline = case
    for pooling in ("sum", "mean"):
        g, model = build_biased(kind, n, seed, kinds, pooling)
        assert _table_hops(model) == model.num_layers - 1
        rows = khop_neighborhoods(g, model.num_layers - 1).hoods
        iset = build_interaction_set(khop_neighborhoods(g, model.num_layers)).members
        off = [t for t in iset if all(t & ~row for row in rows)]
        assert off or case != ROW_PATH
        dense = GraphGame(model, g, baseline)
        want = fast_moebius_oracle(dense.evaluate_batch(range(1 << g.n)))
        assert max((abs(want[t]) for t in off), default=0.0) <= 1e-12 * max(1.0, abs(dense.nu_full))
        game = GraphGame(model, g, baseline)
        got = table_moebius(game)
        assert list(got) == list(iset)
        assert [got[t] for t in off] == [0.0] * len(off)
        for lam in (1, 2, 3):
            keys, values, _ = game.moebius_arrays(lam)
            capped = dict(zip(keys.tolist(), values.tolist()))
            assert [capped[t] for t in off if t.bit_count() <= lam] == \
                [0.0] * sum(t.bit_count() <= lam for t in off)


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(gcn_last_instances(), st.sampled_from(["sum", "mean"]))
@example(ROW_PATH, "mean")
def test_row_tables_match_the_dense_route(case, pooling):
    # every index at k = 1-3 (1-4 on ROW_PATH, above its widest row ball of
    # 3 nodes), exact and at lambda 1-3, with and without normalize: the row
    # route against the dense stack, each forced
    kind, n, seed, kinds, baseline = case
    top = 4 if case == ROW_PATH else 3
    g, model = build_biased(kind, n, seed, kinds, pooling)
    hoods = khop_neighborhoods(g, model.num_layers)
    for normalize in (False, True):
        games = {take: GraphGame(model, g, baseline, normalize) for take in (True, False)}
        tol = 1e-12 * max(1.0, abs(games[False].nu_full))
        for lam in (None, 1, 2, 3):
            for index in INDICES:
                for k in range(1, min(1 if index == "sv" else top, g.n) + 1):
                    runs = []
                    for take, game in games.items():
                        with pytest.MonkeyPatch.context() as patch:
                            force_route(patch, take)
                            runs.append(graphshapiq_exact(game, hoods, k, index) if lam is None
                                        else graphshapiq_approx(game, hoods, min(lam, g.n), k,
                                                                index))
                    for got, want in zip(*runs):  # the Moebius maps, then the index values
                        assert list(got.values) == list(want.values)  # the same sets and order
                        assert got.call_count == want.call_count
                        assert max(abs(v - want.values[t]) for t, v in got.values.items()) <= tol


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(gcn_last_instances())
@example(ROW_PATH)
def test_truncated_row_runs_convert_on_their_tables_as_convert_mi_does(case):
    # every index at k = 1-3 and lambda = 1-3 (k > lambda included), sum and
    # mean pooling, with and without normalize: the index values a truncated
    # run reads off its capped row tables against convert_mi of its map
    kind, n, seed, kinds, baseline = case
    for pooling in ("sum", "mean"):
        g, model = build_biased(kind, n, seed, kinds, pooling)
        assert _table_hops(model) == model.num_layers - 1  # row tables
        hoods = khop_neighborhoods(g, model.num_layers)
        for normalize in (False, True):
            game = GraphGame(model, g, baseline, normalize)
            tol = 1e-12 * max(1.0, abs(game.nu_full))
            for lam in range(1, min(3, g.n) + 1):
                for index in INDICES[1:]:
                    for k in range(1, min(1 if index == "sv" else 3, g.n) + 1):
                        with pytest.MonkeyPatch.context() as patch:
                            force_route(patch, tables=True)
                            mi, got = graphshapiq_approx(game, hoods, lam, k, index)
                        want = convert_mi(mi, index, k).values
                        assert list(got.values) == list(want)  # the same sets, in the same order
                        assert max(abs(v - want[t]) for t, v in got.values.items()) <= tol


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(instances(), st.sampled_from(INDICES), st.sampled_from([None, 1]))
@example(MIXED, "mi", None)
def test_the_explain_writer_gives_the_documents_bytes(case, index, lam):
    # graphsi explain's text (cmd_explain's writer pair) and to_export()
    # against the document read off the map's values, written by dumps_json
    *shape, baseline, normalize, ell = case
    g, model = build(*shape)
    ex = GraphInteractionExplainer(model, index=index, ell=ell, lam=lam, baseline=baseline,
                                   normalize=normalize).fit(g)
    want = si_graph_oracle(ex.interactions_, ex.game_.nu_full, ex.game_.nu_empty,
                           ex.efficiency_residual_)
    doc = ex.to_export()
    assert doc == want
    assert dumps_si_graph(doc, dumps_json(doc["metadata"])) == dumps_json(want)
