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

import pytest
from hypothesis import example, given, settings, strategies as st

from graphsi.coalitions import DIRECT_MAX, small_family
from graphsi.convert import efficiency_check
from graphsi.explainer import GraphInteractionExplainer
from graphsi.game import GraphGame
from graphsi.generate import generate_instance, random_model
from graphsi.graph import khop_neighborhoods
from graphsi.moebius import graphshapiq_approx, graphshapiq_exact

from oracles import (fast_moebius_oracle, fast_zeta_oracle, gamma, interaction_set_oracle,
                     khop_oracle)

# An ER graph whose 1-hop fields lie on both sides of DIRECT_MAX, so the
# exact run is mixed: tested on every run, whatever the draws cover.
MIXED = ("er", 9, 4, ("gin",), "sum", None, False, 1)


@st.composite
def instances(draw):
    kind = draw(st.sampled_from(["path", "cycle", "tree", "er"]))
    n = draw(st.integers(min_value=3 if kind == "cycle" else 1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    kinds = tuple(draw(st.lists(st.sampled_from(["gin", "gcn"]), min_size=1, max_size=3)))
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
    dense._tables_pay = lambda count: False  # the dense stack, whatever the size
    nu = dense.evaluate_batch(every)
    scale = max(1.0, abs(dense.nu_full))

    # property 1: node tables against the dense stack on the whole power set,
    # at the drawn baseline and normalization
    forced = GraphGame(model, g, baseline, normalize)
    forced._tables_pay = lambda count: False
    tabled = GraphGame(model, g, baseline, normalize)
    tabled._tables = tabled._node_tables()
    want, got = forced.evaluate_batch(every), tabled.evaluate_batch(every)
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12 * scale
    # also in a run explained at the drawn ell: the balls follow the model's depth
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GraphGame, "_tables_pay", lambda self, count: True)
        run = GraphInteractionExplainer(model, index="mi", ell=ell, baseline=baseline,
                                        normalize=normalize).fit(g).game_
    assert run._tables is not None
    seen = list(run._memo)
    assert max(abs(a - b) for a, b in zip(run.evaluate_batch(seen),
                                          forced.evaluate_batch(seen))) <= 1e-12 * scale

    # property 2: exact MI within the rounding bound on I and zero off it, where
    # I covers the receptive fields (nu's Moebius transform vanishes off them)
    if ell >= model.num_layers:
        game = GraphGame(model, g)
        game._tables_pay = lambda count: False  # the dense stack, whose values nu holds
        mi, _ = graphshapiq_exact(game, khop_neighborhoods(g, ell), k=1, index="sv")
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
