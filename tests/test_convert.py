from fractions import Fraction

import numpy as np
import pytest

import graphsi.convert
from graphsi.coalitions import _capped_codes, full_mask, is_subset, iter_subsets, mask_of
from graphsi.convert import (
    _capped_supersets,
    bernoulli_numbers,
    convert_mi,
    efficiency_check,
    mi_to_ksii,
    mi_to_sii,
    mi_to_stii,
    mi_to_sv,
)
from graphsi.errors import ParseError
from graphsi.graph import NeighborhoodIndex
from graphsi.interactions import InteractionValues
from graphsi.moebius import graphshapiq_approx, graphshapiq_exact

from helpers import DictGame, mask_to_set, random_table, table_as_nu
from oracles import (
    BERNOULLI,
    conversion_oracle,
    fast_moebius_oracle,
    gamma,
    ksii_oracle,
    shapley_oracle,
    sii_oracle,
    stii_oracle,
)


def mi_map(n: int, values: dict[int, float]) -> InteractionValues:
    return InteractionValues(kind="mi", k=n, n=n, values=values)


def random_mi(n: int, seed: int) -> InteractionValues:
    return mi_map(n, random_table(n, seed))


def full_hoods(n: int) -> NeighborhoodIndex:
    return NeighborhoodIndex(ell=1, hoods=(full_mask(n),) * n)


TWO_PLAYER = {0b00: 7.0, 0b01: 1.0, 0b10: 2.0, 0b11: 2.0}  # m, not nu
TRIPLE_ONLY = {0b111: 3.0}


# -- Bernoulli numbers -------------------------------------------------------


def test_bernoulli_small_values():
    b = bernoulli_numbers(4)
    assert b == (Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
                 Fraction(-1, 30))


def test_bernoulli_odd_indices_vanish():
    b = bernoulli_numbers(17)
    assert all(b[i] == 0 for i in range(3, 18, 2))


def test_bernoulli_matches_frozen_table():
    assert bernoulli_numbers(16) == tuple(BERNOULLI)


# -- Shapley values ----------------------------------------------------------


def test_sv_hand_case():
    sv = mi_to_sv(mi_map(2, TWO_PLAYER))
    assert sv.values[0b01] == pytest.approx(1.0 + 2.0 / 2, abs=1e-12)
    assert sv.values[0b10] == pytest.approx(2.0 + 2.0 / 2, abs=1e-12)
    assert sv.kind == "sv" and sv.k == 1
    assert 0 not in sv.values  # the empty set's mass stays out


def test_sv_of_additive_mi_is_the_singleton_masses():
    mi = mi_map(3, {0b001: 1.5, 0b010: -0.5, 0b100: 2.0, 0b000: 9.0})
    sv = mi_to_sv(mi)
    assert sv.values == {0b001: 1.5, 0b010: -0.5, 0b100: 2.0}


def test_sv_symmetry():
    # invariant under swapping players 0 and 1
    mi = mi_map(3, {0b001: 1.0, 0b010: 1.0, 0b100: 0.25,
                    0b011: -2.0, 0b101: 0.5, 0b110: 0.5, 0b111: 3.0})
    sv = mi_to_sv(mi)
    assert sv.values[0b001] == pytest.approx(sv.values[0b010], abs=1e-12)


# -- SII ---------------------------------------------------------------------


def test_sii_two_player_pair():
    sii = mi_to_sii(mi_map(2, TWO_PLAYER), k=2)
    assert sii.values[0b11] == pytest.approx(2.0, abs=1e-12)


def test_sii_pairs_vanish_without_higher_mass():
    mi = mi_map(3, {0b001: 1.0, 0b010: 2.0, 0b100: -1.0})
    sii = mi_to_sii(mi, k=2)
    for pair in (0b011, 0b101, 0b110):
        assert sii.get(pair) == 0.0


def test_sii_pair_under_a_triple():
    sii = mi_to_sii(mi_map(3, TRIPLE_ONLY), k=2)
    assert sii.values[0b011] == pytest.approx(3.0 / 2.0, abs=1e-12)


# -- k-SII -------------------------------------------------------------------


def test_ksii_order_one_is_the_shapley_value():
    mi = random_mi(6, seed=51)
    sv = mi_to_sv(mi)
    ksii = mi_to_ksii(mi, k=1)
    for t in sv.values:
        assert ksii.get(t) == pytest.approx(sv.values[t], abs=1e-10)


def test_ksii_full_order_is_the_moebius_map():
    mi = random_mi(6, seed=52)
    ksii = mi_to_ksii(mi, k=6)
    for t, v in mi.values.items():
        if t:
            assert ksii.get(t) == pytest.approx(v, abs=1e-10)


def test_ksii_two_player_hand_case():
    ksii = mi_to_ksii(mi_map(2, TWO_PLAYER), k=2)
    assert ksii.values[0b01] == pytest.approx(1.0, abs=1e-12)
    assert ksii.values[0b10] == pytest.approx(2.0, abs=1e-12)
    assert ksii.values[0b11] == pytest.approx(2.0, abs=1e-12)


def test_ksii_top_order_coincides_with_sii():
    mi = random_mi(7, seed=53)
    for k in (2, 3, 4):
        ksii = mi_to_ksii(mi, k)
        sii = mi_to_sii(mi, k)
        tops = [t for t in range(1 << 7) if t.bit_count() == k]
        for t in tops:
            assert ksii.get(t) == pytest.approx(sii.get(t), abs=1e-12)


# -- STII --------------------------------------------------------------------


def test_stii_full_order_is_the_moebius_map():
    mi = random_mi(5, seed=54)
    stii = mi_to_stii(mi, k=5)
    for t, v in mi.values.items():
        if t:
            assert stii.get(t) == pytest.approx(v, abs=1e-12)


def test_stii_without_top_order_mass_copies_mi():
    mi = mi_map(3, {0b001: 1.5, 0b010: -0.5, 0b100: 2.0})
    stii = mi_to_stii(mi, k=2)
    for t in (0b001, 0b010, 0b100):
        assert stii.values[t] == mi.values[t]
    for pair in (0b011, 0b101, 0b110):
        assert stii.get(pair) == 0.0


def test_stii_spreads_a_triple_over_its_pairs():
    stii = mi_to_stii(mi_map(3, TRIPLE_ONLY), k=2)
    for pair in (0b011, 0b101, 0b110):
        assert stii.values[pair] == pytest.approx(1.0, abs=1e-12)


def test_stii_lower_orders_equal_mi():
    mi = random_mi(7, seed=55)
    stii = mi_to_stii(mi, k=3)
    for t in range(1, 1 << 7):
        if t.bit_count() < 3:
            assert stii.get(t) == pytest.approx(mi.get(t), abs=1e-12)


# -- dispatch and validation -------------------------------------------------


def test_convert_dispatch_validation():
    mi = random_mi(4, seed=56)
    with pytest.raises(ValueError):
        convert_mi(mi, "banzhaf", 2)
    with pytest.raises(ValueError):
        convert_mi(mi, "sv", 2)  # SV is order 1 by definition
    with pytest.raises(ValueError):
        convert_mi(mi_to_sv(mi), "sii", 1)  # must start from MI
    for bad in (0, 5):
        with pytest.raises(ValueError):
            mi_to_ksii(mi, bad)
        with pytest.raises(ParseError, match=f"^order k must be in 1..4, got {bad}$"):
            convert_mi(mi, "mi", bad)
    assert convert_mi(mi, "mi", 4) is mi


# -- efficiency --------------------------------------------------------------


def test_exact_pipeline_is_efficient():
    n = 5
    table = random_table(n, seed=57)
    nu_full, nu_empty = table[(1 << n) - 1], table[0]
    for index, k in (("sv", 1), ("ksii", 3), ("stii", 3), ("mi", n)):
        mi, si = graphshapiq_exact(DictGame(n, table), full_hoods(n), k=k,
                                   index=index)
        assert efficiency_check(si, nu_full, nu_empty) < 1e-8
    assert efficiency_check(mi, nu_full, nu_empty) < 1e-8


def test_perturbed_values_show_up_in_the_residual():
    n = 5
    table = random_table(n, seed=57)
    _, si = graphshapiq_exact(DictGame(n, table), full_hoods(n), k=3)
    bumped = InteractionValues(
        kind=si.kind, k=si.k, n=si.n,
        values={**si.values, 0b00011: si.values[0b00011] + 0.5})
    residual = efficiency_check(bumped, table[(1 << n) - 1], table[0])
    assert residual == pytest.approx(0.5, abs=1e-8)


def test_truncated_pipeline_stays_efficient_after_conversion():
    n = 6
    table = random_table(n, seed=58)
    hoods = NeighborhoodIndex(ell=1, hoods=(
        mask_of([0, 1, 2]), mask_of([0, 1, 2]), mask_of([0, 1, 2, 3]),
        mask_of([2, 3, 4]), mask_of([3, 4, 5]), mask_of([4, 5])))
    for lam in (1, 2, 3):
        for index, k in (("ksii", 2), ("stii", 2)):
            _, si = graphshapiq_approx(DictGame(n, table), hoods, lam=lam,
                                       k=k, index=index)
            assert efficiency_check(si, table[(1 << n) - 1], table[0]) < 1e-8


# -- linearity ---------------------------------------------------------------


@pytest.mark.parametrize("index,k", [("sv", 1), ("sii", 3), ("ksii", 3),
                                     ("stii", 3)])
def test_conversions_are_linear_in_the_mi_vector(index, k):
    n, c = 6, 2.5
    mi1 = random_mi(n, seed=61)
    mi2 = random_mi(n, seed=62)
    combo = mi_map(n, {t: c * mi1.values[t] + mi2.values[t]
                       for t in range(1 << n)})
    out1 = convert_mi(mi1, index, k)
    out2 = convert_mi(mi2, index, k)
    out3 = convert_mi(combo, index, k)
    keys = set(out1.values) | set(out2.values) | set(out3.values)
    for t in keys:
        assert out3.get(t) == pytest.approx(c * out1.get(t) + out2.get(t),
                                            abs=1e-12)


# -- direct-definition oracles -----------------------------------------------


def test_conversions_match_definition_oracles():
    n = 6
    table = random_table(n, seed=63)
    nu = table_as_nu(table)
    mi = mi_map(n, dict(enumerate(fast_moebius_oracle(
        [table[t] for t in range(1 << n)]))))

    sv = mi_to_sv(mi)
    for i in range(n):
        assert sv.values[1 << i] == pytest.approx(shapley_oracle(nu, n, i),
                                                  abs=1e-8)

    sii = mi_to_sii(mi, k=2)
    for t in sii.values:
        assert sii.values[t] == pytest.approx(
            sii_oracle(nu, n, mask_to_set(t)), abs=1e-8)

    for k in (2, 3):
        ksii = mi_to_ksii(mi, k)
        want = ksii_oracle(nu, n, k)
        assert {mask_to_set(t) for t in ksii.values} <= set(want)
        for s, v in want.items():
            assert ksii.get(mask_of(s)) == pytest.approx(v, abs=1e-8)

    stii = mi_to_stii(mi, k=2)
    want = stii_oracle(nu, n, 2)
    for s, v in want.items():
        assert stii.get(mask_of(s)) == pytest.approx(v, abs=1e-8)


# -- exact-rational reference ------------------------------------------------


def scaled_mi(n: int, seed: int, hoods=None) -> InteractionValues:
    """Random MI over six orders of magnitude, so terms cancel; with hoods,
    only subsets of a hood carry mass, as in a receptive-field run."""
    values = {t: v * 10.0 ** (t % 7 - 3) for t, v in random_table(n, seed).items()
              if hoods is None or any(is_subset(t, h) for h in hoods)}
    return mi_map(n, values)


def overlapping_fields_mi(seed: int) -> InteractionValues:
    """Two full fields of 7 and 6 members sharing two, plus a lone 9-member
    set holding neither, whose power set is mostly absent."""
    mi = scaled_mi(12, seed, hoods=(0x07F, 0x7E0))
    mi.values[0xF9E] = 0.75
    return mi


def assert_within_rounding_bound(mi: InteractionValues, index: str, orders) -> None:
    moebius = {mask_to_set(t): v for t, v in mi.values.items()}
    for k in ((1,) if index == "sv" else orders):
        got = convert_mi(mi, index, k)
        want = conversion_oracle(moebius, mi.n, index, k)
        assert {mask_to_set(t) for t in got.values} <= set(want)
        for s, (exact, magnitude, terms) in want.items():
            err = abs(Fraction(got.get(mask_of(s))) - exact)
            assert err <= gamma(terms + 1) * magnitude, (index, k, sorted(s))


@pytest.mark.parametrize("index", ["sv", "sii", "ksii", "stii"])
def test_conversions_within_rounding_bound_of_exact_rationals(index):
    tables = [  # (map, orders)
        (scaled_mi(6, seed=71), range(1, 7)),
        (scaled_mi(6, seed=72), range(1, 7)),
        (scaled_mi(6, seed=73, hoods=(0b000111, 0b011110, 0b110001)), range(1, 7)),
        (overlapping_fields_mi(seed=74), range(1, 4)),
    ]
    for mi, orders in tables:
        assert_within_rounding_bound(mi, index, orders)


@pytest.mark.parametrize("index", ["sv", "sii", "ksii", "stii"])
def test_gapped_sets_take_the_loop(index, monkeypatch):
    # every set of at most 5 of 8 members and the power set of the first 7,
    # less {0..4}: its supersets hold a gap, the 7-member one only below
    # its sets one member short; 0xFF lacks its 6- and 7-member subsets
    values = {t: 0.37 * t - 20.0 for t in range(256) if t.bit_count() <= 5 or t < 0x80}
    values[0xFF] = -1.0
    del values[0x1F]
    gapped = {t for t in values if any(sub and sub not in values for sub in iter_subsets(t))}
    assert gapped == {0x3F, 0x5F, 0x7F, 0xFF}
    looped: set[int] = set()
    loop = graphsi.convert.combinations

    def recorded(bits, size):
        looped.add(sum(bits))
        return loop(bits, size)

    monkeypatch.setattr(graphsi.convert, "combinations", recorded)
    mi = mi_map(8, values)
    convert_mi(mi, index, 1 if index == "sv" else 2)
    assert looped == gapped
    assert_within_rounding_bound(mi, index, (1, 2, 3))


def test_capped_superset_sums_match_a_brute_force_sum():
    # every capped code's sum over its supersets among the codes, on h <= 8
    # bits at every cap < h; integer values keep the sums exact
    rng = np.random.Generator(np.random.Philox(11))
    collided = 0  # passes in which several codes drop onto one
    for h in range(2, 9):
        for cap in range(1, h):
            codes, sizes, _, drop = _capped_codes(h, cap)
            for t in range(cap):
                targets = drop[sizes > t, t]
                collided += len(np.unique(targets)) < len(targets)
            superset = (codes[None, :] & codes[:, None]) == codes[:, None]  # [c, d]: c <= d
            v = rng.integers(-50, 50, size=(3, len(codes))).astype(float)
            want = v @ superset.T
            _capped_supersets(v, sizes, drop)
            assert v.tolist() == want.tolist(), (h, cap)
    assert collided
