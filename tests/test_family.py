"""Property tests of the family butterfly and the ranked conversion.

Families are what the pipeline hands them: unions of the power sets of a
few drawn masks over at most 10 players, optionally cut at a size lam,
so always down-closed. Each float result is held to a rounding bound
around the exact rational value of the same floats.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from graphsi.coalitions import DIRECT_MAX, iter_subsets, small_family, sort_key
from graphsi.convert import convert_mi
from graphsi.interactions import InteractionValues
from graphsi.moebius import _moebius_map

from helpers import mask_to_set
from oracles import conversion_oracle, gamma, moebius_oracle


@st.composite
def families(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    members = st.integers(min_value=0, max_value=n - 1)
    first = draw(st.sets(members, min_size=min(DIRECT_MAX + 1, n), max_size=min(7, n)))
    others = draw(st.lists(st.sets(members, min_size=1, max_size=7), max_size=2))
    masks = [sum(1 << i for i in m) for m in [first, *others]]
    lam = draw(st.none() | st.integers(min_value=1, max_value=n))
    family = sorted({t for m in masks for t in iter_subsets(m)
                     if lam is None or t.bit_count() <= lam}, key=sort_key)
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2 ** 32 - 1))))
    # six orders of magnitude, so the transform's terms cancel
    nu = dict(zip(family, (rng.normal(size=len(family)) * 10.0 ** rng.integers(-3, 3, len(family))
                           ).tolist()))
    return n, family, nu


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(families(), st.data())
def test_family_transform_and_conversion_within_rounding_bounds(case, data):
    n, family, nu = case
    small = small_family(family)
    m = _moebius_map(np.array(family, dtype=np.uint64), list(nu.values()), small)
    assert len(m) == len(family)
    mi = dict(zip(family, m.tolist()))
    exact_nu = {mask_to_set(t): Fraction(v) for t, v in nu.items()}
    for s, value in mi.items():
        members = mask_to_set(s)
        exact = moebius_oracle(exact_nu.__getitem__, members)
        magnitude = sum(abs(exact_nu[mask_to_set(t)]) for t in iter_subsets(s))
        # one rounding per butterfly pass over S's bits; 2^|S| - 1 for a small family's per-set sum
        depth = (1 << len(members)) - 1 if small else len(members)
        assert abs(Fraction(value) - exact) <= gamma(depth) * magnitude

    gaps = data.draw(st.sets(st.sampled_from(family), max_size=3))
    index = data.draw(st.sampled_from(["sv", "sii", "ksii", "stii"]))
    k = 1 if index == "sv" else data.draw(st.integers(min_value=1, max_value=min(2, n)))
    for values in (mi, {t: v for t, v in mi.items() if t not in gaps}):
        got = convert_mi(InteractionValues(kind="mi", k=n, n=n, values=values), index, k)
        want = conversion_oracle({mask_to_set(t): v for t, v in values.items()}, n, index, k)
        assert {mask_to_set(t) for t in got.values} <= set(want)
        for s, (exact, magnitude, terms) in want.items():
            err = abs(Fraction(got.get(sum(1 << i for i in s))) - exact)
            assert err <= gamma(terms + 1) * magnitude, (index, k, sorted(s))
