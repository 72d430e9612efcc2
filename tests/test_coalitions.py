from itertools import chain, combinations

import pytest
from hypothesis import given, strategies as st

from graphsi.coalitions import (
    MAX_PLAYERS,
    full_mask,
    is_subset,
    iter_members,
    iter_subsets,
    mask_of,
    sort_key,
)

masks = st.integers(min_value=0, max_value=(1 << 12) - 1)
small_masks = st.integers(min_value=0, max_value=(1 << 9) - 1)


@given(st.sets(st.integers(min_value=0, max_value=MAX_PLAYERS - 1)))
def test_mask_members_round_trip(players):
    assert set(iter_members(mask_of(players))) == players


@given(masks)
def test_members_ascending(mask):
    ms = list(iter_members(mask))
    assert ms == sorted(ms)
    assert ms == [i for i in range(12) if mask >> i & 1]


@given(small_masks)
def test_iter_subsets_is_the_power_set(mask):
    ms = list(iter_members(mask))
    expected = {mask_of(c)
                for c in chain.from_iterable(combinations(ms, r)
                                             for r in range(len(ms) + 1))}
    got = list(iter_subsets(mask))
    assert set(got) == expected
    assert len(got) == len(expected)  # no duplicates


@given(masks, masks)
def test_is_subset_matches_sets(a, b):
    assert is_subset(a, b) == set(iter_members(a)).issubset(iter_members(b))


def test_full_mask():
    assert full_mask(0) == 0
    assert full_mask(4) == 0b1111
    assert list(iter_members(full_mask(6))) == [0, 1, 2, 3, 4, 5]


def test_sort_key_orders_by_size_then_bits():
    ordering = sorted(range(16), key=sort_key)
    sizes = [m.bit_count() for m in ordering]
    assert sizes == sorted(sizes)
    # within one size class the raw mask decides
    pairs = [m for m in ordering if m.bit_count() == 2]
    assert pairs == sorted(pairs)


def test_subset_iteration_counts():
    mask = mask_of([0, 3, 5])
    assert len(list(iter_subsets(mask))) == 8
    assert list(iter_subsets(0)) == [0]


@pytest.mark.parametrize("players,expected", [
    ([], 0),
    ([0], 1),
    ([1, 3], 0b1010),
    ([63], 1 << 63),
])
def test_mask_of_examples(players, expected):
    assert mask_of(players) == expected
