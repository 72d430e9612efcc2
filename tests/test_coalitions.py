from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphsi.coalitions import (
    MAX_PLAYERS,
    field_sets,
    full_mask,
    is_subset,
    iter_members,
    iter_subsets,
    mask_of,
    pair_index,
    small_family,
    sort_key,
)

from oracles import interaction_set_oracle

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


def pair_index_oracle(keys: list[int]) -> dict[int, set[tuple[int, int]]]:
    """bit -> {(row, partner)} from sets: the keys holding the bit, each with
    the position of its mask without the bit, len(keys) when absent."""
    where = {key: i for i, key in enumerate(keys)}
    union = 0
    for key in keys:
        union |= key
    return {j: {(i, where.get(key ^ 1 << j, len(keys)))
                for i, key in enumerate(keys) if key >> j & 1}
            for j in iter_members(union)}


def pair_index_sets(keys: list[int]) -> dict[int, set[tuple[int, int]]]:
    """pair_index's yield as the oracle's sets, bits numbered low first."""
    got = list(pair_index(np.array(keys, dtype=np.uint64)))
    union = 0
    for key in keys:
        union |= key
    assert len(got) == union.bit_count()
    return {j: set(zip(rows.tolist(), partners.tolist()))
            for j, (rows, partners) in zip(iter_members(union), got)}


@pytest.mark.parametrize("keys", [
    [],  # no keys, no bits
    [0],
    [0b111, 0, 0b101, 0b1, 0b100, 0b11, 0b10, 0b110],  # a power set, unsorted
    [0b1011, 0b1, 0b1000, 0b1010],  # gaps: 0, 0b10, 0b11, 0b1001 are absent
    [1 << 63, 0, (1 << 63) | 1, 1, (1 << 63) | (1 << 40)],  # bit 63
])
def test_pair_index_matches_a_set_oracle(keys):
    assert pair_index_sets(keys) == pair_index_oracle(keys)


@given(st.lists(st.integers(min_value=0, max_value=63), min_size=6, max_size=6, unique=True),
       st.lists(st.integers(min_value=0, max_value=63), unique=True))
def test_pair_index_matches_a_set_oracle_on_drawn_families(bits, local):
    # drawn subsets of six drawn node bits, in drawn order: a family with gaps
    keys = [sum(1 << bits[i] for i in iter_members(mask)) for mask in local]
    assert pair_index_sets(keys) == pair_index_oracle(keys)


def field_sets_oracle(fields: list[int], cap: int | None) -> list[int]:
    """The oracle's union of the fields' power sets, cut at cap, canonically ordered."""
    sets = interaction_set_oracle([list(iter_members(f)) for f in fields])
    return sorted((mask_of(s) for s in sets if cap is None or len(s) <= cap), key=sort_key)


@pytest.mark.parametrize("fields", [
    [1],  # one one-node field
    [1 << 63, 1 << 5, 1 << 63],  # one-node fields, one of them twice
    [(1 << 63) | (1 << 40) | 1, 1 << 63, (1 << 63) | 1],  # node 63, with non-maximal fields
    [0b1111, 0b0110, 0b1111, 0b11110000],  # a duplicate and a non-maximal field
    [full_mask(9)],
])
@pytest.mark.parametrize("cap", [None, 1, 2, 3])
def test_field_sets_match_the_interaction_set_oracle(fields, cap):
    got = field_sets(fields, cap)
    assert got.dtype == np.uint64
    assert got.tolist() == field_sets_oracle(fields, cap)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.lists(st.sets(st.integers(min_value=0, max_value=63), min_size=1, max_size=8),
                min_size=1, max_size=5), st.data())
def test_field_sets_match_the_interaction_set_oracle_on_drawn_fields(fields, data):
    masks = [mask_of(f) for f in fields]
    # a drawn field once more and a drawn non-empty subset of one: duplicate and non-maximal fields
    masks.append(data.draw(st.sampled_from(masks)))
    inner = data.draw(st.sampled_from(masks))
    masks.append(data.draw(st.sampled_from([t for t in iter_subsets(inner) if t])))
    for cap in (None, 1, 2, 3):
        got = field_sets(masks, cap).tolist()
        assert got == field_sets_oracle(masks, cap)
        # moebius._route tests the fields for the family a dense route evaluates
        oversized = [m for m in masks if cap is not None and m.bit_count() > cap]
        assert small_family(masks) == small_family(got + oversized)

