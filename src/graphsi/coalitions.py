"""Coalitions as integer bitmasks over node indices 0..n-1.

A coalition is a plain ``int`` whose set bits are the member indices.
This keeps power-set work allocation-free and makes subset iteration a
two-line loop. Only n <= 64 is supported by the engine; callers reject
larger graphs at parse time.

A field (a receptive field, or any mask whose whole power set is at
hand) of more than DIRECT_MAX members is handled as one array of 2^h
values instead of set by set: local index L stands for the global mask
that places L's bit j on the field's j-th member in ascending order.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

MAX_PLAYERS = 64
# Largest field kept on per-set loops. Above it the Moebius transform and
# the index conversion run array butterflies over the field's 2^h table;
# at or below it the per-set loops are as fast and keep their bits.
DIRECT_MAX = 4


def mask_of(members) -> int:
    """Build a coalition mask from an iterable of node indices."""
    mask = 0
    for i in members:
        mask |= 1 << i
    return mask


def iter_members(mask: int) -> Iterator[int]:
    """Yield member indices in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def full_mask(n: int) -> int:
    return (1 << n) - 1


def is_subset(small: int, big: int) -> bool:
    return small & ~big == 0


def iter_subsets(mask: int) -> Iterator[int]:
    """Yield every subset of ``mask``, including 0 and ``mask`` itself.

    Standard submask enumeration: descends from ``mask`` to 0, so order
    is decreasing as an integer. 2^|mask| subsets total.
    """
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def sort_key(mask: int) -> tuple[int, int]:
    """Canonical coalition order: ascending size, then ascending bitmask."""
    return (mask.bit_count(), mask)


def field_masks(field: int) -> np.ndarray:
    """Global mask of every local index of a field, as uint64, local order."""
    masks = np.zeros(1 << field.bit_count(), dtype=np.uint64)
    for j, member in enumerate(iter_members(field)):
        masks[1 << j: 2 << j] = masks[: 1 << j] | np.uint64(1 << member)
    return masks
