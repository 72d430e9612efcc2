"""Coalitions as integer bitmasks over node indices 0..n-1.

A coalition is a plain ``int`` whose set bits are the member indices.
This keeps power-set work allocation-free and makes subset iteration a
two-line loop. Only n <= 64 is supported by the engine; callers reject
larger graphs at parse time.
"""

from __future__ import annotations

from typing import Iterator

MAX_PLAYERS = 64


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
