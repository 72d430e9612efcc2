"""Coalitions as integer bitmasks over node indices 0..n-1.

A coalition is a plain ``int`` whose set bits are the member indices.
This keeps power-set work allocation-free and makes subset iteration a
two-line loop. Only n <= 64 is supported by the engine; callers reject
larger graphs at parse time.

A family of masks is one uint64 array; pair_index pairs each member that
holds node bit j with its mask without j. Over a down-closed family a
butterfly on those pairs needs no 2^h table: n*|F| operations per pass
(trimmed Moebius inversion, Bjorklund, Husfeldt, Kaski & Koivisto 2008).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

MAX_PLAYERS = 64
# Largest set of a small run (small_family), which takes per-set sums and
# the subset loop. On the 200 seed-1 perfbench molecules (1-layer fields of
# <= 4; one core of a 2-vCPU VM, best of 15, six runs) the per-set sums took
# 18-20 ms against 34-37 for the butterfly, the subset loop 28-30 ms against
# 39-48 for the ranked zeta transform; the per-set sums also keep path4's bits.
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


def _unique_maximal(masks) -> list[int]:
    """Drop masks contained in another mask; keep one copy of each survivor."""
    unique = sorted(set(masks), key=sort_key, reverse=True)  # big first
    kept: list[int] = []
    for m in unique:
        if not any(is_subset(m, big) for big in kept):
            kept.append(m)
    return kept


def small_family(masks) -> bool:
    """No mask has more than DIRECT_MAX members; pass the largest first to stop early."""
    return all(m.bit_count() <= DIRECT_MAX for m in masks)


def pair_index(keys: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (rows, partners) for each bit set in some of the distinct uint64 keys, low bit first.

    rows are the positions of the keys that hold the bit, partners those of
    the keys without it (len(keys) if absent), found by binary search over
    the sorted keys. Rows come in ascending key order; rows and partners of
    one bit are disjoint, so an update over them does not depend on it.
    """
    absent = len(keys)
    union = int(np.bitwise_or.reduce(keys, initial=0))
    order = np.argsort(keys)
    keys = keys[order]
    octets = keys.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    for byte in range((union.bit_length() + 7) // 8):
        held = np.unpackbits(octets[:, byte], bitorder="little").reshape(-1, 8).T.copy().view(bool)
        for j in iter_members(union >> 8 * byte & 255):
            rows = np.flatnonzero(held[j])
            wanted = keys[rows] ^ np.uint64(1 << 8 * byte + j)
            at = np.searchsorted(keys, wanted)  # wanted lies below keys[rows], so in range
            yield order[rows], np.where(keys[at] == wanted, order[at], absent)
