"""Conversion from Moebius interactions to the classic indices.

Every supported index is a fixed linear map of the Moebius values
(Grabisch, Marichal & Roubens 2000): m(S~) contributes w(|S|, |S~|, k)
times m(S~) to each subset S of S~ of size 1..k. convert_mi is the one
loop for every index; only the weight, read from one table, differs, and
the Shapley value is k-SII at k=1. The k-SII weights are assembled in
exact rational arithmetic (Bernoulli numbers cancel catastrophically in
floats) and realized to float64 once.

As in the transform, coalitions.small_family picks the route. A small
support takes the loop over subsets, C(|S~|, <= k) terms per set, the
faster route there (coalitions.DIRECT_MAX). A large one, read as the
map's key and value arrays, builds one pair index over its keys. An
AND-butterfly over it finds the largest down-closed part D; then the
ranked zeta transform of trimmed Moebius inversion (Bjorklund, Husfeldt,
Kaski & Koivisto 2007) sums D down on the same pairs: each order s <= k
weights D by w(s, |S~|, k), f[S ^ j] += f[S] per node bit j, and the
size-s entries are read off, n*|D| operations per pass. Its sets off D
(oversized truncated fields, gaps) take the loop.

An exact run on node tables, which hold the pooling, converts neither
way: convert_tables reads the index values off them with the same weight
table, one superset butterfly per ball bit, and sums them by global mask.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress
from math import comb

import numpy as np

from .coalitions import iter_members, pair_index, set_sizes, small_family
from .interactions import InteractionValues


@lru_cache(maxsize=None)
def bernoulli_numbers(m: int) -> tuple[Fraction, ...]:
    """B_0..B_m as exact rationals, first-kind convention B_1 = -1/2.

    Akiyama-Tanigawa in rational arithmetic (which produces the
    second-kind B_1 = +1/2; index 1 is negated to fix the convention).
    """
    row: list[Fraction] = []
    out: list[Fraction] = []
    for i in range(m + 1):
        row.append(Fraction(1, i + 1))
        for j in range(i, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if m >= 1:
        out[1] = -out[1]
    return tuple(out)


@lru_cache(maxsize=None)
def _ksii_weight(s: int, s_tilde: int, k: int) -> float:
    """Share of m(S~) that lands on a size-s subset under order-k aggregation.

    Collapsing the Bernoulli recursion over the order hierarchy onto the
    Moebius basis gives, for s <= k <= |S~| universes,

        w = sum_{r=0}^{min(k-s, s_tilde-s)} B_r * C(s_tilde-s, r) / (s_tilde-s-r+1)

    which reduces to 1/s_tilde at k=1 (the Shapley value) and to an
    indicator of s_tilde = s at k = n (the Moebius values themselves).
    """
    gap = s_tilde - s
    bern = bernoulli_numbers(min(k - s, gap))
    total = Fraction(0)
    for r in range(min(k - s, gap) + 1):
        total += bern[r] * comb(gap, r) * Fraction(1, gap - r + 1)
    return float(total)


# index -> w(|S|, |S~|, k), the share of m(S~) that lands on each size-|S| subset.
_WEIGHTS = {
    "sv": _ksii_weight,  # k-SII at k=1, i.e. 1/|S~|; convert_mi admits only k=1 for sv
    "sii": lambda s, s_tilde, k: 1.0 / (s_tilde - s + 1),
    "ksii": _ksii_weight,
    "stii": lambda s, s_tilde, k: 1.0 / comb(s_tilde, k) if s == k else float(s == s_tilde),
}


def _index_weight(index: str, k: int, n: int):
    """The weight of a supported index at a valid order k over n players."""
    if index not in _WEIGHTS:
        raise ValueError(f"unknown index {index!r}")
    if index == "sv" and k != 1:
        raise ValueError("the Shapley value is an order-1 index; use k=1")
    if not 1 <= k <= n:
        raise ValueError(f"order k must be in 1..{n}, got {k}")
    return _WEIGHTS[index]


def _weight_table(weight, k: int, top: int) -> np.ndarray:
    """w[s - 1, t] = weight(s, t, k) for the orders s = 1..min(k, top) and
    support sizes t = 0..top; 0 where t < s, which holds no size-s subset."""
    return np.array([[weight(s, t, k) if t >= s else 0.0 for t in range(top + 1)]
                     for s in range(1, min(k, top) + 1)])


def _convert_family(keys: np.ndarray, found: np.ndarray, weight, k: int,
                    out: dict[int, float]) -> list[bool]:
    """Write into out every index value of D, the down-closed part of the
    support (keys and found), and flag in map order the sets outside D,
    left to the loop. A set is in D when all its subsets are: an
    AND-butterfly over the pair index decides it (an absent set reads as
    False) before the sums run over D alone.
    """
    sizes = set_sizes(keys)
    w = _weight_table(weight, k, int(sizes.max()))
    pairs = list(pair_index(keys))
    inside = np.append(np.ones(len(keys), dtype=bool), False)
    for rows, partners in pairs:
        inside[rows] &= inside[partners]
    # one table row per order; the last column takes flows to absent sets
    table = np.zeros((len(w), len(keys) + 1))
    np.take(w, sizes, axis=1, out=table[:, :-1])
    table[:, :-1] *= np.where(inside[:-1], found, 0.0)
    for rows, partners in pairs:
        for column in table:
            column[partners] += column[rows]
    pick = np.flatnonzero(inside[:-1] & (sizes >= 1) & (sizes <= len(w)))
    out.update(zip(keys[pick].tolist(), table[sizes[pick] - 1, pick].tolist()))
    return (~inside[:-1]).tolist()


def convert_mi(mi: InteractionValues, index: str, k: int) -> InteractionValues:
    """The requested index at order k; "mi" returns the input unchanged."""
    if mi.kind != "mi":
        raise ValueError(f"conversion starts from Moebius values, got kind {mi.kind!r}")
    if index == "mi":
        return mi
    weight = _index_weight(index, k, mi.n)
    out: dict[int, float] = {}
    keys, found = mi.arrays
    masks = keys.tolist()
    looped = zip(masks, found.tolist())
    if not small_family(reversed(masks)):
        looped = compress(looped, _convert_family(keys, found, weight, k, out))
    for s_tilde, value in looped:
        bits = [1 << i for i in iter_members(s_tilde)]
        for size in range(1, min(k, len(bits)) + 1):
            w = weight(size, len(bits), k)
            if w == 0.0:
                continue
            contribution = value * w
            for combo in combinations(bits, size):
                key = sum(combo)  # the bits are disjoint, so the sum is the union
                out[key] = out.get(key, 0.0) + contribution
    return InteractionValues(kind=index, k=k, n=mi.n, values=out, ell=mi.ell,
                             lam=mi.lam, call_count=mi.call_count)


def convert_tables(mi: InteractionValues, tables, index: str, k: int) -> InteractionValues:
    """The requested index at order k straight from the transformed node
    tables that mi was summed from (GraphGame.node_tables, whose node games
    hold the pooling), with no pass over mi's values; "mi" returns mi
    unchanged.

    The index value of S, |S| = s, is the sum over the balls holding S of
    sum_{S <= T <= N_i} w(s, |T|, k) m_i(T). So each order s weights every
    table by w(s, |L|, k), one superset butterfly per local bit j,
    v[L] += v[L + 2^j] on every L without bit j, sums it down, and the
    size-s entries are summed by global mask onto mi's size-s keys, which a
    row table (one hop narrower than the fields) may leave at 0.0. m(empty)
    and the biases reach no set of size >= 1.
    """
    if mi.kind != "mi":
        raise ValueError(f"conversion starts from Moebius values, got kind {mi.kind!r}")
    if index == "mi":
        return mi
    weight = _index_weight(index, k, mi.n)
    keys, start = mi.arrays[0], 1  # canonical order: keys[0] is the empty set, keys[-1] widest
    w = _weight_table(weight, k, int(keys[-1]).bit_count())
    # per order, one part per ball shape; an order above every row ball's size keeps 0.0
    masks, found = [[np.empty(0, "<u8")] for _ in w], [[np.empty(0)] for _ in w]
    for stack, glob, sizes in tables:
        h = int(sizes[-1])  # the size of the whole ball
        orders = min(len(w), h)
        v = w[:orders, sizes][:, None, :] * stack  # (orders, balls, 2^h)
        for j in range(h):
            pairs = v.reshape(orders, len(stack), -1, 2, 1 << j)
            pairs[:, :, :, 0, :] += pairs[:, :, :, 1, :]
        for s in range(orders):
            at = sizes == s + 1
            masks[s].append(glob[:, at].ravel())
            found[s].append(v[s][:, at].ravel())
    out: dict[int, float] = {}
    for s, (parts, values) in enumerate(zip(masks, found), start=1):
        end, top = start, len(keys)
        while end < top:  # a binary search for the first key of more than s members
            mid = (end + top) // 2
            end, top = (mid + 1, top) if int(keys[mid]).bit_count() <= s else (end, mid)
        same, start = keys[start:end], end
        # adds in input order
        sums = np.bincount(np.searchsorted(same, np.concatenate(parts)),
                           weights=np.concatenate(values), minlength=len(same))
        out.update(zip(same.tolist(), sums.tolist()))
    return InteractionValues(kind=index, k=k, n=mi.n, values=out, ell=mi.ell,
                             lam=mi.lam, call_count=mi.call_count)


def mi_to_sv(mi: InteractionValues) -> InteractionValues:
    """Shapley values: each interaction is split equally among its members."""
    return convert_mi(mi, "sv", 1)


def mi_to_sii(mi: InteractionValues, k: int) -> InteractionValues:
    """Shapley interaction index for every set of size 1..k."""
    return convert_mi(mi, "sii", k)


def mi_to_ksii(mi: InteractionValues, k: int) -> InteractionValues:
    """k-Shapley interactions: SII at the top order, Bernoulli-aggregated below."""
    return convert_mi(mi, "ksii", k)


def mi_to_stii(mi: InteractionValues, k: int) -> InteractionValues:
    """Shapley-Taylor interactions: Moebius values below order k, the
    remaining mass spread over the size-k subsets of each support set."""
    return convert_mi(mi, "stii", k)


def efficiency_check(si: InteractionValues, nu_full: float, nu_empty: float) -> float:
    """Absolute efficiency residual of an interaction map.

    Moebius values (which carry the empty set) must sum to nu(N);
    converted indices must sum to nu(N) - nu(empty) over their non-empty
    sets. SII is not an efficient index, so its residual is honest
    information rather than a defect.
    """
    if si.kind == "mi":
        return abs(si.total() - nu_full)
    total = sum(v for s, v in si.values.items() if s != 0)
    return abs(total - (nu_full - nu_empty))
