"""Conversion from Moebius interactions to the classic indices.

Every supported index is a fixed linear map of the Moebius values
(Grabisch, Marichal & Roubens 2000): m(S~) contributes w(|S|, |S~|, k)
times m(S~) to each subset S of S~ of size 1..k. convert_mi is the one
loop for every index; only the weight, read from one table, differs, and
the Shapley value is k-SII at k=1. The k-SII weights are assembled in
exact rational arithmetic (Bernoulli numbers cancel catastrophically in
floats) and realized to float64 once.

convert_mi takes, on a small support (coalitions.small_family), the loop
over subsets, C(|S~|, <= k) terms per set, the faster route there
(coalitions.DIRECT_MAX). A large one, read as the map's key and value
arrays, builds one pair index over its keys. An AND-butterfly over it
finds the largest down-closed part D; then the ranked zeta transform of
trimmed Moebius inversion (Bjorklund, Husfeldt, Kaski & Koivisto 2007)
sums D down on the same pairs: each order s <= k weights D by
w(s, |S~|, k), f[S ^ j] += f[S] per node bit j, and the size-s entries
are read off, n*|D| operations per pass. Its sets off D (oversized
truncated fields, gaps) take the loop. convert_tables reads the index
values off the node tables a map was summed from, with the same weight
table; a truncated map's surrogates add their shares on sets of at most
lambda members in one np.add.at, and take the loop only above lambda.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress
from math import comb

import numpy as np

from .coalitions import _capped_codes, _masks, iter_members, pair_index, small_family
from .errors import ParseError, as_count
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
    """The weight of a supported index at a valid order k over n players;
    None for "mi", the Moebius values themselves."""
    if index not in _WEIGHTS and index != "mi":
        raise ParseError(f"unknown index {index!r}")
    if index == "sv" and k != 1:
        raise ParseError("the Shapley value is an order-1 index; use k=1")
    as_count(k, "order k", n)
    return _WEIGHTS.get(index)


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
    sizes = np.bitwise_count(keys)
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


def _subset_loop(sets, weight, k: int, out: dict[int, float], low: int = 1) -> None:
    """Add w(s, |S~|, k) m(S~) to out[S] for each (S~, m(S~)) of sets, in
    that order, and each subset S of S~ of s = low..k members; a set new to
    out goes last."""
    for s_tilde, value in sets:
        bits = [1 << i for i in iter_members(s_tilde)]
        for size in range(low, min(k, len(bits)) + 1):
            w = weight(size, len(bits), k)
            if w == 0.0:
                continue
            contribution = value * w
            for combo in combinations(bits, size):
                key = sum(combo)  # the bits are disjoint, so the sum is the union
                out[key] = out.get(key, 0.0) + contribution


def convert_mi(mi: InteractionValues, index: str, k: int) -> InteractionValues:
    """The requested index at order k; "mi" returns the input unchanged."""
    if mi.kind != "mi":
        raise ValueError(f"conversion starts from Moebius values, got kind {mi.kind!r}")
    weight = _index_weight(index, k, mi.n)
    if weight is None:
        return mi
    out: dict[int, float] = {}
    keys, found = mi.arrays
    masks = keys.tolist()
    looped = zip(masks, found.tolist())
    if not small_family(reversed(masks)):
        looped = compress(looped, _convert_family(keys, found, weight, k, out))
    _subset_loop(looped, weight, k, out)
    return InteractionValues(kind=index, k=k, n=mi.n, values=out, ell=mi.ell,
                             lam=mi.lam, call_count=mi.call_count)


def _capped_supersets(v: np.ndarray, sizes: np.ndarray, drop: np.ndarray) -> None:
    """Turn each row of v (rows, codes), on the capped codes of
    coalitions._capped_codes with these sizes and drop, into its sums over
    supersets among those codes, in place. The transpose of moebius_arrays'
    capped passes with their sign flipped: for t = cap - 1 down to 0, each
    code c of more than t bits adds its value onto drop[c, t], c less its
    t-th lowest bit. Several codes drop onto one in a pass, so bincount sums
    them, all reads before the writes."""
    starts = np.arange(0, v.size, v.shape[1])[:, None]
    for t in reversed(range(drop.shape[1])):
        at = np.flatnonzero(sizes > t)
        into = (starts + drop[at, t]).ravel()
        v += np.bincount(into, weights=v[:, at].ravel(), minlength=v.size).reshape(v.shape)


def _surrogate_subsets(total: np.ndarray, keys: np.ndarray, bounds: np.ndarray,
                       surrogates: np.ndarray, found: np.ndarray, w: np.ndarray) -> None:
    """Add onto total (by position among the keys) each surrogate's share
    w[s - 1, h] m(S~), for the surrogates S~ of h members and their values
    found in map order, on its subsets of s = 1..len(w) members, which the
    keys hold in the blocks keys[bounds[s - 1]:bounds[s]]. The subsets are
    the capped codes (coalitions._capped_codes) of the widest surrogate,
    those below 2^h for each. np.add.at is unbuffered and takes them
    surrogate by surrogate, so each key takes the shares in map order, the
    bits of _subset_loop."""
    h = np.bitwise_count(surrogates)
    octets = surrogates.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(octets, axis=1, bitorder="little")
    # each row's members ascending, then nodes it lacks as padding
    members = np.argsort(bits == 0, axis=1, kind="stable")[:, :h.max()].astype("<u8")
    _, counts, held, _ = (column[1:] for column in _capped_codes(int(h.max()), len(w)))
    weights = w[counts - 1][:, h].T  # (surrogates, codes)
    # a code below 2^h holds no padding; a zero weight adds nothing, as in _subset_loop
    take = (held.max(axis=1) < h[:, None]) & (weights != 0.0)
    subsets, counts = _masks(members, held)[take], np.broadcast_to(counts, take.shape)[take]
    at = np.empty(len(subsets), dtype=np.intp)
    for s in range(1, len(w) + 1):
        block = counts == s
        at[block] = bounds[s - 1] + np.searchsorted(keys[bounds[s - 1]:bounds[s]], subsets[block])
    if not np.array_equal(keys[at], subsets):  # at <= bounds[-1] < len(keys): surrogates follow
        raise RuntimeError("internal error: a surrogate's subset is missing from the keys")
    np.add.at(total, at, (found[:, None] * weights)[take])


def convert_tables(mi: InteractionValues, tables, index: str, weight, k: int,
                   ) -> InteractionValues:
    """index at order k, whose weight _index_weight gave, straight from the
    transformed node tables that mi was summed from (GraphGame.moebius_arrays,
    whose node games hold the pooling), with no pass over mi's values of the
    sets they hold.

    The index value of S, |S| = s, is the sum over the balls holding S of
    sum_{S <= T <= N_i} w(s, |T|, k) m_i(T). So each order s weights every
    table by w(s, |L|, k) and sums it down over supersets: a 2^h table by
    one butterfly pass per local bit j, v[L] += v[L + 2^j] on every L
    without bit j; a table capped at lambda by _capped_supersets, on its
    codes alone. The size-s entries are summed by position (the tables
    moebius_arrays returns hold their keys' positions) onto mi's size-s
    keys, which a row table (one hop narrower than the fields) may leave at
    0.0. m(empty) and the biases reach no set of size >= 1. A
    truncated map's sets of more than lambda members, its surrogates, are
    in no table: _surrogate_subsets adds their shares on the keys of at
    most lambda members, and at k > lambda _subset_loop their sets of
    lambda + 1..k members, new to the map, in map order.
    """
    keys, found = mi.arrays  # canonical order: keys[0] is the empty set, keys[-1] widest
    sizes = np.bitwise_count(keys)
    w = _weight_table(weight, k, int(sizes[-1]))
    orders = len(w) if mi.lam is None else min(len(w), mi.lam)  # the tables' sets hold <= lam
    places, sums = [], []  # per ball shape and order, its size-s entries
    for stack, place, counts, drop in tables:
        h = int(counts.max())  # the ball's size, or the cap on a capped table
        top = min(orders, h)
        # (orders, balls, codes) in C order, so the balls of all orders merge into one axis
        v = np.multiply(w[:top, counts][:, None, :], stack, order="C")
        if drop is None:
            for j in range(h):
                pairs = v.reshape(top, len(stack), -1, 2, 1 << j)
                pairs[:, :, :, 0, :] += pairs[:, :, :, 1, :]
        else:
            _capped_supersets(v.reshape(-1, v.shape[-1]), counts, drop)
        for s in range(top):
            at = counts == s + 1
            places.append(place[:, at].ravel())
            sums.append(v[s][:, at].ravel())
    bounds = np.searchsorted(sizes, np.arange(orders + 1), side="right")  # size s ends bounds[s]
    # adds in input order; each key takes only entries of its own size, or keeps 0.0
    total = np.bincount(np.concatenate(places), weights=np.concatenate(sums),
                        minlength=bounds[-1])
    rest = len(keys) if mi.lam is None else int(np.searchsorted(sizes, mi.lam, side="right"))
    if rest < len(keys):  # the surrogates' sets of at most orders members
        _surrogate_subsets(total, keys, bounds, keys[rest:], found[rest:], w[:orders])
    out = dict(zip(keys[1:bounds[-1]].tolist(), total[1:].tolist()))
    if len(w) > orders:  # k > lam: their sets of lam + 1..k members, new to out, go last
        _subset_loop(zip(keys[rest:].tolist(), found[rest:].tolist()), weight, k, out, orders + 1)
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
