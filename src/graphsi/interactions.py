"""Containers for interaction sets and interaction values."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coalitions import sort_key

INDEX_KINDS = ("mi", "sv", "sii", "ksii", "stii")


@dataclass(frozen=True)
class InteractionSet:
    """Canonically ordered family of coalitions, closed under subsets.

    members are sorted ascending by size, ties by ascending bitmask.
    maximal_hoods are the inclusion-maximal neighborhoods the set was
    built from; every member is a subset of one of them.
    """

    members: tuple[int, ...]
    maximal_hoods: tuple[int, ...] = ()

    @cached_property
    def _lookup(self) -> frozenset:
        # Built on the first membership test: an exact run never makes one.
        return frozenset(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, mask: int) -> bool:
        return mask in self._lookup

    def __iter__(self):
        return iter(self.members)


class InteractionValues:
    """Map from coalitions to interaction scores of one index kind.

    Built from the values dict or from arrays=(keys, values), uint64 masks
    and float64 scores in map order; the other form is made on first read,
    so neither is changed once given. Two maps are equal when their
    metadata and values are, whichever form each was built from.

    Attributes:
        kind: one of "mi", "sv", "sii", "ksii", "stii"
        k: explanation order (n for MI)
        n: number of players
        values: coalition bitmask -> value; MI keeps the empty set,
            converted indices hold non-empty sets only
        arrays: (keys, values), the same map as two arrays
        ell: message-passing range the values were computed under
        lam: truncation order for approximate runs, None when exact
        call_count: distinct game evaluations spent
    """

    def __init__(self, kind: str, k: int, n: int, values: dict[int, float] | None = None,
                 ell: int | None = None, lam: int | None = None,
                 call_count: int | None = None, *, arrays=None):
        if kind not in INDEX_KINDS:
            raise ValueError(f"unknown index kind {kind!r}")
        if (values is None) == (arrays is None):
            raise TypeError("give exactly one of values and arrays")
        self.kind, self.k, self.n = kind, k, n
        self.ell, self.lam, self.call_count = ell, lam, call_count
        if values is None:
            self.arrays = arrays
        else:
            self.values = values

    @cached_property
    def values(self) -> dict[int, float]:
        keys, values = self.arrays
        return dict(zip(keys.tolist(), values.tolist()))

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        values = self.values
        return (np.fromiter(values, dtype=np.uint64, count=len(values)),
                np.fromiter(values.values(), dtype=float, count=len(values)))

    def __eq__(self, other):
        if not isinstance(other, InteractionValues):
            return NotImplemented
        meta = ("kind", "k", "n", "ell", "lam", "call_count")
        return ([getattr(self, a) for a in meta] == [getattr(other, a) for a in meta]
                and self.values == other.values)

    def __repr__(self) -> str:
        return (f"InteractionValues(kind={self.kind!r}, k={self.k}, n={self.n}, "
                f"values={self.values!r}, ell={self.ell}, lam={self.lam}, "
                f"call_count={self.call_count})")

    def get(self, mask: int) -> float:
        return self.values.get(mask, 0.0)

    def sorted_items(self) -> list[tuple[int, float]]:
        """(coalition, value) pairs in canonical order."""
        return sorted(self.values.items(), key=lambda kv: sort_key(kv[0]))

    def total(self) -> float:
        return sum(self.values.values())
