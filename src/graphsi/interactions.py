"""Containers for interaction sets and interaction values."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


@dataclass
class InteractionValues:
    """Map from coalitions to interaction scores of one index kind.

    Attributes:
        kind: one of "mi", "sv", "sii", "ksii", "stii"
        k: explanation order (n for MI)
        n: number of players
        values: coalition bitmask -> value; MI keeps the empty set,
            converted indices hold non-empty sets only
        ell: message-passing range the values were computed under
        lam: truncation order for approximate runs, None when exact
        call_count: distinct game evaluations spent
    """

    kind: str
    k: int
    n: int
    values: dict[int, float]
    ell: int | None = None
    lam: int | None = None
    call_count: int | None = None

    def __post_init__(self):
        if self.kind not in INDEX_KINDS:
            raise ValueError(f"unknown index kind {self.kind!r}")

    def get(self, mask: int) -> float:
        return self.values.get(mask, 0.0)

    def sorted_items(self) -> list[tuple[int, float]]:
        """(coalition, value) pairs in canonical order."""
        return sorted(self.values.items(), key=lambda kv: sort_key(kv[0]))

    def total(self) -> float:
        return sum(self.values.values())


class ArrayValues(InteractionValues):
    """InteractionValues given as canonically ordered key and value arrays
    (keys, values); the values dict is built from them on first read."""

    def __init__(self, kind: str, k: int, n: int, arrays, ell: int | None = None,
                 lam: int | None = None, call_count: int | None = None):
        super().__init__(kind, k, n, {}, ell, lam, call_count)
        del self.values  # read through the cached property below
        self._arrays = arrays

    @cached_property
    def values(self) -> dict[int, float]:
        keys, values = self._arrays
        return dict(zip(keys.tolist(), values.tolist()))
