"""Shared test scaffolding: a table-backed game and small adapters."""

import numpy as np

import graphsi.moebius
from graphsi.coalitions import iter_members, mask_of, small_family
from graphsi.generate import random_model
from graphsi.graph import make_graph
from graphsi.nn import _table_hops


class DictGame:
    """Synthetic game over a fixed value table, with call accounting."""

    def __init__(self, n: int, table: dict[int, float]):
        self.n_players = n
        self.table = dict(table)
        self._forwarded: set[int] = set()

    def evaluate(self, coalition: int) -> float:
        self._forwarded.add(coalition)
        return self.table[coalition]

    def evaluate_batch(self, coalitions):
        return [self.evaluate(t) for t in coalitions]

    def call_count(self) -> int:
        return len(self._forwarded)


def random_table(n: int, seed: int) -> dict[int, float]:
    rng = np.random.Generator(np.random.Philox(seed))
    return {s: float(v) for s, v in enumerate(rng.normal(0.0, 1.0, size=1 << n))}


def table_as_nu(table):
    """The same game as a frozenset-keyed callable, for the oracles."""
    def nu(coalition):
        return table[mask_of(coalition)]
    return nu


def mask_to_set(mask: int) -> frozenset:
    return frozenset(iter_members(mask))


def star_instance(n: int = 14, seed: int = 3):
    """(graph, model): a star with hub 0 under a 1-layer GIN of width 16, the
    shape whose one n-node ball suits node tables best."""
    rng = np.random.Generator(np.random.Philox(seed))
    g = make_graph(n, [(0, i) for i in range(1, n)], rng.normal(size=(n, 3)))
    return g, random_model("gin", 3, 1, 16, seed)


def table_moebius(game):
    """Moebius values on I in canonical order, from freshly built node tables
    (moebius_arrays); writes nothing into the game."""
    keys, values, _ = game.moebius_arrays()
    return dict(zip(keys.tolist(), values.tolist()))


def force_route(patch, tables: bool) -> None:
    """Send every run through patch (a pytest MonkeyPatch) to the tables or
    to the dense stack, whatever its fields: "nodes" or "rows" as
    nn._table_hops gives, or "sums" or "butterfly" as small_family gives,
    so a forced run keeps the transform moebius._route would give it."""
    def route(game, hoods):
        if tables:
            return "nodes" if _table_hops(game.model) == game.model.num_layers else "rows"
        return "sums" if small_family(hoods.hoods) else "butterfly"

    patch.setattr(graphsi.moebius, "_route", route)
