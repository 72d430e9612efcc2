"""Seeded inputs for the benchmark workloads, and the counts derived from them.

The generators here belong to the benchmark, not to the package, so a
change to ``graphsi.generate`` cannot move the inputs. They follow the
same recipe as ``graphsi.generate.generate_instance``: degree-capped
random recursive trees or Erdos-Renyi graphs, standard-normal (or
one-hot) features, weights drawn from normal(0, 1/sqrt(fan_in)) and zero
biases. Every random stream is a Philox generator keyed by
(seed, workload, slot, attempt), so one seed always gives the same bytes.

The graph structures of ``sparse64``, ``hub`` and ``truncated`` are the
same for every seed; the seed draws their features and weights. Each
structure is the first draw of a fixed stream whose evaluation count
lies near the median of its family. A structure drawn per seed would
make the work vary with the seed (a 64-node ER graph needs anywhere from
6k to 42k model calls, and its Moebius terms vary by +-30% even at a
fixed call count), and run-to-run spreads would measure the seed, not
the code. ``molecules`` draws all 200 structures from the seed; their
sizes are stratified so the total work barely moves.

Every count in this file is computed by the benchmark itself from the
generated graphs (own BFS, own power-set union), never through the
package, so the output checks do not trust the code under test.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

WORKLOADS = ("sparse64", "hub", "truncated", "molecules")
MOLECULE_COUNT = 200
# Molecules checked against stored references in every run: 30 is the
# period of (index cycle 5, model alternation 2, pooling every third 3).
MOLECULE_REFERENCE_COUNT = 30
INDEX_CYCLE = ("sv", "ksii", "stii", "sii", "mi")
MAX_ATTEMPTS = 400
STRUCTURE_SEED = 0


@dataclass
class Call:
    """One ``graphsi explain`` invocation and what the benchmark knows about it."""

    name: str
    graph: dict
    model: dict
    index: str
    order: int | None
    lam: int | None
    hoods: list[int]
    evaluated: int  # distinct coalitions the program must evaluate
    transform_terms: int
    convert_terms: int
    out_sets: int
    graph_path: str = ""
    model_path: str = ""
    input_bytes: int = 0

    def argv(self, out_path: str) -> list[str]:
        args = ["explain", self.graph_path, self.model_path, "--index", self.index]
        if self.order is not None:
            args += ["--order", str(self.order)]
        if self.lam is not None:
            args += ["--lambda", str(self.lam)]
        return args + ["--out", out_path]

    @property
    def n_max(self) -> int:
        return max(h.bit_count() for h in self.hoods)

    @property
    def maximal_hoods(self) -> list[int]:
        unique = sorted(set(self.hoods), key=lambda m: (m.bit_count(), m), reverse=True)
        kept: list[int] = []
        for m in unique:
            if not any(m & ~big == 0 for big in kept):
                kept.append(m)
        return kept


# -- random streams ----------------------------------------------------------


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *key])))


def _tree_edges(n: int, rng: np.random.Generator, max_degree: int = 3) -> list[list[int]]:
    degree = [0] * n
    edges = []
    for i in range(1, n):
        open_slots = [j for j in range(i) if degree[j] < max_degree]
        j = open_slots[int(rng.integers(0, len(open_slots)))]
        edges.append([j, i])
        degree[j] += 1
        degree[i] += 1
    return edges


def _er_edges(n: int, p: float, rng: np.random.Generator) -> list[list[int]]:
    return [[i, j] for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def _weight(rng: np.random.Generator, fan_in: int, fan_out: int) -> list[list[float]]:
    return rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out)).tolist()


def _model(kind: str, d0: int, layers: int, hidden: int, rng: np.random.Generator,
           pooling: str = "sum", d_out: int = 2) -> dict:
    stack = []
    width = d0
    for _ in range(layers):
        if kind == "gcn":
            stack.append({"kind": "gcn", "weight": _weight(rng, width, hidden),
                          "bias": [0.0] * hidden})
        else:
            stack.append({"kind": "gin", "epsilon": 0.0,
                          "mlp": {"w1": _weight(rng, width, hidden), "b1": [0.0] * hidden,
                                  "w2": _weight(rng, hidden, hidden), "b2": [0.0] * hidden}})
        width = hidden
    readout = {"kind": "linear", "weight": _weight(rng, width, d_out), "bias": [0.0] * d_out}
    return {"activation": "relu", "layers": stack, "pooling": pooling, "readout": readout}


def _graph(n: int, edges: list[list[int]], features: np.ndarray) -> dict:
    return {"n": n, "edges": edges, "features": features.tolist()}


# -- counts computed by the benchmark ------------------------------------------


def khop(n: int, edges: list[list[int]], ell: int) -> list[int]:
    """Closed ell-hop neighborhoods as bitmasks."""
    nbr = [0] * n
    for i, j in edges:
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
    hoods = []
    for i in range(n):
        hood = frontier = 1 << i
        for _ in range(ell):
            reached = hood
            f = frontier
            while f:
                low = f & -f
                reached |= nbr[low.bit_length() - 1]
                f ^= low
            frontier = reached & ~hood
            hood = reached
        hoods.append(hood)
    return hoods


def power_set_union(hoods: list[int]) -> set[int]:
    """The interaction set I: every subset of some receptive field."""
    members: set[int] = set()
    for hood in set(hoods):
        if hood in members:
            continue  # already covered as a subset of a larger field
        sub = hood
        while True:
            members.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & hood
    return members


def truncated_family(hoods: list[int], lam: int) -> tuple[set[int], list[int]]:
    """(sets of size <= lam inside some field, distinct fields larger than lam)."""
    kept: set[int] = set()
    for hood in set(hoods):
        nodes = [i for i in range(hood.bit_length()) if hood >> i & 1]
        for size in range(min(lam, len(nodes)) + 1):
            for combo in combinations(nodes, size):
                mask = 0
                for i in combo:
                    mask |= 1 << i
                kept.add(mask)
    oversized = sorted({h for h in hoods if h.bit_count() > lam})
    return kept, oversized


def _convert_counts(support, n: int, index: str, k: int) -> tuple[int, int]:
    """(terms the conversion enumerates, entries it returns) for a subset-closed
    Moebius support, per the linear maps of Grabisch, Marichal & Roubens."""
    sizes = [s.bit_count() for s in support]
    if index == "mi":
        return 0, len(sizes)
    if index == "sv":
        return sum(sizes), n
    out = sum(1 for z in sizes if 1 <= z <= k)
    if index == "stii":
        return sum(1 if z < k else comb(z, k) for z in sizes if z), out
    return sum(comb(z, s) for z in sizes for s in range(1, min(k, z) + 1)), out


def _call(name: str, graph: dict, model: dict, index: str, order: int | None,
          lam: int | None = None) -> Call:
    ell = len(model["layers"])
    hoods = khop(graph["n"], graph["edges"], ell)
    k = order if order is not None else (1 if index == "sv" else graph["n"])
    if lam is None:
        support = power_set_union(hoods)
        evaluated = len(support)
        transform_terms = sum(1 << s.bit_count() for s in support)
    else:
        kept, oversized = truncated_family(hoods, lam)
        support = kept | set(oversized)
        evaluated = len(kept) + len(oversized)
        # Direct inclusion-exclusion over the kept sets, then one pass over
        # the growing surrogate map per oversized field.
        transform_terms = (sum(1 << s.bit_count() for s in kept)
                           + sum(len(kept) + i for i in range(len(oversized))))
    convert_terms, out_sets = _convert_counts(support, graph["n"], index, k)
    return Call(name=name, graph=graph, model=model, index=index, order=order, lam=lam,
                hoods=hoods, evaluated=evaluated, transform_terms=transform_terms,
                convert_terms=convert_terms, out_sets=out_sets)


@functools.cache
def _structure(slot: int, n: int, edge_prob: float | None, ell: int, lo: int, hi: int,
               lam: int | None = None) -> tuple[tuple[int, int], ...]:
    """Edges of the first graph from the fixed structure stream whose
    evaluation count lies in [lo, hi]: an ER graph, or a degree-3 tree
    when ``edge_prob`` is None."""
    for attempt in range(MAX_ATTEMPTS):
        rng = _rng(STRUCTURE_SEED, slot, attempt)
        edges = _tree_edges(n, rng) if edge_prob is None else _er_edges(n, edge_prob, rng)
        hoods = khop(n, edges, ell)
        if lam is None:
            count = len(power_set_union(hoods))
        else:
            kept, oversized = truncated_family(hoods, lam)
            count = len(kept) + len(oversized)
        if lo <= count <= hi:
            return tuple(map(tuple, edges))
    raise RuntimeError(f"no graph with {lo}..{hi} evaluations in {MAX_ATTEMPTS} draws")


def _seeded(name: str, seed: int, slot: int, n: int, edges, model_kind: str, ell: int,
            lam: int | None = None) -> Call:
    """Call on a fixed structure with features and weights drawn from the seed."""
    rng = _rng(seed, slot)
    graph = _graph(n, [list(e) for e in edges], rng.normal(size=(n, 3)))
    return _call(name, graph, _model(model_kind, 3, ell, 16, rng), "ksii", 2, lam=lam)


# -- workloads ------------------------------------------------------------------


def _sparse64(seed: int) -> list[Call]:
    tree = _structure(1, 64, None, 2, 8200, 8600)
    er = _structure(2, 64, 0.08, 1, 14550, 15450)
    return [_seeded("tree64", seed, 1, 64, tree, "gin", 2),
            _seeded("er64", seed, 2, 64, er, "gin", 1)]


def _hub(seed: int) -> list[Call]:
    star = tuple((0, i) for i in range(1, 14))
    return [_seeded("star14", seed, 3, 14, star, "gin", 1)]


def _truncated(seed: int) -> list[Call]:
    er = _structure(4, 48, 0.10, 2, 16500, 17500, lam=3)
    return [_seeded("er48", seed, 4, 48, er, "gcn", 2, lam=3)]


def _molecules(seed: int, count: int = MOLECULE_COUNT) -> list[Call]:
    calls = []
    for j in range(count):
        rng = _rng(seed, 5, j)
        n = 10 + j % 19  # stratified over MUTAG's 10..28 nodes
        edges = _tree_edges(n, rng)
        atoms = rng.choice(7, size=n, p=[0.7, 0.1, 0.1, 0.04, 0.03, 0.02, 0.01])
        features = np.eye(7)[atoms]
        pooling = "mean" if j % 3 == 2 else "sum"
        model = _model("gcn" if j % 2 == 0 else "gin", 7, 1, 16, rng, pooling=pooling)
        index = INDEX_CYCLE[j % len(INDEX_CYCLE)]
        order = {"sv": 1, "mi": None}.get(index, 2)
        calls.append(_call(f"mol{j:03d}", _graph(n, edges, features), model, index, order))
    return calls


def make_workload(name: str, seed: int, reference: bool = False) -> list[Call]:
    """Calls of one pass over the workload; ``reference`` keeps only the
    instances compared against stored outputs."""
    if name == "sparse64":
        return _sparse64(seed)
    if name == "hub":
        return _hub(seed)
    if name == "truncated":
        return _truncated(seed)
    if name == "molecules":
        return _molecules(seed, MOLECULE_REFERENCE_COUNT if reference else MOLECULE_COUNT)
    raise ValueError(f"unknown workload {name!r}")


def dumps(obj) -> str:
    """Input file text: compact JSON, floats in round-trip repr."""
    return json.dumps(obj, separators=(",", ":")) + "\n"


def write_inputs(calls: list[Call], directory: str) -> None:
    """Write each call's graph and weight file; fill in paths and sizes."""
    os.makedirs(directory, exist_ok=True)
    for call in calls:
        call.graph_path = os.path.join(directory, f"{call.name}_graph.json")
        call.model_path = os.path.join(directory, f"{call.name}_weights.json")
        call.input_bytes = 0
        for path, obj in ((call.graph_path, call.graph), (call.model_path, call.model)):
            data = dumps(obj).encode()
            with open(path, "wb") as fh:
                fh.write(data)
            call.input_bytes += len(data)
