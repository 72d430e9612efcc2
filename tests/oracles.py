"""Independent reference implementations used to pin expected values.

Everything here is written against set-of-int representations and plain
Python arithmetic, on purpose: the library computes with bitmasks and
numpy, so agreement between the two is meaningful. Weights are exact
Fractions wherever a closed form exists.

A "game" in this module is a callable nu(frozenset) -> float together
with a player count n.
"""

from fractions import Fraction
from itertools import chain, combinations
from math import comb, sqrt

# Bernoulli numbers (B_1 = -1/2 convention), from the standard tables.
BERNOULLI = [
    Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
    Fraction(-1, 30), Fraction(0), Fraction(1, 42), Fraction(0),
    Fraction(-1, 30), Fraction(0), Fraction(5, 66), Fraction(0),
    Fraction(-691, 2730), Fraction(0), Fraction(7, 6), Fraction(0),
    Fraction(-3617, 510),
]


def subsets_of(players):
    players = sorted(players)
    return chain.from_iterable(
        combinations(players, r) for r in range(len(players) + 1))


def moebius_oracle(nu, coalition) -> float:
    """m(S) = sum over T below S of (-1)^(|S|-|T|) nu(T); exact when nu
    returns Fractions."""
    s = len(coalition)
    total = 0
    for t in subsets_of(coalition):
        term = nu(frozenset(t))
        total += term if (s - len(t)) % 2 == 0 else -term
    return total


def zeta_oracle(moebius, coalition) -> float:
    """nu(T) = sum over S below T of m(S): the inverse transform."""
    return sum(moebius[frozenset(s)] for s in subsets_of(coalition))


def fast_moebius_oracle(values: list[float]) -> list[float]:
    """In-place subset-sum transform over the bitmask lattice, O(n 2^n).

    values[mask] = nu(mask) for every mask below 2^n; a different
    algorithm family from the per-set inclusion-exclusion above.
    """
    out = list(values)
    n = (len(values) - 1).bit_length()
    for b in range(n):
        bit = 1 << b
        for mask in range(len(out)):
            if mask & bit:
                out[mask] -= out[mask ^ bit]
    return out


def field_masks(field: int) -> list[int]:
    """Global mask of every local index of a field, in local order: bit j
    of a local index stands for the field's j-th member in ascending order."""
    masks = [0]
    for member in (i for i in range(field.bit_length()) if field >> i & 1):
        masks += [m | 1 << member for m in masks]
    return masks


def fast_zeta_oracle(moebius: list[float]) -> list[float]:
    out = list(moebius)
    n = (len(out) - 1).bit_length()
    for b in range(n):
        bit = 1 << b
        for mask in range(len(out)):
            if mask & bit:
                out[mask] += out[mask ^ bit]
    return out


def discrete_derivative_oracle(nu, s, t) -> float:
    size = len(s)
    total = 0.0
    for ell in subsets_of(s):
        term = nu(frozenset(t) | frozenset(ell))
        total += term if (size - len(ell)) % 2 == 0 else -term
    return total


def shapley_oracle(nu, n, i) -> float:
    """Classic weighted marginal-contribution sum for player i."""
    others = [j for j in range(n) if j != i]
    total = 0.0
    for t in subsets_of(others):
        w = Fraction(1, n * comb(n - 1, len(t)))
        total += float(w) * (nu(frozenset(t) | {i}) - nu(frozenset(t)))
    return total


def sii_oracle(nu, n, s) -> float:
    """Discrete derivatives averaged with the interaction-index weights."""
    s = frozenset(s)
    others = [j for j in range(n) if j not in s]
    total = 0.0
    for t in subsets_of(others):
        w = Fraction(1, (n - len(s) + 1) * comb(n - len(s), len(t)))
        total += float(w) * discrete_derivative_oracle(nu, s, t)
    return total


def ksii_oracle(nu, n, k) -> dict:
    """Recursive aggregation of the interaction index up to order k.

    phi_k(S) = SII(S) at the top order; below it, phi_{k-1}(S) plus a
    Bernoulli-weighted sum of the order-k SII values above S. phi_0 = 0.
    """
    sii = {frozenset(s): sii_oracle(nu, n, s)
           for r in range(1, k + 1)
           for s in combinations(range(n), r)}
    levels = {0: {}}
    for order in range(1, k + 1):
        level = {}
        for s in sii:
            if len(s) > order:
                continue
            if len(s) == order:
                level[s] = sii[s]
            else:
                others = [j for j in range(n) if j not in s]
                bump = sum(sii[s | frozenset(extra)]
                           for extra in combinations(others, order - len(s)))
                level[s] = levels[order - 1][s] + float(BERNOULLI[order - len(s)]) * bump
        levels[order] = level
    return levels[k]


def stii_oracle(nu, n, k) -> dict:
    """Taylor-style index: plain Moebius below order k; at order k, a
    k/n-scaled average of discrete derivatives."""
    out = {}
    for r in range(1, k):
        for s in combinations(range(n), r):
            out[frozenset(s)] = moebius_oracle(nu, s)
    for s in combinations(range(n), k):
        others = [j for j in range(n) if j not in s]
        total = 0.0
        for t in subsets_of(others):
            total += discrete_derivative_oracle(nu, s, t) / comb(n - 1, len(t))
        out[frozenset(s)] = total * k / n
    return out


def _conversion_weight(index, s, s_tilde, k) -> Fraction:
    """Exact share of m(S~) that the index gives a size-s subset S of S~.

    k-SII is not taken from a closed form: it replays ksii_oracle's
    order recursion on the game whose only Moebius mass is m(S~) = 1.
    There SII(T) = 1/(|S~| - |T| + 1) for T between S and S~, and the
    C(|S~| - s, order - s) sets T of each order share one value.
    """
    if index == "sv":
        return Fraction(1, s_tilde)
    if index == "sii":
        return Fraction(1, s_tilde - s + 1)
    if index == "stii":
        if s < k:
            return Fraction(int(s == s_tilde))
        return Fraction(1, comb(s_tilde, k))
    total = Fraction(1, s_tilde - s + 1)  # phi_s(S) = SII(S)
    for order in range(s + 1, min(k, s_tilde) + 1):
        total += (BERNOULLI[order - s] * comb(s_tilde - s, order - s)
                  * Fraction(1, s_tilde - order + 1))
    return total


def conversion_oracle(moebius: dict, n, index, k) -> dict:
    """Every set S of size 1..k mapped to (exact value, sum |w*m|, terms).

    moebius maps frozensets to float Moebius values; each is read as the
    exact rational it stores, so the result is the index of that float
    table in exact arithmetic. terms counts the supersets S~ of S with a
    non-zero weight: a float conversion summing w*m over them is off by
    at most gamma_{terms+1} * sum |w*m| (one rounding for w, one for the
    product, terms - 1 for the sum).
    """
    out = {}
    for r in range(1, k + 1):
        for s in combinations(range(n), r):
            s = frozenset(s)
            value, magnitude, terms = Fraction(0), Fraction(0), 0
            for s_tilde, m in moebius.items():
                if not s <= s_tilde:
                    continue
                w = _conversion_weight(index, len(s), len(s_tilde), k)
                if w:
                    value += w * Fraction(m)
                    magnitude += abs(w * Fraction(m))
                    terms += 1
            out[s] = (value, magnitude, terms)
    return out


def gamma(j) -> Fraction:
    """Higham's gamma_j = j*u / (1 - j*u) for float64, u = 2^-53."""
    ju = Fraction(j, 2 ** 53)
    return ju / (1 - ju)


# -- receptive fields --------------------------------------------------------


def khop_oracle(n, edges, ell) -> list[frozenset]:
    """Closed ell-hop neighborhoods from all-pairs shortest paths
    (Floyd-Warshall), deliberately not breadth-first search."""
    inf = float("inf")  # unreachable at any range ell
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for a, b in edges:
        dist[a][b] = dist[b][a] = 1
    for mid in range(n):
        for i in range(n):
            for j in range(n):
                through = dist[i][mid] + dist[mid][j]
                if through < dist[i][j]:
                    dist[i][j] = through
    return [frozenset(j for j in range(n) if dist[i][j] <= ell)
            for i in range(n)]


def interaction_set_oracle(hoods) -> set[frozenset]:
    members = set()
    for hood in hoods:
        for s in subsets_of(hood):
            members.add(frozenset(s))
    return members


# -- sparse pipeline ---------------------------------------------------------


def sparse_mi_oracle(nu, hoods) -> dict:
    """Moebius values on the union of receptive-field power sets only."""
    return {s: moebius_oracle(nu, s) for s in interaction_set_oracle(hoods)}


def _set_order(s: frozenset) -> tuple:
    return (len(s), sum(1 << i for i in s))


def truncated_mi_oracle(nu, hoods, lam, n) -> dict:
    """Order-capped surrogate Moebius values with the efficiency repair.

    Members up to size lam carry their true Moebius value (the member
    set is closed downward, so inclusion-exclusion over subsets is the
    recovery identity solved directly). Each distinct oversized
    receptive field, smallest first, absorbs what the identity leaves
    unexplained; the largest field (ties: lowest bit pattern) absorbs
    the remaining gap against nu(N).
    """
    kept = {s for s in interaction_set_oracle(hoods) if len(s) <= lam}
    mi_hat = {s: moebius_oracle(nu, s) for s in kept}
    oversized = sorted({h for h in hoods if len(h) > lam}, key=_set_order)
    for hood in oversized:
        explained = sum(v for t, v in mi_hat.items() if t <= hood)
        mi_hat[hood] = nu(hood) - explained
    if oversized:
        top = max(len(h) for h in oversized)
        star = min((h for h in oversized if len(h) == top), key=_set_order)
        mi_hat[star] += nu(frozenset(range(n))) - sum(mi_hat.values())
    return mi_hat


# -- model forward pass ------------------------------------------------------


def _matvec(weight, vec):
    # weight laid out [fan_in][fan_out]
    fan_out = len(weight[0])
    return [sum(vec[i] * weight[i][j] for i in range(len(vec)))
            for j in range(fan_out)]


def _vadd(a, b):
    return [x + y for x, y in zip(a, b)]


def _relu(vec):
    return [x if x > 0.0 else 0.0 for x in vec]


def gnn_forward_oracle(model_doc: dict, n, edges, features) -> list[float]:
    """Scalar-arithmetic forward pass from the serialized weight document.

    Mirrors the documented semantics: symmetrically normalized
    propagation with self-loops for gcn layers, a two-layer perceptron
    over (1+eps)h + neighbor sum for gin layers, relu between graph
    layers but not after the last, sum or mean pooling, then the
    readout.
    """
    adj = [[0.0] * n for _ in range(n)]
    for a, b in edges:
        adj[a][b] = adj[b][a] = 1.0
    for i in range(n):
        adj[i][i] = 1.0
    deg = [sum(row) for row in adj]
    norm = [[adj[i][j] / sqrt(deg[i] * deg[j]) for j in range(n)] for i in range(n)]

    h = [list(map(float, row)) for row in features]
    layers = model_doc["layers"]
    for idx, layer in enumerate(layers):
        if layer["kind"] == "gcn":
            agg = [[sum(norm[i][j] * h[j][c] for j in range(n))
                    for c in range(len(h[0]))] for i in range(n)]
            h = [_vadd(_matvec(layer["weight"], agg[i]), layer["bias"])
                 for i in range(n)]
        else:
            mlp = layer["mlp"]
            nxt = []
            for i in range(n):
                mixed = [(1.0 + layer["epsilon"]) * h[i][c]
                         + sum(h[j][c] for j in range(n) if adj[i][j] and i != j)
                         for c in range(len(h[0]))]
                hid = _relu(_vadd(_matvec(mlp["w1"], mixed), mlp["b1"]))
                nxt.append(_vadd(_matvec(mlp["w2"], hid), mlp["b2"]))
            h = nxt
        if idx + 1 < len(layers):
            h = [_relu(row) for row in h]

    pooled = [sum(row[c] for row in h) for c in range(len(h[0]))]
    if model_doc["pooling"] == "mean":
        pooled = [x / n for x in pooled]

    readout = model_doc["readout"]
    if readout["kind"] == "linear":
        return _vadd(_matvec(readout["weight"], pooled), readout["bias"])
    hid = _relu(_vadd(_matvec(readout["w1"], pooled), readout["b1"]))
    return _vadd(_matvec(readout["w2"], hid), readout["b2"])


def masked_game_oracle(model_doc: dict, n, edges, features, baseline, target):
    """nu(frozenset): masked-feature forward, target logit readout."""
    def nu(coalition: frozenset) -> float:
        masked = [list(features[i]) if i in coalition else list(baseline)
                  for i in range(n)]
        return gnn_forward_oracle(model_doc, n, edges, masked)[target]
    return nu


# -- export ------------------------------------------------------------------


def si_graph_oracle(si, nu_full, nu_empty, efficiency_residual) -> dict:
    """SI-Graph document of an interaction map, read off its values dict.

    Every node is listed, a magnitude below 1e-12 as 0.0; every set of two
    or more members whose magnitude is not below 1e-12 (so NaN stays) is a
    hyperedge, ordered by size, then by mask.
    """
    sets = {frozenset(i for i in range(64) if mask >> i & 1): value
            for mask, value in si.values.items()}
    nodes = []
    for i in range(si.n):
        value = sets.get(frozenset([i]), 0.0)
        nodes.append({"id": i, "value": value if abs(value) >= 1e-12 else 0.0})
    hyperedges = [{"members": sorted(s), "value": value}
                  for s, value in sorted(sets.items(), key=lambda item: _set_order(item[0]))
                  if len(s) >= 2 and not abs(value) < 1e-12]
    metadata = {"index": si.kind, "k": si.k, "ell": si.ell, "lambda": si.lam,
                "call_count": si.call_count, "nu_N": nu_full, "nu_empty": nu_empty,
                "efficiency_residual": efficiency_residual}
    return {"nodes": nodes, "hyperedges": hyperedges, "metadata": metadata}
