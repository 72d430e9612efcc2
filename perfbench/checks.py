"""Output checks for ``graphsi explain`` results.

An explain call passes when it exits 0, its output parses, efficient
indices sum to nu(N) - nu(empty), its model-call count equals the
evaluation count the benchmark derived itself, and (for reference
instances) its values match the outputs stored in ``refs/``.

Reference tolerance: |value - reference| <= REL_TOL * scale, where scale
is the largest magnitude among nu(N), nu(empty) and the reference values
(at least 1). Reordering the Moebius sums (a butterfly transform, size
class grouping) moves values by a few ulp of the terms summed, about
1e-12 of the scale on a 2^14-set field, so 1e-8 leaves four orders of
margin; a wrong transform or weight moves values by 1e-3 of the scale
or more.
"""

from __future__ import annotations

import gzip
import json
import math
import os

REL_TOL = 1e-8
EFFICIENCY_TOL = 1e-9
REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
# Seed whose reference-flagged instances were captured into refs/. Never
# regenerate the references to let a change pass.
REFERENCE_SEED = 0


def _members(doc: dict) -> dict[tuple[int, ...], float]:
    """Every exported value keyed by its member tuple."""
    out = {(node["id"],): node["value"] for node in doc["nodes"]}
    for edge in doc["hyperedges"]:
        out[tuple(edge["members"])] = edge["value"]
    return out


def check_output(call, code: int, text: str | None):
    """(parsed document or None, list of problems) for one explain call."""
    if code != 0:
        return None, [f"{call.name}: exit code {code}"]
    try:
        doc = json.loads(text)
        meta = doc["metadata"]
        values = {key: float(v) for key, v in _members(doc).items()}
        nu_full, nu_empty = float(meta["nu_N"]), float(meta["nu_empty"])
        residual = float(meta["efficiency_residual"])
        missing = {"index", "k", "ell", "lambda", "call_count"} - meta.keys()
    except (TypeError, ValueError, KeyError, AttributeError) as exc:
        return None, [f"{call.name}: output does not parse: {exc!r}"]
    if missing:
        return None, [f"{call.name}: output metadata lacks {sorted(missing)}"]
    problems = []
    if meta["call_count"] != call.evaluated:
        problems.append(f"{call.name}: call_count {meta['call_count']} != "
                        f"{call.evaluated} sets the benchmark counted")
    if meta["index"] != call.index:
        problems.append(f"{call.name}: index {meta['index']!r} != {call.index!r}")
    if call.index != "sii":
        limit = EFFICIENCY_TOL * max(1.0, abs(nu_full))
        if not residual <= limit:
            problems.append(f"{call.name}: efficiency residual {residual!r} > {limit:.3g}")
        # Recomputed from the exported values; entries below the export's
        # 1e-12 pruning threshold may be missing from the sum.
        gap = abs(math.fsum(values.values()) - (nu_full - nu_empty))
        if not gap <= 10 * limit + 1e-12 * call.out_sets:
            problems.append(f"{call.name}: exported values sum off by {gap:.3g}")
    return doc, problems


def compare_reference(name: str, doc: dict, ref: dict) -> list[str]:
    """Problems found comparing one output document with its reference."""
    problems = []
    meta, ref_meta = doc["metadata"], ref["metadata"]
    for key in ("index", "k", "ell", "lambda", "call_count"):
        if meta[key] != ref_meta[key]:
            problems.append(f"{name}: metadata {key} {meta[key]!r} != reference {ref_meta[key]!r}")
    got, want = _members(doc), _members(ref)
    scale = max([1.0, abs(ref_meta["nu_N"]), abs(ref_meta["nu_empty"])]
                + [abs(v) for v in want.values()])
    limit = REL_TOL * scale
    pairs = [("nu_N", meta["nu_N"], ref_meta["nu_N"]),
             ("nu_empty", meta["nu_empty"], ref_meta["nu_empty"])]
    # A value missing on one side was pruned there, i.e. below 1e-12.
    pairs += [(str(list(key)), got.get(key, 0.0), want.get(key, 0.0))
              for key in sorted(set(got) | set(want))]
    bad = [(label, a, b) for label, a, b in pairs if not abs(a - b) <= limit]
    if bad:
        label, a, b = max(bad, key=lambda t: abs(t[1] - t[2]))
        problems.append(f"{name}: {len(bad)} values differ from the reference by more "
                        f"than {limit:.3g}; worst {label}: {a!r} vs {b!r}")
    return problems


def reference_path(workload: str) -> str:
    return os.path.join(REFS_DIR, f"{workload}.json.gz")


def load_references(workload: str) -> dict[str, dict]:
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)
