"""Print how far each `graphsi explain` output moved between two directories.

Both directories are kept by `tools/output_digests.py DIR`, one per commit:

    PYTHONPATH=src python tools/output_digests.py before > before.txt
    ...check out the other commit...
    PYTHONPATH=src python tools/output_digests.py after > after.txt
    python tools/output_moves.py before after

For each output whose bytes differ it prints one line: the largest move of a
node or hyperedge value relative to max(1, |nu(N)|) (a hyperedge present on
one side only counts as 0 on the other), then each metadata key that moved,
with its relative move when it is a number. The last line gives the largest
value move over all outputs. Outputs present on one side only are named.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def entries(doc: dict) -> dict:
    """Every node and hyperedge value, keyed by its member tuple."""
    values = {(node["id"],): node["value"] for node in doc["nodes"]}
    values.update((tuple(edge["members"]), edge["value"]) for edge in doc["hyperedges"])
    return values


def moves(a: dict, b: dict) -> tuple[float, list[str]]:
    """(largest value move, moved metadata keys), relative to max(1, |nu(N)|)."""
    scale = max(1.0, abs(a["metadata"]["nu_N"]), abs(b["metadata"]["nu_N"]))
    va, vb = entries(a), entries(b)
    value = max((abs(va.get(key, 0.0) - vb.get(key, 0.0)) for key in va.keys() | vb.keys()),
                default=0.0) / scale
    moved = []
    for key in sorted(a["metadata"].keys() | b["metadata"].keys()):
        x, y = a["metadata"].get(key), b["metadata"].get(key)
        if x == y:
            continue
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        moved.append(f"{key}({abs(x - y) / scale:.2g})" if numbers else key)
    return value, moved


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = map(Path, argv)
    names = {p.name for p in before.glob("*.json")} | {p.name for p in after.glob("*.json")}
    largest, differ = 0.0, 0
    for name in sorted(names):
        a, b = before / name, after / name
        if not (a.exists() and b.exists()):
            print(f"{name}  only in {before if a.exists() else after}")
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        differ += 1
        value, moved = moves(json.loads(a.read_text()), json.loads(b.read_text()))
        largest = max(largest, value)
        print(f"{name}  values {value:.2g}  metadata {' '.join(moved) or '-'}")
    print(f"{differ} of {len(names)} outputs differ; largest value move {largest:.2g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
