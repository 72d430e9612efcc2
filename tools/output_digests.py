"""Print one "sha256  name" line per `graphsi explain` output, sorted by name.

Covers demo path4 and er8 (all five indices, each exact, at --lambda 2 and
with --normalize) and the four perfbench workloads at seeds 0 and 1, whose
inputs come from perfbench/inputs.py. Outputs of two commits compare with
one diff:

    PYTHONPATH=src python tools/output_digests.py > digests.txt

With a directory argument the outputs are kept there, to inspect what moved.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import graphsi.cli

ROOT = Path(__file__).resolve().parent.parent
INDICES = ("sv", "sii", "ksii", "stii", "mi")
MODES = {"exact": ["--exact"], "lambda2": ["--lambda", "2"], "normalize": ["--normalize"]}


def runs(workdir: Path):
    """(name, argv without --out) for every covered output."""
    for demo in ("path4", "er8"):
        files = [str(ROOT / "demo" / f"{demo}_{part}.json") for part in ("graph", "model")]
        for index in INDICES:
            for mode, flags in MODES.items():
                yield f"{demo}_{index}_{mode}", ["explain", *files, "--index", index, *flags]
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs
    for workload in inputs.WORKLOADS:
        for seed in (0, 1):
            calls = inputs.make_workload(workload, seed)
            inputs.write_inputs(calls, str(workdir / f"{workload}_s{seed}"))
            for call in calls:
                yield f"{workload}_s{seed}_{call.name}", call.argv("")[:-2]


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as scratch:
        outdir = Path(argv[0]) if argv else Path(scratch)
        outdir.mkdir(parents=True, exist_ok=True)
        lines = []
        for name, args in runs(Path(scratch)):
            out = outdir / f"{name}.json"
            code = graphsi.cli.main([*args, "--out", str(out)])
            if code != 0:
                raise SystemExit(f"{name}: exit code {code}")
            lines.append(f"{hashlib.sha256(out.read_bytes()).hexdigest()}  {name}")
    print("\n".join(sorted(lines, key=lambda line: line.split()[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
