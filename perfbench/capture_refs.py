"""Capture the reference outputs in ``refs/`` that every run compares against.

The stored references were captured once, from the package as it stood
when the benchmark was defined. Rerunning this script replaces them with
whatever the current code outputs, so it must never be used to make a
failing change pass; it exists to document how the files were made.

Usage, from the repository root:

    PYTHONPATH=src python3 perfbench/capture_refs.py [workload ...]
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import sys

import graphsi.cli

from checks import REFERENCE_SEED, check_output, reference_path
from inputs import WORKLOADS, make_workload, write_inputs


def capture(name: str, workdir: str) -> None:
    calls = make_workload(name, REFERENCE_SEED, reference=True)
    write_inputs(calls, workdir)
    docs = {}
    for call in calls:
        out = os.path.join(workdir, f"{call.name}.out.json")
        code = graphsi.cli.main(call.argv(out))
        with open(out, encoding="utf-8") as fh:
            doc, problems = check_output(call, code, fh.read())
        if problems:
            raise SystemExit("\n".join(problems))
        docs[call.name] = doc
    data = json.dumps(docs, separators=(",", ":"), sort_keys=True).encode()
    with open(reference_path(name), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(data)


def main(argv: list[str]) -> int:
    workdir = os.path.join(".perfbench_work", "capture")
    os.makedirs(os.path.dirname(reference_path(WORKLOADS[0])), exist_ok=True)
    try:
        for name in argv or WORKLOADS:
            capture(name, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
