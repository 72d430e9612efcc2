"""Benchmark of ``graphsi explain``: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are listed in BENCHMARK.json and described in
perfbench/README.md. The package is imported from ``src/`` of the
current directory; nothing needs building.

This process measures set-up time (fresh interpreters importing
``graphsi.cli``), then starts one fresh worker interpreter for the
workload with BLAS and OpenMP pinned to one thread, and prints the
worker's result as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it records the environment. All scratch files live
under ``.perfbench_work/`` in the current directory and are removed on
exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from inputs import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
TIME_LIMIT_S = 170.0
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PROBE = """
import json, graphsi, graphsi.cli, numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except (TypeError, KeyError):
    blas = "unknown"
print(json.dumps({"graphsi": graphsi.__file__, "numpy": numpy.__version__, "blas": blas}))
"""


def _environment(root: str, workdir: str) -> dict[str, str]:
    """Child environment: package from ./src, thread pins, no GRAPHSI_* settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GRAPHSI_")}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(THREAD_PIN)
    env["TMPDIR"] = workdir
    return env


def _git_sha(root: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def _setup_times(root: str, env: dict[str, str]) -> tuple[dict, list[float]]:
    """(environment probe, wall seconds of fresh `import graphsi.cli` interpreters).

    The probe runs first, so when bytecode caching is on (no
    PYTHONDONTWRITEBYTECODE) every timed import finds the cache written."""
    probe = subprocess.run([sys.executable, "-c", PROBE], cwd=root, env=env, timeout=60,
                           capture_output=True, text=True)
    if probe.returncode != 0:
        raise RuntimeError(f"cannot import graphsi from {root}/src:\n{probe.stderr}")
    info = json.loads(probe.stdout.strip().splitlines()[-1])
    if not os.path.abspath(info["graphsi"]).startswith(os.path.join(root, "src") + os.sep):
        raise RuntimeError(f"graphsi imported from {info['graphsi']}, not from {root}/src")
    return info, [_timed_import(root, env) for _ in range(SETUP_REPEATS)]


def _timed_import(root: str, env: dict[str, str]) -> float:
    """Wall seconds from spawning an interpreter to its exit after importing
    graphsi.cli. Exit is seen as EOF on its stdout pipe: Popen.wait with a
    timeout polls in sleeps of up to 50 ms, which would quantise the time."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", "import graphsi.cli"], cwd=root, env=env,
                          stdout=subprocess.PIPE) as proc:
        ready, _, _ = select.select([proc.stdout], [], [], 60)
        elapsed = time.perf_counter() - start
        if not ready:
            proc.kill()
            raise RuntimeError("import graphsi.cli did not finish in 60 s")
        proc.stdout.read()
    if proc.returncode != 0:
        raise RuntimeError(f"import graphsi.cli exited with code {proc.returncode}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="graphsi explain benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "graphsi", "__init__.py")):
        sys.stderr.write("error: run from the repository root; src/graphsi is missing\n")
        return 2
    workdir = os.path.join(root, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        env = _environment(root, workdir)
        try:
            info, setup = _setup_times(root, env)
        except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
            sys.stderr.write(f"error: set-up failed: {exc}\n")
            return 1
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", workdir]
        try:
            worker = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                                    timeout=max(1.0, TIME_LIMIT_S - (time.perf_counter() - started)))
        except subprocess.TimeoutExpired:
            sys.stderr.write("error: the workload did not finish in time\n")
            return 1
        sys.stderr.write(worker.stderr)
        lines = worker.stdout.strip().splitlines()
        if worker.returncode != 0 or not lines:
            sys.stderr.write(f"error: worker exited with code {worker.returncode}\n")
            return 1
        result = json.loads(lines[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "measured_passes": result["passes"],
        "git_sha": _git_sha(root), "python": platform.python_version(),
        "numpy": info["numpy"], "blas": info["blas"], "nproc": len(os.sched_getaffinity(0)),
        "thread_pin": THREAD_PIN, "setup_samples_s": setup, **result["raw"],
    }
    print("environment: " + json.dumps(record))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": dict(sorted(metrics.items()))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
