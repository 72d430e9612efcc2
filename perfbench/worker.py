"""One run of one workload, in a fresh interpreter started by run.py.

Drives the real ``graphsi explain`` path in-process through
``graphsi.cli.main([...])`` with ``--out`` to a file, one call at a time
(a closed loop with one client). Order of work:

1. generate the seeded inputs and the reference instances;
2. explain the reference instances and compare them with ``refs/``;
3. measured passes over the seeded inputs until ``--seconds`` have
   elapsed. The first pass's outputs get every check and are kept; each
   later pass's outputs must be byte-identical to them.

With ``--trace 0`` every call is bracketed by slots of reference work
(``calibrate.py``) and the end-to-end times are wall times scaled to
reference speed. With ``--trace 1`` untraced and traced passes
alternate, without reference slots; the traced ones give the per-layer
metrics (wall times) and the paired difference is the tracing overhead.
Prints one JSON object as its last stdout line.

Process-level caches: step 2 is the warm-up, and no seeded pass is
discarded. ``convert._ksii_weight`` and ``convert.bernoulli_numbers``
(lru_cache) stay warm across calls after it, as in any long-lived
caller. ``nn._ADJ_CACHE`` is keyed by Graph
identity and every explain call loads a new Graph, so it only serves
repeated forwards within one call, exactly as for a CLI user.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

import graphsi.cli
import numpy as np

from calibrate import Calibrator, pin_to_one_cpu
from checks import REFERENCE_SEED, check_output, compare_reference, load_references
from inputs import WORKLOADS, make_workload, write_inputs
from spans import Tracer


def _flops(call) -> tuple[list[int], int]:
    """Dense FLOPs of one forward pass as the NumPy engine computes it:
    2*m*k*n per matmul (adjacency products included), plus the pooling sum.
    Returns (per conv layer, readout)."""
    n = call.graph["n"]
    convs = []
    for layer in call.model["layers"]:
        if layer["kind"] == "gcn":
            d_in, d_out = len(layer["weight"]), len(layer["weight"][0])
            convs.append(2 * n * n * d_in + 2 * n * d_in * d_out)
        else:
            w1, w2 = layer["mlp"]["w1"], layer["mlp"]["w2"]
            d_in, d_h, d_out = len(w1), len(w2), len(w2[0])
            convs.append(2 * n * n * d_in + 2 * n * d_in * d_h + 2 * n * d_h * d_out)
    weight = call.model["readout"]["weight"]
    return convs, n * len(weight) + 2 * len(weight) * len(weight[0])


class Run:
    """Explain passes over one workload, with the attempted and failed tallies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        for line in problems[:3]:
            sys.stderr.write(f"check failed: {line}\n")

    def explain_pass(self, calls, outdir: str, tracer: Tracer | None = None,
                     calibrator: Calibrator | None = None):
        """Explain every call once; returns (pass wall s, per-call wall s,
        per-call scaled s or None, exit codes).

        With a calibrator, every call is bracketed by reference slots and
        its wall time is also given scaled to reference speed."""
        os.makedirs(outdir, exist_ok=True)
        argvs = [call.argv(os.path.join(outdir, f"{call.name}.json")) for call in calls]
        times, codes = [], []
        scaled = None if calibrator is None else []
        gc.collect()
        clock = time.perf_counter
        before = None if calibrator is None else calibrator.before()
        for i, argv in enumerate(argvs):
            if tracer is not None:
                tracer.call_id = i
            t0 = clock()
            try:
                codes.append(graphsi.cli.main(argv))  # looked up per call so a trace patch applies
            except Exception:  # an escaping exception is a failed call, not a crashed run
                traceback.print_exc()
                codes.append(None)
            times.append(clock() - t0)
            if calibrator is not None:
                after = calibrator.slot(times[-1])
                scaled.append(calibrator.scale(times[-1], before, after))
                before = after
        self.attempted += len(calls)
        return sum(times), times, scaled, codes

    def take_outputs(self, calls, outdir: str) -> list[bytes | None]:
        """Each call's output bytes (None if missing); deletes the files so a
        later pass cannot pass on a stale output."""
        out = []
        for call in calls:
            path = os.path.join(outdir, f"{call.name}.json")
            try:
                with open(path, "rb") as fh:
                    out.append(fh.read())
                os.unlink(path)
            except OSError:
                out.append(None)
        return out

    def checked_pass(self, calls, outdir: str, refs: dict | None = None,
                     calibrator: Calibrator | None = None):
        """A pass whose outputs get every check; returns (pass wall s,
        per-call wall s, per-call scaled s, output bytes, parsed documents)."""
        wall, times, scaled, codes = self.explain_pass(calls, outdir, calibrator=calibrator)
        raw = self.take_outputs(calls, outdir)
        docs = []
        for call, code, data in zip(calls, codes, raw):
            doc, problems = check_output(call, code, None if data is None else data.decode())
            if doc is not None and refs is not None:
                if call.name in refs:
                    problems += compare_reference(call.name, doc, refs[call.name])
                else:
                    problems.append(f"{call.name}: no stored reference")
            if problems:
                self.fail(problems)
            docs.append(doc)
        return wall, times, scaled, raw, docs

    def timed_pass(self, calls, outdir: str, baseline: list[bytes | None],
                   tracer: Tracer | None = None, calibrator: Calibrator | None = None):
        wall, times, scaled, codes = self.explain_pass(calls, outdir, tracer, calibrator)
        for call, code, data, want in zip(calls, codes, self.take_outputs(calls, outdir),
                                          baseline):
            if code != 0:
                self.fail([f"{call.name}: exit code {code}"])
            elif want is None or data != want:
                self.fail([f"{call.name}: output bytes differ from the warm-up pass"])
        return wall, times, scaled


def _layer_metrics(calls, summaries: list[dict], traced: list[float],
                   untraced: list[float], docs, raw) -> dict:
    """Per-layer metrics from the median traced pass, plus computed counts.

    Taking every span time from one pass keeps the partition exact: the
    layer shares add up to that pass's wall time. ``untraced[i + 1]`` ran
    right after ``traced[i]``, so their paired difference cancels slow
    drift in machine speed."""
    median_pass = sorted(range(len(traced)), key=traced.__getitem__)[(len(traced) - 1) // 2]
    summary = summaries[median_pass]
    available = summary["total_s"].keys()
    metrics = {}

    def put(key: str, value, unit: str) -> None:
        metrics[key] = {"value": value, "unit": unit}

    put("moebius.transform_terms", sum(c.transform_terms for c in calls), "count")
    put("moebius.iset_size", sum(c.evaluated for c in calls), "count")
    for key, name, kind in (("moebius.transform_s", "moebius", "self_s"),
                            ("moebius.iset_s", "moebius.iset", "total_s"),
                            ("game.init_s", "game.init", "total_s"),
                            ("game.evaluate_s", "game.evaluate", "total_s"),
                            ("game.evaluate_self_s", "game.evaluate", "self_s"),
                            ("nn.forward_s", "nn.forward", "total_s"),
                            ("convert.s", "convert", "total_s"),
                            ("load.s", "load", "total_s"),
                            ("export.s", "export", "total_s"),
                            ("graph.khop_s", "graph.khop", "total_s"),
                            ("cli.self_s", "cli", "self_s"),
                            ("explainer.self_s", "explainer", "self_s")):
        if name in available:
            put(key, summary[kind][name], "s")
    distinct = sum(doc["metadata"]["call_count"] for doc in docs if doc)
    put("game.distinct_coalitions", distinct, "count")
    if "nn.forward" in available:
        forwards = [summary["per_call"].get(i, {}).get("nn.forward", 0)
                    for i in range(len(calls))]
        put("nn.forward_calls", sum(forwards), "count")
        put("game.useful_ratio", distinct / max(1, sum(forwards)), "ratio")
        conv = [0, 0]
        readout = 0
        for call, f in zip(calls, forwards):
            per_layer, head = _flops(call)
            for i, value in enumerate(per_layer[:2]):
                conv[i] += value * f
            readout += head * f
        for i, value in enumerate(conv):
            put(f"nn.conv{i}_flops", value, "flop")
        put("nn.readout_flops", readout, "flop")
    put("convert.terms", sum(c.convert_terms for c in calls), "count")
    put("convert.out_sets", sum(c.out_sets for c in calls), "count")
    put("load.bytes", sum(c.input_bytes for c in calls), "B")
    put("export.bytes", sum(len(data) for data in raw), "B")
    put("graph.n_max", max(c.n_max for c in calls), "count")
    put("graph.maximal_hoods", sum(len(c.maximal_hoods) for c in calls), "count")
    put("trace.pass_s", traced[median_pass], "s")
    put("trace.overhead_s", statistics.median(t - u for t, u in zip(traced, untraced[1:])), "s")
    return dict(sorted(metrics.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    calls = make_workload(args.workload, args.seed)
    write_inputs(calls, os.path.join(args.workdir, "inputs"))
    reference = make_workload(args.workload, REFERENCE_SEED, reference=True)
    write_inputs(reference, os.path.join(args.workdir, "reference_inputs"))

    cpu = pin_to_one_cpu()
    run = Run()
    run.checked_pass(reference, os.path.join(args.workdir, "reference_out"),
                     refs=load_references(args.workload))
    outdir = os.path.join(args.workdir, "out")
    tracer = Tracer() if args.trace else None
    calibrator = None if args.trace else Calibrator()
    deadline = time.perf_counter() + args.seconds
    wall, _, scaled, raw, docs = run.checked_pass(calls, outdir, calibrator=calibrator)
    walls, times, traced, summaries = [wall], [scaled], [], []
    while time.perf_counter() < deadline or (tracer is not None and not traced):
        if tracer is not None:
            with tracer.installed():
                wall, _, _ = run.timed_pass(calls, outdir, raw, tracer)
            traced.append(wall)
            summaries.append(tracer.summary())
        wall, _, scaled = run.timed_pass(calls, outdir, raw, calibrator=calibrator)
        walls.append(wall)
        times.append(scaled)

    raw_record = {"pinned_cpu": cpu, "wall_pass_s": statistics.median(walls)}
    if args.trace:
        metrics = _layer_metrics(calls, summaries, traced, walls, docs, raw)
    else:
        raw_record["reference_rep_s"] = statistics.median(calibrator.rep_times)
        # Times scaled to reference speed (calibrate.py). Percentiles over
        # the workload's calls of each call's median time across passes:
        # a robust time per call, then its spread over calls.
        p50, p90 = np.percentile([statistics.median(t) for t in zip(*times)], [50, 90])
        metrics = {
            "pass_s": {"value": statistics.median(sum(t) for t in times), "unit": "s"},
            "explain_s.p50": {"value": float(p50), "unit": "s"},
            "explain_s.p90": {"value": float(p90), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MiB"},
            "model_calls": {"value": sum(d["metadata"]["call_count"] for d in docs if d),
                            "unit": "count"},
        }
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "passes": len(walls), "raw": raw_record,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
