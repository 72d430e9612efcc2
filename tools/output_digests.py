"""Print one "sha256  name" line per graphsi output, sorted by name.

Covers `graphsi explain` on demo path4 and er8 (all five indices, each
exact, at --lambda 2 and with --normalize) and on the four perfbench
workloads at seeds 0 and 1, whose inputs come from perfbench/inputs.py,
plus truncated runs of the sparse64 graphs at --lambda 4 and of the hub
graph at --lambda 3 (TABLE_LAMBDAS), which take capped node tables, and of
a 64-node star under a 1-layer GIN and GCN at --lambda 2, whose hub's ball
holds all 64 nodes. The hub and truncated graphs also run under mean pooling
(MEAN_FLAGS, all five indices). The truncated graph also runs under its own
sum pooling with all five indices, and with k-SII at --order 3 --lambda 2,
whose sets of three members come only from the surrogates. A 12-node path
runs under a 3-layer GIN and GCN (exact and at --lambda 2, all five
indices), whose ball forwards pass a middle layer. The tree64 graph of
sparse64 also runs exact under a 2-layer GCN with biases (row_model), with
sum and mean pooling and all five indices: a GCN last layer after another
takes row tables one hop narrower than the fields. The `--format dot`
renderings of demo path4 and er8 and of a 14-node star under a 1-layer GIN
(all five indices, exact) cover the DOT writer, which draws the same
SI-Graph document.
The `graphsi benchmark` CSVs of demo er8 at --order 2 and path4 at
--order 1 (BENCHMARKS: two budgets, seeds 0 and 1) cover the samplers.
It also covers three routes no CLI run reaches, on both demos for all five
indices: the explainer at ell=2, exact and at lam=2 (the demo models have
one layer, so both runs take the dense route, the truncated one on fields
of up to eight nodes), and brute_force_mi followed by convert_mi, each
written as dumps_json(build_si_graph(...)). Refused `graphsi explain` runs
(refusals) hash their exit code and stderr, so a moved error message or exit
code shows too: on demo path4, --order 9, --order 0, --index sv --order 2,
--lambda 0, --lambda 9, a {"ceiling": 0} config and the mlp2 model (exit 2
or 4); on demo er8, --ceiling 16 and --lambda 3 --ceiling 40 (exit 3).
Outputs of two commits compare with one diff:

    PYTHONPATH=src python tools/output_digests.py > digests.txt

With a directory argument the outputs are kept there, to inspect what moved.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import graphsi.cli
from graphsi import GraphGame, GraphInteractionExplainer, convert_mi, efficiency_check
from graphsi.baselines import brute_force_mi
from graphsi.export import build_si_graph, dumps_json
from graphsi.generate import random_model
from graphsi.graph import graph_from_json, make_graph

ROOT = Path(__file__).resolve().parent.parent
INDICES = ("sv", "sii", "ksii", "stii", "mi")
MODES = {"exact": ["--exact"], "lambda2": ["--lambda", "2"], "normalize": ["--normalize"]}
# Truncated runs on the exact workloads' graphs, which take capped node tables
TABLE_LAMBDAS = {"sparse64": "4", "hub": "3"}
# Workloads also run with their model under mean pooling, and their flags
MEAN_FLAGS = {"hub": [], "truncated": ["--lambda", "3"]}
# `graphsi benchmark` runs on the demos: demo -> flags
BENCHMARKS = {"er8": ["--order", "2", "--budgets", "200,2000", "--seeds", "0,1"],
              "path4": ["--order", "1", "--budgets", "50,500", "--seeds", "0,1"]}


def instance_files(workdir: Path, name: str, g, model) -> list[str]:
    """The graph and weight files of one instance, named after it."""
    paths = [workdir / f"{name}_{part}.json" for part in ("graph", "model")]
    for path, obj in zip(paths, (g, model)):
        path.write_text(json.dumps(obj.to_json_dict()))
    return [str(path) for path in paths]


def row_model(d0: int, seed: int):
    """A 2-layer GCN of width 16 with drawn biases: its node tables are row
    tables, and m(empty) takes the last layer's bias."""
    model = random_model("gcn", d0, 2, 16, seed)
    rng = np.random.Generator(np.random.Philox(seed))
    return dataclasses.replace(model, layers=tuple(
        dataclasses.replace(layer, bias=rng.normal(size=layer.bias.shape))
        for layer in model.layers))


def runs(workdir: Path):
    """(name, argv without --out) for every covered output."""
    for demo in ("path4", "er8"):
        files = [str(ROOT / "demo" / f"{demo}_{part}.json") for part in ("graph", "model")]
        for index in INDICES:
            for mode, flags in MODES.items():
                yield f"{demo}_{index}_{mode}", ["explain", *files, "--index", index, *flags]
        yield f"{demo}_benchmark", ["benchmark", *files, *BENCHMARKS[demo]]
    for kind in ("gin", "gcn"):
        # a 64-node star with hub 0 (the recipe of the tests' star_instance), 1 layer of width 16
        rng = np.random.Generator(np.random.Philox(3))
        g = make_graph(64, [(0, i) for i in range(1, 64)], rng.normal(size=(64, 3)))
        files = instance_files(workdir, f"star64_{kind}", g, random_model(kind, 3, 1, 16, 3))
        for index in INDICES:
            yield f"star64_{kind}_{index}_lambda2", ["explain", *files, "--index", index,
                                                      "--lambda", "2"]
        # a 12-node path under 3 layers of width 16
        rng = np.random.Generator(np.random.Philox(5))
        g = make_graph(12, [(i, i + 1) for i in range(11)], rng.normal(size=(12, 3)))
        files = instance_files(workdir, f"path12_{kind}", g, random_model(kind, 3, 3, 16, 5))
        for index in INDICES:
            for mode, flags in (("exact", []), ("lambda2", ["--lambda", "2"])):
                yield f"path12_{kind}_{index}_{mode}", ["explain", *files, "--index", index,
                                                        *flags]
    # the star of the tests' star_instance: hub 0, 14 nodes, 1 GIN layer of width 16
    rng = np.random.Generator(np.random.Philox(3))
    g = make_graph(14, [(0, i) for i in range(1, 14)], rng.normal(size=(14, 3)))
    dot_runs = {"star14": instance_files(workdir, "star14", g, random_model("gin", 3, 1, 16, 3))}
    for demo in ("path4", "er8"):
        dot_runs[demo] = [str(ROOT / "demo" / f"{demo}_{part}.json") for part in ("graph", "model")]
    for name, files in dot_runs.items():
        for index in INDICES:
            yield f"{name}_{index}_dot", ["explain", *files, "--index", index, "--format", "dot"]
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs
    for workload in inputs.WORKLOADS:
        for seed in (0, 1):
            calls = inputs.make_workload(workload, seed)
            inputs.write_inputs(calls, str(workdir / f"{workload}_s{seed}"))
            for call in calls:
                yield f"{workload}_s{seed}_{call.name}", call.argv("")[:-2]
                if workload in TABLE_LAMBDAS:
                    lam = TABLE_LAMBDAS[workload]
                    yield (f"{workload}_s{seed}_{call.name}_lambda{lam}",
                           [*call.argv("")[:-2], "--lambda", lam])
                if (workload, call.name) == ("sparse64", "tree64"):
                    model = row_model(len(call.graph["features"][0]), seed)
                    for pooling in ("sum", "mean"):
                        name = f"{workload}_s{seed}_tree64_gcn2_{pooling}"
                        files = instance_files(workdir, name, graph_from_json(call.graph),
                                               dataclasses.replace(model, pooling=pooling))
                        for index in INDICES:
                            yield f"{name}_{index}", ["explain", *files, "--index", index]
                if workload == "truncated":
                    for index in INDICES:
                        yield (f"{workload}_s{seed}_{call.name}_{index}",
                               ["explain", call.graph_path, call.model_path, "--index", index,
                                "--lambda", "3"])
                    yield (f"{workload}_s{seed}_{call.name}_order3_lambda2",
                           ["explain", call.graph_path, call.model_path, "--index", "ksii",
                            "--order", "3", "--lambda", "2"])
                if workload in MEAN_FLAGS:
                    mean = workdir / f"{workload}_s{seed}_{call.name}_mean.json"
                    mean.write_text(json.dumps(dict(call.model, pooling="mean")))
                    for index in INDICES:
                        yield (f"{workload}_s{seed}_{call.name}_mean_{index}",
                               ["explain", call.graph_path, str(mean), "--index", index,
                                *MEAN_FLAGS[workload]])


def refusals(workdir: Path):
    """(name, argv) for every covered refused run."""
    config = workdir / "ceiling0.json"
    config.write_text('{"ceiling": 0}')
    demo = {name: [str(ROOT / "demo" / f"{name}_{part}.json") for part in ("graph", "model")]
            for name in ("path4", "er8")}
    for name, flags in (("order9", ["--order", "9"]), ("order0", ["--order", "0"]),
                        ("sv_order2", ["--index", "sv", "--order", "2"]),
                        ("lambda0", ["--lambda", "0"]), ("lambda9", ["--lambda", "9"]),
                        ("config_ceiling0", ["--config", str(config)])):
        yield f"refused_path4_{name}", ["explain", *demo["path4"], *flags]
    yield "refused_path4_mlp2", ["explain", demo["path4"][0],
                                 str(ROOT / "demo" / "path4_mlp2.json")]
    yield "refused_er8_ceiling16", ["explain", *demo["er8"], "--ceiling", "16"]
    yield "refused_er8_lambda3_ceiling40", ["explain", *demo["er8"], "--lambda", "3",
                                             "--ceiling", "40"]


def api_outputs():
    """(name, document text) for every covered output no CLI run reaches."""
    for demo in ("path4", "er8"):
        graph, model = (str(ROOT / "demo" / f"{demo}_{part}.json") for part in ("graph", "model"))
        for index in INDICES:
            ex = GraphInteractionExplainer(model, index=index, ell=2).fit(graph)
            yield f"{demo}_{index}_ell2", dumps_json(ex.to_export())
            truncated = GraphInteractionExplainer(model, index=index, ell=2, lam=2).fit(graph)
            yield f"{demo}_{index}_ell2_lambda2", dumps_json(truncated.to_export())
            game = GraphGame(ex.game_.model, ex.graph_)
            si = convert_mi(brute_force_mi(game, ex.graph_.n), index, ex.interactions_.k)
            residual = efficiency_check(si, game.nu_full, game.nu_empty)
            yield f"{demo}_{index}_brute", dumps_json(
                build_si_graph(si, game.nu_full, game.nu_empty, residual))


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as scratch:
        outdir = Path(argv[0]) if argv else Path(scratch)
        outdir.mkdir(parents=True, exist_ok=True)
        lines = []
        for name, args in runs(Path(scratch)):
            suffix = "dot" if "--format" in args else "csv" if args[0] == "benchmark" else "json"
            out = outdir / f"{name}.{suffix}"
            code = graphsi.cli.main([*args, "--out", str(out)])
            if code != 0:
                raise SystemExit(f"{name}: exit code {code}")
            lines.append(f"{hashlib.sha256(out.read_bytes()).hexdigest()}  {name}")
        for name, text in api_outputs():
            out = outdir / f"{name}.json"
            out.write_text(text)
            lines.append(f"{hashlib.sha256(out.read_bytes()).hexdigest()}  {name}")
        for name, args in refusals(Path(scratch)):
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = graphsi.cli.main([*args, "--out", str(Path(scratch) / "refused.json")])
            if code == 0:
                raise SystemExit(f"{name}: not refused")
            out = outdir / f"{name}.txt"
            out.write_text(f"exit code {code}\n{stderr.getvalue()}")
            lines.append(f"{hashlib.sha256(out.read_bytes()).hexdigest()}  {name}")
    print("\n".join(sorted(lines, key=lambda line: line.split()[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
