"""Command-line interface.

Subcommands: explain, complexity, benchmark, generate, audit-readout.
Exit codes: 0 success, 1 output I/O failure, 2 malformed input or usage,
3 evaluation budget exceeded, 4 nonlinear readout where exactness was
requested. Runtime options resolve as flags > GRAPHSI_* environment >
--config file > defaults.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import __version__
from .baselines import audit_nonlinear_readout, compare_estimators
from .complexity import scaling_study
from .errors import BudgetExceeded, NonlinearReadout, ParseError, read_json
from .explainer import GraphInteractionExplainer
from .export import atomic_write_text, dumps_json, dumps_si_graph, format_float
from .generate import generate_instance
from .graph import load_graph
from .interactions import INDEX_KINDS
from .moebius import DEFAULT_CEILING
from .nn import ensure_baseline, ensure_model

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_NONLINEAR = 4


def _runtime_options(args) -> int:
    """The evaluation ceiling, resolved with the documented precedence."""
    cfg = {}
    if args.config:
        cfg = read_json(args.config, "config")
        if not isinstance(cfg, dict):
            raise ParseError("config file must hold a JSON object")
        unknown = set(cfg) - {"ceiling", "rng"}
        if unknown:
            raise ParseError(f"unknown config keys: {sorted(unknown)}")
        if "rng" in cfg and cfg["rng"] != "philox":
            raise ParseError(f"unsupported rng {cfg['rng']!r}; only 'philox' is available")

    if args.ceiling is not None:
        return args.ceiling
    if os.environ.get("GRAPHSI_CEILING") is not None:
        try:
            return int(os.environ["GRAPHSI_CEILING"])
        except ValueError as exc:
            raise ParseError("GRAPHSI_CEILING must be an integer") from exc
    return cfg.get("ceiling", DEFAULT_CEILING)


def _emit(text: str, out_path) -> None:
    if out_path:
        try:
            atomic_write_text(out_path, text)
        except OSError as exc:
            raise _OutputError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


class _OutputError(RuntimeError):
    pass


def _parse_int_list(text: str, name: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ParseError(f"{name} must be a comma-separated integer list") from exc
    if not values:
        raise ParseError(f"{name} must not be empty")
    return values


# -- explain ------------------------------------------------------------


def cmd_explain(args) -> int:
    explainer = GraphInteractionExplainer(
        model=args.weights, index=args.index, order=args.order,
        lam=args.lam, baseline=args.baseline, normalize=args.normalize,
        ceiling=_runtime_options(args))
    explainer.fit(args.graph)
    if args.format == "json":
        doc = explainer.to_export()
        text = dumps_si_graph(doc, dumps_json(doc["metadata"]))
    else:
        text = explainer.to_dot()
    _emit(text, args.out)
    return EXIT_OK


# -- complexity ----------------------------------------------------------


def cmd_complexity(args) -> int:
    ells = _parse_int_list(args.ell, "--ell")
    for ell in ells:
        if ell < 1:
            raise ParseError(f"--ell entries must be >= 1, got {ell}")
    target = args.path
    if os.path.isdir(target):
        names = sorted(f for f in os.listdir(target) if f.endswith(".json"))
        if not names:
            raise ParseError(f"no .json graph files in {target}")
        paths = [os.path.join(target, f) for f in names]
        ids = [os.path.splitext(f)[0] for f in names]
    else:
        paths = [target]
        ids = [os.path.splitext(os.path.basename(target))[0]]
    graphs = [load_graph(p) for p in paths]

    rows, fits = scaling_study(graphs, ells, out=args.csv or sys.stdout, ids=ids)
    for ell in ells:
        fit = fits[ell]
        if fit["degenerate"]:
            sys.stderr.write(f"ell={ell}: fit degenerate over {fit['count']} rows\n")
        else:
            sys.stderr.write(
                f"ell={ell}: log10(calls) ~ {fit['slope']:.4g} * n + "
                f"{fit['intercept']:.4g} (R^2={fit['r2']:.4f}, rows={fit['count']})\n")
    return EXIT_OK


# -- benchmark ------------------------------------------------------------


def cmd_benchmark(args) -> int:
    ceiling = _runtime_options(args)
    budgets = _parse_int_list(args.budgets, "--budgets")
    seeds = _parse_int_list(args.seeds, "--seeds")
    try:
        rows = compare_estimators(args.weights, args.graph, args.order, budgets, seeds, ceiling)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    lines = ["method,budget,seed,mse_vs_exact"] + [
        f"{method},{budget},{seed},{'infeasible' if mse is None else format_float(mse)}"
        for method, budget, seed, mse in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# -- generate --------------------------------------------------------------


def cmd_generate(args) -> int:
    if args.kind in ("er", "tree") and args.n > 64:
        raise ParseError(f"--kind {args.kind} supports at most 64 nodes, got {args.n}")
    if not 0.0 <= args.edge_prob <= 1.0:
        raise ParseError(f"--edge-prob must be in [0, 1], got {args.edge_prob}")
    try:
        graph, model = generate_instance(
            args.kind, args.n, args.d0, args.seed, args.model,
            args.layers, args.hidden, edge_prob=args.edge_prob,
            readout=args.readout)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    try:
        atomic_write_text(args.out_graph, dumps_json(graph.to_json_dict()))
        atomic_write_text(args.out_weights, dumps_json(model.to_json_dict()))
    except OSError as exc:
        raise _OutputError(f"cannot write output: {exc}") from exc
    sys.stderr.write(f"wrote {args.out_graph} and {args.out_weights}\n")
    return EXIT_OK


# -- audit-readout -----------------------------------------------------------


def cmd_audit_readout(args) -> int:
    graph = load_graph(args.graph)
    linear = ensure_model(args.weights_linear)
    mlp2 = ensure_model(args.weights_mlp2)
    baseline = ensure_baseline(args.baseline, graph)
    try:
        report = audit_nonlinear_readout(linear, mlp2, graph, baseline=baseline)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    _emit(dumps_json(report), args.out)
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def _add_runtime_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ceiling", type=int, default=None,
                        help="evaluation-budget guard (env GRAPHSI_CEILING)")
    parser.add_argument("--config", default=None,
                        help="JSON config file; precedence: flags > env > config")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each parse fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="graphsi",
        description="Shapley interactions for GNN graph predictions via "
                    "receptive-field sparsity")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explain", help="compute interactions for one instance")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("weights", help="model weight JSON file")
    p.add_argument("--order", type=int, default=None, help="explanation order k")
    p.add_argument("--index", choices=INDEX_KINDS, default="ksii")
    p.add_argument("--baseline", default="mean",
                   help="'mean' or a JSON file with a d0-length vector")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--lambda", dest="lam", type=int, default=None,
                      help="truncate interactions above this order")
    mode.add_argument("--exact", action="store_true",
                      help="exact computation (default)")
    p.add_argument("--normalize", action="store_true",
                   help="report values relative to the empty coalition")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    _add_runtime_flags(p)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("complexity", help="pre-flight call estimates for graphs")
    p.add_argument("path", help="graph JSON file or directory of them")
    p.add_argument("--ell", default="1", help="comma-separated list of ranges")
    p.add_argument("--csv", default=None, help="CSV output file (default stdout)")
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("benchmark", help="estimator error at equal budgets")
    p.add_argument("graph")
    p.add_argument("weights")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--budgets", required=True, help="comma-separated budgets")
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--out", default=None, help="CSV output file (default stdout)")
    _add_runtime_flags(p)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("generate", help="write a seeded synthetic instance")
    p.add_argument("--kind", choices=("path", "cycle", "tree", "er"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d0", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", choices=("gcn", "gin"), default="gcn")
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--hidden", type=int, default=4)
    p.add_argument("--edge-prob", type=float, default=0.3)
    p.add_argument("--readout", choices=("linear", "mlp2"), default="linear")
    p.add_argument("--out-graph", default="graph.json")
    p.add_argument("--out-weights", default="weights.json")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("audit-readout", help="quantify interactions outside the "
                                             "receptive fields for two readouts")
    p.add_argument("graph")
    p.add_argument("weights_linear")
    p.add_argument("weights_mlp2")
    p.add_argument("--baseline", default="mean")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_audit_readout)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        code = exc.code
        return code if isinstance(code, int) else EXIT_PARSE
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except BudgetExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BUDGET
    except NonlinearReadout as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NONLINEAR
    except _OutputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
