import csv
import json
import math

import pytest

from graphsi.cli import build_parser, main
from graphsi.export import dumps_json
from graphsi.graph import load_graph, make_graph
from graphsi.nn import load_model


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("GRAPHSI_CEILING", raising=False)


@pytest.fixture
def path4_args(demo_dir):
    return [str(demo_dir / "path4_graph.json"), str(demo_dir / "path4_model.json")]


@pytest.fixture
def er8_args(demo_dir):
    return [str(demo_dir / "er8_graph.json"), str(demo_dir / "er8_model.json")]


# ---------------------------------------------------------------- explain


def test_explain_matches_bundled_fixture(path4_args, demo_dir, tmp_path):
    out = tmp_path / "mi.json"
    rc = main(["explain", *path4_args, "--exact", "--index", "mi", "--out", str(out)])
    assert rc == 0
    got = json.loads(out.read_text())
    with open(demo_dir / "path4_mi.json", encoding="utf-8") as fh:
        want = json.load(fh)
    # identical attributions; only run provenance differs (the fixture was
    # produced by the dense reference path, which visits all 16 coalitions)
    assert got["nodes"] == want["nodes"]
    assert got["hyperedges"] == want["hyperedges"]
    assert got["metadata"]["nu_N"] == want["metadata"]["nu_N"]
    assert got["metadata"]["nu_empty"] == want["metadata"]["nu_empty"]
    assert got["metadata"]["call_count"] == 12
    assert want["metadata"]["call_count"] == 16


def test_explain_defaults_to_stdout_json(path4_args, capsys):
    assert main(["explain", *path4_args]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["metadata"]["index"] == "ksii"
    assert doc["metadata"]["k"] == 2
    assert len(doc["nodes"]) == 4


def test_explain_order_one_has_no_hyperedges(path4_args, capsys):
    assert main(["explain", *path4_args, "--index", "sv", "--order", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["hyperedges"] == []
    assert doc["metadata"]["k"] == 1


def test_explain_truncated_remains_efficient(path4_args, capsys):
    assert main(["explain", *path4_args, "--lambda", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["metadata"]["lambda"] == 1
    assert abs(doc["metadata"]["efficiency_residual"]) < 1e-6
    total = sum(n["value"] for n in doc["nodes"])
    total += sum(h["value"] for h in doc["hyperedges"])
    assert math.isclose(total + doc["metadata"]["nu_empty"],
                        doc["metadata"]["nu_N"], abs_tol=1e-6)


def test_explain_dot_output(path4_args, capsys):
    assert main(["explain", *path4_args, "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph si {")
    assert out.endswith("}\n")


def test_explain_normalize_zeroes_empty_value(path4_args, capsys):
    assert main(["explain", *path4_args, "--normalize"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["metadata"]["nu_empty"] == 0.0


def test_explain_baseline_file(path4_args, tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text("[0.0, 0.0, 0.0]\n")
    assert main(["explain", *path4_args, "--baseline", str(baseline)]) == 0
    shifted = json.loads(capsys.readouterr().out)
    assert main(["explain", *path4_args]) == 0
    mean = json.loads(capsys.readouterr().out)
    assert shifted["metadata"]["nu_empty"] != mean["metadata"]["nu_empty"]


# ------------------------------------------------------------- exit codes


def test_corrupt_graph_is_a_parse_error(path4_args, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["explain", str(bad), path4_args[1]])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("body", [
    b"\xff\xfe[1",
    b"[" * 100_000,
    b'{"a": 1}',
    b"[0.0, 0.0]",
    b"[1" + b"0" * 400 + b", 0.0, 0.0]",
    b'["0", "0", true]',
    b"[0.0, 0.0, true]",
    b'[0.0, 0.0, "1.5"]',
], ids=["invalid-utf8", "deep-nesting", "not-an-array", "wrong-length",
        "int-beyond-float", "strings-and-bool", "bool-entry", "numeric-string"])
def test_bad_baseline_file_exits_two(path4_args, tmp_path, capsys, body):
    baseline = tmp_path / "baseline.json"
    baseline.write_bytes(body)
    assert main(["explain", *path4_args, "--baseline", str(baseline)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_missing_file_is_a_parse_error(path4_args, tmp_path):
    assert main(["explain", str(tmp_path / "absent.json"), path4_args[1]]) == 2


def test_budget_ceiling_exit_code(er8_args, capsys):
    rc = main(["explain", *er8_args, "--ceiling", "16"])
    assert rc == 3
    assert "--lambda" in capsys.readouterr().err


@pytest.mark.parametrize("lam,code", [(2, 3), (1, 0)])
def test_lambda_past_the_ceiling_exits_3_before_evaluating(er8_args, tmp_path, capsys,
                                                          lam, code):
    # lambda = 1 is the cheapest run there is, so it runs whatever the ceiling
    out = tmp_path / "out.json"
    argv = ["explain", *er8_args, "--lambda", str(lam), "--ceiling", "16", "--out", str(out)]
    assert main(argv) == code
    assert out.exists() == (code == 0)
    if code == 3:
        assert capsys.readouterr().err.endswith("> ceiling 16; try --lambda 1\n")


def test_budget_message_shows_the_degree_bound(er8_args, demo_dir, capsys):
    g = load_graph(demo_dir / "er8_graph.json")
    ell = load_model(demo_dir / "er8_model.json").num_layers
    d_max = max(g.degree(i) for i in range(g.n))
    bound = g.n * 2 ** sum(d_max ** j for j in range(ell + 1))
    assert main(["explain", *er8_args, "--ceiling", "16"]) == 3
    assert f"<= degree bound = {bound} > ceiling 16" in capsys.readouterr().err


def test_exact_run_fits_a_ceiling_of_its_interaction_set(er8_args, tmp_path):
    # demo er8 evaluates |I| = 136 sets, although sum_i 2^|N_i| = 252
    default, fitted = tmp_path / "default.json", tmp_path / "fitted.json"
    assert main(["explain", *er8_args, "--out", str(default)]) == 0
    assert main(["explain", *er8_args, "--ceiling", "136", "--out", str(fitted)]) == 0
    assert fitted.read_bytes() == default.read_bytes()


def test_exact_run_past_its_interaction_set_suggests_the_largest_lambda_that_fits(er8_args,
                                                                                 capsys):
    # lambda = 5 evaluates 129 sets, lambda = 6 all 136 of I
    assert main(["explain", *er8_args, "--ceiling", "135"]) == 3
    assert capsys.readouterr().err == (
        "error: evaluation budget exceeded: sum_i 2^|N_i| = 252 <= n*2^n_max = 1024"
        " <= degree bound = 1024 > ceiling 135; try --lambda 5\n")


def test_truncated_run_past_the_ceiling_suggests_the_largest_lambda_that_fits(er8_args, capsys):
    # lambda = 3 evaluates 77 sets, lambda = 2 evaluates 40
    assert main(["explain", *er8_args, "--lambda", "3", "--ceiling", "40"]) == 3
    assert capsys.readouterr().err.endswith("77 sets > ceiling 40; try --lambda 2\n")
    assert main(["explain", *er8_args, "--lambda", "2", "--ceiling", "40"]) == 0


def test_a_bad_order_is_refused_before_the_budget_and_the_readout(er8_args, path4_args,
                                                                   demo_dir, capsys):
    assert main(["explain", *er8_args, "--order", "9", "--lambda", "3", "--ceiling", "40"]) == 2
    assert capsys.readouterr().err == "error: order k must be in 1..8, got 9\n"
    mlp2 = str(demo_dir / "path4_mlp2.json")
    for mode in (["--exact"], ["--lambda", "2"]):
        assert main(["explain", path4_args[0], mlp2, "--order", "9", *mode]) == 2
        assert capsys.readouterr().err == "error: order k must be in 1..4, got 9\n"


def test_nonlinear_readout_exit_code(path4_args, demo_dir, capsys):
    rc = main(["explain", path4_args[0], str(demo_dir / "path4_mlp2.json"), "--exact"])
    assert rc == 4
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
@pytest.mark.parametrize("command", ["explain", "explain-dot", "benchmark", "audit-readout"])
def test_an_overflowing_model_exits_two(path4_args, demo_dir, tmp_path, capsys, command):
    # every weight is finite, so the model loads; its GIN epsilon overflows float64
    model = json.loads((demo_dir / "path4_model.json").read_text())
    model["layers"][0]["epsilon"] = 1e308
    weights = tmp_path / "overflow.json"
    weights.write_text(json.dumps(model))
    run = [path4_args[0], str(weights)]
    argv = {"explain": ["explain", *run],
            "explain-dot": ["explain", *run, "--format", "dot"],
            "benchmark": ["benchmark", *run, "--budgets", "4"],
            "audit-readout": ["audit-readout", *run, str(demo_dir / "path4_mlp2.json")]}[command]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    lines = err.splitlines()
    assert lines[-1].startswith("error:") and sum(line.startswith("error:") for line in lines) == 1


def test_unwritable_output_exit_code(path4_args, tmp_path, capsys):
    rc = main(["explain", *path4_args, "--out", str(tmp_path / "no" / "dir" / "x.json")])
    assert rc == 1
    assert "cannot write" in capsys.readouterr().err


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["explain"]) == 2  # missing positionals
    capsys.readouterr()


def test_exclusive_lambda_and_exact(path4_args, capsys):
    assert main(["explain", *path4_args, "--lambda", "1", "--exact"]) == 2
    capsys.readouterr()


def test_unknown_index_rejected_by_parser(path4_args, capsys):
    assert main(["explain", *path4_args, "--index", "banzhaf"]) == 2
    capsys.readouterr()


def test_consecutive_calls_share_no_state(path4_args, tmp_path, capsys):
    first, last = tmp_path / "sv.json", tmp_path / "default.json"
    assert main(["explain", *path4_args, "--index", "sv", "--normalize",
                 "--out", str(first)]) == 0
    assert main(["complexity", path4_args[0], "--ell", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("path4_graph,4,2,")
    assert main(["explain", *path4_args, "--bogus"]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert main(["explain", *path4_args, "--out", str(last)]) == 0
    assert main(["explain", *path4_args]) == 0
    assert capsys.readouterr().out.encode() == last.read_bytes()
    doc = json.loads(last.read_text())
    assert doc["metadata"]["index"] == "ksii"
    assert doc["metadata"]["nu_empty"] != 0.0  # --normalize did not carry over
    assert json.loads(first.read_text())["metadata"]["index"] == "sv"
    assert build_parser() is build_parser()  # built once per process


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("graphsi ")


# ------------------------------------------------------ runtime precedence


def test_config_file_ceiling_applies(er8_args, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"ceiling": 16}\n')
    assert main(["explain", *er8_args, "--config", str(cfg)]) == 3


def test_env_ceiling_applies(er8_args, monkeypatch):
    monkeypatch.setenv("GRAPHSI_CEILING", "16")
    assert main(["explain", *er8_args]) == 3


def test_flag_overrides_env(er8_args, monkeypatch, capsys):
    monkeypatch.setenv("GRAPHSI_CEILING", "16")
    assert main(["explain", *er8_args, "--ceiling", "100000"]) == 0
    capsys.readouterr()


def test_env_overrides_config(er8_args, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"ceiling": 16}\n')
    monkeypatch.setenv("GRAPHSI_CEILING", "100000")
    assert main(["explain", *er8_args, "--config", str(cfg)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("body", [
    '{"ceiling": 16',            # invalid JSON
    '[16]',                      # not an object
    '{"celing": 16}',            # unknown key
    '{"rng": "mt19937"}',        # unsupported generator
    '{"ceiling": 0}',            # below minimum
    '{"ceiling": true}',         # bool is not an int here
    '{"ceiling": "big"}',        # wrong type
    pytest.param(b"\xff\xfe[1", id="invalid-utf8"),
    pytest.param(b"[" * 100_000, id="deep-nesting"),
])
def test_bad_config_exits_two(path4_args, tmp_path, capsys, body):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(body if isinstance(body, bytes) else body.encode())
    assert main(["explain", *path4_args, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_bad_env_value_exits_two(path4_args, monkeypatch, capsys):
    monkeypatch.setenv("GRAPHSI_CEILING", "lots")
    assert main(["explain", *path4_args]) == 2
    assert "GRAPHSI_CEILING" in capsys.readouterr().err


def test_rng_philox_accepted(path4_args, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"rng": "philox"}\n')
    assert main(["explain", *path4_args, "--config", str(cfg)]) == 0
    capsys.readouterr()


# ------------------------------------------------------------- complexity


def test_complexity_single_file(path4_args, capsys):
    assert main(["complexity", path4_args[0]]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "graph_id,n,ell,calls,is_exact,density,speedup_log10"
    assert lines[1].startswith("path4_graph,4,1,12,true,")
    assert "ell=1: fit degenerate over 1 rows" in captured.err


def test_complexity_directory_sorted_ids(tmp_path, capsys):
    graphs = {"c": 8, "a": 4, "b": 6}
    for name, n in graphs.items():
        g = make_graph(n, [(i, i + 1) for i in range(n - 1)], [[1.0]] * n)
        (tmp_path / f"{name}.json").write_text(dumps_json(g.to_json_dict()))
    out_csv = tmp_path / "report.csv"
    rc = main(["complexity", str(tmp_path), "--ell", "1,2", "--csv", str(out_csv)])
    assert rc == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["graph_id"], r["ell"]) for r in rows] == [
        ("a", "1"), ("a", "2"), ("b", "1"), ("b", "2"),
        ("c", "1"), ("c", "2")]
    assert all(r["is_exact"] == "true" for r in rows)
    err = capsys.readouterr().err
    assert "ell=1: log10(calls) ~" in err and "R^2=" in err
    assert "ell=2:" in err


def test_complexity_empty_directory(tmp_path, capsys):
    assert main(["complexity", str(tmp_path)]) == 2
    assert "no .json graph files" in capsys.readouterr().err


BAD_ELLS = {"0": "--ell must be an integer >= 1, got 0",
            "two": "--ell must be a comma-separated integer list",
            "": "--ell must not be empty",
            "1,-2": "--ell must be an integer >= 1, got -2"}


@pytest.mark.parametrize("ell", list(BAD_ELLS))
def test_complexity_bad_ell(path4_args, tmp_path, capsys, ell):
    # every ell is checked before any graph loads and before the first CSV row
    out_csv = tmp_path / "report.csv"
    assert main(["complexity", path4_args[0], "--ell", ell, "--csv", str(out_csv)]) == 2
    out, err = capsys.readouterr()
    assert BAD_ELLS[ell] in err
    assert out == "" and not out_csv.exists()


# -------------------------------------------------------------- benchmark


def test_benchmark_pairwise_rows(path4_args, capsys):
    rc = main(["benchmark", *path4_args, "--order", "2",
               "--budgets", "31,136", "--seeds", "0,1"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "method,budget,seed,mse_vs_exact"
    by_method = {}
    for line in lines[1:]:
        method, budget, seed, mse = line.split(",")
        by_method.setdefault(method, []).append((int(budget), int(seed), mse))
    # one row per truncation order, lambda = n_max - 1 already exact
    assert [m for m in by_method if m.startswith("graphshapiq_l")] == [
        "graphshapiq_l1", "graphshapiq_l2", "graphshapiq_l3"]
    assert float(by_method["graphshapiq_l2"][0][2]) < 1e-16
    assert float(by_method["graphshapiq_l3"][0][2]) < 1e-16
    assert by_method["graphshapiq_l3"][0][0] == 12  # measured game calls
    # a 31-call budget funds an informed round (28 calls) but not a full one (32)
    uninformed = dict((b, m) for b, _, m in by_method["permutation_sii_uninformed"])
    informed = dict((b, m) for b, _, m in by_method["permutation_sii_informed"])
    assert uninformed[31] == "infeasible"
    assert informed[31] != "infeasible" and float(informed[31]) >= 0.0
    assert float(uninformed[136]) >= 0.0


def test_benchmark_shapley_rows(path4_args, capsys):
    rc = main(["benchmark", *path4_args, "--order", "1",
               "--budgets", "4,60", "--seeds", "0"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    sv_rows = [l for l in lines if l.startswith("permutation_sv,")]
    assert sv_rows[0] == "permutation_sv,4,0,infeasible"
    assert float(sv_rows[1].split(",")[3]) >= 0.0


def test_benchmark_out_file_and_validation(path4_args, tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main(["benchmark", *path4_args, "--order", "1",
               "--budgets", "60", "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("method,budget,seed,mse_vs_exact\n")
    assert main(["benchmark", *path4_args, "--order", "9", "--budgets", "60"]) == 2
    assert main(["benchmark", *path4_args, "--budgets", ""]) == 2
    assert main(["benchmark", *path4_args, "--budgets", "ten"]) == 2
    capsys.readouterr()
    # a negative seed is malformed input, not an unaffordable budget
    negative = tmp_path / "negative.csv"
    assert main(["benchmark", *path4_args, "--budgets", "136", "--seeds", "0,-1",
                 "--out", str(negative)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not negative.exists()


# --------------------------------------------------------------- generate


def test_generate_is_deterministic(tmp_path, capsys):
    paths = {}
    for tag in ("one", "two"):
        g, w = tmp_path / f"g_{tag}.json", tmp_path / f"w_{tag}.json"
        rc = main(["generate", "--kind", "tree", "--n", "9", "--seed", "4",
                   "--out-graph", str(g), "--out-weights", str(w)])
        assert rc == 0
        paths[tag] = (g, w)
    assert paths["one"][0].read_bytes() == paths["two"][0].read_bytes()
    assert paths["one"][1].read_bytes() == paths["two"][1].read_bytes()
    assert "wrote" in capsys.readouterr().err


def test_generate_reproduces_bundled_demo(demo_dir, tmp_path):
    g, w = tmp_path / "g.json", tmp_path / "w.json"
    rc = main(["generate", "--kind", "path", "--n", "4", "--d0", "3",
               "--seed", "13", "--model", "gin", "--layers", "1",
               "--hidden", "4", "--out-graph", str(g), "--out-weights", str(w)])
    assert rc == 0
    assert g.read_bytes() == (demo_dir / "path4_graph.json").read_bytes()
    assert w.read_bytes() == (demo_dir / "path4_model.json").read_bytes()


def test_generate_er_density_matches_probability(tmp_path):
    g, w = tmp_path / "g.json", tmp_path / "w.json"
    rc = main(["generate", "--kind", "er", "--n", "20", "--seed", "5",
               "--edge-prob", "0.3", "--out-graph", str(g), "--out-weights", str(w)])
    assert rc == 0
    edges = len(load_graph(g).edges)
    pairs = 20 * 19 // 2
    sigma = math.sqrt(pairs * 0.3 * 0.7)
    assert abs(edges - pairs * 0.3) <= 3 * sigma


def test_generate_round_trips_value_identical(tmp_path):
    g, w = tmp_path / "g.json", tmp_path / "w.json"
    assert main(["generate", "--kind", "cycle", "--n", "6", "--seed", "2",
                 "--out-graph", str(g), "--out-weights", str(w)]) == 0
    graph = load_graph(g)
    assert dumps_json(graph.to_json_dict()) == g.read_text()


@pytest.mark.parametrize("argv", [
    ["--kind", "er", "--n", "65"],
    ["--kind", "tree", "--n", "70"],
    ["--kind", "path", "--n", "0"],
    ["--kind", "cycle", "--n", "2"],
    ["--kind", "path", "--n", "4", "--edge-prob", "1.5"],
    ["--kind", "path", "--n", "4", "--layers", "0"],
], ids=["er-cap", "tree-cap", "n-zero", "cycle-short", "edge-prob", "layers"])
def test_generate_validation(tmp_path, capsys, argv):
    rc = main(["generate", *argv,
               "--out-graph", str(tmp_path / "g.json"),
               "--out-weights", str(tmp_path / "w.json")])
    assert rc == 2
    capsys.readouterr()


def test_generate_unwritable_target(tmp_path, capsys):
    rc = main(["generate", "--kind", "path", "--n", "4",
               "--out-graph", str(tmp_path / "no" / "g.json"),
               "--out-weights", str(tmp_path / "w.json")])
    assert rc == 1
    capsys.readouterr()


# ----------------------------------------------------------- audit-readout


def test_audit_readout_report(path4_args, demo_dir, capsys):
    rc = main(["audit-readout", path4_args[0], path4_args[1],
               str(demo_dir / "path4_mlp2.json")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 4 and report["ell"] == 1
    assert report["interaction_set_size"] == 12
    assert report["max_abs_mi_outside_linear"] < 1e-8
    assert report["max_abs_mi_outside_mlp2"] > 1e-4
    assert report["linear_ok"] is True


def test_audit_readout_order_matters(path4_args, demo_dir, capsys):
    rc = main(["audit-readout", path4_args[0],
               str(demo_dir / "path4_mlp2.json"), path4_args[1]])
    assert rc == 2
    assert "linear readout" in capsys.readouterr().err


def test_audit_readout_out_file(path4_args, demo_dir, tmp_path):
    out = tmp_path / "audit.json"
    rc = main(["audit-readout", path4_args[0], path4_args[1],
               str(demo_dir / "path4_mlp2.json"), "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["linear_ok"] is True
