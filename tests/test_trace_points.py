"""The benchmark's trace points stay on the package's call path.

perfbench/spans.py times the pipeline by replacing package attributes,
named in PATCH_POINTS, with wrappers. A point that no longer resolves is
skipped there, and one that resolves but is no longer called reads 0;
either way its metrics read 0 or go absent and the benchmark still
passes. These tests fail instead. spans.py imports only the standard
library, so it is loaded by file path.
"""

import importlib.util
import json
from pathlib import Path

import graphsi.cli
import graphsi.game
from graphsi.generate import generate_instance
from helpers import star_instance

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves():
    spans = load_spans()
    assert spans.PATCH_POINTS
    missing = [(module, path) for module, path, _ in spans.PATCH_POINTS
               if spans._resolve(module, path) is None]
    assert missing == []


def test_ball_forwards_are_a_game_attribute():
    # not a patch point yet, but the next benchmark change wraps it there
    assert callable(getattr(graphsi.game, "_forward_ball", None))


def test_every_patch_point_is_called(demo_dir, tmp_path, monkeypatch):
    spans = load_spans()
    reached = []  # (run, point) per call
    run = [None]

    def wrap(point, real):
        def traced(*args, **kwargs):
            reached.append((run[0], point))
            return real(*args, **kwargs)
        return traced

    points = [(module, path) for module, path, _ in spans.PATCH_POINTS]
    for module, path in points + [("graphsi.game", "_forward_ball")]:
        owner, attr, real = spans._resolve(module, path)
        monkeypatch.setattr(owner, attr, wrap((module, path), real))

    g, model = star_instance()
    star_graph, star_model = tmp_path / "star14_graph.json", tmp_path / "star14_model.json"
    star_graph.write_text(json.dumps(g.to_json_dict()))
    star_model.write_text(json.dumps(model.to_json_dict()))
    # the 2-layer GCN er48 of test_game.ROUTES: a truncated run on row tables
    g, model = generate_instance("er", 48, 3, 9, "gcn", 2, 16, edge_prob=0.1)
    er_graph, er_model = tmp_path / "er48_graph.json", tmp_path / "er48_model.json"
    er_graph.write_text(json.dumps(g.to_json_dict()))
    er_model.write_text(json.dumps(model.to_json_dict()))
    path4 = [str(demo_dir / "path4_graph.json"), str(demo_dir / "path4_model.json")]
    runs = {"path4": path4, "path4-lambda1": path4 + ["--lambda", "1"],
            "star14": [str(star_graph), str(star_model)],
            "er48-gcn": [str(er_graph), str(er_model), "--lambda", "2"]}
    for name, args in runs.items():
        run[0] = name
        out = tmp_path / f"{name}.json"
        assert graphsi.cli.main(["explain", *args, "--out", str(out)]) == 0

    assert {point for _, point in reached} >= set(points)
    balled = {name for name, point in reached if point[1] == "_forward_ball"}
    assert balled == {"star14", "er48-gcn"}
