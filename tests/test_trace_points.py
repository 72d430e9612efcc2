"""The benchmark's trace points stay on the package's call path.

perfbench/spans.py times the pipeline by replacing package attributes,
named in PATCH_POINTS, with wrappers. A point that no longer resolves is
skipped there, so its metrics read 0 or go absent and the benchmark
still passes; these tests fail instead. spans.py imports only the
standard library, so it is loaded by file path.
"""

import importlib.util
from pathlib import Path

import graphsi.game

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
