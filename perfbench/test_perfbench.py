"""Tests of the benchmark itself (not of the package).

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import filecmp
import os
import time

import pytest

import spans
from calibrate import REFERENCE_REP_S, SLOT_SHARE, Calibrator
from checks import REFERENCE_SEED, load_references
from inputs import WORKLOADS, khop, make_workload, power_set_union, truncated_family, write_inputs


def _written(tmp_path, name: str, seed: int, sub: str) -> list[str]:
    directory = tmp_path / sub
    write_inputs(make_workload(name, seed), str(directory))
    return sorted(os.listdir(directory))


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    first = _written(tmp_path, name, 7, "a")
    second = _written(tmp_path, name, 7, "b")
    assert first == second
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", first, shallow=False)
    assert mismatch == [] and errors == []


@pytest.mark.parametrize("name", WORKLOADS)
def test_other_seed_gives_other_inputs(tmp_path, name):
    names = _written(tmp_path, name, 7, "a")
    _written(tmp_path, name, 8, "b")
    _, mismatch, _ = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
    assert mismatch


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_reference_instance_has_a_stored_output(name):
    calls = make_workload(name, REFERENCE_SEED, reference=True)
    refs = load_references(name)
    assert sorted(refs) == sorted(call.name for call in calls)
    for call in calls:
        assert refs[call.name]["metadata"]["call_count"] == call.evaluated


def test_interaction_set_count_on_a_path():
    # Path 0-1-2-3 with ell=1: fields {0,1}, {0,1,2}, {1,2,3}, {2,3}.
    hoods = khop(4, [[0, 1], [1, 2], [2, 3]], 1)
    assert hoods == [0b0011, 0b0111, 0b1110, 0b1100]
    # P({0,1,2}) and P({1,2,3}) share P({1,2}): 8 + 8 - 4.
    assert len(power_set_union(hoods)) == 12
    kept, oversized = truncated_family(hoods, 2)
    assert oversized == [0b0111, 0b1110]
    assert len(kept) == 1 + 4 + 5  # empty set, four singletons, five pairs inside a field


def test_tracer_restores_patch_points_and_skips_missing_ones(monkeypatch):
    import graphsi.game

    original = graphsi.game.forward_graph
    monkeypatch.setattr(spans, "PATCH_POINTS", spans.PATCH_POINTS + (
        ("graphsi.game", "no_such_function", "gone"),
        ("graphsi.no_such_module", "f", "gone"),
    ))
    tracer = spans.Tracer()
    assert "gone" not in tracer.available
    assert "nn.forward" in tracer.available
    with tracer.installed():
        assert graphsi.game.forward_graph is not original
    assert graphsi.game.forward_graph is original
    assert "gone" not in tracer.summary()["total_s"]


def test_self_times_partition_the_root_span(tmp_path):
    [call] = make_workload("hub", 3)
    write_inputs([call], str(tmp_path))
    import graphsi.cli

    tracer = spans.Tracer()
    tracer.call_id = 0
    with tracer.installed():
        assert graphsi.cli.main(call.argv(str(tmp_path / "out.json"))) == 0
    summary = tracer.summary()
    root = summary["total_s"]["cli"]
    assert summary["count"]["cli"] == 1
    assert summary["count"]["nn.forward"] == call.evaluated + 1  # plus the unmasked forward
    assert sum(summary["self_s"].values()) == pytest.approx(root, rel=1e-9)


def test_calibrator_scales_by_the_slots_around_an_operation():
    assert Calibrator.scale(2.0, REFERENCE_REP_S, REFERENCE_REP_S) == 2.0
    # Reference work ran at half speed around it: half the wall time.
    assert Calibrator.scale(2.0, REFERENCE_REP_S, 3 * REFERENCE_REP_S) == pytest.approx(1.0)
    cal = Calibrator()
    first = cal.before()
    assert first > 0 and cal.before() == first  # the latest slot is reused
    start = time.perf_counter()
    after = cal.slot(0.1)
    assert time.perf_counter() - start >= SLOT_SHARE * 0.1
    assert cal.last == after and cal.rep_times == [first, after]
