import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphsi.cli import main
from graphsi.errors import ParseError
from graphsi.export import (
    EXPORT_PRUNE,
    atomic_write_text,
    build_si_graph,
    dumps_json,
    dumps_si_graph,
    format_float,
    to_dot,
)
from graphsi.explainer import GraphInteractionExplainer
from graphsi.graph import make_graph
from graphsi.interactions import INDEX_KINDS, InteractionValues
from oracles import si_graph_oracle


def si_values(n, values, kind="ksii", k=2, **meta):
    return InteractionValues(kind=kind, k=k, n=n, values=dict(values), **meta)


# ---------------------------------------------------------------- floats


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips(x):
    assert float(format_float(x)) == x


def test_format_float_frozen_literals():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1.0) == "1"
    assert format_float(-0.0) == "-0"
    # needs all 17 significant digits to survive the round trip
    assert float(format_float(2.0 / 3.0)) == 2.0 / 3.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_format_float_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        format_float(bad)


# ---------------------------------------------------------------- json


def test_dumps_json_round_trips_values():
    doc = {
        "n": 4,
        "pi": 3.141592653589793,
        "tiny": 5e-324,
        "neg": -2.0 / 3.0,
        "text": 'quote " backslash \\ newline \n tab \t bell \x07',
        "flag": True,
        "nothing": None,
        "nested": {"list": [1, [2.5, "x"], {}], "empty": []},
    }
    text = dumps_json(doc)
    assert text.endswith("\n")
    assert json.loads(text) == doc


def test_dumps_json_preserves_insertion_order():
    text = dumps_json({"zulu": 1, "alpha": 2})
    assert text.index('"zulu"') < text.index('"alpha"')


def test_dumps_json_frozen_layout():
    assert dumps_json({"a": [1, 2], "b": {}}) == (
        '{\n  "a": [\n    1,\n    2\n  ],\n  "b": {}\n}\n'
    )


def test_dumps_json_is_deterministic():
    doc = {"values": [0.1 * i for i in range(20)], "meta": {"k": 2}}
    copy = json.loads(dumps_json(doc))
    assert dumps_json(copy) == dumps_json(doc)


def test_dumps_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps_json({"bad": {1, 2}})
    with pytest.raises(TypeError):
        dumps_json(complex(1, 2))


def test_dumps_json_escapes_control_characters():
    text = dumps_json({"s": "\x00\x1f"})
    assert "\\u0000" in text and "\\u001f" in text
    assert json.loads(text)["s"] == "\x00\x1f"

    short = {0x08: "\\b", 0x09: "\\t", 0x0A: "\\n", 0x0C: "\\f", 0x0D: "\\r"}
    for code in range(0x20):
        want = short.get(code, f"\\u{code:04x}")
        assert dumps_json(chr(code)) == f'"{want}"\n'
    # quote and backslash escaped; DEL and non-ASCII letters written as they are
    value = '"\\\x7f\u00e9'
    assert dumps_json({value: value}).encode() == b'{\n  "\\"\\\\\x7f\xc3\xa9": "\\"\\\\\x7f\xc3\xa9"\n}\n'


# ---------------------------------------------------------------- atomic writes


def test_atomic_write_creates_and_overwrites(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_text(target, "first\n")
    assert target.read_text(encoding="utf-8") == "first\n"
    atomic_write_text(target, "second\n")
    assert target.read_text(encoding="utf-8") == "second\n"
    # no temp droppings left behind
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_atomic_write_missing_directory(tmp_path):
    with pytest.raises(OSError):
        atomic_write_text(tmp_path / "nope" / "out.json", "x")


# ---------------------------------------------------------------- SI-Graph documents


def test_build_si_graph_nodes_and_pruning():
    si = si_values(
        3,
        {
            0b001: 0.5,
            0b010: -1e-15,  # below threshold: listed as exact 0.0
            0b100: 0.0,
            0b011: 0.25,
            0b101: -0.75,
            0b110: 1e-13,  # below threshold: dropped
        },
    )
    doc = build_si_graph(si, nu_full=0.0, nu_empty=0.0, efficiency_residual=0.0)
    assert doc["nodes"] == [
        {"id": 0, "value": 0.5},
        {"id": 1, "value": 0.0},
        {"id": 2, "value": 0.0},
    ]
    assert doc["hyperedges"] == [
        {"members": [0, 1], "value": 0.25},
        {"members": [0, 2], "value": -0.75},
    ]
    assert doc["nodes"][1]["value"] == 0.0 and 1e-15 < EXPORT_PRUNE


def test_build_si_graph_omits_empty_set():
    si = si_values(2, {0b00: 0.3, 0b01: 1.0, 0b10: 2.0}, kind="mi", k=2)
    doc = build_si_graph(si, nu_full=3.3, nu_empty=0.3, efficiency_residual=0.0)
    assert [n["value"] for n in doc["nodes"]] == [1.0, 2.0]
    assert doc["hyperedges"] == []
    assert doc["metadata"]["nu_empty"] == 0.3


def test_build_si_graph_metadata_fields():
    si = si_values(2, {0b01: 1.0}, kind="stii", k=2, ell=1, lam=3, call_count=7)
    doc = build_si_graph(si, nu_full=1.5, nu_empty=0.5, efficiency_residual=1e-9)
    assert doc["metadata"] == {
        "index": "stii",
        "k": 2,
        "ell": 1,
        "lambda": 3,
        "call_count": 7,
        "nu_N": 1.5,
        "nu_empty": 0.5,
        "efficiency_residual": 1e-9,
    }


def test_si_graph_efficiency_from_pipeline(demo_dir):
    for index in ("mi", "sv", "sii", "ksii", "stii"):
        for lam in (None, 1):
            explainer = GraphInteractionExplainer(demo_dir / "er8_model.json", index=index,
                                                  lam=lam)
            doc = explainer.fit(demo_dir / "er8_graph.json").to_export()
            meta = doc["metadata"]
            total = sum(n["value"] for n in doc["nodes"])
            total += sum(h["value"] for h in doc["hyperedges"])
            gap = total + meta["nu_empty"] - meta["nu_N"]
            if index == "sii":  # not an efficient index: the document reports its gap
                assert abs(gap) > 1e-3
                assert math.isclose(abs(gap), meta["efficiency_residual"], rel_tol=1e-9)
            else:
                assert abs(gap) <= 1e-9 * max(1.0, abs(meta["nu_N"]))
            # serialization keeps every float bit-for-bit
            assert json.loads(dumps_json(doc)) == doc


def test_a_map_built_from_arrays_equals_the_dict_built_one():
    # map order is not canonical, and the total depends on the order of its sums
    values = {0b110: 1e16, 0b1: 0.1, 0b11: -1e16, 0b1000: 3.3, 0b111: 2.0 ** -30, 0b10: -0.7}
    meta = dict(kind="ksii", k=3, n=4, ell=1, lam=2, call_count=9)
    arrays = (np.array(list(values), dtype=np.uint64), np.array(list(values.values())))
    from_arrays = InteractionValues(**meta, arrays=arrays)
    from_dict = InteractionValues(**meta, values=dict(values))
    assert from_arrays == from_dict and from_dict == from_arrays
    assert from_arrays.sorted_items() == from_dict.sorted_items()
    assert from_arrays.total().hex() == from_dict.total().hex()
    documents = [dumps_json(build_si_graph(m, 1.5, 0.25, 0.0)) for m in (from_arrays, from_dict)]
    assert documents[0] == documents[1]
    assert from_arrays != InteractionValues(**{**meta, "lam": 3}, values=dict(values))
    assert from_arrays != InteractionValues(**meta, values={**values, 0b1: 0.2})
    with pytest.raises(TypeError):
        InteractionValues(**meta, values=dict(values), arrays=arrays)


# ---------------------------------------------------------------- the CLI's template writer


def written(doc):
    """The text graphsi explain writes for a document."""
    return dumps_si_graph(doc, dumps_json(doc["metadata"]))


@pytest.mark.parametrize("lam", [None, 1])
@pytest.mark.parametrize("index", INDEX_KINDS)
@pytest.mark.parametrize("demo", ["path4", "er8"])
def test_explain_writes_the_bytes_of_the_document(demo_dir, tmp_path, demo, index, lam):
    files = [str(demo_dir / f"{demo}_{part}.json") for part in ("graph", "model")]
    flags = ["--exact"] if lam is None else ["--lambda", str(lam)]
    out = tmp_path / "si.json"
    assert main(["explain", *files, "--index", index, *flags, "--out", str(out)]) == 0
    ex = GraphInteractionExplainer(files[1], index=index, lam=lam).fit(files[0])
    want = si_graph_oracle(ex.interactions_, ex.game_.nu_full, ex.game_.nu_empty,
                           ex.efficiency_residual_)
    assert ex.to_export() == want
    assert out.read_bytes() == dumps_json(want).encode()


def arrays_map(values, **meta):
    """The map of values, built from arrays in the dict's (non-canonical) order."""
    arrays = (np.array(list(values), dtype=np.uint64), np.array(list(values.values())))
    return InteractionValues(**meta, arrays=arrays)


EDGE_MAPS = {
    "sv, no hyperedges": si_values(3, {0b001: 0.5, 0b010: -0.25, 0b100: 0.0}, kind="sv", k=1),
    "pruned nodes": si_values(3, {0b001: -0.0, 0b010: 1e-13, 0b100: -1e-12, 0b011: 1e-13,
                                  0b110: -0.0, 0b101: 2.5}, ell=1, call_count=6),
    "three and four members": si_values(
        5, {0b00001: 1.0, 0b10110: -0.125, 0b00111: 2.0 ** -40, 0b01011: 3.0, 0b11110: -7.5,
            0b00011: 0.1}, kind="mi", k=5, ell=2, lam=4, call_count=31),
    "arrays, non-canonical order": arrays_map(
        {0b110: 1e16, 0b1: 0.1, 0b11: -1e16, 0b1000: 3.3, 0b111: 2.0 ** -30, 0b10: -0.7},
        kind="ksii", k=3, n=4, ell=1, lam=2, call_count=9),
    "one node": si_values(1, {0b0: 0.3, 0b1: -0.7}, kind="mi", k=1, ell=1, call_count=2),
    "64 nodes": arrays_map({1 << 63: 0.5, (1 << 63) | 1: -2.0, (1 << 63) | (1 << 40) | 2: 1.5},
                           kind="mi", k=64, n=64),
}


@pytest.mark.parametrize("name", EDGE_MAPS)
def test_the_writer_keeps_the_bytes_of_the_document(name):
    si = EDGE_MAPS[name]
    want = si_graph_oracle(si, 1.25, -0.5, 1e-17)
    doc = build_si_graph(si, 1.25, -0.5, 1e-17)
    assert doc == want
    assert written(doc) == dumps_json(want)


def test_pruned_nodes_are_written_as_zero():
    text = written(build_si_graph(EDGE_MAPS["pruned nodes"], 0.0, 0.0, 0.0))
    assert [node["value"] for node in json.loads(text)["nodes"]] == [0.0, 0.0, -1e-12]
    assert '"value": -0\n' not in text and '"value": 0\n' in text
    assert [edge["members"] for edge in json.loads(text)["hyperedges"]] == [[0, 2]]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("mask", [0b01, 0b11])
def test_a_non_finite_value_meets_the_same_refusal(mask, bad):
    si = si_values(2, {0b01: 1.0, 0b10: 2.0, 0b11: 0.5, mask: bad})
    want = si_graph_oracle(si, 0.0, 0.0, 0.0)
    if mask == 0b01 and math.isnan(bad):  # a NaN node is not above the threshold: 0.0
        assert written(build_si_graph(si, 0.0, 0.0, 0.0)) == dumps_json(want)
        return
    with pytest.raises(ParseError) as old:
        dumps_json(want)
    with pytest.raises(ParseError) as new:
        written(build_si_graph(si, 0.0, 0.0, 0.0))
    assert str(new.value) == str(old.value)


def test_explain_refuses_a_non_finite_value_with_exit_two(demo_dir, tmp_path, capsys, monkeypatch):
    # the fit refuses a non-finite map first, so this one is put in after it
    real_fit = GraphInteractionExplainer.fit

    def fit(self, graph):
        real_fit(self, graph)
        si = self.interactions_
        self.interactions_ = InteractionValues(si.kind, si.k, si.n,
                                               {**si.values, 0b11: math.inf})
        return self

    monkeypatch.setattr(GraphInteractionExplainer, "fit", fit)
    out = tmp_path / "si.json"
    files = [str(demo_dir / f"path4_{part}.json") for part in ("graph", "model")]
    assert main(["explain", *files, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: cannot serialize non-finite value inf; the model overflows float64\n")
    assert not out.exists()


# ---------------------------------------------------------------- DOT rendering


def triangle_doc():
    si = si_values(
        3,
        {0b001: 1.0, 0b010: -0.5, 0b100: 0.0, 0b011: 2.0, 0b111: -0.25},
        kind="mi", k=3,
    )
    return build_si_graph(si, nu_full=2.25, nu_empty=0.0, efficiency_residual=0.0)


def test_to_dot_shapes_and_colors():
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)], [[0.0]] * 3)
    dot = to_dot(triangle_doc(), g)
    lines = dot.splitlines()
    assert lines[0] == "graph si {"
    assert dot.endswith("}\n")
    assert dot.count("{") == dot.count("}")
    assert 'v0 [label="0: 1", fillcolor="#e07b7b"];' in dot
    assert 'v1 [label="1: -0.5", fillcolor="#7b9de0"];' in dot
    assert 'v2 [label="2: 0", fillcolor="#d9d9d9"];' in dot
    # strongest interaction gets the widest pen
    assert 'v0 -- v1 [label="2", penwidth=4.500, color="#e07b7b"];' in dot


def test_to_dot_higher_order_uses_diamond():
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)], [[0.0]] * 3)
    dot = to_dot(triangle_doc(), g)
    assert 'he0 [shape=diamond, label="-0.25", fillcolor="#7b9de0"];' in dot
    for member in range(3):
        assert f"he0 -- v{member}" in dot


def test_to_dot_structural_edges_dotted():
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)], [[0.0]] * 3)
    dot = to_dot(triangle_doc(), g)
    # (0,1) carries an interaction; (1,2) and (0,2) are context only
    assert 'v1 -- v2 [style=dotted, color="#999999"];' in dot
    assert 'v0 -- v2 [style=dotted, color="#999999"];' in dot
    assert dot.count("style=dotted") == 2


def test_to_dot_all_zero_scale():
    si = si_values(2, {0b01: 0.0, 0b10: 0.0}, kind="sv", k=1)
    doc = build_si_graph(si, nu_full=0.0, nu_empty=0.0, efficiency_residual=0.0)
    g = make_graph(2, [(0, 1)], [[0.0]] * 2)
    dot = to_dot(doc, g)  # must not divide by zero
    assert "graph si {" in dot
