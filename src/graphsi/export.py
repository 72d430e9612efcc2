"""Serialization of interaction values over a graph (JSON and DOT).

JSON floats are written with 17 significant digits so files round-trip
bit-exactly and fixtures stay byte-stable. All writes go through a
temp-file-plus-rename so readers never see a half-written artifact.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

from .coalitions import iter_members
from .errors import ParseError
from .graph import Graph
from .interactions import InteractionValues

EXPORT_PRUNE = 1e-12


def format_float(x: float) -> str:
    """Shortest 17-significant-digit decimal; round-trips float64 exactly.
    A non-finite value comes from a model that overflows float64: ParseError."""
    if not math.isfinite(x):
        raise ParseError(f"cannot serialize non-finite value {x!r}; the model overflows float64")
    return format(float(x), ".17g")


def dumps_json(obj) -> str:
    """Deterministic JSON with 17-digit floats, insertion-ordered keys and a
    two-space indent."""
    pieces: list[str] = []
    _write_json(obj, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def _write_json(obj, out: list[str], depth: int) -> None:
    pad = "  " * (depth + 1)
    close_pad = "  " * depth
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(_escape(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(pad)
            out.append(_escape(str(key)))
            out.append(": ")
            _write_json(value, out, depth + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(close_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad)
            _write_json(value, out, depth + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(close_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


# Quotes, backslash and U+0000-U+001F escaped; everything else verbatim.
_escape = json.JSONEncoder(ensure_ascii=False).encode


def atomic_write_text(path, text: str) -> None:
    """Write via a sibling temp file and rename, so the target is never partial."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def build_si_graph(si: InteractionValues, nu_full: float, nu_empty: float,
                   efficiency_residual: float) -> dict:
    """SI-Graph document: per-node values, hyperedge values, run metadata.

    Nodes are always listed (tiny magnitudes as exact 0.0); hyperedges
    below the pruning threshold are dropped. The empty set never appears
    as an element; its value is nu_empty in the metadata.
    """
    nodes = []
    for i in range(si.n):
        value = si.get(1 << i)
        nodes.append({"id": i, "value": value if abs(value) >= EXPORT_PRUNE else 0.0})
    hyperedges = []
    for mask, value in si.sorted_items():
        if mask.bit_count() < 2 or abs(value) < EXPORT_PRUNE:
            continue
        hyperedges.append({"members": list(iter_members(mask)), "value": value})
    metadata = {
        "index": si.kind,
        "k": si.k,
        "ell": si.ell,
        "lambda": si.lam,
        "call_count": si.call_count,
        "nu_N": nu_full,
        "nu_empty": nu_empty,
        "efficiency_residual": efficiency_residual,
    }
    return {"nodes": nodes, "hyperedges": hyperedges, "metadata": metadata}


def _color(value: float) -> str:
    if value > 0:
        return "#e07b7b"
    if value < 0:
        return "#7b9de0"
    return "#d9d9d9"


def to_dot(doc: dict, graph: Graph) -> str:
    """Render an SI-Graph document as Graphviz DOT.

    Node fill encodes the sign of its value; pairwise interactions are
    edges with width scaled by magnitude; interactions of three or more
    nodes become auxiliary diamond nodes linked to their members.
    Structural edges of the input graph are drawn dotted for context.
    """
    lines = ["graph si {", "  node [style=filled, fontname=\"Helvetica\"];"]
    values = [abs(h["value"]) for h in doc["hyperedges"]]
    values += [abs(node["value"]) for node in doc["nodes"]]
    scale = max(values) if values and max(values) > 0 else 1.0

    for node in doc["nodes"]:
        label = f"{node['id']}: {node['value']:.6g}"
        lines.append(f'  v{node["id"]} [label="{label}", fillcolor="{_color(node["value"])}"];')

    si_pairs = set()
    aux = 0
    for edge in doc["hyperedges"]:
        members = edge["members"]
        width = 0.5 + 4.0 * abs(edge["value"]) / scale
        if len(members) == 2:
            si_pairs.add((members[0], members[1]))
            lines.append(
                f'  v{members[0]} -- v{members[1]} [label="{edge["value"]:.6g}", '
                f'penwidth={width:.3f}, color="{_color(edge["value"])}"];')
        else:
            name = f"he{aux}"
            aux += 1
            lines.append(
                f'  {name} [shape=diamond, label="{edge["value"]:.6g}", '
                f'fillcolor="{_color(edge["value"])}"];')
            for m in members:
                lines.append(f"  {name} -- v{m} [penwidth={width:.3f}, style=solid];")

    for i, j in graph.edges:
        if (i, j) not in si_pairs:
            lines.append(f"  v{i} -- v{j} [style=dotted, color=\"#999999\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
