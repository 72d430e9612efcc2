"""Input coercion helpers shared by the estimator and the CLI.

Each helper accepts the natural in-memory object, a parsed JSON object,
or a file path, and returns the validated domain type, raising
ParseError with a usable message otherwise. Files are read and arrays
checked by the shared boundary in errors (read_json, as_vector); this
module only dispatches on the kind of source.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ParseError, as_vector, read_json
from .graph import Graph, graph_from_json, load_graph
from .nn import GnnModel, default_baseline, load_model, model_from_json


def ensure_graph(source) -> Graph:
    if isinstance(source, Graph):
        return source
    if isinstance(source, dict):
        return graph_from_json(source)
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        return load_graph(os.fspath(source))
    raise ParseError(f"cannot interpret {type(source).__name__} as a graph")


def ensure_model(source) -> GnnModel:
    if isinstance(source, GnnModel):
        return source
    if isinstance(source, dict):
        return model_from_json(source)
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        return load_model(os.fspath(source))
    raise ParseError(f"cannot interpret {type(source).__name__} as a model")


def ensure_baseline(spec, graph: Graph) -> np.ndarray:
    """Masking vector from "mean", an array-like, or a JSON file of numbers."""
    if spec is None or (isinstance(spec, str) and spec == "mean"):
        return default_baseline(graph)
    if isinstance(spec, (str, bytes)) or hasattr(spec, "__fspath__"):
        spec = read_json(os.fspath(spec), "baseline")
    return as_vector(spec, "baseline", graph.d0)


def check_positive_int(value, name: str, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ParseError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value
