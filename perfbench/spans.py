"""Spans around the package's public functions, installed from outside.

The benchmark may not edit the package, so it records spans by replacing
module attributes with timing wrappers for the length of one traced pass
and restoring them afterwards. Each wrapper records (name, start, end,
parent span, call id) in memory; a pass is summarised once it ends.

A patch point that no longer exists (a later refactor renamed or removed
it) is skipped, and every metric derived from it is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute path, span name). Names that appear more than once
# are one layer reached through several functions. Module attributes are
# patched where the caller looks them up, e.g. ``graphsi.game.forward_graph``
# covers every forward the game runs and no other.
PATCH_POINTS = (
    ("graphsi.cli", "main", "cli"),
    ("graphsi.explainer", "GraphInteractionExplainer.fit", "explainer"),
    ("graphsi.explainer", "GraphInteractionExplainer.to_export", "explainer"),
    ("graphsi.explainer", "ensure_graph", "load"),
    ("graphsi.explainer", "ensure_model", "load"),
    ("graphsi.explainer", "ensure_baseline", "load"),
    ("graphsi.explainer", "khop_neighborhoods", "graph.khop"),
    ("graphsi.game", "GraphGame.__init__", "game.init"),
    ("graphsi.game", "GraphGame.evaluate_batch", "game.evaluate"),
    ("graphsi.game", "forward_graph", "nn.forward"),
    ("graphsi.explainer", "graphshapiq_exact", "moebius"),
    ("graphsi.explainer", "graphshapiq_approx", "moebius"),
    ("graphsi.moebius", "build_interaction_set", "moebius.iset"),
    ("graphsi.convert", "convert_mi", "convert"),
    ("graphsi.explainer", "build_si_graph", "export"),
    ("graphsi.cli", "dumps_json", "export"),
    ("graphsi.cli", "atomic_write_text", "export"),
)


def _resolve(module_name: str, path: str):
    """(owner object, attribute name, current value), or None if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


class Tracer:
    """In-memory span recorder; one instance per run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, call id]
        self.call_id = -1
        self._stack: list[int] = []
        self.available = {name for module, path, name in PATCH_POINTS
                          if _resolve(module, path) is not None}

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1, self.call_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        return traced

    @contextmanager
    def installed(self):
        """Patch every available point; restore the originals on exit."""
        restore = []
        try:
            for module, path, name in PATCH_POINTS:
                found = _resolve(module, path)
                if found is None:
                    continue
                owner, attr, value = found
                restore.append((owner, attr, owner.__dict__.get(attr, value)))
                setattr(owner, attr, self._wrap(name, value))
            yield self
        finally:
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)

    def summary(self) -> dict:
        """Per span name: total seconds, self seconds, span count; and per call
        id the span counts. Clears the recorded spans."""
        total = defaultdict(int)
        child = defaultdict(int)
        count = defaultdict(int)
        per_call = defaultdict(lambda: defaultdict(int))
        for name, start, end, parent, call in self.spans:
            total[name] += end - start
            count[name] += 1
            per_call[call][name] += 1
        for name, start, end, parent, call in self.spans:
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        self.spans.clear()
        return {
            "total_s": {name: total[name] / 1e9 for name in self.available},
            "self_s": {name: (total[name] - child[name]) / 1e9 for name in self.available},
            "count": {name: count[name] for name in self.available},
            "per_call": {call: dict(names) for call, names in per_call.items()},
        }
