"""Error types and the input boundary shared across the package.

Every input from outside the program passes through here: read_json
opens and parses graph, weights, baseline and config files,
as_matrix/as_vector check the arrays inside them, and as_count a run's
k, lambda, ell and ceiling. Each failure is a ParseError (exit code 2 on
the command line), never a traceback.
"""

from __future__ import annotations

import json

import numpy as np


class ParseError(ValueError):
    """Malformed input: a graph, weights, baseline or config file, or a run
    argument (k, lambda, ell, ceiling) that is no count in its range."""


def as_count(value, name: str, top: int | None = None) -> int:
    """value when it is an int, not a bool, in 1..top (>= 1 without top)."""
    if isinstance(value, int) and not isinstance(value, bool) and value >= 1:
        if top is None or value <= top:
            return value
    if top is None:
        raise ParseError(f"{name} must be an integer >= 1, got {value!r}")
    raise ParseError(f"{name} must be in 1..{top}, got {value!r}")


def read_json(path, what: str):
    """Parsed contents of the UTF-8 JSON file at path; what names it in errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {what} file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # syntax, UTF-8 decoding, nesting depth
        raise ParseError(f"{what} file {path} is not valid JSON: {exc}") from exc


def _holds_non_numbers(obj) -> bool:
    """True if obj holds a string or a boolean, which float64 would read as a number."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.kind in "bSU"
    if isinstance(obj, (list, tuple)):
        return not set(map(type, obj)) <= {int, float} and any(map(_holds_non_numbers, obj))
    return isinstance(obj, (str, bytes, bool, np.bool_))


def _finite_copy(obj, name: str, expected: str, ndim: int, length=None) -> np.ndarray:
    """Read-only float64 copy of obj; copying leaves the caller's own array writable."""
    try:
        arr = np.array(obj, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged, non-numeric, huge ints
        raise ParseError(f"{name} must be {expected}") from exc
    if arr.ndim != ndim or 0 in arr.shape or (length is not None and arr.shape[0] != length):
        raise ParseError(f"{name} must be {expected}")
    if _holds_non_numbers(obj):  # only ndim levels deep once the shape is checked
        raise ParseError(f"{name} must hold numbers, not strings or booleans")
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"{name} has non-finite entries")
    arr.setflags(write=False)
    return arr


def as_matrix(obj, name: str) -> np.ndarray:
    """Non-empty finite 2-d float64 matrix, as a read-only copy."""
    return _finite_copy(obj, name, "a non-empty 2-d matrix", 2)


def as_vector(obj, name: str, length: int) -> np.ndarray:
    """Finite float64 vector of the given length, as a read-only copy."""
    return _finite_copy(obj, name, f"a vector of length {length}", 1, length)


class BudgetExceeded(RuntimeError):
    """An exact run would evaluate more sets than the ceiling: |I| exceeds
    it, or sum_i 2^|N_i| does when |I| takes too long to count
    (moebius.check_budget, the one budget rule).

    Carries the complexity bound chain, which starts at sum_i 2^|N_i| >= |I|,
    so callers can report it, and the largest order cap lambda the rule
    admits, to fall back to a truncated-order approximation.
    """

    def __init__(self, bound_sum: int, bound_nmax: int, bound_dmax,
                 ceiling: int, suggested_lambda: int):
        self.bound_sum = bound_sum
        self.bound_nmax = bound_nmax
        self.bound_dmax = bound_dmax  # None when d_max <= 1
        self.ceiling = ceiling
        self.suggested_lambda = suggested_lambda
        chain = f"sum_i 2^|N_i| = {bound_sum} <= n*2^n_max = {bound_nmax}"
        if bound_dmax is not None:
            chain += f" <= degree bound = {bound_dmax}"
        super().__init__(f"evaluation budget exceeded: {chain} > ceiling {ceiling}; "
                         f"try --lambda {suggested_lambda}")


class TruncatedBudgetExceeded(BudgetExceeded):
    """A truncated run at an order cap lam > 1 that would evaluate more sets
    than the ceiling, under the same rule (moebius.check_budget); the
    exact-mode chain does not apply. bound_sum holds the count of distinct
    sets the run evaluates (complexity.count_evaluated), or the bound
    complexity.truncated_bound when counting gives up."""

    def __init__(self, lam: int, sets: int, ceiling: int, suggested_lambda: int):
        RuntimeError.__init__(
            self, f"evaluation budget exceeded: the lambda {lam} run evaluates up to "
                  f"{sets} sets > ceiling {ceiling}; try --lambda {suggested_lambda}")
        self.bound_sum, self.bound_nmax, self.bound_dmax = sets, None, None
        self.ceiling, self.suggested_lambda = ceiling, suggested_lambda


class NonlinearReadout(RuntimeError):
    """Exact sparse computation requested on a model whose readout is not linear."""
