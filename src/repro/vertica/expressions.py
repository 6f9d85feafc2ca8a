"""Vectorized expression evaluation over column batches.

The executor hands this module a *batch*: a dict mapping column names to
1-D numpy arrays of equal length.  Expressions evaluate to numpy arrays
(broadcasting scalars), which keeps WHERE filters and projections fast enough
to process millions of rows per node — the property the in-database
prediction experiments (Figs 15/16) rely on.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, Callable, Mapping

import numpy as np

from repro.errors import SqlAnalysisError
from repro.vertica.sql import ast

__all__ = ["evaluate", "columns_referenced", "register_scalar_function",
           "scalar_function_names"]

_SCALAR_FUNCTIONS: dict[str, Callable[..., np.ndarray]] = {}


def register_scalar_function(name: str, fn: Callable[..., np.ndarray]) -> None:
    """Register a scalar SQL function callable with numpy array arguments."""
    _SCALAR_FUNCTIONS[name.lower()] = fn


def scalar_function_names() -> list[str]:
    return sorted(_SCALAR_FUNCTIONS)


def _with_float(fn: Callable[[np.ndarray], np.ndarray]) -> Callable[..., np.ndarray]:
    return lambda x: fn(np.asarray(x, dtype=np.float64))


register_scalar_function("abs", np.abs)
register_scalar_function("sqrt", _with_float(np.sqrt))
register_scalar_function("exp", _with_float(np.exp))
register_scalar_function("ln", _with_float(np.log))
register_scalar_function("log", _with_float(np.log10))
register_scalar_function("floor", _with_float(np.floor))
register_scalar_function("ceil", _with_float(np.ceil))
register_scalar_function("ceiling", _with_float(np.ceil))
register_scalar_function("sign", _with_float(np.sign))
register_scalar_function("power", lambda x, y: np.power(
    np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)))
# ``%`` and MOD truncate toward zero, as in Vertica and sqlite: the result
# takes the dividend's sign (7 % -3 = 1, MOD(-7, 3) = -1).  ``np.mod`` would
# take the divisor's.  A zero divisor gives 0 for integers and NaN for
# floats, as it did under ``np.mod``.
register_scalar_function("mod", np.fmod)
register_scalar_function("round", lambda x, d=0: np.round(
    np.asarray(x, dtype=np.float64), int(np.asarray(d).flat[0]) if np.ndim(d) else int(d)))
register_scalar_function("is_null", lambda x: _is_null(x))
register_scalar_function("coalesce", lambda *xs: _coalesce(*xs))
register_scalar_function("least", lambda *xs: _fold_pairwise(np.minimum, xs))
register_scalar_function("greatest", lambda *xs: _fold_pairwise(np.maximum, xs))


def _fold_pairwise(fn: Callable, xs: tuple) -> np.ndarray:
    if not xs:
        raise SqlAnalysisError("least/greatest require at least one argument")
    result = np.asarray(xs[0])
    for candidate in xs[1:]:
        result = fn(result, np.asarray(candidate))
    return result
register_scalar_function("upper", lambda x: _string_map(x, str.upper))
register_scalar_function("lower", lambda x: _string_map(x, str.lower))
register_scalar_function("length", lambda x: np.asarray(
    [len(v) if v is not None else 0 for v in np.asarray(x, dtype=object)], dtype=np.int64))


def _is_null(x: Any) -> np.ndarray:
    arr = np.asarray(x)
    if arr.dtype == object:
        return np.asarray([v is None for v in arr], dtype=bool)
    if arr.dtype.kind == "f":
        return np.isnan(arr)
    return np.zeros(arr.shape, dtype=bool)


def _coalesce(*xs: Any) -> np.ndarray:
    if not xs:
        raise SqlAnalysisError("coalesce() requires at least one argument")
    result = np.asarray(xs[0])
    for candidate in xs[1:]:
        mask = _is_null(result)
        if not mask.any():
            break
        result = np.where(mask, np.asarray(candidate), result)
    return result


def _string_map(x: Any, fn: Callable[[str], str]) -> np.ndarray:
    arr = np.asarray(x, dtype=object)
    return np.asarray([None if v is None else fn(str(v)) for v in arr], dtype=object)


def columns_referenced(expr: ast.Expr) -> set[str]:
    """Set of column keys (``name`` or ``qualifier.name``) an expression reads."""
    return {node.key for node in expr.walk() if isinstance(node, ast.ColumnRef)}


def evaluate(expr: ast.Expr, batch: Mapping[str, np.ndarray]) -> np.ndarray:
    """Evaluate ``expr`` over ``batch``; returns an array broadcast to the
    batch's row count (scalar literals become 0-d arrays the caller may
    broadcast)."""
    if isinstance(expr, ast.Literal):
        return np.asarray(expr.value) if expr.value is not None else np.asarray(np.nan)
    if isinstance(expr, ast.ColumnRef):
        try:
            return batch[expr.key]
        except KeyError:
            known = sorted(batch)
            raise SqlAnalysisError(
                f"unknown column {expr.key!r}; available: {known}"
            ) from None
    if isinstance(expr, ast.UnaryOp):
        operand = evaluate(expr.operand, batch)
        if expr.op == "-":
            return -np.asarray(operand)
        if expr.op == "NOT":
            return ~np.asarray(operand, dtype=bool)
        raise SqlAnalysisError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, ast.BinaryOp):
        return _binary(expr, batch)
    if isinstance(expr, ast.FunctionCall):
        try:
            fn = _SCALAR_FUNCTIONS[expr.name]
        except KeyError:
            raise SqlAnalysisError(f"unknown function {expr.name!r}") from None
        args = [evaluate(arg, batch) for arg in expr.args]
        return np.asarray(fn(*args))
    if isinstance(expr, ast.InList):
        operand = np.atleast_1d(np.asarray(evaluate(expr.operand, batch)))
        result = np.zeros(operand.shape, dtype=bool)
        for value in expr.values:
            if value is None:
                continue
            result |= np.asarray(_compare(operand, value, "eq"))
        return result
    if isinstance(expr, ast.LikeMatch):
        operand = np.atleast_1d(
            np.asarray(evaluate(expr.operand, batch), dtype=object))
        regex = _like_to_regex(expr.pattern)
        return np.asarray(
            [v is not None and regex.fullmatch(str(v)) is not None
             for v in operand],
            dtype=bool,
        )
    if isinstance(expr, ast.AggregateCall):
        raise SqlAnalysisError(
            f"aggregate {expr.name} used outside an aggregation context"
        )
    if isinstance(expr, ast.Star):
        raise SqlAnalysisError("'*' is not a scalar expression")
    raise SqlAnalysisError(f"cannot evaluate expression node {type(expr).__name__}")


@lru_cache(maxsize=256)
def _like_to_regex(pattern: str) -> "re.Pattern":
    """Translate a SQL LIKE pattern (%% any run, _ one char) to a regex."""
    parts: list[str] = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("".join(parts), flags=re.DOTALL)


def _binary(expr: ast.BinaryOp, batch: Mapping[str, np.ndarray]) -> np.ndarray:
    op = expr.op
    if op in ("AND", "OR"):
        left = np.asarray(evaluate(expr.left, batch), dtype=bool)
        right = np.asarray(evaluate(expr.right, batch), dtype=bool)
        return left & right if op == "AND" else left | right
    left = evaluate(expr.left, batch)
    right = evaluate(expr.right, batch)
    if op == "||":
        l = np.atleast_1d(np.asarray(left, dtype=object))
        r = np.atleast_1d(np.asarray(right, dtype=object))
        l, r = np.broadcast_arrays(l, r)
        return np.asarray([f"{a}{b}" for a, b in zip(l, r)], dtype=object)
    if op == "+":
        return np.add(left, right)
    if op == "-":
        return np.subtract(left, right)
    if op == "*":
        return np.multiply(left, right)
    if op == "/":
        return np.divide(np.asarray(left, dtype=np.float64), right)
    if op == "%":
        return np.fmod(left, right)  # truncated, like MOD()
    if op == "=":
        return _compare(left, right, "eq")
    if op == "<>":
        return ~_compare(left, right, "eq")
    if op == "<":
        return _compare(left, right, "lt")
    if op == "<=":
        return _compare(left, right, "le")
    if op == ">":
        return _compare(left, right, "gt")
    if op == ">=":
        return _compare(left, right, "ge")
    raise SqlAnalysisError(f"unknown operator {op!r}")


_COMPARATORS = {
    "eq": np.equal,
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
}


def _compare(left: Any, right: Any, kind: str) -> np.ndarray:
    l, r = np.asarray(left), np.asarray(right)
    if l.dtype == object or r.dtype == object:
        l = np.atleast_1d(l.astype(object))
        r = np.atleast_1d(r.astype(object))
        l, r = np.broadcast_arrays(l, r)
        py = {"eq": lambda a, b: a == b, "lt": lambda a, b: a < b,
              "le": lambda a, b: a <= b, "gt": lambda a, b: a > b,
              "ge": lambda a, b: a >= b}[kind]
        return np.asarray([
            False if a is None or b is None else py(a, b) for a, b in zip(l, r)
        ], dtype=bool)
    return np.asarray(_COMPARATORS[kind](l, r), dtype=bool)
