"""Expression evaluation with SQL three-valued logic.

Rows are presented to the evaluator as flat mappings that contain both the
bare column names and their qualified ``alias.column`` spellings; the
executor builds these environments.  Comparisons involving NULL yield
``None`` (unknown); AND/OR follow Kleene logic; a WHERE clause keeps a row
only when the predicate is exactly ``True``.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, Mapping

from ..errors import SqlAnalysisError
from . import ast_nodes as ast


def evaluate(expr: ast.Expression, env: Mapping[str, Any]) -> Any:
    """Evaluate ``expr`` against a row environment."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.ColumnRef):
        return _resolve(expr, env)
    if isinstance(expr, ast.BinaryOp):
        return _binary(expr, env)
    if isinstance(expr, ast.UnaryOp):
        return _unary(expr, env)
    if isinstance(expr, ast.InList):
        return _in_list(expr, env)
    if isinstance(expr, ast.Between):
        return _between(expr, env)
    if isinstance(expr, ast.Like):
        return _like(expr, env)
    if isinstance(expr, ast.IsNull):
        value = evaluate(expr.expr, env)
        return (value is not None) if expr.negated else (value is None)
    if isinstance(expr, ast.FuncCall):
        return _func_call(expr, env)
    if isinstance(expr, ast.Star):
        raise SqlAnalysisError("'*' is only valid directly in a select list")
    if isinstance(expr, ast.Aggregate):
        raise SqlAnalysisError(
            f"aggregate {expr.function} is only valid in a select list "
            "or HAVING context"
        )
    raise SqlAnalysisError(f"cannot evaluate expression node {type(expr).__name__}")


def is_true(value: Any) -> bool:
    """SQL WHERE semantics: only an exact True keeps the row."""
    return value is True


def _resolve(ref: ast.ColumnRef, env: Mapping[str, Any]) -> Any:
    key = f"{ref.table}.{ref.name}" if ref.table else ref.name
    try:
        return env[key]
    except KeyError:
        raise SqlAnalysisError(f"unknown column {key!r}") from None


def _binary(expr: ast.BinaryOp, env: Mapping[str, Any]) -> Any:
    op = expr.op
    if op == "AND":
        left = evaluate(expr.left, env)
        if left is False:
            return False
        right = evaluate(expr.right, env)
        if right is False:
            return False
        if left is None or right is None:
            return None
        return _truth(left) and _truth(right)
    if op == "OR":
        left = evaluate(expr.left, env)
        if left is True:
            return True
        right = evaluate(expr.right, env)
        if right is True:
            return True
        if left is None or right is None:
            return None
        return _truth(left) or _truth(right)

    left = evaluate(expr.left, env)
    right = evaluate(expr.right, env)
    if op in ("=", "<>", "<", "<=", ">", ">="):
        if left is None or right is None:
            return None
        _check_comparable(left, right, op)
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right
    if op in ("+", "-", "*", "/"):
        if left is None or right is None:
            return None
        if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
            raise SqlAnalysisError(
                f"arithmetic {op!r} requires numbers, got {left!r} and {right!r}"
            )
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if right == 0:
            raise SqlAnalysisError("division by zero")
        return left / right
    raise SqlAnalysisError(f"unknown binary operator {op!r}")


def _unary(expr: ast.UnaryOp, env: Mapping[str, Any]) -> Any:
    value = evaluate(expr.operand, env)
    if expr.op == "NOT":
        if value is None:
            return None
        return not _truth(value)
    if expr.op == "-":
        if value is None:
            return None
        if not isinstance(value, (int, float)):
            raise SqlAnalysisError(f"unary minus requires a number, got {value!r}")
        return -value
    raise SqlAnalysisError(f"unknown unary operator {expr.op!r}")


def _in_list(expr: ast.InList, env: Mapping[str, Any]) -> Any:
    value = evaluate(expr.expr, env)
    if value is None:
        return None
    saw_null = False
    for item in expr.items:
        candidate = evaluate(item, env)
        if candidate is None:
            saw_null = True
        elif candidate == value and type(candidate) is not bool:
            return not expr.negated
        elif candidate == value:
            return not expr.negated
    if saw_null:
        return None
    return expr.negated


def _between(expr: ast.Between, env: Mapping[str, Any]) -> Any:
    value = evaluate(expr.expr, env)
    low = evaluate(expr.low, env)
    high = evaluate(expr.high, env)
    if value is None or low is None or high is None:
        return None
    _check_comparable(value, low, "BETWEEN")
    _check_comparable(value, high, "BETWEEN")
    result = low <= value <= high
    return (not result) if expr.negated else result


@lru_cache(maxsize=512)
def _like_regex(pattern: str) -> re.Pattern[str]:
    regex = ["^"]
    for ch in pattern:
        if ch == "%":
            regex.append(".*")
        elif ch == "_":
            regex.append(".")
        else:
            regex.append(re.escape(ch))
    regex.append("$")
    return re.compile("".join(regex), re.DOTALL)


def _like(expr: ast.Like, env: Mapping[str, Any]) -> Any:
    value = evaluate(expr.expr, env)
    if value is None:
        return None
    if not isinstance(value, str):
        raise SqlAnalysisError(f"LIKE requires a string, got {value!r}")
    matched = _like_regex(expr.pattern).match(value) is not None
    return (not matched) if expr.negated else matched


#: Environment keys under which the executor exposes session state to
#: volatile functions.  ``__now__`` is the statement's virtual start time;
#: ``__random__`` is a zero-argument draw from the session's seeded RNG;
#: ``__user__`` identifies the session.  Evaluating a volatile function
#: without its key raises: the expression genuinely cannot be computed
#: from the row alone, which is exactly what the static analyzer flags.
NOW_KEY = "__now__"
RANDOM_KEY = "__random__"
USER_KEY = "__user__"


def _func_call(expr: ast.FuncCall, env: Mapping[str, Any]) -> Any:
    name = expr.function
    if name in ast.TIME_FUNCTIONS:
        if NOW_KEY not in env:
            raise SqlAnalysisError(
                f"{name}() needs session time context (volatile function)"
            )
        return env[NOW_KEY]
    if name == "RANDOM":
        draw = env.get(RANDOM_KEY)
        if draw is None:
            raise SqlAnalysisError("RANDOM() needs session randomness (volatile)")
        return draw()
    if name in ("SESSION_USER", "CURRENT_USER"):
        user = env.get(USER_KEY)
        if user is None:
            raise SqlAnalysisError(f"{name}() needs a session context (volatile)")
        return user
    args = [evaluate(arg, env) for arg in expr.args]
    return apply_scalar_function(name, args)


def apply_scalar_function(name: str, args: list[Any]) -> Any:
    """Apply a *pure* scalar function to already-evaluated arguments.

    Shared between the tree-walking evaluator and the closure compiler
    (:mod:`repro.sql.compiler`) so both agree on every edge case.  Volatile functions (NOW, RANDOM, session user)
    never reach here — they need session context and are handled by the
    caller.
    """
    if name == "COALESCE":
        if not args:
            raise SqlAnalysisError("COALESCE needs at least one argument")
        for value in args:
            if value is not None:
                return value
        return None
    if len(args) != 1:
        raise SqlAnalysisError(f"{name} takes exactly one argument, got {len(args)}")
    value = args[0]
    if value is None:
        return None
    if name == "ABS":
        if not isinstance(value, (int, float)):
            raise SqlAnalysisError(f"ABS requires a number, got {value!r}")
        return abs(value)
    if name == "ROUND":
        if not isinstance(value, (int, float)):
            raise SqlAnalysisError(f"ROUND requires a number, got {value!r}")
        return round(value)
    if name in ("UPPER", "LOWER", "LENGTH"):
        if not isinstance(value, str):
            raise SqlAnalysisError(f"{name} requires a string, got {value!r}")
        if name == "UPPER":
            return value.upper()
        if name == "LOWER":
            return value.lower()
        return len(value)
    raise SqlAnalysisError(f"unknown function {name!r}")


def _truth(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    raise SqlAnalysisError(f"expected a boolean condition, got {value!r}")


def _check_comparable(left: Any, right: Any, op: str) -> None:
    numeric = (int, float)
    if isinstance(left, numeric) and isinstance(right, numeric):
        return
    if isinstance(left, str) and isinstance(right, str):
        return
    raise SqlAnalysisError(
        f"cannot compare {type(left).__name__} with {type(right).__name__} using {op!r}"
    )


# Public seams for the closure compiler (:mod:`repro.sql.compiler`): the
# compiled closures must reproduce this module's three-valued logic
# exactly, so they call the *same* helpers instead of re-implementing them.
sql_truth = _truth
check_comparable = _check_comparable
like_regex = _like_regex


def referenced_columns(expr: ast.Expression) -> set[str]:
    """All column names referenced by an expression (unqualified spellings)."""
    found: set[str] = set()

    def walk(node: ast.Expression) -> None:
        if isinstance(node, ast.ColumnRef):
            found.add(node.name)
        elif isinstance(node, ast.BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ast.UnaryOp):
            walk(node.operand)
        elif isinstance(node, ast.InList):
            walk(node.expr)
            for item in node.items:
                walk(item)
        elif isinstance(node, ast.Between):
            walk(node.expr)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, (ast.Like, ast.IsNull)):
            walk(node.expr)
        elif isinstance(node, ast.FuncCall):
            for arg in node.args:
                walk(arg)
        elif isinstance(node, ast.Aggregate) and node.argument is not None:
            walk(node.argument)

    walk(expr)
    return found


def referenced_functions(expr: ast.Expression | None) -> set[str]:
    """All scalar function names invoked anywhere in an expression."""
    found: set[str] = set()

    def walk(node: ast.Expression) -> None:
        if isinstance(node, ast.FuncCall):
            found.add(node.function)
            for arg in node.args:
                walk(arg)
        elif isinstance(node, ast.BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ast.UnaryOp):
            walk(node.operand)
        elif isinstance(node, ast.InList):
            walk(node.expr)
            for item in node.items:
                walk(item)
        elif isinstance(node, ast.Between):
            walk(node.expr)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, (ast.Like, ast.IsNull)):
            walk(node.expr)
        elif isinstance(node, ast.Aggregate) and node.argument is not None:
            walk(node.argument)

    if expr is not None:
        walk(expr)
    return found


def split_conjuncts(expr: ast.Expression | None) -> list[ast.Expression]:
    """Flatten a predicate into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]
