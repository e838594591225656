"""Closure compilation of SQL expressions over row tuples.

:func:`compile_expression` walks an AST **once** and returns a closure
``row -> value`` with every column reference bound to its slot in the row
tuple at compile time.  Evaluating a predicate over a table is then a
loop over the tuples the engine yields: no per-row environment dicts, no
per-node ``isinstance`` dispatch.  The executor, the materialized views,
the aggregate views, the coalescer and the columnar applier all evaluate
rows through this one compiler.

The closures are contractually **equivalent** to
:func:`repro.sql.expressions.evaluate`: they share its helpers
(``sql_truth``, ``check_comparable``, ``like_regex``,
``apply_scalar_function``) and reproduce its Kleene three-valued logic,
short-circuit order, ``RANDOM()`` draw order and error messages.

A *layout* maps the names the interpreter's environment would hold to
row slots: bare ``column`` names and qualified ``alias.column``
spellings (see :func:`row_layout`).

The compiler runs in one of two modes:

* **With a** :class:`StatementContext` it is total, like the
  interpreter: ``NOW()``, the session user and ``RANDOM()`` are bound to
  the context, and anything that cannot be evaluated (an unknown column,
  ``*`` or an aggregate in expression position, a volatile function the
  context does not carry) compiles to a closure raising the
  interpreter's error when a row is evaluated.  A statement over an
  empty table therefore still succeeds.
* **Without a context** it compiles only what the row alone determines.
  Everything else raises :class:`CompileBarrier` at compile time; the
  columnar router takes that as "replay this statement on the row path".
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from ..errors import SqlAnalysisError
from . import ast_nodes as ast
from .expressions import (
    apply_scalar_function,
    check_comparable,
    like_regex,
    referenced_columns,
    sql_truth,
)

#: A compiled scalar: row tuple -> SQL value.
CompiledScalar = Callable[[Sequence[Any]], Any]

_COMPARISONS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
}

_NUMERIC = (int, float)


class CompileBarrier(Exception):
    """Context-free compilation cannot reproduce the row path here.

    Not an error: the caller routes the statement through the row path,
    which reproduces the exact behaviour (including any error the
    expression would raise there).
    """


@dataclass(frozen=True)
class StatementContext:
    """Session state that volatile functions read, fixed per statement.

    ``now`` is the statement's virtual start time, ``user`` identifies
    the session and ``random`` is a zero-argument draw from the session's
    seeded stream.  A field left ``None`` makes its function raise when
    evaluated, as the interpreter does for an environment without that
    key; ``StatementContext()`` is therefore "no session at all".
    """

    now: float | None = None
    user: str | None = None
    random: Callable[[], float] | None = None


def row_layout(
    column_names: Iterable[str], qualifiers: Iterable[str] = ()
) -> dict[str, int]:
    """Layout of one table's row: bare names plus ``qualifier.name``."""
    layout: dict[str, int] = {}
    names = tuple(column_names)
    for slot, name in enumerate(names):
        layout[name] = slot
    for qualifier in qualifiers:
        for slot, name in enumerate(names):
            layout[f"{qualifier}.{name}"] = slot
    return layout


def compile_predicate(
    where: ast.Expression | None,
    layout: dict[str, int],
    context: StatementContext | None = None,
) -> CompiledScalar:
    """Compile a WHERE clause to a row filter (SQL ``is_true``)."""
    if where is None:
        return lambda row: True
    compiled = compile_expression(where, layout, context)
    return lambda row: compiled(row) is True


def compile_pushdown(
    where: ast.Expression,
    column_names: Sequence[str],
    qualifiers: Iterable[str],
    context: StatementContext,
) -> tuple[tuple[int, ...], CompiledScalar]:
    """Compile a WHERE clause over only the table columns it reads.

    Returns ``(slots, predicate)`` for ``Table.scan(where=...)``: the
    ascending slots of the referenced columns, and ``where`` compiled
    against a layout of just those columns (bare and qualified names,
    as :func:`row_layout` spells them over the full row).  A name the
    full layout would not resolve resolves in neither, so the predicate
    raises the same error at the same row.
    """
    wanted = referenced_columns(where)
    slots = tuple(slot for slot, name in enumerate(column_names) if name in wanted)
    layout = row_layout([column_names[slot] for slot in slots], qualifiers)
    return slots, compile_expression(where, layout, context)


def compile_assignments(
    assignments: Sequence[ast.Assignment],
    layout: dict[str, int],
    context: StatementContext | None = None,
) -> Callable[[Sequence[Any]], tuple[Any, ...]]:
    """Compile an UPDATE's SET list to ``before row -> after row``.

    Every expression reads the before row, in SET-list order; a column
    missing from the layout is still evaluated but changes no slot.
    """
    compiled = [
        (layout.get(a.column), compile_expression(a.expr, layout, context))
        for a in assignments
    ]

    def assign(row: Sequence[Any]) -> tuple[Any, ...]:
        after = list(row)
        for slot, value_of in compiled:
            value = value_of(row)
            if slot is not None:
                after[slot] = value
        return tuple(after)

    return assign


def compile_expression(
    expr: ast.Expression,
    layout: dict[str, int],
    context: StatementContext | None = None,
) -> CompiledScalar:
    """Compile ``expr`` to a closure over row tuples laid out by ``layout``."""
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ast.ColumnRef):
        key = _column_key(expr)
        slot = layout.get(key)
        if slot is None:
            return _unavailable(f"unknown column {key!r}", context)
        return operator.itemgetter(slot)
    if isinstance(expr, ast.BinaryOp):
        return _compile_binary(expr, layout, context)
    if isinstance(expr, ast.UnaryOp):
        return _compile_unary(expr, layout, context)
    if isinstance(expr, ast.InList):
        return _compile_in_list(expr, layout, context)
    if isinstance(expr, ast.Between):
        return _compile_between(expr, layout, context)
    if isinstance(expr, ast.Like):
        return _compile_like(expr, layout, context)
    if isinstance(expr, ast.IsNull):
        inner = compile_expression(expr.expr, layout, context)
        if expr.negated:
            return lambda row: inner(row) is not None
        return lambda row: inner(row) is None
    if isinstance(expr, ast.FuncCall):
        return _compile_func(expr, layout, context)
    if isinstance(expr, ast.Star):
        return _unavailable("'*' is only valid directly in a select list", context)
    if isinstance(expr, ast.Aggregate):
        return _unavailable(
            f"aggregate {expr.function} is only valid in a select list "
            "or HAVING context",
            context,
        )
    return _unavailable(
        f"cannot evaluate expression node {type(expr).__name__}", context
    )


def _unavailable(message: str, context: StatementContext | None) -> CompiledScalar:
    """A node the row alone cannot evaluate: barrier, or a deferred error."""
    if context is None:
        raise CompileBarrier(message)

    def fail(row: Sequence[Any]) -> Any:
        raise SqlAnalysisError(message)

    return fail


def _column_key(ref: ast.ColumnRef) -> str:
    """The interpreter's environment key for a column reference."""
    return f"{ref.table}.{ref.name}" if ref.table else ref.name


def _slot_of(expr: ast.Expression, layout: dict[str, int]) -> int | None:
    """The row slot of a resolvable column reference, else None."""
    if not isinstance(expr, ast.ColumnRef):
        return None
    return layout.get(_column_key(expr))


def _compile_binary(
    expr: ast.BinaryOp, layout: dict[str, int], context: StatementContext | None
) -> CompiledScalar:
    op = expr.op
    if op in _COMPARISONS:
        slot = _slot_of(expr.left, layout)
        if slot is not None and isinstance(expr.right, ast.Literal):
            return _compare_column_literal(op, slot, expr.right.value)
    left = compile_expression(expr.left, layout, context)
    right = compile_expression(expr.right, layout, context)
    if op == "AND":

        def kleene_and(row: Sequence[Any]) -> Any:
            lv = left(row)
            if lv is False:
                return False
            rv = right(row)
            if rv is False:
                return False
            if lv is None or rv is None:
                return None
            return sql_truth(lv) and sql_truth(rv)

        return kleene_and
    if op == "OR":

        def kleene_or(row: Sequence[Any]) -> Any:
            lv = left(row)
            if lv is True:
                return True
            rv = right(row)
            if rv is True:
                return True
            if lv is None or rv is None:
                return None
            return sql_truth(lv) or sql_truth(rv)

        return kleene_or
    if op in _COMPARISONS:
        compare = _COMPARISONS[op]

        def comparison(row: Sequence[Any]) -> Any:
            lv = left(row)
            rv = right(row)
            if lv is None or rv is None:
                return None
            check_comparable(lv, rv, op)
            return compare(lv, rv)

        return comparison
    if op in _ARITHMETIC:
        arith = _ARITHMETIC[op]

        def arithmetic(row: Sequence[Any]) -> Any:
            lv = left(row)
            rv = right(row)
            if lv is None or rv is None:
                return None
            if not isinstance(lv, _NUMERIC) or not isinstance(rv, _NUMERIC):
                raise SqlAnalysisError(
                    f"arithmetic {op!r} requires numbers, got {lv!r} and {rv!r}"
                )
            return arith(lv, rv)

        return arithmetic
    if op == "/":

        def division(row: Sequence[Any]) -> Any:
            lv = left(row)
            rv = right(row)
            if lv is None or rv is None:
                return None
            if not isinstance(lv, _NUMERIC) or not isinstance(rv, _NUMERIC):
                raise SqlAnalysisError(
                    f"arithmetic '/' requires numbers, got {lv!r} and {rv!r}"
                )
            if rv == 0:
                raise SqlAnalysisError("division by zero")
            return lv / rv

        return division
    message = f"unknown binary operator {op!r}"
    if context is None:
        raise CompileBarrier(message)

    def unknown(row: Sequence[Any]) -> Any:
        left(row)
        right(row)
        raise SqlAnalysisError(message)

    return unknown


def _compare_column_literal(op: str, slot: int, value: Any) -> CompiledScalar:
    """``column OP literal``, the shape of nearly every scanned predicate.

    Neither operand can raise or draw, so reading the slot directly and
    testing the literal's type once at compile time is exactly the
    generic comparison.
    """
    if value is None:
        return lambda row: None
    compare = _COMPARISONS[op]
    accepted: Any = ()  # no row value is comparable with this literal
    if isinstance(value, _NUMERIC):
        accepted = _NUMERIC
    elif isinstance(value, str):
        accepted = str

    def column_comparison(row: Sequence[Any]) -> Any:
        lv = row[slot]
        if lv is None:
            return None
        if not isinstance(lv, accepted):
            check_comparable(lv, value, op)
        return compare(lv, value)

    return column_comparison


def _compile_unary(
    expr: ast.UnaryOp, layout: dict[str, int], context: StatementContext | None
) -> CompiledScalar:
    inner = compile_expression(expr.operand, layout, context)
    if expr.op == "NOT":

        def negate(row: Sequence[Any]) -> Any:
            value = inner(row)
            if value is None:
                return None
            return not sql_truth(value)

        return negate
    if expr.op == "-":

        def minus(row: Sequence[Any]) -> Any:
            value = inner(row)
            if value is None:
                return None
            if not isinstance(value, _NUMERIC):
                raise SqlAnalysisError(
                    f"unary minus requires a number, got {value!r}"
                )
            return -value

        return minus
    message = f"unknown unary operator {expr.op!r}"
    if context is None:
        raise CompileBarrier(message)

    def unknown(row: Sequence[Any]) -> Any:
        inner(row)
        raise SqlAnalysisError(message)

    return unknown


def _compile_in_list(
    expr: ast.InList, layout: dict[str, int], context: StatementContext | None
) -> CompiledScalar:
    subject = compile_expression(expr.expr, layout, context)
    items = tuple(compile_expression(item, layout, context) for item in expr.items)
    negated = expr.negated

    def in_list(row: Sequence[Any]) -> Any:
        value = subject(row)
        if value is None:
            return None
        saw_null = False
        for item in items:
            candidate = item(row)
            if candidate is None:
                saw_null = True
            elif candidate == value:
                return not negated
        if saw_null:
            return None
        return negated

    return in_list


def _compile_between(
    expr: ast.Between, layout: dict[str, int], context: StatementContext | None
) -> CompiledScalar:
    subject = compile_expression(expr.expr, layout, context)
    low = compile_expression(expr.low, layout, context)
    high = compile_expression(expr.high, layout, context)
    negated = expr.negated

    def between(row: Sequence[Any]) -> Any:
        value = subject(row)
        lo = low(row)
        hi = high(row)
        if value is None or lo is None or hi is None:
            return None
        check_comparable(value, lo, "BETWEEN")
        check_comparable(value, hi, "BETWEEN")
        result = lo <= value <= hi
        return (not result) if negated else result

    return between


def _compile_like(
    expr: ast.Like, layout: dict[str, int], context: StatementContext | None
) -> CompiledScalar:
    subject = compile_expression(expr.expr, layout, context)
    # The pattern is static in the AST: the regex compiles once.
    pattern = like_regex(expr.pattern)
    negated = expr.negated

    def like(row: Sequence[Any]) -> Any:
        value = subject(row)
        if value is None:
            return None
        if not isinstance(value, str):
            raise SqlAnalysisError(f"LIKE requires a string, got {value!r}")
        matched = pattern.match(value) is not None
        return (not matched) if negated else matched

    return like


def _compile_func(
    expr: ast.FuncCall, layout: dict[str, int], context: StatementContext | None
) -> CompiledScalar:
    name = expr.function
    if name in ast.VOLATILE_FUNCTIONS:
        if context is None:
            # Volatile functions need session state a batch does not
            # carry; pinned statements never contain them.
            raise CompileBarrier(f"volatile function {name}")
        return _compile_volatile(name, context)
    args = tuple(compile_expression(arg, layout, context) for arg in expr.args)

    def func(row: Sequence[Any]) -> Any:
        return apply_scalar_function(name, [arg(row) for arg in args])

    return func


def _compile_volatile(name: str, context: StatementContext) -> CompiledScalar:
    """Bind a volatile function to the statement (arguments are ignored)."""
    if name in ast.TIME_FUNCTIONS:
        now = context.now
        if now is None:
            return _unavailable(
                f"{name}() needs session time context (volatile function)", context
            )
        return lambda row: now
    if name == "RANDOM":
        draw = context.random
        if draw is None:
            return _unavailable("RANDOM() needs session randomness (volatile)", context)
        return lambda row: draw()
    user = context.user
    if user is None:
        return _unavailable(f"{name}() needs a session context (volatile)", context)
    return lambda row: user
