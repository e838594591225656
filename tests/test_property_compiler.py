"""Property-based tests: the closure compiler against the interpreter.

:func:`repro.sql.compiler.compile_expression` must reproduce
:func:`repro.sql.expressions.evaluate` on every expression: the same value,
or the same exception type and message.  Random expression trees mix
literals, column references (some NULL, some unresolvable), comparisons,
arithmetic (division by zero included), Kleene AND/OR/NOT, IN, BETWEEN,
LIKE, IS NULL, scalar and volatile functions, ``*`` and aggregates in
expression position, over values of every SQL type.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sql import ast_nodes as ast
from repro.sql.compiler import (
    CompileBarrier,
    StatementContext,
    compile_expression,
    compile_predicate,
    row_layout,
)
from repro.sql.expressions import NOW_KEY, RANDOM_KEY, USER_KEY, evaluate, is_true

COLUMNS = ("a", "b", "c", "d")
QUALIFIER = "t"
LAYOUT = row_layout(COLUMNS, (QUALIFIER,))
NOW = 1234.5
USER = "warehouse"

_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-5, max_value=5),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from(["", "a", "ab", "b%", "A_c", "zz"]),
)

_column_refs = st.builds(
    ast.ColumnRef,
    st.sampled_from(COLUMNS + ("missing",)),
    st.sampled_from([None, None, QUALIFIER, "other"]),
)

_leaves = st.one_of(
    st.builds(ast.Literal, _values),
    _column_refs,
    _column_refs,
    st.builds(
        ast.FuncCall,
        st.sampled_from(ast.VOLATILE_FUNCTIONS),
        st.just(()),
    ),
    st.just(ast.Star()),
    st.builds(ast.Aggregate, st.sampled_from(["SUM", "COUNT"]), _column_refs),
    # ``column OP literal``: the compiler specialises this shape.
    st.builds(
        ast.BinaryOp,
        st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
        _column_refs,
        st.builds(ast.Literal, _values),
    ),
)


def _branches(children: st.SearchStrategy) -> st.SearchStrategy:
    logical = st.builds(ast.BinaryOp, st.sampled_from(["AND", "OR"]), children, children)
    return st.one_of(
        logical,
        logical,
        st.builds(
            ast.BinaryOp,
            st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
            children,
            children,
        ),
        st.builds(ast.BinaryOp, st.sampled_from(["+", "-", "*", "/"]), children, children),
        st.builds(ast.UnaryOp, st.sampled_from(["NOT", "-"]), children),
        st.builds(
            ast.InList,
            children,
            st.lists(children, min_size=1, max_size=3).map(tuple),
            st.booleans(),
        ),
        st.builds(ast.Between, children, children, children, st.booleans()),
        st.builds(
            ast.Like, children, st.sampled_from(["a%", "_b", "%", "ab"]), st.booleans()
        ),
        st.builds(ast.IsNull, children, st.booleans()),
        st.builds(
            ast.FuncCall,
            st.sampled_from(ast.DETERMINISTIC_FUNCTIONS),
            st.lists(children, max_size=2).map(tuple),
        ),
    )


_expressions = st.recursive(_leaves, _branches, max_leaves=12)
_rows = st.tuples(*(_values for _ in COLUMNS))


def _env(row: tuple, session: bool) -> dict:
    env = dict(zip(COLUMNS, row))
    env.update({f"{QUALIFIER}.{name}": value for name, value in zip(COLUMNS, row)})
    if session:
        env[NOW_KEY] = NOW
        env[USER_KEY] = USER
    return env


def _outcome(thunk):
    try:
        value = thunk()
    except Exception as exc:  # the exception itself is the outcome
        return ("raised", type(exc), str(exc))
    return ("value", type(value), repr(value))


_FALSE, _TRUE, _NULL = ast.Literal(False), ast.Literal(True), ast.Literal(None)
_MISSING = ast.ColumnRef("missing")
_RANDOM = ast.FuncCall("RANDOM")

#: Edge cases pinned as explicit examples: short-circuit order (the
#: right side would raise or draw), Kleene NULLs, and runtime errors.
_EDGE_CASES = (
    ast.BinaryOp("AND", _FALSE, _MISSING),
    ast.BinaryOp("AND", _MISSING, _FALSE),
    ast.BinaryOp("OR", _TRUE, _MISSING),
    ast.BinaryOp("AND", _FALSE, ast.BinaryOp("<", _RANDOM, ast.Literal(0.5))),
    ast.BinaryOp("OR", _TRUE, ast.BinaryOp("<", _RANDOM, ast.Literal(0.5))),
    ast.BinaryOp("AND", _NULL, _FALSE),
    ast.BinaryOp("OR", _NULL, ast.Literal(5)),
    ast.UnaryOp("NOT", ast.Literal(5)),
    ast.BinaryOp("/", ast.ColumnRef("a"), ast.Literal(0)),
    ast.BinaryOp("/", ast.Literal(1), ast.Literal(0.0)),
    ast.BinaryOp("<", ast.ColumnRef("a"), ast.Literal("x")),
    ast.BinaryOp("=", ast.ColumnRef("b", "t"), _NULL),
    ast.InList(ast.ColumnRef("a"), (ast.ColumnRef("a"), _MISSING)),
    ast.InList(ast.ColumnRef("a"), (_NULL, _RANDOM), negated=True),
    ast.Between(ast.ColumnRef("a"), ast.Literal("a"), ast.Literal(3)),
    ast.Like(ast.ColumnRef("c"), "a%"),
    ast.FuncCall("COALESCE", (_NULL, _RANDOM, _MISSING)),
    ast.BinaryOp("+", ast.Star(), _RANDOM),
)
_EDGE_ROWS = [(1, "ab", None, 2.5), (None, None, "ab", "x")]


def _with_edge_cases(test):
    for expr in _EDGE_CASES:
        for session in (True, False):
            test = example(expr, _EDGE_ROWS, session)(test)
    return test


@given(_expressions, st.lists(_rows, min_size=1, max_size=3), st.booleans())
@_with_edge_cases
@settings(max_examples=600, deadline=None)
def test_compiled_closure_matches_interpreter(expr, rows, session):
    """Same value or same error per row; RANDOM() draws in the same order."""
    interpreter_rng = random.Random(11)
    compiled_rng = random.Random(11)
    if session:
        context = StatementContext(now=NOW, user=USER, random=compiled_rng.random)
    else:
        context = StatementContext()
    compiled = compile_expression(expr, LAYOUT, context)
    for row in rows:
        env = _env(row, session)
        if session:
            env[RANDOM_KEY] = interpreter_rng.random
        expected = _outcome(lambda: evaluate(expr, env))
        assert _outcome(lambda: compiled(row)) == expected, expr.to_sql()
    # Both sides consumed the seeded stream equally.
    assert interpreter_rng.random() == compiled_rng.random()


@given(_expressions, _rows)
@settings(max_examples=300, deadline=None)
def test_predicate_matches_is_true(expr, row):
    compiled = compile_predicate(expr, LAYOUT, StatementContext())
    expected = _outcome(lambda: is_true(evaluate(expr, _env(row, False))))
    assert _outcome(lambda: compiled(row)) == expected


@given(_expressions, _rows)
@settings(max_examples=300, deadline=None)
def test_context_free_compile_barriers_or_agrees(expr, row):
    """Without a context the compiler refuses, or agrees with the interpreter."""
    try:
        compiled = compile_expression(expr, LAYOUT)
    except CompileBarrier:
        return
    expected = _outcome(lambda: evaluate(expr, _env(row, False)))
    assert _outcome(lambda: compiled(row)) == expected


def test_unknown_column_raises_only_when_a_row_is_evaluated():
    compiled = compile_expression(ast.ColumnRef("nope"), LAYOUT, StatementContext())
    with pytest.raises(Exception, match="unknown column 'nope'"):
        compiled((1, 2, 3, 4))
    with pytest.raises(CompileBarrier):
        compile_expression(ast.ColumnRef("nope"), LAYOUT)


def test_volatile_functions_bind_the_statement_context():
    draws = iter([0.25, 0.75])
    context = StatementContext(now=NOW, user=USER, random=lambda: next(draws))
    row = (None, None, None, None)
    assert compile_expression(ast.FuncCall("NOW"), LAYOUT, context)(row) == NOW
    assert compile_expression(ast.FuncCall("SESSION_USER"), LAYOUT, context)(row) == USER
    random_call = compile_expression(ast.FuncCall("RANDOM"), LAYOUT, context)
    assert [random_call(row), random_call(row)] == [0.25, 0.75]
    with pytest.raises(CompileBarrier):
        compile_expression(ast.FuncCall("NOW"), LAYOUT)
