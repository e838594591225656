"""Property-based tests: WHERE pushed into the heap scan.

``Table.scan(where=compile_pushdown(...))`` decodes each record only at the
columns the predicate reads and fully decodes only the matches.  It must be
indistinguishable from the unfiltered scan (``decode_row`` on every row)
followed by the predicate compiled over the full row layout: the same
``(RowId, values)`` list, the same error raised at the same row, the same
``RANDOM()`` draws in the same order, a bit-identical virtual clock and the
same ``engine.table.rows_scanned``.

Tables have random schemas (INTEGER/FLOAT/CHAR/TIMESTAMP, nullable or not,
up to ten columns so NULL bits span two bitmap bytes), NULL-heavy rows and
slots deleted across several pages.  WHERE clauses read no column, some or
all of them, and mix AND/OR/NOT/BETWEEN/IN/LIKE/IS NULL, type-mismatched
literals, unknown or wrongly qualified columns and ``RANDOM()``; a
``RANDOM()`` in the consumer's projection checks that each match reaches
the consumer before the next row's predicate runs.
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import Column, Database, TableSchema
from repro.engine.types import FLOAT, INTEGER, TIMESTAMP, char
from repro.obs.metrics import MetricsRegistry
from repro.sql import ast_nodes as ast
from repro.sql.compiler import (
    StatementContext,
    compile_expression,
    compile_pushdown,
    row_layout,
)
from repro.sql.parser import parse_expression

ALIAS = "t"
_SCALARS = {"INTEGER": INTEGER, "FLOAT": FLOAT, "TIMESTAMP": TIMESTAMP}
_RANDOM = ast.FuncCall("RANDOM")


def _column_values(column: Column) -> st.SearchStrategy:
    kind = column.datatype.name
    if kind == "INTEGER":
        present: st.SearchStrategy = st.integers(-3, 3)
    elif kind in ("FLOAT", "TIMESTAMP"):
        present = st.sampled_from([0.0, 0.5, 1.5, 2.0, 1e9])
    else:
        present = st.text("ab_% ", max_size=min(column.datatype.width, 4))
    if not column.nullable:
        return present
    return st.one_of(st.none(), st.none(), present)  # NULL-heavy


@st.composite
def _tables(draw) -> tuple[TableSchema, list[tuple], set[int]]:
    columns = []
    for position in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["INTEGER", "FLOAT", "CHAR", "TIMESTAMP"]))
        # CHAR(700) records fit eleven to an 8 KiB page: several pages.
        datatype = (
            char(draw(st.sampled_from([1, 6, 700])))
            if kind == "CHAR"
            else _SCALARS[kind]
        )
        columns.append(Column(f"c{position}", datatype, draw(st.booleans())))
    rows = draw(
        st.lists(st.tuples(*(_column_values(c) for c in columns)), max_size=48)
    )
    deleted = draw(st.sets(st.integers(0, 47))) & set(range(len(rows)))
    return TableSchema(ALIAS, columns), rows, deleted


def _literals() -> st.SearchStrategy:
    return st.builds(
        ast.Literal,
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-3, 3),
            st.sampled_from([0.5, 1.5, 1e9]),
            st.sampled_from(["", "a", "b_", "a%"]),
        ),
    )


def _wheres(names: tuple[str, ...]) -> st.SearchStrategy:
    refs = st.builds(
        ast.ColumnRef,
        st.sampled_from(names + names + ("missing",)),
        st.sampled_from([None, None, None, ALIAS, "other"]),
    )
    comparisons = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
    leaves = st.one_of(
        _literals(),
        refs,
        st.just(_RANDOM),
        st.builds(ast.BinaryOp, comparisons, refs, _literals()),
        st.just(ast.BinaryOp("<", _RANDOM, ast.Literal(0.5))),
    )

    def branches(children: st.SearchStrategy) -> st.SearchStrategy:
        logical = st.builds(
            ast.BinaryOp, st.sampled_from(["AND", "OR"]), children, children
        )
        return st.one_of(
            logical,
            logical,
            st.builds(ast.BinaryOp, comparisons, children, children),
            st.builds(ast.BinaryOp, st.just("+"), children, children),
            st.builds(ast.UnaryOp, st.just("NOT"), children),
            st.builds(
                ast.InList,
                children,
                st.lists(children, min_size=1, max_size=3).map(tuple),
                st.booleans(),
            ),
            st.builds(ast.Between, children, children, children, st.booleans()),
            st.builds(
                ast.Like, children, st.sampled_from(["a%", "_", "%"]), st.booleans()
            ),
            st.builds(ast.IsNull, children, st.booleans()),
        )

    trees = st.recursive(leaves, branches, max_leaves=8)
    # A conjunct that is always TRUE but reads every column: the scan
    # then takes its decode-once path.
    every = _every_column(names)
    return st.one_of(
        trees,
        trees,
        trees.map(lambda tree: ast.BinaryOp("AND", every, tree)),
    )


def _every_column(names: tuple[str, ...]) -> ast.Expression:
    checks: list[ast.Expression] = [
        ast.IsNull(ast.ColumnRef(name), negated)
        for name in names
        for negated in (False, True)
    ]
    expression = checks[0]
    for check in checks[1:]:
        expression = ast.BinaryOp("OR", expression, check)
    return expression


@st.composite
def _cases(draw):
    schema, rows, deleted = draw(_tables())
    where = draw(_wheres(schema.column_names))
    project_random = draw(st.booleans())
    return schema, rows, deleted, where, project_random


def _build(schema: TableSchema, rows: list[tuple], deleted: set[int]):
    database = Database("pushdown", metrics=MetricsRegistry())
    table = database.create_table(schema)
    txn = database.begin()
    row_ids = [table.insert(txn, row) for row in rows]
    for position in sorted(deleted):
        table.delete(txn, row_ids[position])
    database.commit(txn)
    return database, table


def _run(schema, rows, deleted, where, project_random, pushed):
    """Scan with ``where`` pushed down or applied after an unfiltered scan.

    The consumer evaluates a projection per yielded row (drawing when
    ``project_random``), so draws from WHERE and from the projection
    interleave exactly as the executor's lazy SELECT does.
    """
    database, table = _build(schema, rows, deleted)
    draws: list[float] = []
    rng = random.Random(7)

    def draw() -> float:
        value = rng.random()
        draws.append(value)
        return value

    context = StatementContext(now=5.0, user="u", random=draw)
    names = schema.column_names
    project = compile_expression(
        _RANDOM if project_random else ast.Literal(None), {}, context
    )
    seen: list[tuple] = []
    outcome: tuple = ("ok",)
    try:
        if pushed:
            scan = table.scan(where=compile_pushdown(where, names, (ALIAS,), context))
            for row_id, values in scan:
                seen.append((row_id, values, project(values)))
        else:
            keep = compile_expression(where, row_layout(names, (ALIAS,)), context)
            for row_id, values in table.scan():
                if keep(values) is True:
                    seen.append((row_id, values, project(values)))
    except Exception as exc:  # the error itself is the outcome
        outcome = ("raised", type(exc), str(exc))
    scanned = database.metrics.labelled(db="pushdown").counter(
        "engine.table.rows_scanned"
    )
    return {
        "rows": seen,
        "outcome": outcome,
        "draws": draws,
        "clock": database.clock.now.hex(),
        "rows_scanned": scanned.value,
    }


def _assert_equivalent(schema, rows, deleted, where, project_random):
    pushed = _run(schema, rows, deleted, where, project_random, pushed=True)
    reference = _run(schema, rows, deleted, where, project_random, pushed=False)
    assert pushed == reference, where.to_sql()


_WIDE = TableSchema(
    ALIAS,
    [Column("c0", INTEGER), Column("c1", char(700))]
    + [Column(f"c{i}", FLOAT) for i in range(2, 10)],
)
_WIDE_ROWS = [
    (i % 5 if i % 3 else None, f"r{i}", *([None] if i % 4 == 0 else [float(i)]) * 8)
    for i in range(40)
]


@settings(max_examples=300, deadline=None)
@given(_cases())
@example((_WIDE, _WIDE_ROWS, {0, 5, 13, 27, 39}, parse_expression("c9 IS NULL"), True))
@example((_WIDE, _WIDE_ROWS, set(), parse_expression("RANDOM() < 0.5"), True))
@example((_WIDE, _WIDE_ROWS, {3}, parse_expression("c1 > 5"), False))
@example((_WIDE, _WIDE_ROWS, {3}, parse_expression("t.c0 = 2 AND other.c0 = 2"), False))
@example((_WIDE, [], set(), parse_expression("missing = 1"), False))
def test_pushed_scan_equals_full_decode_and_filter(case):
    _assert_equivalent(*case)


def test_random_in_where_and_projection_interleaves_per_row():
    """Fails if a page's predicates all run before its first match is
    consumed: the projection's draws would come after the page's WHERE
    draws instead of between them."""
    where = parse_expression("RANDOM() < 0.5 AND c0 IS NOT NULL")
    pushed = _run(_WIDE, _WIDE_ROWS, {2, 11, 30}, where, True, pushed=True)
    reference = _run(_WIDE, _WIDE_ROWS, {2, 11, 30}, where, True, pushed=False)
    assert len({row_id.page_no for row_id, _values, _drawn in reference["rows"]}) > 1
    assert len(reference["rows"]) > 5
    assert pushed == reference


def test_executor_select_with_random_matches_reference():
    """The executor's SELECT over a full scan, against the same reference."""
    where = "RANDOM() < 0.5 AND c1 LIKE 'r1%'"
    database, _table = _build(_WIDE, _WIDE_ROWS, {4, 19})
    session = database.internal_session()
    result = session.execute(f"SELECT c0, RANDOM() FROM t WHERE {where}")
    assert result.plan == "t:scan"

    # The executor's session stream, consumed as the unfiltered scan would.
    _reference_db, reference_table = _build(_WIDE, _WIDE_ROWS, {4, 19})
    rng = random.Random(0x5EED)
    context = StatementContext(random=rng.random)
    layout = row_layout(_WIDE.column_names, (ALIAS,))
    keep = compile_expression(parse_expression(where), layout, context)
    expected = [
        (values[0], rng.random())
        for _row_id, values in reference_table.scan()
        if keep(values) is True
    ]
    assert len(expected) > 1 and result.rows == expected


def test_update_and_delete_push_down_with_same_effect():
    database, table = _build(_WIDE, _WIDE_ROWS, {1, 22})
    session = database.internal_session()
    for sql in (
        "UPDATE t SET c2 = c2 + 1 WHERE c0 = 2 OR c1 = 'r7'",
        "DELETE FROM t WHERE c9 IS NULL AND c0 <> 1",
    ):
        result = session.execute(sql)
        assert result.plan.endswith(":scan") and result.rows_affected > 0

    expected = []
    for position, row in enumerate(_WIDE_ROWS):
        if position in (1, 22):
            continue
        if row[0] == 2 or row[1] == "r7":
            row = (row[0], row[1], None if row[2] is None else row[2] + 1, *row[3:])
        if row[9] is None and row[0] is not None and row[0] != 1:
            continue
        expected.append(row)
    assert [values for _row_id, values in table.scan()] == expected
