"""Planner and executor.

The planner implements exactly the access-path behaviour the paper leans on
in §3.1.1: an equality predicate on an indexed column uses the index; a
range predicate uses a B-tree index only when the optimizer's statistics
say the range is selective (default threshold 5% of the table), otherwise
it falls back to a full table scan — "indices may not be used by the query
optimizer if the deltas form a significant portion of the table".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Iterable, Iterator

from ..engine.database import Database
from ..engine.rows import RowId
from ..engine.schema import Column, TableSchema
from ..engine.table import InsertMode, Table
from ..engine.transactions import Transaction
from ..engine.types import CharType, DataType, type_from_sql
from ..errors import SqlAnalysisError
from . import ast_nodes as ast
from .compiler import (
    CompiledScalar,
    StatementContext,
    compile_expression,
    compile_pushdown,
    row_layout,
)
from .expressions import split_conjuncts

#: Ranges matching more than this fraction of the table fall back to a scan.
INDEX_SELECTIVITY_THRESHOLD = 0.05

_RANGE_OPS = {"<": ("high", False), "<=": ("high", True),
              ">": ("low", False), ">=": ("low", True)}


@dataclass
class Result:
    """Outcome of one statement."""

    columns: list[str] = field(default_factory=list)
    rows: list[tuple[Any, ...]] = field(default_factory=list)
    rows_affected: int = 0
    plan: str = ""

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise SqlAnalysisError(
                f"scalar() needs a 1x1 result, got {len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class _AccessPath:
    """How the planner decided to read a table."""

    description: str
    row_ids: Iterable[RowId] | None  # None means full scan


def _index_comparable(datatype: DataType, value: Any) -> bool:
    """Whether the scan path could compare ``value`` with this column."""
    if value is None:
        return False
    if isinstance(datatype, CharType):
        return isinstance(value, str)
    return isinstance(value, (int, float))


def _concat_layout(
    sources: list[tuple[str, TableSchema]],
) -> tuple[dict[str, int], dict[str, range]]:
    """Layout of the concatenated rows of ``(alias, schema)`` sources.

    A later table's columns shadow an earlier one's under both the bare
    and the qualified spelling; ``spans`` maps each alias to the slots of
    its (last) table, which ``*`` expands to.
    """
    layout: dict[str, int] = {}
    spans: dict[str, range] = {}
    offset = 0
    for alias, schema in sources:
        for slot, name in enumerate(schema.column_names, offset):
            layout[name] = slot
            layout[f"{alias}.{name}"] = slot
        spans[alias] = range(offset, offset + len(schema))
        offset += len(schema)
    return layout, spans


class Executor:
    """Executes parsed statements against one :class:`Database`.

    Every expression of a statement is compiled once per execution by
    :mod:`repro.sql.compiler`, against the slot layout of the rows the
    engine yields, and then called on those row tuples directly.
    """

    def __init__(self, database: Database) -> None:
        self._db = database
        # Session randomness for RANDOM(): a *seeded* stream so whole runs
        # stay deterministic, while the value still depends on how many
        # draws preceded it — exactly the volatility the analyzer flags.
        self._rng = random.Random(0x5EED)
        self._context = StatementContext()

    # ------------------------------------------------------------------ entry
    def execute(self, statement: ast.Statement, txn: Transaction) -> Result:
        # Session context for volatile functions, fixed per statement:
        # NOW() is the statement's virtual start time (SQL semantics).
        self._context = StatementContext(
            now=self._db.clock.now, user=self._db.name, random=self._rng.random
        )
        if isinstance(statement, ast.SelectStmt):
            return self._select(statement)
        if isinstance(statement, ast.InsertStmt):
            return self._insert(statement, txn)
        if isinstance(statement, ast.UpdateStmt):
            return self._update(statement, txn)
        if isinstance(statement, ast.DeleteStmt):
            return self._delete(statement, txn)
        if isinstance(statement, ast.CreateTableStmt):
            return self._create_table(statement)
        if isinstance(statement, ast.CreateIndexStmt):
            return self._create_index(statement)
        if isinstance(statement, ast.DropTableStmt):
            self._db.drop_table(statement.table)
            return Result(plan="drop")
        if isinstance(statement, ast.TruncateStmt):
            removed = self._db.table(statement.table).truncate()
            return Result(rows_affected=removed, plan="truncate")
        raise SqlAnalysisError(
            f"executor cannot handle {type(statement).__name__} "
            "(transaction-control statements are handled by the session)"
        )

    def _compile(self, expr: ast.Expression, layout: dict[str, int]) -> CompiledScalar:
        return compile_expression(expr, layout, self._context)

    def _constant(self, expr: ast.Expression) -> Any:
        """Evaluate an expression with no row columns in scope."""
        return self._compile(expr, {})(())

    # ----------------------------------------------------------------- SELECT
    def _select(self, stmt: ast.SelectStmt) -> Result:
        if stmt.table is None:
            # Constant SELECT (e.g. SELECT 1 + 1): no row columns in scope.
            row = tuple(self._constant(item.expr) for item in stmt.items)
            columns = [self._item_name(item) for item in stmt.items]
            return Result(columns=columns, rows=[row], plan="const")

        base = self._db.table(stmt.table)
        base_alias = stmt.alias or stmt.table
        path = self._choose_path(base, base_alias, stmt.where)
        # A join's WHERE runs after the probe, over the joined rows.
        where = None if stmt.joins else stmt.where
        rows: Iterable[tuple[Any, ...]] = (
            values for _row_id, values in self._rows(base, base_alias, path, where)
        )
        plan_parts = [f"{stmt.table}:{path.description}"]

        # A join's rows are the concatenated tuples of its tables.
        sources = [(base_alias, base.schema)]
        for join in stmt.joins:
            right = self._db.table(join.table)
            right_alias = join.alias or join.table
            left_layout, _spans = _concat_layout(sources)
            rows = self._hash_join(rows, left_layout, right, right_alias, join)
            sources.append((right_alias, right.schema))
            plan_parts.append(f"join({join.table}:hash)")
        layout, spans = _concat_layout(sources)

        if stmt.joins and stmt.where is not None:
            keep = self._compile(stmt.where, layout)
            rows = (row for row in rows if keep(row) is True)

        aggregated = any(
            isinstance(item.expr, ast.Aggregate) for item in stmt.items
        ) or bool(stmt.group_by)
        if aggregated:
            result_rows, columns = self._aggregate(stmt, rows, layout)
        else:
            result_rows, columns = self._project(stmt, rows, sources, layout, spans)

        if stmt.order_by:
            result_rows = self._order(result_rows, columns, stmt)
        if stmt.limit is not None:
            result_rows = result_rows[: stmt.limit]
        return Result(columns=columns, rows=result_rows, plan=" ".join(plan_parts))

    def _choose_path(
        self, table: Table, alias: str, where: ast.Expression | None
    ) -> _AccessPath:
        """Pick index lookup, index range scan, or full scan."""
        for conjunct in split_conjuncts(where):
            simple = self._simple_comparison(conjunct, table, alias)
            if simple is None:
                continue
            column, op, value = simple
            index = table.index_on(column)
            if index is None:
                continue
            if op == "=":
                return _AccessPath(f"index({index.name})", index.lookup(value))
            if op in _RANGE_OPS and index.supports_range:
                bound, inclusive = _RANGE_OPS[op]
                low = value if bound == "low" else None
                high = value if bound == "high" else None
                matching = index.estimate_range(
                    low, high,
                    include_low=inclusive if bound == "low" else True,
                    include_high=inclusive if bound == "high" else True,
                )
                total = max(1, table.num_rows)
                if matching / total <= INDEX_SELECTIVITY_THRESHOLD:
                    row_ids = index.range_scan(
                        low, high,
                        include_low=inclusive if bound == "low" else True,
                        include_high=inclusive if bound == "high" else True,
                    )
                    return _AccessPath(f"index-range({index.name})", row_ids)
        return _AccessPath("scan", None)

    def _simple_comparison(
        self, expr: ast.Expression, table: Table, alias: str
    ) -> tuple[str, str, Any] | None:
        """Match ``column OP literal`` (either operand order) on this table.

        Only a literal the scan could compare with the column qualifies:
        NULL matches nothing, and a type mismatch must raise the scan
        path's error, so neither may reach an index.
        """
        if not isinstance(expr, ast.BinaryOp):
            return None
        if expr.op not in ("=", "<", "<=", ">", ">="):
            return None
        flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
        candidates = [
            (expr.left, expr.op, expr.right),
            (expr.right, flip[expr.op], expr.left),
        ]
        for column_side, op, value_side in candidates:
            if not isinstance(column_side, ast.ColumnRef):
                continue
            if column_side.table not in (None, alias, table.name):
                continue
            if not isinstance(value_side, ast.Literal):
                continue
            if not table.schema.has_column(column_side.name):
                continue
            datatype = table.schema.column(column_side.name).datatype
            if not _index_comparable(datatype, value_side.value):
                continue
            return column_side.name, op, value_side.value
        return None

    def _rows(
        self,
        table: Table,
        alias: str,
        path: _AccessPath,
        where: ast.Expression | None,
    ) -> Iterator[tuple[RowId, tuple[Any, ...]]]:
        """``(row id, values)`` of every row on the path satisfying ``where``.

        Lazy, in access-path order.  On a full scan the WHERE clause runs
        inside :meth:`Table.scan`, over only the columns it reads, so rows
        it rejects are never fully decoded.
        """
        names = table.schema.column_names
        if path.row_ids is None:
            if where is None:
                return table.scan()
            return table.scan(
                where=compile_pushdown(where, names, (alias,), self._context)
            )
        rows = ((row_id, table.read(row_id)) for row_id in path.row_ids)
        if where is None:
            return rows
        keep = self._compile(where, row_layout(names, (alias,)))
        return ((row_id, values) for row_id, values in rows if keep(values) is True)

    def _hash_join(
        self,
        left_rows: Iterable[tuple[Any, ...]],
        left_layout: dict[str, int],
        right: Table,
        right_alias: str,
        join: ast.Join,
    ) -> Iterator[tuple[Any, ...]]:
        left_key, right_key = self._join_sides(join, right_alias)
        build: dict[Any, list[tuple[Any, ...]]] = {}
        key_position = right.schema.column_index(right_key.name)
        for _row_id, values in right.scan():
            build.setdefault(values[key_position], []).append(values)
        probe_cpu = self._db.costs.row_scan_cpu
        clock = self._db.clock
        probe_key = self._compile(left_key, left_layout)
        for row in left_rows:
            clock.advance(probe_cpu)
            for values in build.get(probe_key(row), ()):
                yield row + values

    @staticmethod
    def _join_sides(join: ast.Join, right_alias: str) -> tuple[ast.ColumnRef, ast.ColumnRef]:
        """Split the ON equality into (probe-side ref, build-side ref)."""
        left, right = join.left, join.right
        if left.table == right_alias and right.table != right_alias:
            left, right = right, left
        if right.table not in (None, right_alias):
            raise SqlAnalysisError(
                f"join condition must reference the joined table {right_alias!r}"
            )
        return left, right

    def _project(
        self,
        stmt: ast.SelectStmt,
        rows: Iterable[tuple[Any, ...]],
        sources: list[tuple[str, TableSchema]],
        layout: dict[str, int],
        spans: dict[str, range],
    ) -> tuple[list[tuple[Any, ...]], list[str]]:
        columns: list[str] = []
        getters: list[CompiledScalar] = []
        for item in stmt.items:
            if isinstance(item.expr, ast.Star):
                for alias, schema in sources:
                    columns.extend(schema.column_names)
                    getters.extend(map(itemgetter, spans[alias]))
            else:
                columns.append(self._item_name(item))
                getters.append(self._compile(item.expr, layout))
        return [tuple([get(row) for get in getters]) for row in rows], columns

    def _aggregate(
        self,
        stmt: ast.SelectStmt,
        rows: Iterable[tuple[Any, ...]],
        layout: dict[str, int],
    ) -> tuple[list[tuple[Any, ...]], list[str]]:
        for item in stmt.items:
            if not isinstance(item.expr, (ast.Aggregate, ast.ColumnRef)):
                raise SqlAnalysisError(
                    "aggregate queries may only select aggregates and "
                    "grouping columns"
                )
            if isinstance(item.expr, ast.ColumnRef) and item.expr not in stmt.group_by:
                grouped_names = {ref.name for ref in stmt.group_by}
                if item.expr.name not in grouped_names:
                    raise SqlAnalysisError(
                        f"column {item.expr.name!r} must appear in GROUP BY"
                    )
        key_of = [self._compile(ref, layout) for ref in stmt.group_by]
        groups: dict[tuple, list[tuple[Any, ...]]] = {}
        for row in rows:
            key = tuple([get(row) for get in key_of])
            groups.setdefault(key, []).append(row)
        if not stmt.group_by and not groups:
            groups[()] = []  # global aggregate over an empty input
        columns = [self._item_name(item) for item in stmt.items]
        arguments = [
            self._compile(item.expr.argument, layout)
            if isinstance(item.expr, ast.Aggregate) and item.expr.argument is not None
            else None
            for item in stmt.items
        ]
        result = []
        for key, members in groups.items():
            out: list[Any] = []
            for item, argument in zip(stmt.items, arguments):
                if isinstance(item.expr, ast.Aggregate):
                    out.append(self._aggregate_value(item.expr, argument, members))
                else:
                    position = [ref.name for ref in stmt.group_by].index(
                        item.expr.name  # type: ignore[union-attr]
                    )
                    out.append(key[position])
            result.append(tuple(out))
        return result, columns

    @staticmethod
    def _aggregate_value(
        agg: ast.Aggregate,
        argument: CompiledScalar | None,
        members: list[tuple[Any, ...]],
    ) -> Any:
        if argument is None:
            return len(members)
        values = [value for value in map(argument, members) if value is not None]
        if agg.function == "COUNT":
            return len(values)
        if not values:
            return None
        if agg.function == "SUM":
            return sum(values)
        if agg.function == "AVG":
            return sum(values) / len(values)
        if agg.function == "MIN":
            return min(values)
        if agg.function == "MAX":
            return max(values)
        raise SqlAnalysisError(f"unknown aggregate {agg.function!r}")

    def _order(
        self,
        rows: list[tuple[Any, ...]],
        columns: list[str],
        stmt: ast.SelectStmt,
    ) -> list[tuple[Any, ...]]:
        self._db.clock.advance(self._db.costs.row_scan_cpu * len(rows))
        for order in reversed(stmt.order_by):
            position = self._order_position(order.expr, columns)
            rows.sort(
                key=lambda row: (row[position] is None, row[position]),
                reverse=not order.ascending,
            )
        return rows

    @staticmethod
    def _order_position(expr: ast.Expression, columns: list[str]) -> int:
        if isinstance(expr, ast.ColumnRef):
            name = expr.name
            if name in columns:
                return columns.index(name)
        rendered = expr.to_sql()
        if rendered in columns:
            return columns.index(rendered)
        raise SqlAnalysisError(
            f"ORDER BY expression {rendered!r} is not in the select list"
        )

    @staticmethod
    def _item_name(item: ast.SelectItem) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ast.ColumnRef):
            return item.expr.name
        return item.expr.to_sql()

    # -------------------------------------------------------------------- DML
    def _insert(self, stmt: ast.InsertStmt, txn: Transaction) -> Result:
        table = self._db.table(stmt.table)
        if stmt.select is not None:
            selected = self._select(stmt.select)
            count = 0
            for row in selected.rows:
                values = self._arrange(table.schema, stmt.columns, row)
                table.insert(txn, values, mode=InsertMode.BULK_INTERNAL)
                count += 1
            return Result(rows_affected=count, plan="insert-select")
        mode = InsertMode.BULK_CLIENT if len(stmt.rows) > 1 else InsertMode.STATEMENT
        count = 0
        for expr_row in stmt.rows:
            literal_row = tuple(self._constant(expr) for expr in expr_row)
            values = self._arrange(table.schema, stmt.columns, literal_row)
            table.insert(txn, values, mode=mode)
            count += 1
        return Result(rows_affected=count, plan="insert")

    @staticmethod
    def _arrange(
        schema: TableSchema, columns: tuple[str, ...] | None, row: tuple[Any, ...]
    ) -> tuple[Any, ...]:
        if columns is None:
            return row
        if len(columns) != len(row):
            raise SqlAnalysisError(
                f"INSERT names {len(columns)} columns but supplies {len(row)} values"
            )
        return schema.values_from_mapping(dict(zip(columns, row)))

    def _update(self, stmt: ast.UpdateStmt, txn: Transaction) -> Result:
        table = self._db.table(stmt.table)
        alias = stmt.table
        path = self._choose_path(table, alias, stmt.where)
        layout = row_layout(table.schema.column_names, (alias,))
        matches = list(self._rows(table, alias, path, stmt.where))
        assignments = [
            (a.column, self._compile(a.expr, layout)) for a in stmt.assignments
        ]
        for row_id, values in matches:
            table.update(
                txn, row_id, {column: get(values) for column, get in assignments}
            )
        return Result(rows_affected=len(matches), plan=f"update:{path.description}")

    def _delete(self, stmt: ast.DeleteStmt, txn: Transaction) -> Result:
        table = self._db.table(stmt.table)
        alias = stmt.table
        path = self._choose_path(table, alias, stmt.where)
        matches = list(self._rows(table, alias, path, stmt.where))
        for row_id, _values in matches:
            table.delete(txn, row_id)
        return Result(rows_affected=len(matches), plan=f"delete:{path.description}")

    # -------------------------------------------------------------------- DDL
    def _create_table(self, stmt: ast.CreateTableStmt) -> Result:
        columns = []
        primary_key = None
        for definition in stmt.columns:
            datatype = type_from_sql(definition.type_name, definition.type_arg)
            nullable = not (definition.not_null or definition.primary_key)
            columns.append(Column(definition.name, datatype, nullable))
            if definition.primary_key:
                if primary_key is not None:
                    raise SqlAnalysisError(
                        f"table {stmt.table!r} declares multiple primary keys"
                    )
                primary_key = definition.name
        schema = TableSchema(stmt.table, columns, primary_key=primary_key)
        self._db.create_table(schema)
        return Result(plan="create-table")

    def _create_index(self, stmt: ast.CreateIndexStmt) -> Result:
        table = self._db.table(stmt.table)
        table.create_index(stmt.name, stmt.column, unique=stmt.unique, kind=stmt.kind)
        return Result(plan="create-index")
