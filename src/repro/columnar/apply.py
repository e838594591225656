"""Columnar group-apply: commit conflict components from batch buffers.

:class:`ColumnarApplier` is the batched hot path the integrator's
columnar mode drives.  Per conflict component it materialises each
touched table **once** into a :class:`~repro.columnar.batch.ColumnBatch`
image (one costed scan, where the row path re-scans per statement),
replays every statement of the component against the image with
kernels compiled by :mod:`repro.sql.compiler` (cached in
:mod:`repro.columnar.kernels`), and commits through
the engine's batch DML entry points — which perform the identical
logical mutations (validation, unique checks, index maintenance,
triggers, undo, bit-identical WAL payloads) at the columnar CPU factor.

**Parity invariant.**  For every statement the applier either (a)
replays it columnar with the closures the row path's executor compiles
from the same AST, writing results back into the image so later
statements read their writes, or (b) hits a
:class:`~repro.sql.compiler.CompileBarrier` / unsupported shape and
falls back to the original row path verbatim, invalidating the affected
image.  Either way the final table state is bit-for-bit the state the
row-at-a-time path produces — the property the columnar Hypothesis suite
pins with XOR-SHA256 state digests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..core.selfmaint import insert_rows
from ..engine.session import Session
from ..engine.table import Table
from ..engine.transactions import Transaction
from ..errors import SqlAnalysisError, WarehouseError
from ..sql import ast_nodes as ast
from ..sql.compiler import (
    CompileBarrier,
    compile_expression,
    compile_predicate,
    row_layout,
)
from .batch import ColumnBatch
from .kernels import KernelCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.opdelta import OpDelta
    from ..semantics.planner import DeltaRule
    from ..warehouse.views import MaterializedView


class ColumnarApplier:
    """Applies transformed statements and view delta rules from batches."""

    def __init__(
        self,
        session: Session,
        kernels: KernelCache | None = None,
        plan_fingerprint: str = "",
    ) -> None:
        self._session = session
        self._db = session.database
        self._clock = self._db.clock
        self._costs = self._db.costs
        self.kernels = kernels if kernels is not None else KernelCache()
        #: Stamp of the certified plan set the rule kernels belong to;
        #: part of every view-kernel cache key.
        self.plan_fingerprint = plan_fingerprint
        #: Per-component table images, keyed by physical table name.
        self._images: dict[str, ColumnBatch] = {}
        # Cumulative stats (the integrator reports per-window deltas).
        self.statements = 0
        self.rows_batched = 0
        self.fallbacks = 0

    # ------------------------------------------------------------- lifecycle
    def begin_component(self) -> None:
        """Reset per-component state: images never outlive their component.

        Components are mutually independent and may be replayed on
        parallel lanes, so each one pays its own image scans.
        """
        self._images.clear()

    # ------------------------------------------------------------ mirror path
    def apply_mirror(
        self, statement: ast.Statement, txn: Transaction, cache_key: str
    ) -> int:
        """Replay one transformed statement on its mirror table.

        Returns the rows affected (matching the executor's Result).
        """
        try:
            if isinstance(statement, ast.InsertStmt) and statement.select is None:
                return self._mirror_insert(statement, txn, cache_key)
            if isinstance(statement, ast.UpdateStmt):
                return self._mirror_update(statement, txn, cache_key)
            if isinstance(statement, ast.DeleteStmt):
                return self._mirror_delete(statement, txn, cache_key)
        except CompileBarrier:
            pass
        return self._mirror_fallback(statement)

    def _dispatch(self) -> None:
        """Per-statement cost of dispatching a compiled batch program."""
        self.statements += 1
        self._clock.advance(self._costs.stmt_overhead * self._costs.columnar_cpu_factor)

    def _image(self, table: Table) -> ColumnBatch:
        image = self._images.get(table.name)
        if image is None:
            image = ColumnBatch.from_table(table)
            self._images[table.name] = image
        return image

    def _invalidate(self, table_name: str) -> None:
        self._images.pop(table_name, None)

    def _mirror_fallback(self, statement: ast.Statement) -> int:
        """Row-path replay of a statement the kernels cannot cover."""
        self.fallbacks += 1
        if statement.table is not None:
            self._invalidate(statement.table)
        result = self._session.execute_statement(statement)
        return result.rows_affected

    def _mirror_insert(
        self, stmt: ast.InsertStmt, txn: Transaction, cache_key: str
    ) -> int:
        table = self._db.table(stmt.table)

        def factory() -> tuple[tuple[Any, ...], ...]:
            # Literal rows compile to value closures over no columns;
            # volatile expressions barrier out to the row path here.
            return tuple(
                tuple(compile_expression(expr, {}) for expr in expr_row)
                for expr_row in stmt.rows
            )

        compiled_rows = self.kernels.get(
            ("mirror-insert", stmt.table, cache_key), factory
        )
        self._dispatch()
        rows: list[tuple[Any, ...]] = []
        for closures in compiled_rows:
            literal_row = tuple(closure(()) for closure in closures)
            if stmt.columns is None:
                rows.append(literal_row)
            else:
                if len(stmt.columns) != len(literal_row):
                    raise SqlAnalysisError(
                        f"INSERT names {len(stmt.columns)} columns but "
                        f"supplies {len(literal_row)} values"
                    )
                rows.append(
                    table.schema.values_from_mapping(
                        dict(zip(stmt.columns, literal_row))
                    )
                )
        row_ids = table.insert_batch(txn, rows)
        self.rows_batched += len(rows)
        image = self._images.get(table.name)
        if image is not None:
            for row_id in row_ids:
                # Read back the stored values (validated and stamped).
                image.append(table.read(row_id), row_id=row_id)
        return len(rows)

    def _mirror_update(
        self, stmt: ast.UpdateStmt, txn: Transaction, cache_key: str
    ) -> int:
        table = self._db.table(stmt.table)
        image = self._image(table)

        def factory() -> tuple[Any, tuple[tuple[str, Any], ...]]:
            layout = row_layout(image.column_names, (stmt.table,))
            return _update_kernels(stmt, stmt.where, layout)

        predicate, assignments = self.kernels.get(
            ("mirror-update", stmt.table, cache_key), factory
        )
        self._dispatch()
        matched = _update_image(image, table, txn, predicate, assignments)
        self.rows_batched += matched
        return matched

    def _mirror_delete(
        self, stmt: ast.DeleteStmt, txn: Transaction, cache_key: str
    ) -> int:
        table = self._db.table(stmt.table)
        image = self._image(table)
        predicate = self.kernels.get(
            ("mirror-delete", stmt.table, cache_key),
            lambda: compile_predicate(
                stmt.where, row_layout(image.column_names, (stmt.table,))
            ),
        )
        self._dispatch()
        matched = _delete_from_image(image, table, txn, predicate)
        self.rows_batched += matched
        return matched

    # -------------------------------------------------------------- view path
    def apply_view(
        self,
        view: "MaterializedView",
        op: "OpDelta",
        txn: Transaction,
        rule: "DeltaRule | None",
    ) -> None:
        """Maintain one SPJ view from an op through compiled rule kernels.

        Deterministic OP_ONLY / projected-insert rules run columnar;
        dynamic rules, before-image paths, joins and anything the
        compiler barriers on take the original row path unchanged.
        """
        if op.table != view.definition.base_table:
            return
        from ..core.opdelta import OpKind

        if (
            rule is None
            or rule.action.value in ("dynamic", "source-query")
            or rule.needs_before_image
            or view.definition.join is not None
        ):
            self._view_fallback(view, op, txn, rule)
            return
        stmt = op.statement
        cache_key = op.statement_text
        try:
            if (
                op.kind is OpKind.INSERT
                and isinstance(stmt, ast.InsertStmt)
                and stmt.select is None
            ):
                self._view_insert(view, stmt, txn)
            elif isinstance(stmt, ast.UpdateStmt):
                self._view_rewrite_update(view, stmt, txn, cache_key)
            elif isinstance(stmt, ast.DeleteStmt):
                self._view_rewrite_delete(view, stmt, txn, cache_key)
            else:
                self._view_fallback(view, op, txn, rule)
                return
        except CompileBarrier:
            self._view_fallback(view, op, txn, rule)
            return
        view.note_columnar_refresh()

    def _view_fallback(
        self,
        view: "MaterializedView",
        op: "OpDelta",
        txn: Transaction,
        rule: "DeltaRule | None",
    ) -> None:
        """Hybrid-plan barrier: the row path maintains the view for this op."""
        self.fallbacks += 1
        self._invalidate(view.definition.name)
        view.apply_operation(op, txn, rule=rule)

    def _view_insert(
        self, view: "MaterializedView", stmt: ast.InsertStmt, txn: Transaction
    ) -> None:
        base_columns = view.base_columns
        base_layout = row_layout(base_columns)

        def factory() -> tuple[Any, tuple[int, ...]]:
            qualify = compile_predicate(view.predicate, base_layout)
            project = tuple(
                base_layout[name] for name in view.definition.columns
            )
            return qualify, project

        qualify, project = self.kernels.get(
            ("view-insert", view.definition.name, self.plan_fingerprint),
            factory,
        )
        self._dispatch()
        # Base rows through the row path's own helper; a width mismatch
        # replays on the row path, which raises the view's error.
        try:
            base_rows = insert_rows(stmt, base_columns)
        except WarehouseError:
            raise CompileBarrier("INSERT width mismatch: row path raises") from None
        projected = [
            tuple(row[slot] for slot in project)
            for row in base_rows
            if qualify(row)
        ]
        if not projected:
            return
        row_ids = view.table.insert_batch(txn, projected)
        self.rows_batched += len(projected)
        image = self._images.get(view.definition.name)
        if image is not None:
            for row_id in row_ids:
                image.append(view.table.read(row_id), row_id=row_id)

    def _view_rewrite_update(
        self,
        view: "MaterializedView",
        stmt: ast.UpdateStmt,
        txn: Transaction,
        cache_key: str,
    ) -> None:
        image = self._image(view.table)

        def factory() -> tuple[Any, tuple[tuple[str, Any], ...]]:
            layout = row_layout(
                image.column_names, (view.definition.name, stmt.table)
            )
            return _update_kernels(stmt, view.narrowed(stmt.where), layout)

        predicate, assignments = self.kernels.get(
            (
                "view-update",
                view.definition.name,
                self.plan_fingerprint,
                cache_key,
            ),
            factory,
        )
        self._dispatch()
        self.rows_batched += _update_image(
            image, view.table, txn, predicate, assignments
        )

    def _view_rewrite_delete(
        self,
        view: "MaterializedView",
        stmt: ast.DeleteStmt,
        txn: Transaction,
        cache_key: str,
    ) -> None:
        image = self._image(view.table)
        predicate = self.kernels.get(
            (
                "view-delete",
                view.definition.name,
                self.plan_fingerprint,
                cache_key,
            ),
            lambda: compile_predicate(
                view.narrowed(stmt.where),
                row_layout(image.column_names, (view.definition.name, stmt.table)),
            ),
        )
        self._dispatch()
        self.rows_batched += _delete_from_image(
            image, view.table, txn, predicate
        )


def _update_kernels(
    stmt: ast.UpdateStmt, where: ast.Expression | None, layout: dict[str, int]
) -> tuple[Any, tuple[tuple[str, Any], ...]]:
    """The (predicate, assignment kernels) pair of a columnar UPDATE."""
    predicate = compile_predicate(where, layout)
    assignments = tuple(
        (a.column, compile_expression(a.expr, layout)) for a in stmt.assignments
    )
    return predicate, assignments


def _matching(image: ColumnBatch, predicate: Any) -> list[int]:
    """Live positions of ``image`` whose tuple satisfies ``predicate``."""
    return [
        pos
        for pos, (row, alive) in enumerate(zip(image.tuples, image.valid))
        if alive and predicate(row)
    ]


def _update_image(
    image: ColumnBatch,
    table: Table,
    txn: Transaction,
    predicate: Any,
    assignments: tuple[tuple[str, Any], ...],
) -> int:
    """Batch-update the matching rows; the image reads its own writes."""
    matched = _matching(image, predicate)
    tuples = image.tuples
    updates = [
        (
            image.row_ids[pos],
            {column: kernel(tuples[pos]) for column, kernel in assignments},
        )
        for pos in matched
    ]
    results = table.update_batch(txn, updates)
    for pos, (_old, new_values) in zip(matched, results):
        image.set_row(pos, new_values)
    return len(matched)


def _delete_from_image(
    image: ColumnBatch, table: Table, txn: Transaction, predicate: Any
) -> int:
    """Batch-delete the matching rows and mark them dead in the image."""
    matched = _matching(image, predicate)
    table.delete_batch(txn, [image.row_ids[pos] for pos in matched])
    for pos in matched:
        image.mark_deleted(pos)
    return len(matched)
