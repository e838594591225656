"""ColumnBatch: a window's table image, one row tuple per position.

The row-at-a-time apply path re-scans the table for every statement; a
:class:`ColumnBatch` instead holds the image of one scan: a row tuple per
position, a validity vector (live / deleted-in-window) and -- when the
batch mirrors an engine table -- the physical
:class:`~repro.engine.rows.RowId` of each position.  Positions form the
*per-window row-id space*: compiled kernels are called on the tuple at a
position, and converters map positions back to physical row ids at
commit time.

A batch is built from an engine table by one costed scan; that single
scan then serves every statement of a conflict component.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.rows import RowId
    from ..engine.table import Table


class ColumnBatch:
    """Row tuples per position, a validity vector, and row ids."""

    __slots__ = ("column_names", "tuples", "valid", "row_ids")

    def __init__(self, column_names: Sequence[str]) -> None:
        #: Column names in slot order; kernels bind slots at compile time.
        self.column_names: tuple[str, ...] = tuple(column_names)
        #: The row tuple at each position.
        self.tuples: list[tuple[Any, ...]] = []
        #: Per-position liveness: False once deleted within the window.
        self.valid: list[bool] = []
        #: Physical row id per position (None for rows not yet stored).
        self.row_ids: list["RowId | None"] = []

    # ------------------------------------------------------------ construction
    @classmethod
    def from_table(cls, table: "Table") -> "ColumnBatch":
        """One costed scan of an engine table into the image.

        This is the only place the columnar path pays scan CPU: the
        resulting image then serves *every* statement of the component,
        where the row path re-scans per statement.
        """
        batch = cls(table.schema.column_names)
        append_row = batch.tuples.append
        append_rid = batch.row_ids.append
        for row_id, values in table.scan():
            append_row(values)
            append_rid(row_id)
        batch.valid = [True] * len(batch.tuples)
        return batch

    # ---------------------------------------------------------------- mutation
    def append(
        self, values: Sequence[Any], row_id: "RowId | None" = None
    ) -> int:
        """Append one row; returns its position (window row id)."""
        if len(values) != len(self.column_names):
            raise ValueError(
                f"row width {len(values)} does not match batch width "
                f"{len(self.column_names)}"
            )
        self.tuples.append(tuple(values))
        self.valid.append(True)
        self.row_ids.append(row_id)
        return len(self.valid) - 1

    def set_row(self, position: int, values: Sequence[Any]) -> None:
        """Replace a position's tuple with updated values (read-your-writes)."""
        self.tuples[position] = tuple(values)

    def mark_deleted(self, position: int) -> None:
        self.valid[position] = False

    # ------------------------------------------------------------------ access
    @property
    def num_rows(self) -> int:
        """All positions ever allocated in this window's row-id space."""
        return len(self.valid)

    @property
    def live_count(self) -> int:
        return sum(1 for alive in self.valid if alive)

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ColumnBatch(columns={len(self.column_names)}, rows={self.num_rows}, "
            f"live={self.live_count})"
        )
