"""Columnar hot path: batches, compiled kernels, group-apply.

The row-at-a-time apply path interprets every delta rule per row with
dict environments; this package executes them per **batch**:

* :mod:`~repro.columnar.batch` — :class:`ColumnBatch`, a table image of
  one row tuple per position with a per-window row-id space, built from
  one engine-table scan;
* :mod:`~repro.columnar.kernels` — :class:`KernelCache`, which keeps the
  ``row -> value`` closures of :mod:`repro.sql.compiler` once per
  ``(plan fingerprint, table, kind, view)``;
* :mod:`~repro.columnar.apply` — :class:`ColumnarApplier`, the columnar
  group-apply mode of the op-delta integrator, with row-path fallback
  barriers that preserve bit-for-bit state parity.
"""

# ``apply`` first: it pulls in ``repro.engine`` before anything touches
# ``repro.sql``, which keeps this package importable on its own (the SQL
# front end cannot initialise before the engine — see ``engine.remote``).
from .apply import ColumnarApplier
from .batch import ColumnBatch
from .kernels import KernelCache

__all__ = [
    "ColumnBatch",
    "ColumnarApplier",
    "KernelCache",
]
