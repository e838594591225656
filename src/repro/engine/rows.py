"""Row codec: fixed-width binary records and record identifiers.

Rows travel through the engine as plain tuples (cheap, hashable); this module
turns them into the fixed-width byte records stored on pages and back.  The
layout is::

    [ null bitmap : ceil(ncols/8) bytes ][ col0 ][ col1 ] ... [ colN ]

Null columns still occupy their full width (zero filled) so the record size
is constant per table — matching the paper's "100-byte records".  Each
schema precompiles this layout as one :class:`struct.Struct`
(``TableSchema.record_struct``), so a row is packed or unpacked in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..errors import StorageError
from .schema import TableSchema


@dataclass(frozen=True, order=True)
class RowId:
    """Physical address of a record: (page number, slot number)."""

    page_no: int
    slot_no: int

    def __repr__(self) -> str:
        return f"RowId({self.page_no}:{self.slot_no})"


def encode_row(schema: TableSchema, values: Sequence[Any]) -> bytes:
    """Encode a validated value tuple into the schema's fixed-width record."""
    if len(values) != len(schema.columns):
        raise StorageError(
            f"cannot encode {len(values)} values into {len(schema.columns)}-column "
            f"record for {schema.name!r}"
        )
    fields = list(values)
    for slot, width in schema.char_slots:
        value = fields[slot]
        if value is not None:
            fields[slot] = value.encode("latin-1").ljust(width, b" ")
    nulls = 0
    if None in fields:
        for slot, value in enumerate(fields):
            if value is None:
                nulls |= 1 << slot
                fields[slot] = schema.null_fields[slot]
    bitmap = nulls.to_bytes(schema.null_bitmap_bytes, "little")
    return schema.record_struct.pack(bitmap, *fields)


def decode_row(schema: TableSchema, record: bytes) -> tuple[Any, ...]:
    """Decode a fixed-width record back into a value tuple."""
    if len(record) != schema.record_size:
        raise StorageError(
            f"record size {len(record)} does not match schema "
            f"{schema.name!r} ({schema.record_size} bytes)"
        )
    bitmap, *values = schema.record_struct.unpack(record)
    for slot, _width in schema.char_slots:
        values[slot] = values[slot].decode("latin-1").rstrip(" ")
    nulls = int.from_bytes(bitmap, "little")
    if nulls:
        for slot in range(len(values)):
            if nulls >> slot & 1:
                values[slot] = None
    return tuple(values)


def row_as_dict(schema: TableSchema, values: Sequence[Any]) -> dict[str, Any]:
    """Zip a value tuple with the schema's column names."""
    return dict(zip(schema.column_names, values))


#: NULL marker in dump files (the convention real loaders use); it cannot
#: collide with data because literal backslashes are escaped to ``\\``.
ASCII_NULL = "\\N"


def format_ascii(schema: TableSchema, values: Sequence[Any]) -> str:
    """Render a row as one pipe-delimited ASCII line (dump-file format).

    This is the format the DBMS ASCII Loader of Table 1 consumes.  NULL is
    rendered as ``\\N`` (distinguishing it from an empty string); pipes and
    backslashes in CHAR data are escaped.
    """
    fields = []
    for value in values:
        if value is None:
            fields.append(ASCII_NULL)
        elif isinstance(value, float):
            fields.append(repr(value))
        else:
            fields.append(str(value).replace("\\", "\\\\").replace("|", "\\|"))
    return "|".join(fields)


def parse_ascii(schema: TableSchema, line: str) -> tuple[Any, ...]:
    """Parse one pipe-delimited line back into a validated value tuple."""
    raw_fields: list[str] = []
    current: list[str] = []
    escaping = False
    for ch in line:
        if escaping:
            current.append(ch)
            escaping = False
        elif ch == "\\":
            current.append(ch)  # keep the escape; resolved per field below
            escaping = True
        elif ch == "|":
            raw_fields.append("".join(current))
            current = []
        else:
            current.append(ch)
    raw_fields.append("".join(current))
    if len(raw_fields) != len(schema.columns):
        raise StorageError(
            f"ASCII line has {len(raw_fields)} fields, schema {schema.name!r} "
            f"expects {len(schema.columns)}: {line!r}"
        )
    values: list[Any] = []
    for column, raw in zip(schema.columns, raw_fields):
        if raw == ASCII_NULL:
            values.append(None)
            continue
        text = _unescape(raw)
        type_name = column.datatype.name
        if type_name == "INTEGER":
            values.append(int(text))
        elif type_name in ("FLOAT", "TIMESTAMP"):
            values.append(float(text))
        else:
            values.append(text)
    return schema.validate_values(values)


def _unescape(raw: str) -> str:
    out: list[str] = []
    escaping = False
    for ch in raw:
        if escaping:
            out.append(ch)
            escaping = False
        elif ch == "\\":
            escaping = True
        else:
            out.append(ch)
    return "".join(out)
