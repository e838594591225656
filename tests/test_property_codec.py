"""Property-based tests: row codec, ASCII format, SQL literal round trips."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.rows import decode_row, encode_row, format_ascii, parse_ascii
from repro.engine.schema import Column, TableSchema
from repro.engine.types import FLOAT, INTEGER, TIMESTAMP, char
from repro.sql.ast_nodes import sql_literal
from repro.sql.parser import parse_expression

# Ten columns: a 2-byte null bitmap, so NULLs past column 8 exercise its
# second byte.  CHAR(4) is small enough that full-width values are common.
SCHEMA = TableSchema(
    "t",
    [
        Column("id", INTEGER, nullable=False),
        Column("name", char(20)),
        Column("price", FLOAT),
        Column("ts", TIMESTAMP),
        Column("qty", INTEGER),
        Column("code", char(4)),
        Column("weight", FLOAT),
        Column("note", char(8)),
        Column("rank", INTEGER),
        Column("tag", char(4)),
    ],
    primary_key="id",
)

# latin-1 text without trailing spaces (CHAR strips them) or control chars.
_char_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=255),
    max_size=20,
).map(lambda s: s.rstrip(" "))


def _char(width: int) -> st.SearchStrategy:
    """CHAR(width) values: NULL, the empty string, full width, or anything."""
    text = st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=255),
        min_size=width,
        max_size=width,
    )
    # Cutting to width can expose an inner space as a trailing one.
    truncated = _char_text.map(lambda s: s[:width].rstrip(" "))
    return st.one_of(st.none(), st.just(""), text, truncated)


_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_ints = st.integers(min_value=-(2**63), max_value=2**63 - 1)

_rows = st.tuples(
    _ints,
    st.one_of(st.none(), _char_text),
    st.one_of(st.none(), _floats),
    st.one_of(st.none(), _floats),
    st.one_of(st.none(), _ints),
    _char(4),
    st.one_of(st.none(), _floats),
    _char(8),
    st.one_of(st.none(), _ints),
    _char(4),
)


def test_schema_needs_a_two_byte_null_bitmap():
    assert len(SCHEMA) >= 9
    assert SCHEMA.null_bitmap_bytes == 2


@given(_rows)
# The empty string is stored as all spaces, not as NULL's zero fill.
@example((1, "", None, None, None, "", None, "", None, None))
# Full-width CHARs next to a NULL in the bitmap's second byte.
@example((2, "x" * 20, 1.5, 2.5, 3, "abcd", 6.5, "12345678", None, "wxyz"))
@example((3, None, None, None, None, None, None, None, None, ""))
def test_binary_codec_roundtrip(row):
    validated = SCHEMA.validate_values(row)
    record = encode_row(SCHEMA, validated)
    assert len(record) == SCHEMA.record_size
    assert decode_row(SCHEMA, record) == validated
    # The bitmap flags exactly the NULL slots, the second byte included.
    nulls = int.from_bytes(record[: SCHEMA.null_bitmap_bytes], "little")
    assert [bool(nulls >> slot & 1) for slot in range(len(row))] == [
        value is None for value in validated
    ]


@given(_rows)
def test_ascii_roundtrip(row):
    validated = SCHEMA.validate_values(row)
    line = format_ascii(SCHEMA, validated)
    assert "\n" not in line
    assert parse_ascii(SCHEMA, line) == validated


@given(
    st.one_of(
        st.none(),
        st.integers(min_value=-(2**62), max_value=2**62),
        _floats,
        st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=255),
            max_size=30,
        ),
    )
)
@settings(max_examples=200)
def test_sql_literal_roundtrip(value):
    """Rendering a value as a SQL literal and re-parsing it preserves it.

    This property underpins Op-Delta: captured statements render row values
    as literals, and the warehouse re-parses them.
    """
    from repro.sql.expressions import evaluate

    rendered = sql_literal(value)
    parsed = evaluate(parse_expression(rendered), {})
    assert parsed == value
