"""Property-based tests: the SQL engine against an in-memory oracle.

Random predicates over random tables: the executor's SELECT/UPDATE/DELETE
must match a straightforward Python evaluation of the same predicate.
Also: statement -> to_sql -> parse is a fixpoint.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Column, Database, TableSchema
from repro.engine.types import INTEGER, char
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse

SCHEMA = TableSchema(
    "t",
    [
        Column("k", INTEGER, nullable=False),
        Column("a", INTEGER, nullable=False),
        Column("b", char(4), nullable=False),
    ],
    primary_key="k",
)

_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),
        st.sampled_from(["xx", "yy", "zz"]),
    ),
    max_size=25,
)

_a_bounds = st.integers(min_value=-5, max_value=45)
_b_values = st.sampled_from(["xx", "yy", "zz", "ww"])


def build_table(rows):
    database = Database("prop-sql")
    database.create_table(SCHEMA)
    session = database.internal_session()
    table_rows = []
    for key, (a, b) in enumerate(rows):
        session.execute(f"INSERT INTO t VALUES ({key}, {a}, '{b}')")
        table_rows.append((key, a, b))
    return database, session, table_rows


class Predicate:
    def __init__(self, sql: str, fn):
        self.sql = sql
        self.fn = fn


def predicates(low, high, b):
    return [
        Predicate(f"a >= {low}", lambda r: r[1] >= low),
        Predicate(f"a < {high}", lambda r: r[1] < high),
        Predicate(
            f"a BETWEEN {low} AND {high}",
            lambda r: low <= r[1] <= high,
        ),
        Predicate(f"b = '{b}'", lambda r: r[2] == b),
        Predicate(
            f"a > {low} AND b <> '{b}'",
            lambda r: r[1] > low and r[2] != b,
        ),
        Predicate(
            f"a IN ({low}, {high}) OR b = '{b}'",
            lambda r: r[1] in (low, high) or r[2] == b,
        ),
    ]


@given(_rows, _a_bounds, _a_bounds, _b_values)
@settings(max_examples=40, deadline=None)
def test_select_matches_oracle(rows, low, high, b):
    database, session, table_rows = build_table(rows)
    for predicate in predicates(low, high, b):
        result = session.query(f"SELECT * FROM t WHERE {predicate.sql}")
        expected = [r for r in table_rows if predicate.fn(r)]
        assert sorted(result) == sorted(expected), predicate.sql


@given(_rows, _a_bounds, _b_values)
@settings(max_examples=30, deadline=None)
def test_delete_matches_oracle(rows, low, b):
    database, session, table_rows = build_table(rows)
    predicate = f"a >= {low} AND b = '{b}'"
    result = session.execute(f"DELETE FROM t WHERE {predicate}")
    expected_deleted = [r for r in table_rows if r[1] >= low and r[2] == b]
    assert result.rows_affected == len(expected_deleted)
    remaining = session.query("SELECT * FROM t")
    assert sorted(remaining) == sorted(
        r for r in table_rows if not (r[1] >= low and r[2] == b)
    )


@given(_rows, _a_bounds)
@settings(max_examples=30, deadline=None)
def test_update_matches_oracle(rows, low):
    database, session, table_rows = build_table(rows)
    result = session.execute(f"UPDATE t SET a = a + 100 WHERE a < {low}")
    expected = [
        (k, a + 100 if a < low else a, b) for k, a, b in table_rows
    ]
    assert result.rows_affected == sum(1 for _k, a, _b in table_rows if a < low)
    assert sorted(session.query("SELECT * FROM t")) == sorted(expected)


@given(_rows, _a_bounds, _a_bounds, _b_values)
@settings(max_examples=30, deadline=None)
def test_aggregates_match_oracle(rows, low, high, b):
    database, session, table_rows = build_table(rows)
    count = session.scalar(f"SELECT COUNT(*) FROM t WHERE a >= {low}")
    assert count == sum(1 for r in table_rows if r[1] >= low)
    matching = [r[1] for r in table_rows if r[2] == b]
    total = session.query(f"SELECT SUM(a) FROM t WHERE b = '{b}'")[0][0]
    assert total == (sum(matching) if matching else None)


@given(_a_bounds, _a_bounds, _b_values)
@settings(max_examples=50, deadline=None)
def test_to_sql_is_parse_fixpoint(low, high, b):
    for predicate in predicates(low, high, b):
        for template in (
            f"SELECT k, a FROM t WHERE {predicate.sql}",
            f"UPDATE t SET a = a + 1 WHERE {predicate.sql}",
            f"DELETE FROM t WHERE {predicate.sql}",
        ):
            first = parse(template)
            rendered = first.to_sql()
            assert parse(rendered).to_sql() == rendered


#: Literals probed against the indexed key: in range, NULL, and values of
#: another type, which the index must not see.
_probe_literals = st.one_of(
    st.integers(min_value=-2, max_value=30).map(str),
    st.sampled_from(["NULL", "'x'", "'7'", "2.5"]),
)


def _outcome(session, sql):
    """Sorted rows, or the (type, message) of the error the query raised."""
    try:
        return sorted(session.query(sql))
    except Exception as exc:  # the error is the outcome being compared
        return (type(exc), str(exc))


@given(_rows, st.sampled_from(["=", "<", "<=", ">", ">="]), _probe_literals)
@settings(max_examples=40, deadline=None)
def test_index_and_scan_paths_agree(rows, op, literal):
    """The same query through the PK index and a forced scan must agree.

    The scan goes through an arithmetic identity the planner cannot match
    to the index.  NULL and mistyped literals must give the scan's result,
    or its exact error, whether or not an index exists.
    """
    database, session, table_rows = build_table(rows)
    if table_rows:
        key = table_rows[len(table_rows) // 2][0]
        indexed = session.execute(f"SELECT * FROM t WHERE k = {key}")
        assert "index" in indexed.plan
        scanned = session.execute(f"SELECT * FROM t WHERE k + 0 = {key}")
        assert "scan" in scanned.plan
        assert sorted(indexed.rows) == sorted(scanned.rows)
    for template in ("SELECT * FROM t WHERE {}", "SELECT COUNT(*) FROM t WHERE {}"):
        indexed = _outcome(session, template.format(f"k {op} {literal}"))
        scanned = _outcome(session, template.format(f"k + 0 {op} {literal}"))
        assert indexed == scanned, (op, literal)
