"""Statement streams, pipelines and the correctness gate of the wall-clock
benchmark.

Three workloads drive the real Op-Delta pipeline through its public API
(see ``NOTES.md`` for why each was chosen):

* ``scan-replay``  -- range statements on the unindexed ``part_ref``,
  hybrid Op-Delta capture into a ``FileLogStore``, the ``PersistentQueue``
  and row-path ``OpDeltaIntegrator.integrate``;
* ``point-churn``  -- primary-key point statements with semantic checks,
  static analysis, a ``PipelineRecorder``, ``Coalescer`` compaction and
  ``integrate_batched(columnar=True)``;
* ``value-olap``   -- the ``scan-replay`` statement stream captured by
  ``TriggerExtractor`` row triggers and applied by
  ``ValueDeltaIntegrator``, with the standard OLAP queries after each
  window.

The program only ever sees generated SQL: a stream is a pure function of
its seed, so ``scan-replay`` and ``value-olap`` receive byte-identical
statements for one seed.
"""

from __future__ import annotations

import contextlib
import math
import random
import time
from dataclasses import dataclass

from repro.analysis import OpDeltaAnalyzer
from repro.analysis.certify import ScheduleCertifier
from repro.bench.experiments.common import build_workload_database
from repro.compaction import Coalescer
from repro.core import opdelta
from repro.core.capture import OpDeltaCapture
from repro.core.hybrid import ViewAwareHybridPolicy
from repro.core.selfmaint import ViewDefinition
from repro.core.stores import FileLogStore
from repro.extraction.trigger import TriggerExtractor
from repro.obs.metrics import MetricsRegistry
from repro.obs.pipeline import (
    PipelineAuditor,
    PipelineRecorder,
    StateDigest,
    observe_pipeline,
)
from repro.semantics import SchemaCatalog, ViewMaintenancePlanner
from repro.semantics.checker import SemanticChecker
from repro.sql.ast_nodes import sql_literal
from repro.transport import shipper
from repro.transport.queue import PersistentQueue
from repro.warehouse.olap import standard_queries
from repro.warehouse.opdelta_integrator import OpDeltaIntegrator
from repro.warehouse.value_integrator import ValueDeltaIntegrator
from repro.warehouse.warehouse import Warehouse
from repro.workloads.records import STATUSES, PartsGenerator, parts_schema, strip_timestamp

WORKLOADS = ("scan-replay", "point-churn", "value-olap")

TABLE_ROWS = 2_000
#: Rows touched by the price and status UPDATEs of a scan-replay window,
#: and the status the second one sets, by window.  The cycle repeats every
#: three windows and the DELETE/refill size is fixed, so all seeds carry
#: the same work and differ only in the rows and values they touch (the
#: view's membership, hence its maintenance, varies).  The sizes keep the
#: percentiles inside clusters of the latency distribution: the refill
#: transactions (a third) fall between the 10- and 50-row UPDATEs, so the
#: median lands among them, the 200-row UPDATEs (two ninths) hold the
#: p90, and the three window shapes are far apart, so the window median is
#: the middle one's.  The statuses keep about a fifth of the rows in the
#: view, as loaded.
UPDATE_SIZES = ((10, 10), (50, 50), (200, 200))
STATUS_CYCLE = ("revised", "revised", "active")
CHURN_ROWS = 20
POINT_TXNS_PER_WINDOW = 10
#: Scratch-row ids of point-churn: far above any id the table ever holds.
SCRATCH_BASE = 10_000_000

VIEW = ViewDefinition(
    name="revised_parts",
    base_table="parts",
    columns=("part_id", "status", "price"),
    predicate="status = 'revised'",
    key_column="part_id",
    base_columns=parts_schema().column_names,
)
_COLUMNS = ", ".join(parts_schema().column_names)


# ---------------------------------------------------------------- streams
class RangeStream:
    """scan-replay / value-olap windows: three range transactions each.

    Window = [UPDATE price over n1 rows], [UPDATE status over n2 rows],
    [DELETE ``CHURN_ROWS`` rows + one INSERT refilling as many fresh rows],
    with ``(n1, n2)`` the window's entry of ``UPDATE_SIZES``.  Ranges are
    on ``part_ref`` (unindexed) and chosen from the stream's own model of
    the live ids, so each statement touches exactly the rows it means to.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"range-{seed}")
        self._rows = PartsGenerator(seed=seed + 1)
        self._live = list(range(TABLE_ROWS))
        self._next_id = TABLE_ROWS
        self._windows = 0

    def _range(self, size: int) -> tuple[int, int, int]:
        start = self._rng.randrange(len(self._live) - size + 1)
        return start, self._live[start], self._live[start + size - 1] + 1

    def window(self) -> list[list[tuple[str, int]]]:
        """Transactions of ``(sql, expected rows affected)`` statements."""
        rng = self._rng
        turn = self._windows
        self._windows += 1
        n_price, n_status = UPDATE_SIZES[turn % len(UPDATE_SIZES)]
        _s, low, high = self._range(n_price)
        price = round(rng.uniform(1.0, 5000.0), 2)
        txn_price = [
            (
                f"UPDATE parts SET price = {price} "
                f"WHERE part_ref >= {low} AND part_ref < {high}",
                n_price,
            )
        ]
        _s, low, high = self._range(n_status)
        status = STATUS_CYCLE[turn % len(STATUS_CYCLE)]
        txn_status = [
            (
                f"UPDATE parts SET status = '{status}' "
                f"WHERE part_ref >= {low} AND part_ref < {high}",
                n_status,
            )
        ]
        start, low, high = self._range(CHURN_ROWS)
        del self._live[start : start + CHURN_ROWS]
        fresh = range(self._next_id, self._next_id + CHURN_ROWS)
        self._next_id += CHURN_ROWS
        self._live.extend(fresh)
        txn_churn = [
            (f"DELETE FROM parts WHERE part_ref >= {low} AND part_ref < {high}", CHURN_ROWS),
            (_insert_sql([self._rows.row(part_id) for part_id in fresh]), CHURN_ROWS),
        ]
        return [txn_price, txn_status, txn_churn]


class PointStream:
    """point-churn windows: ten transactions of four key-addressed statements.

    Each transaction updates two columns of one live row and inserts and
    deletes one scratch row.  The table's live set never changes.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"point-{seed}")
        self._rows = PartsGenerator(seed=seed + 1)
        self._scratch = SCRATCH_BASE

    def window(self) -> list[list[tuple[str, int]]]:
        rng = self._rng
        txns = []
        for _ in range(POINT_TXNS_PER_WINDOW):
            part_id = rng.randrange(TABLE_ROWS)
            scratch = self._scratch
            self._scratch += 1
            txns.append(
                [
                    (
                        f"UPDATE parts SET quantity = {rng.randrange(1000)} "
                        f"WHERE part_id = {part_id}",
                        1,
                    ),
                    (
                        f"UPDATE parts SET status = '{rng.choice(STATUSES)}' "
                        f"WHERE part_id = {part_id}",
                        1,
                    ),
                    (_insert_sql([self._rows.row(scratch)]), 1),
                    (f"DELETE FROM parts WHERE part_id = {scratch}", 1),
                ]
            )
        return txns


def _insert_sql(rows: list[tuple]) -> str:
    values = ", ".join(
        "(" + ", ".join(sql_literal(value) for value in row) + ")" for row in rows
    )
    return f"INSERT INTO parts ({_COLUMNS}) VALUES {values}"


def make_stream(workload: str, seed: int) -> RangeStream | PointStream:
    return PointStream(seed) if workload == "point-churn" else RangeStream(seed)


# -------------------------------------------------------------- pipelines
@dataclass
class Counters:
    """Deterministic per-run tallies read by the traced run."""

    statements_issued: int = 0
    rule_lookups: int = 0
    rule_cache_hits: int = 0
    columnar_rows: int = 0
    kernel_compiles: int = 0
    kernel_cache_hits: int = 0
    columnar_fallbacks: int = 0
    ops_in: int = 0
    ops_out: int = 0


class Pipeline:
    """Source, capture, transport and warehouse of one workload.

    ``__init__`` is the set-up: initial load, view initialisation, plan
    verification and integrator construction.  ``run_txn`` executes one
    source transaction with capture attached; ``maintain`` runs one
    maintenance window from drain to ack.
    """

    def __init__(self, workload: str, seed: int) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")
        self.workload = workload
        self.counters = Counters()
        self.schema = parts_schema()
        self.source, oltp = build_workload_database(
            TABLE_ROWS, name="bench-source", seed=seed
        )
        self.session = oltp.session
        self.clock = self.source.clock
        initial = [values for _rid, values in self.source.table("parts").scan()]

        self.warehouse = Warehouse("bench-wh", clock=self.clock)
        self.warehouse.create_mirror(self.schema)
        self.warehouse.initial_load_rows("parts", initial)
        self.view = self.warehouse.define_view(VIEW, self.schema)
        txn = self.warehouse.database.begin()
        self.view.initialize(initial, txn)
        self.warehouse.database.commit(txn)
        wh_session = self.warehouse.database.internal_session()

        self.recorder: PipelineRecorder | None = None
        self.components: list = []
        #: The first failures of statements and windows, for the report.
        self.errors: list[str] = []
        if workload == "value-olap":
            self.triggers = TriggerExtractor(self.source, "parts")
            self.triggers.install()
            self.value_integrator = ValueDeltaIntegrator(wh_session, views=[self.view])
            self.olap_session = self.warehouse.database.internal_session()
            self.queries = standard_queries(
                "parts",
                measure_column="price",
                group_column="supplier_id",
                filter_column="status",
                filter_value="revised",
            )
            return

        self.analyzer = OpDeltaAnalyzer(
            views=[VIEW],
            mirrored_tables={"parts"},
            key_columns={"parts": "part_id"},
            table_columns={"parts": self.schema.column_names},
        )
        plans = ViewMaintenancePlanner(SchemaCatalog([self.schema])).plan_catalog([VIEW])
        self.integrator = OpDeltaIntegrator(
            wh_session, views=[self.view], analyzer=self.analyzer, plans=plans
        )
        self.transport_metrics = MetricsRegistry()
        self.queue: PersistentQueue = PersistentQueue(
            self.clock, name="bench-queue", metrics=self.transport_metrics
        )
        self.store = FileLogStore(self.source)
        policy = ViewAwareHybridPolicy([VIEW])
        if workload == "scan-replay":
            self.capture = OpDeltaCapture(
                self.session, self.store, tables={"parts"}, hybrid_policy=policy
            )
        else:
            self.recorder = PipelineRecorder(clock=self.clock)
            self.capture = OpDeltaCapture(
                self.session,
                self.store,
                tables={"parts"},
                hybrid_policy=policy,
                analyzer=self.analyzer,
                checker=SemanticChecker(SchemaCatalog([self.schema])),
            )
            self.coalescer = Coalescer(analyzer=self.analyzer, clock=self.clock)
            self.certifier = ScheduleCertifier.for_analyzer(self.analyzer)
        self.capture.attach()

    def observing(self):
        """Context that routes lifecycle events to the recorder (if any)."""
        return observe_pipeline(self.recorder) if self.recorder else contextlib.nullcontext()

    # ---------------------------------------------------------- source side
    def run_txn(self, statements: list[tuple[str, int]]) -> int:
        """One source transaction; returns how many statements failed.

        A statement fails when it raises or touches another number of
        rows than the stream intended; a failing transaction rolls back.
        """
        session = self.session
        session.begin()
        for sql, expected in statements:
            try:
                affected = session.execute(sql).rows_affected
            except Exception as exc:  # noqa: BLE001 - counted and reported
                if session.in_transaction:
                    session.rollback()
                self.report_error(f"{sql[:60]}: {exc!r}")
                return len(statements)
            if affected != expected:
                session.rollback()
                self.report_error(f"{sql[:60]}: touched {affected} rows, not {expected}")
                return len(statements)
        session.commit()
        return 0

    def report_error(self, message: str) -> None:
        """Keep the first few failures for the run's report."""
        if len(self.errors) < 5:
            self.errors.append(message)

    # ------------------------------------------------------- warehouse side
    def maintain(self) -> None:
        """One maintenance window: drain, ship/queue, apply, ack."""
        if self.workload == "value-olap":
            batch = self.triggers.drain_to_batch()
            report = self.value_integrator.integrate(batch)
            self.counters.statements_issued += report.statements_issued
            return
        groups = self.store.drain()
        self.counters.ops_in += sum(len(group) for group in groups)
        if self.workload == "scan-replay":
            shipper.enqueue_op_deltas(self.queue, groups)
        else:
            shipper.enqueue_op_deltas(
                self.queue, groups, compactor=self.coalescer, certifier=self.certifier
            )
        received = self.queue.receive_window(limit=len(groups) + 1)
        payloads = [payload for _delivery, payload in received]
        self.counters.ops_out += sum(len(group) for group in payloads)
        if self.workload == "scan-replay":
            report = self.integrator.integrate(payloads)
        else:
            graph = self.analyzer.conflict_graph(payloads)
            report = self.integrator.integrate_batched(payloads, graph, columnar=True)
            self.components.extend(graph.components)
        self.queue.ack_window(delivery for delivery, _payload in received)
        c = self.counters
        c.statements_issued += report.statements_issued
        c.rule_lookups += report.rule_lookups
        c.rule_cache_hits += report.rule_cache_hits
        c.columnar_rows += report.columnar_rows
        c.kernel_compiles += report.kernel_compiles
        c.kernel_cache_hits += report.kernel_cache_hits
        c.columnar_fallbacks += report.columnar_fallbacks

    def olap(self) -> list[float]:
        """Run the OLAP mix on the mirror; wall milliseconds per query."""
        samples = []
        for query in self.queries:
            started = time.perf_counter()
            self.olap_session.execute(query.sql)
            samples.append((time.perf_counter() - started) * 1e3)
        return samples

    # --------------------------------------------------------------- counts
    def layer_counts(self) -> dict[str, float]:
        """Counts and ratios the pipeline objects keep themselves."""
        c = self.counters
        cache = opdelta.PARSE_CACHE
        counts = {
            "warehouse.statements_issued": c.statements_issued,
            "warehouse.rule_cache.hit_ratio": _ratio(c.rule_cache_hits, c.rule_lookups),
            "columnar.kernel_cache.hit_ratio": _ratio(
                c.kernel_cache_hits, c.kernel_cache_hits + c.kernel_compiles
            ),
            "columnar.fallbacks": c.columnar_fallbacks,
            "columnar.rows_changed": c.columnar_rows,
            "compaction.ops_out_ratio": _ratio(c.ops_out, c.ops_in),
            "core.parse_cache.hit_ratio": _ratio(cache.hits, cache.hits + cache.misses),
            "core.before_images": 0,
            "transport.bytes": 0,
            "transport.redeliveries": 0,
        }
        if self.workload != "value-olap":
            counts["core.before_images"] = self.capture.before_images_captured
            counts["transport.bytes"] = self.transport_metrics.counter(
                "transport.queue.bytes", queue=self.queue.name
            ).value
            counts["transport.redeliveries"] = self.queue.redelivered
        return counts

    # ----------------------------------------------------------------- gate
    def check(self) -> list[str]:
        """The correctness gate; returns the failed checks (empty = pass).

        * the mirror's XOR-SHA256 state digest equals the source's, with
          timestamps stripped;
        * the view equals ``MaterializedView.recompute`` over the mirror;
        * point-churn: the pipeline auditor is CLEAN and conservation holds;
        * value-olap: the OLAP answers on the mirror equal the source's.
        """
        failures = []
        source_rows = [v for _rid, v in self.source.table("parts").scan()]
        mirror_rows = [
            v for _rid, v in self.warehouse.database.table("parts").scan()
        ]
        expected = StateDigest.from_rows(strip_timestamp(self.schema, source_rows))
        actual = StateDigest.from_rows(strip_timestamp(self.schema, mirror_rows))
        if expected.value != actual.value:
            failures.append("mirror state digest differs from the source")
        if self.view.rows() != self.view.recompute(mirror_rows):
            failures.append("view differs from recompute over the mirror")
        if self.recorder is not None:
            audit = PipelineAuditor(self.recorder).audit(
                conflict_components=self.components
            )
            if audit.verdict != "CLEAN" or not audit.conservation_holds:
                failures.append(
                    f"pipeline audit {audit.verdict}, conservation "
                    f"{'holds' if audit.conservation_holds else 'broken'}"
                )
        if self.workload == "value-olap":
            source_session = self.source.internal_session()
            for query in self.queries:
                got = self.olap_session.execute(query.sql).rows
                want = source_session.execute(query.sql).rows
                if not _same_answer(got, want):
                    failures.append(f"OLAP query {query.name} differs from the source")
        return failures


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _same_answer(got: list[tuple], want: list[tuple]) -> bool:
    """Equal result sets; aggregates over floats may differ in the last bits
    because the mirror stores rows in another physical order."""
    if len(got) != len(want):
        return False
    for row_got, row_want in zip(sorted(got, key=repr), sorted(want, key=repr)):
        if len(row_got) != len(row_want):
            return False
        for a, b in zip(row_got, row_want):
            if isinstance(a, float) or isinstance(b, float):
                if a is None or b is None or not math.isclose(a, b, rel_tol=1e-9):
                    return False
            elif a != b:
                return False
    return True
