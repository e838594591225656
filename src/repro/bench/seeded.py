"""The seeded Op-Delta pipeline the report passes share.

``--health``, ``--certify``, ``--flight``, ``--forensics`` and the
compaction experiment all drive one pipeline: the populated source
``parts`` table under :class:`~repro.core.capture.OpDeltaCapture`, and a
warehouse holding its mirror and the ``parts_catalog`` view behind an
:class:`~repro.warehouse.OpDeltaIntegrator`.  It is built here once; a
pass keeps only its workload, timeline rows, checks and report.

Every piece shares the source's virtual clock, and a database binds the
ambient registry and tracer when it is constructed, so each helper must
run where the pass needs that piece built.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any, Callable

from ..analysis import OpDeltaAnalyzer
from ..clock import VirtualClock
from ..core.capture import OpDeltaCapture
from ..core.stores import FileLogStore
from ..engine.database import Database
from ..engine.session import Session
from ..obs.context import observe
from ..obs.flight import (
    CostAttributor,
    CostLedger,
    FlightRecorder,
    FreshnessSLO,
    LatencySLO,
    SLOEngine,
    SLOFinding,
    TimeSeriesStore,
)
from ..obs.metrics import MetricsRegistry
from ..obs.pipeline import PipelineRecorder, observe_pipeline
from ..obs.tracing import Tracer
from ..semantics import SchemaCatalog, SemanticChecker
from ..transport.queue import PersistentQueue
from ..transport.shipper import enqueue_op_deltas
from ..warehouse.opdelta_integrator import OpDeltaIntegrator
from ..warehouse.warehouse import Warehouse
from ..workloads.records import parts_schema, strip_timestamp
from .experiments.common import build_workload_database
from .experiments.compaction import build_analyzer, run_workload

#: Source rows of the smoke-sized seed workload (health and certify):
#: smaller than the compaction experiment's defaults, since those passes
#: run whole pipelines on the smoke path.
SMOKE_TABLE_ROWS = 400
#: Rows per range statement of the smoke-sized seed workload.
SMOKE_TXN_ROWS = 10

#: SLO objectives of the windowed passes (virtual ms): the freshness
#: objective on the ``parts_catalog`` view, the latency objective on the
#: end-to-end per-window mean lag, and the burn-rate windows — tight
#: enough that a seeded spike or stall fires them.
FRESHNESS_TARGET_MS = 120.0
LATENCY_TARGET_MS = 400.0
SHORT_WINDOW_MS = 60.0
LONG_WINDOW_MS = 300.0
#: Queue messages the consumer applies per window (its fixed capacity).
APPLY_BUDGET = 3


def run_smoke_workload(session: Session) -> None:
    """The seed workload at smoke size."""
    run_workload(
        session,
        fold_txns=3,
        churn_txns=2,
        scratch_txns=2,
        inserts_per_txn=4,
        txn_rows=SMOKE_TXN_ROWS,
    )


@dataclass
class SeedSource:
    """The seed source database with Op-Delta capture attached."""

    database: Database
    session: Session
    store: FileLogStore
    capture: OpDeltaCapture
    #: The ``parts`` rows before any workload ran.
    initial_rows: list[tuple]


def seed_source(
    name: str, table_rows: int, analyzer: OpDeltaAnalyzer, checker: bool = False
) -> SeedSource:
    """A populated source named ``name``, captured on ``parts``.

    With ``checker`` the capture validates every statement against the
    source catalog first.
    """
    database, workload = build_workload_database(table_rows, name=name)
    initial_rows = [values for _rid, values in database.table("parts").scan()]
    store = FileLogStore(database)
    capture = OpDeltaCapture(
        workload.session,
        store,
        tables={"parts"},
        analyzer=analyzer,
        checker=(
            SemanticChecker(SchemaCatalog.from_database(database))
            if checker
            else None
        ),
    )
    capture.attach()
    return SeedSource(database, workload.session, store, capture, initial_rows)


def seed_warehouse(
    name: str,
    clock: VirtualClock,
    initial_rows: list[tuple],
    analyzer: OpDeltaAnalyzer,
    **integrator_options: Any,
) -> tuple[Warehouse, OpDeltaIntegrator]:
    """A warehouse mirroring ``parts`` with the analyzer's view on it.

    The mirror is loaded with ``initial_rows`` and the view initialised
    from them in one transaction; ``integrator_options`` pass through to
    the :class:`~repro.warehouse.OpDeltaIntegrator`.
    """
    schema = parts_schema()
    warehouse = Warehouse(name, clock=clock)
    warehouse.create_mirror(schema)
    warehouse.initial_load_rows("parts", initial_rows)
    view = warehouse.define_view(analyzer.views[0], schema)
    txn = warehouse.database.begin()
    view.initialize(initial_rows, txn)
    warehouse.database.commit(txn)
    integrator = OpDeltaIntegrator(
        warehouse.database.internal_session(),
        views=[view],
        analyzer=analyzer,
        **integrator_options,
    )
    return warehouse, integrator


def parts_rows(database: Database) -> list[tuple]:
    """The ``parts`` rows of ``database`` with the timestamp stripped."""
    return strip_timestamp(
        parts_schema(), [v for _rid, v in database.table("parts").scan()]
    )


class WindowedRun:
    """The seed pipeline driven in windows under full observability.

    Owns the registry, tracer, flight recorder and SLO engine.  Entering
    installs the registry and tracer, then builds inside them (so both
    sides' spans reach the cost ledger) the checked source
    ``<name>-source``, the recorder, the warehouse ``<name>-wh`` and the
    metered queue ``<name>``; exiting detaches the capture.  With
    ``sample=False`` no flight recorder is attached and no SLO is
    evaluated, but the pipeline is identical.
    """

    def __init__(self, name: str, table_rows: int, sample: bool = True) -> None:
        self.name = name
        self.table_rows = table_rows
        self.sample = sample
        self.analyzer = build_analyzer()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.flight = FlightRecorder(store=TimeSeriesStore(), metrics=self.metrics)
        self.engine = SLOEngine(
            self.flight.store,
            [
                FreshnessSLO(
                    "parts_catalog",
                    target_ms=FRESHNESS_TARGET_MS,
                    short_window_ms=SHORT_WINDOW_MS,
                    long_window_ms=LONG_WINDOW_MS,
                ),
                LatencySLO(
                    "end_to_end",
                    target_ms=LATENCY_TARGET_MS,
                    short_window_ms=SHORT_WINDOW_MS,
                    long_window_ms=LONG_WINDOW_MS,
                ),
            ],
        )

    def __enter__(self) -> WindowedRun:
        # A failed set-up unwinds the ambient contexts it entered.
        with ExitStack() as stack:
            stack.enter_context(observe(metrics=self.metrics, tracer=self.tracer))
            self.source = seed_source(
                f"{self.name}-source", self.table_rows, self.analyzer, checker=True
            )
            self.clock = self.source.database.clock
            self.recorder = PipelineRecorder(
                clock=self.clock,
                metrics=self.metrics,
                flight=self.flight if self.sample else None,
            )
            stack.enter_context(observe_pipeline(self.recorder))
            self.warehouse, self.integrator = seed_warehouse(
                f"{self.name}-wh", self.clock, self.source.initial_rows, self.analyzer
            )
            self.queue: PersistentQueue = PersistentQueue(
                self.clock, name=self.name, metrics=self.metrics
            )
            if self.sample:
                self.flight.watch_queue(self.queue)
            self._stack = stack.pop_all()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.source.capture.detach()
        self._stack.__exit__(*exc_info)

    @property
    def backlog(self) -> int:
        """Queue messages not yet applied (ready plus in flight)."""
        return len(self.queue) + self.queue.in_flight

    def window(
        self, workload: Callable[[Session], None] | None, budget: int
    ) -> tuple[int, int]:
        """One window: run ``workload`` on the source and enqueue what it
        captured, then apply at most ``budget`` queue messages as one
        batched window.  Returns ``(enqueued, applied)``; a ``None``
        workload only drains, ``budget=0`` stalls the consumer.
        """
        enqueued = 0
        if workload is not None:
            workload(self.source.session)
            enqueued = enqueue_op_deltas(self.queue, self.source.store.drain())
        if budget == 0:
            return enqueued, 0
        window = self.queue.receive_window(limit=budget)
        if window:
            payloads = [payload for _id, payload in window]
            graph = self.analyzer.conflict_graph(payloads)
            self.integrator.integrate_batched(payloads, graph=graph)
            self.queue.ack_window(did for did, _payload in window)
        return enqueued, len(window)

    def observe_now(self) -> tuple[float, list[SLOFinding]]:
        """Sample the flight series and evaluate the SLOs at the current
        virtual instant; returns it and the new SLO findings."""
        now = self.clock.now
        if not self.sample:
            return now, []
        self.flight.sample_now(self.recorder, now)
        return now, self.engine.evaluate(now)

    def ledger(self) -> CostLedger:
        """The per-(stage x entity) cost ledger of everything traced."""
        return CostAttributor().attribute(self.tracer)
