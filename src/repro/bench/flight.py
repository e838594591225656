"""``repro-bench --flight``: the flight-recorded pipeline run.

Drives the seed workload through the flagship capture → queue → batched
apply pipeline in **windows** (the shared
:class:`~repro.bench.seeded.WindowedRun`), with the full observability
stack on:

* a :class:`~repro.obs.pipeline.PipelineRecorder` carrying a
  :class:`~repro.obs.flight.FlightRecorder` that samples lags, per-view
  staleness, watermarks, queue depth and the metrics registry on every
  shipped window;
* a :class:`~repro.obs.tracing.Tracer` whose span tree the
  :class:`~repro.obs.flight.CostAttributor` folds into the exact
  per-(stage × entity) cost ledger;
* an :class:`~repro.obs.flight.SLOEngine` with a freshness objective on
  the ``parts_catalog`` view and a latency objective on the end-to-end
  lag, evaluated at every window boundary.

The workload has a **seeded load spike** baked into its window schedule
(:data:`WINDOW_TXNS`): the apply side drains at most
:data:`~repro.bench.seeded.APPLY_BUDGET` queue messages per window, so the spike windows
outrun the consumer, backlog builds, the view goes stale, and the
freshness SLO's burn-rate alert must fire — then clear once the cooldown
windows drain the backlog.  Everything runs on the virtual clock, so the
whole :class:`FlightReport` (timeline dump included) is byte-identical
across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any

from .seeded import APPLY_BUDGET, SHORT_WINDOW_MS, WindowedRun

#: Version of the ``--flight --json`` document layout.  Bump on any
#: structural change to :meth:`FlightReport.to_dict`.
SCHEMA_VERSION = 1

#: Source transactions per window: steady state, a 3-window load spike,
#: then a cooldown during which the consumer drains the backlog.
WINDOW_TXNS = (2, 2, 2, 6, 6, 6, 2, 1, 1, 1)
#: Windows (0-based) that carry the seeded spike.
SPIKE_WINDOWS = (3, 4, 5)
#: Rows seeded into the source ``parts`` table.
TABLE_ROWS = 200
#: Rows touched by each source transaction's UPDATE.
TXN_ROWS = 8


@dataclass
class FlightReport:
    """One flight-recorded pipeline run, as plain data."""

    sampled: bool = True
    final_virtual_ms: float = 0.0
    #: Per-window timeline rows, in schedule order.
    windows: list[dict[str, Any]] = field(default_factory=list)
    #: SLO state transitions, in evaluation order (dicts of SLOFinding).
    findings: list[dict[str, Any]] = field(default_factory=list)
    #: The SLO engine's objectives + full finding history.
    slo: dict[str, Any] = field(default_factory=dict)
    #: The time-series store dump (empty when ``sampled`` is off).
    store: dict[str, Any] = field(default_factory=dict)
    #: The conservative cost ledger (:meth:`CostLedger.to_dict`).
    ledger: dict[str, Any] = field(default_factory=dict)

    @property
    def spike_detected(self) -> bool:
        """Did a freshness alert fire and later clear?"""
        fired = [f["at_ms"] for f in self.findings if f["code"] == "SLO001"]
        cleared = [f["at_ms"] for f in self.findings if f["code"] == "SLO002"]
        return bool(fired) and bool(cleared) and min(fired) < max(cleared)

    @property
    def conservative(self) -> bool:
        return bool(self.ledger.get("conservative"))

    @property
    def all_clear(self) -> bool:
        """No objective still firing at the end of the run."""
        return not any(
            objective["firing"] for objective in self.slo.get("objectives", ())
        )

    @property
    def exit_code(self) -> int:
        """0 = spike alert fired and cleared, and the ledger is exact."""
        if not self.sampled:
            return 0
        healthy = self.spike_detected and self.all_clear and self.conservative
        return 0 if healthy else 1

    def top(self, k: int = 8) -> list[dict[str, Any]]:
        """The k most expensive cost-ledger rows."""
        return list(self.ledger.get("rows", ()))[:k]

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "sampled": self.sampled,
            "exit_code": self.exit_code,
            "spike_detected": self.spike_detected,
            "all_clear": self.all_clear,
            "conservative": self.conservative,
            "final_virtual_ms": self.final_virtual_ms,
            "windows": self.windows,
            "findings": self.findings,
            "slo": self.slo,
            "store": self.store,
            "ledger": self.ledger,
        }


def _window_workload(session, window: int, txns: int) -> None:
    """One window's source transactions (disjoint row ranges per txn)."""
    for txn in range(txns):
        low = ((window * 7 + txn) * TXN_ROWS) % TABLE_ROWS
        high = low + TXN_ROWS
        base = 800_000 + window * 100 + txn * 10
        session.begin()
        session.execute(
            f"UPDATE parts SET quantity = quantity + 1 "
            f"WHERE part_ref >= {low} AND part_ref < {high}"
        )
        session.execute(
            f"UPDATE parts SET status = 'w{window}' "
            f"WHERE part_ref >= {low} AND part_ref < {high}"
        )
        session.execute(
            "INSERT INTO parts (part_id, part_ref, part_no, description, "
            "status, quantity, price, last_modified, supplier_id) VALUES "
            f"({base}, {base}, 'PN-{base}', 'flight row', 'new', 1, 9.5, 0, 7)"
        )
        session.commit()


def run_flight(sample: bool = True) -> FlightReport:
    """Run the windowed spike scenario under the full flight stack.

    With ``sample=False`` the flight recorder is absent (no store, no SLO
    engine) but the workload, tracer and pipeline are identical — the
    obs-overhead bench asserts the final virtual time matches exactly.
    """
    report = FlightReport(sampled=sample)
    with WindowedRun("flight", TABLE_ROWS, sample=sample) as run:

        def record(txns: int, enqueued: int, applied: int) -> None:
            now, findings = run.observe_now()
            index = len(report.windows)
            view = run.recorder.views.get("parts_catalog")
            high_ms = run.recorder.source_high_ms()
            staleness = 0.0 if view is None else view.staleness_ms(high_ms)
            report.windows.append(
                {
                    "window": index,
                    "at_ms": now,
                    "txns": txns,
                    "spike": index in SPIKE_WINDOWS,
                    "enqueued": enqueued,
                    "applied": applied,
                    "queue_depth": run.backlog,
                    "staleness_ms": staleness,
                    "findings": [f.to_dict() for f in findings],
                }
            )

        for index, txns in enumerate(WINDOW_TXNS):
            record(
                txns,
                *run.window(
                    partial(_window_workload, window=index, txns=txns),
                    APPLY_BUDGET,
                ),
            )
        # Post-schedule drain: the consumer keeps its per-window budget
        # until the backlog is gone, evaluating the SLOs each round so a
        # recovery is observed (and the alert clears) at a real instant.
        while run.backlog:
            record(0, *run.window(None, APPLY_BUDGET))
        # Quiet period: advance virtual time past the short burn window
        # with read-only warehouse queries, then evaluate once more — with
        # no fresh violating samples in the window, every alert must clear.
        reader = run.warehouse.database.internal_session()
        quiet_until = run.clock.now + SHORT_WINDOW_MS
        while run.clock.now <= quiet_until:
            reader.execute("SELECT * FROM parts WHERE part_id = 0")
        if sample:
            record(0, 0, 0)

    report.final_virtual_ms = run.clock.now
    report.findings = [finding.to_dict() for finding in run.engine.history]
    if sample:
        report.slo = run.engine.to_dict()
        report.store = run.flight.store.to_dict()
    report.ledger = run.ledger().to_dict()
    return report
