"""Wall-clock span tracer for the benchmark's traced run.

The tracer wraps the public entry points of each layer of ``repro`` from
outside the package (in-program tracing would break REPRO001, which keeps
telemetry inside ``src/repro`` deterministic).  Every wrapped call is a
span: name, start, end, parent, plus the window id and transaction id the
benchmark sets while it drives that window or transaction.

Self time is a span's length minus the time its child spans cover; it is
accumulated on a stack as calls return, so the self times of all spans
plus the time in no span add up to the measured interval exactly.

Three kinds of entry point need care:

* ``fold`` -- hot leaves called once per row (``decode_row``, per-row
  table DML, ...).  Their time and calls are tallied like any span, but
  no span record is kept: a run makes millions of them.
* ``top`` -- ``sql.evaluate`` recurses through its own module; only the
  outermost call counts.
* ``gen`` -- ``Table.scan`` is a generator: each resume is timed as a
  folded span, so the scan is timed across its iteration and rows are
  the items it yielded.

Spans are kept in memory and written out as Chrome-trace JSON (``ph: "X"``
complete events in microseconds, the format ``repro-bench --trace`` uses
for virtual spans) when the run ends, so a run opens in Perfetto.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: Layers in report order; every entry point belongs to exactly one.
LAYERS = (
    "engine",
    "sql",
    "semantics",
    "analysis",
    "core",
    "compaction",
    "transport",
    "warehouse",
    "columnar",
    "extraction",
    "obs",
)


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``owner.attr`` is a class or module attribute."""

    name: str  # metric prefix, ``<layer>.<entry>``
    owner: str  # dotted module path, or ``module:Class``
    attrs: tuple[str, ...]
    kind: str = "call"  # call | fold | top | gen
    #: ``result -> rows`` tally for entry points that report rows.
    rows: Callable[[Any], int] | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _rows_affected(result: Any) -> int:
    return getattr(result, "rows_affected", 0) or 0


ENTRY_POINTS = (
    # engine: row codec, heap/table access, commit
    EntryPoint("engine.decode_row", "repro.engine.rows", ("decode_row",), "fold"),
    EntryPoint("engine.encode_row", "repro.engine.rows", ("encode_row",), "fold"),
    EntryPoint("engine.scan", "repro.engine.table:Table", ("scan",), "gen"),
    EntryPoint(
        "engine.table",
        "repro.engine.table:Table",
        (
            "insert",
            "insert_many",
            "update",
            "delete",
            "insert_batch",
            "update_batch",
            "delete_batch",
            "lookup",
            "read",
            "truncate",
        ),
        "fold",
    ),
    EntryPoint("engine.commit", "repro.engine.database:Database", ("commit", "abort")),
    # sql: parser, executor, interpreted expressions
    EntryPoint("sql.parse", "repro.sql.parser", ("parse",)),
    EntryPoint(
        "sql.execute", "repro.sql.executor:Executor", ("execute",), rows=_rows_affected
    ),
    EntryPoint("sql.evaluate", "repro.sql.expressions", ("evaluate",), "top"),
    # semantics
    EntryPoint(
        "semantics.check", "repro.semantics.checker:SemanticChecker", ("check_statement",)
    ),
    # analysis
    EntryPoint(
        "analysis.analyze_statement",
        "repro.analysis.analyzer:OpDeltaAnalyzer",
        ("analyze_statement",),
    ),
    EntryPoint(
        "analysis.conflict_graph",
        "repro.analysis.analyzer:OpDeltaAnalyzer",
        ("conflict_graph",),
    ),
    EntryPoint(
        "analysis.certify",
        "repro.analysis.certify.certifier:ScheduleCertifier",
        ("certify", "certify_serial", "verify_compaction"),
    ),
    EntryPoint(
        "analysis.verify",
        "repro.analysis.verify.verifier:DeltaRuleVerifier",
        ("certify_plan",),
    ),
    # core: the capture hook (a session hook, hence private names) and stores
    EntryPoint(
        "core.capture",
        "repro.core.capture:OpDeltaCapture",
        ("_on_statement", "_on_commit"),
    ),
    EntryPoint("core.store.record", "repro.core.stores:OpDeltaStore", ("record",)),
    EntryPoint("core.store.drain", "repro.core.stores:OpDeltaStore", ("drain",)),
    # compaction
    EntryPoint(
        "compaction.compact", "repro.compaction.coalescer:Coalescer", ("compact_window",)
    ),
    # transport
    EntryPoint("transport.ship", "repro.transport.shipper", ("enqueue_op_deltas",)),
    EntryPoint("transport.enqueue", "repro.transport.queue:PersistentQueue", ("enqueue",)),
    EntryPoint(
        "transport.receive",
        "repro.transport.queue:PersistentQueue",
        ("receive", "receive_window"),
    ),
    EntryPoint(
        "transport.ack", "repro.transport.queue:PersistentQueue", ("ack", "ack_window")
    ),
    # warehouse
    EntryPoint(
        "warehouse.integrate",
        "repro.warehouse.opdelta_integrator:OpDeltaIntegrator",
        ("integrate", "integrate_batched"),
    ),
    EntryPoint(
        "warehouse.value_integrate",
        "repro.warehouse.value_integrator:ValueDeltaIntegrator",
        ("integrate",),
    ),
    EntryPoint(
        "warehouse.view",
        "repro.warehouse.views:MaterializedView",
        ("apply_operation", "apply_value_delta"),
    ),
    # columnar
    EntryPoint(
        "columnar.apply",
        "repro.columnar.apply:ColumnarApplier",
        ("begin_component", "apply_mirror", "apply_view"),
    ),
    EntryPoint(
        "columnar.image",
        "repro.columnar.batch:ColumnBatch",
        ("from_table",),
        rows=lambda batch: batch.num_rows,
    ),
    # extraction: row triggers (registered as bound methods at install)
    EntryPoint(
        "extraction.trigger",
        "repro.extraction.trigger:TriggerExtractor",
        ("_local_insert", "_local_update", "_local_delete"),
        "fold",
    ),
    EntryPoint(
        "extraction.drain", "repro.extraction.trigger:TriggerExtractor", ("drain_to_batch",)
    ),
    # obs: the lineage recorder
    EntryPoint(
        "obs.recorder",
        "repro.obs.pipeline.recorder:PipelineRecorder",
        (
            "record_captured",
            "record_checked",
            "record_rejected_statement",
            "record_shipped",
            "record_enqueued",
            "record_window_shipped",
            "record_redelivered",
            "record_acked",
            "record_pruned",
            "record_absorbed",
            "record_applied",
            "record_committed",
            "record_rejected_op",
            "record_race",
            "record_routed",
            "record_value_batch",
        ),
    ),
)


class Stat:
    """Running totals of one entry point."""

    __slots__ = ("calls", "self_s", "rows")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.rows = 0


class Tracer:
    """Collects spans and per-entry-point totals while installed."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {ep.name: Stat() for ep in ENTRY_POINTS}
        self.stats["bench"] = Stat()
        #: (name, start_s, end_s, parent index or -1, window id, txn id)
        self.spans: list[tuple | None] = []
        # Frames: [child time, index of the nearest recorded span].
        self._stack: list[list] = [[0.0, -1]]
        self.window: int | None = None
        self.txn: int | None = None
        self._undo: list[tuple[Any, str, Any]] = []

    # ---------------------------------------------------------- installation
    def install(self) -> None:
        """Wrap every entry point.  Call before the pipeline is built, so
        hooks bound at attach/install time are the wrapped ones."""
        # Import every owner first: patching a function rebinds it in the
        # ``repro`` modules loaded at that moment.
        owners = [importlib.import_module(e.owner.partition(":")[0]) for e in ENTRY_POINTS]
        for entry, module in zip(ENTRY_POINTS, owners):
            class_name = entry.owner.partition(":")[2]
            for attr in entry.attrs:
                if class_name:
                    self._patch_method(getattr(module, class_name), attr, entry)
                else:
                    self._patch_function(module, attr, entry)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch_method(self, cls: type, attr: str, entry: EntryPoint) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self._wrap(entry, raw.__func__))
        else:
            wrapped = self._wrap(entry, raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _patch_function(self, module: Any, attr: str, entry: EntryPoint) -> None:
        """Rebind the function in every ``repro`` module that imported it.

        For ``top`` entry points the defining module keeps the original,
        so the function's own recursion is not wrapped.
        """
        original = getattr(module, attr)
        wrapped = self._wrap(entry, original)
        for name, loaded in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            if entry.kind == "top" and loaded is module:
                continue
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    self._undo.append((loaded, binding, original))
                    setattr(loaded, binding, wrapped)

    # --------------------------------------------------------------- wrappers
    def _wrap(self, entry: EntryPoint, fn: Callable) -> Callable:
        stat = self.stats[entry.name]
        if entry.kind == "gen":
            return self._wrap_generator(stat, fn)
        stack = self._stack
        spans = self.spans
        perf = time.perf_counter
        tracer = self
        name = entry.name
        record = entry.kind == "call"
        count_rows = entry.rows
        depth = [0]
        top_only = entry.kind == "top"

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if top_only and depth[0]:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if record:
                index = len(spans)
                spans.append(None)
            else:
                index = parent[1]
            frame = [0.0, index]
            stack.append(frame)
            depth[0] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                depth[0] -= 1
                stack.pop()
                elapsed = end - start
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                parent[0] += elapsed
                if record:
                    spans[index] = (name, start, end, parent[1], tracer.window, tracer.txn)
            if count_rows is not None:
                stat.rows += count_rows(result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _wrap_generator(self, stat: Stat, fn: Callable) -> Callable:
        stack = self._stack
        perf = time.perf_counter

        def resumes(generator: Any) -> Any:
            try:
                while True:
                    parent = stack[-1]
                    frame = [0.0, parent[1]]
                    stack.append(frame)
                    start = perf()
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                    finally:
                        elapsed = perf() - start
                        stack.pop()
                        stat.self_s += elapsed - frame[0]
                        parent[0] += elapsed
                    stat.rows += 1
                    yield item
            finally:
                generator.close()

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stat.calls += 1
            return resumes(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # --------------------------------------------------- benchmark segments
    @contextlib.contextmanager
    def segment(self, name: str) -> Iterator[None]:
        """A recorded ``bench.*`` span around one transaction, window or
        query batch; its self time is the time spent in no layer."""
        stat = self.stats["bench"]
        parent = self._stack[-1]
        index = len(self.spans)
        self.spans.append(None)
        frame = [0.0, index]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            stat.calls += 1
            stat.self_s += end - start - frame[0]
            parent[0] += end - start
            self.spans[index] = (name, start, end, parent[1], self.window, self.txn)

    # ---------------------------------------------------------------- output
    def reset(self) -> None:
        """Forget everything recorded so far (set-up), keeping the wrappers."""
        for stat in self.stats.values():
            stat.calls = 0
            stat.self_s = 0.0
            stat.rows = 0
        self.spans.clear()
        self._stack[:] = [[0.0, -1]]

    @property
    def traced_s(self) -> float:
        """Total length of the outermost spans: the ``bench.*`` segments."""
        return self._stack[0][0]

    def counts(self) -> dict[str, int]:
        """The deterministic tallies: calls and rows per entry point."""
        out: dict[str, int] = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.rows"] = stat.rows
        return out

    def layer_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for entry in ENTRY_POINTS:
            totals[entry.layer] += self.stats[entry.name].self_s
        return totals

    def chrome_trace(self, origin_s: float) -> dict[str, Any]:
        events: list[dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": "perfbench wall clock"},
            }
        ]
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, parent, window, txn = span
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (start - origin_s) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 1,
                    "tid": 0,
                    "args": {"id": index, "parent": parent, "window": window, "txn": txn},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str, origin_s: float) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(origin_s), handle)
