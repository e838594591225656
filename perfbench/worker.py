"""One benchmark process: set up a workload, run its timed phase, check it.

``run.py`` starts every worker in a fresh interpreter, so process-wide
caches (``PARSE_CACHE``, the verifier's ``CertificateCache``, the
integrator's cross-window rule memo, ``KernelCache``) start cold the way
they do in a user's process.  The worker prints one JSON object on its
last stdout line.

    cd perfbench && PYTHONPATH=../src python3 worker.py --workload scan-replay --seed 1
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
from dataclasses import asdict, dataclass, field

from pipelines import UPDATE_SIZES, WORKLOADS, Pipeline, make_stream
from tracer import Tracer

#: Windows per second of ``--seconds`` at the reference host speed (see
#: ``HostReference``).  A run's work is fixed by ``--seconds``, not by the
#: clock: every run of a seed does the same windows, so its virtual time,
#: its counts and its heap (and with it the garbage collector's work) are
#: the same however fast the host happens to be.
WINDOWS_PER_SECOND = {"scan-replay": 3.9, "point-churn": 8.0, "value-olap": 4.9}
#: Reference samples taken right after set-up, to scale that set-up time.
SETUP_REFERENCE_SAMPLES = 25


class HostReference:
    """A fixed piece of interpreter work, timed to gauge the host's speed.

    The host's speed drifts by ±15% or more over seconds to minutes, and
    the program's wall time drifts with it.  ``run.py`` scales wall times
    by the median of these samples, taken between the measured segments
    (never inside them), so runs made while the host was slower or faster
    compare.  Like the program, the work hashes strings and chases
    pointers through a table larger than the processor's private caches,
    so it slows down with the program when other tenants crowd the shared
    cache.  It never runs program code, so a change to the program cannot
    move it.
    """

    ENTRIES = 60_000
    LOOKUPS = 1_500

    def __init__(self) -> None:
        self._table = {f"key-{i}": (i, f"value {i}") for i in range(self.ENTRIES)}
        # A fixed stride through the table: every sample reads other entries.
        self._keys = [f"key-{(i * 7919) % self.ENTRIES}" for i in range(self.ENTRIES)]
        self._cursor = 0

    def sample(self) -> float:
        """Seconds one piece of reference work takes right now."""
        started = time.perf_counter()
        start = self._cursor
        total = 0
        for key in self._keys[start : start + self.LOOKUPS]:
            total += self._table[key][0]
        self._cursor = (start + self.LOOKUPS) % (self.ENTRIES - self.LOOKUPS)
        scratch = {}
        for number in range(500):
            key = f"k{number}"
            scratch[key] = (number, key)
        elapsed = time.perf_counter() - started
        if total < 0 or len(scratch) != 500:
            raise AssertionError("reference work computed a wrong result")
        return elapsed


@dataclass
class WindowSample:
    """Wall times of one window's measured segments, and the reference
    samples taken between them."""

    txn_ms: list[float] = field(default_factory=list)
    window_ms: float = 0.0
    olap_ms: list[float] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)


@dataclass
class RunResult:
    """One timed phase: its samples and what must repeat for a seed."""

    samples: list[WindowSample] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    virtual_ms: float = 0.0
    peak_rss_mb: float = 0.0


def timed_phase(
    pipeline: Pipeline, windows: int, seed: int, host: HostReference, tracer: Tracer | None
) -> tuple[RunResult, dict]:
    """The closed loop: one client, next window only after the last acks.

    Generating a window's SQL is the load generator's work and stays
    outside the measured time, as do the reference samples.
    """
    workload = pipeline.workload
    stream = make_stream(workload, seed)
    result = RunResult()
    stream_hash = hashlib.sha256()
    perf = time.perf_counter

    def segment(name: str):
        return tracer.segment(name) if tracer is not None else contextlib.nullcontext()

    for window in range(windows):
        sample = WindowSample()
        result.samples.append(sample)
        txns = stream.window()
        failed_before = result.failed
        if tracer is not None:
            tracer.window = window
        for txn_index, statements in enumerate(txns):
            for sql, _expected in statements:
                stream_hash.update(sql.encode() + b"\n")
            if tracer is not None:
                tracer.txn = txn_index
            with segment("bench.txn"):
                started = perf()
                failed = pipeline.run_txn(statements)
                elapsed = perf() - started
            sample.txn_ms.append(elapsed * 1e3)
            sample.reference_s.append(host.sample())
            result.attempted += len(statements)
            result.failed += failed
        if tracer is not None:
            tracer.txn = None
        with segment("bench.window"):
            started = perf()
            try:
                pipeline.maintain()
            except Exception as exc:  # noqa: BLE001 - a failed window fails its ops
                result.failed = failed_before + sum(len(txn) for txn in txns)
                pipeline.report_error(f"window {window}: {exc!r}")
            elapsed = perf() - started
        sample.window_ms = elapsed * 1e3
        sample.reference_s.append(host.sample())
        if workload == "value-olap":
            with segment("bench.olap"):
                sample.olap_ms = pipeline.olap()
            sample.reference_s.append(host.sample())
    if tracer is not None:
        tracer.window = None
    result.virtual_ms = pipeline.clock.now
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counts = pipeline.layer_counts()
    counts["stream_sha256"] = stream_hash.hexdigest()
    if tracer is not None:
        counts.update(tracer.counts())
    return result, counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", help="write traced spans (Chrome JSON) here")
    args = parser.parse_args(argv)
    # Whole cycles of the range workloads' three window shapes.
    cycle = len(UPDATE_SIZES)
    windows = cycle * max(1, round(args.seconds * WINDOWS_PER_SECOND[args.workload] / cycle))

    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install()
    pipeline = Pipeline(args.workload, args.seed)
    # Set-up ends here; ``run.py`` measures it from just before it started
    # this interpreter (CLOCK_MONOTONIC is shared by all processes), so
    # interpreter start and imports count.
    out: dict = {"setup_done": time.monotonic()}
    host = HostReference()
    out["setup_reference_s"] = [host.sample() for _ in range(SETUP_REFERENCE_SAMPLES)]
    if args.setup_only:
        print(json.dumps(out))
        return 0
    if tracer is not None:
        out["setup_verify_s"] = tracer.stats["analysis.verify"].self_s
        tracer.reset()

    with pipeline.observing():
        origin = time.perf_counter()
        result, counts = timed_phase(pipeline, windows, args.seed, host, tracer)
        if tracer is not None:
            # Read before the gate: its scans are not part of the timed phase.
            out["self_s"] = {name: stat.self_s for name, stat in tracer.stats.items()}
            out["layer_self_s"] = tracer.layer_self_s()
            out["traced_s"] = tracer.traced_s
            tracer.uninstall()
        failures = pipeline.check()

    if failures:
        # A failed gate fails every statement of the run.
        result.failed = result.attempted
    out.update(
        {
            "failures": pipeline.errors + failures,
            "attempted": result.attempted,
            "failed": result.failed,
            "windows": len(result.samples),
            "virtual_ms": result.virtual_ms,
            "peak_rss_mb": result.peak_rss_mb,
            "samples": [asdict(sample) for sample in result.samples],
            "counts": counts,
        }
    )
    if tracer is not None:
        tracer.write_chrome_trace(args.trace_out, origin)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
