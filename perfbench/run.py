"""Wall-clock benchmark of the Op-Delta pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload scan-replay --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs the workload twice more, untraced then traced, and reports the
per-layer metrics (self times from wall-clock spans, counts from the
pipeline) plus the tracing overhead.  Every measurement runs in a fresh
interpreter (``worker.py``).  Human-readable lines name each metric with
its unit and sample count; the last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up-only interpreters per run; with the measuring worker's own
#: set-up, ``setup_s`` is the median of SETUP_SAMPLES + 1 set-ups.
SETUP_SAMPLES = 4
#: Reference speed: the median ``HostReference.sample()``, in ms, that the
#: scaled wall times are expressed at (about its speed on the 2-vCPU x86
#: host the benchmark was tuned on).  A fixed constant: changing it
#: rescales every wall-clock figure.
REFERENCE_MS = 1.2
#: Every run must end within this many seconds.
RUN_BUDGET_S = 170.0
WORKLOADS = ("scan-replay", "point-churn", "value-olap")

#: End-to-end metrics every workload reports (BENCHMARK.json).
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("txn_ms_p50", "ms"),
    ("txn_ms_p90", "ms"),
    ("window_ms_p50", "ms"),
    ("window_ms_p90", "ms"),
    ("virtual_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics, ``(name, unit, source)``: ``self`` = self time of an
#: entry point (whole timed phase), ``layer`` = self time of a layer,
#: ``count`` = a tally over the run (deterministic for a seed).
PER_LAYER = (
    ("engine.decode_row.calls", "count", "count"),
    ("engine.decode_row.self_s", "s", "self"),
    ("engine.encode_row.calls", "count", "count"),
    ("engine.encode_row.self_s", "s", "self"),
    ("engine.scan.rows", "count", "count"),
    ("engine.scan.self_s", "s", "self"),
    ("engine.commit.self_s", "s", "self"),
    ("engine.scan_amplification", "ratio", "count"),
    ("sql.parse.calls", "count", "count"),
    ("sql.parse.self_s", "s", "self"),
    ("sql.execute.calls", "count", "count"),
    ("sql.execute.self_s", "s", "self"),
    ("sql.evaluate.calls", "count", "count"),
    ("sql.evaluate.self_s", "s", "self"),
    ("semantics.check.calls", "count", "count"),
    ("semantics.check.self_s", "s", "self"),
    ("analysis.analyze_statement.self_s", "s", "self"),
    ("analysis.conflict_graph.self_s", "s", "self"),
    ("analysis.certify.self_s", "s", "self"),
    ("analysis.verify.self_s", "s", "setup"),
    ("core.store.record.self_s", "s", "self"),
    ("core.store.drain.self_s", "s", "self"),
    ("core.before_images", "count", "count"),
    ("core.parse_cache.hit_ratio", "ratio", "count"),
    ("compaction.compact.self_s", "s", "self"),
    ("compaction.ops_out_ratio", "ratio", "count"),
    ("transport.enqueue.self_s", "s", "self"),
    ("transport.receive.self_s", "s", "self"),
    ("transport.ack.self_s", "s", "self"),
    ("transport.bytes", "count", "count"),
    ("transport.redeliveries", "count", "count"),
    ("warehouse.integrate.self_s", "s", "self"),
    ("warehouse.value_integrate.self_s", "s", "self"),
    ("warehouse.view.self_s", "s", "self"),
    ("warehouse.statements_issued", "count", "count"),
    ("warehouse.rule_cache.hit_ratio", "ratio", "count"),
    ("columnar.apply.self_s", "s", "self"),
    ("columnar.image_rows", "count", "count"),
    ("columnar.image_amplification", "ratio", "count"),
    ("columnar.kernel_cache.hit_ratio", "ratio", "count"),
    ("columnar.fallbacks", "count", "count"),
    ("extraction.trigger.rows", "count", "count"),
    ("extraction.drain.self_s", "s", "self"),
    ("obs.recorder.calls", "count", "count"),
    ("obs.recorder.self_s", "s", "self"),
) + tuple((f"{layer}.self_s", "s", "layer") for layer in LAYERS) + (
    ("trace.timed_s", "s", "run"),
    ("trace.unattributed_s", "s", "run"),
    ("trace.overhead", "x", "run"),
)

#: Self times every workload measures.  The JSON line of a traced run
#: carries these and every count and ratio; a self time that is exactly 0
#: on every run of some workload (a layer it never calls) is printed only.
UNIVERSAL_SELF_TIMES = frozenset(
    {
        "engine.decode_row.self_s",
        "engine.encode_row.self_s",
        "engine.scan.self_s",
        "engine.commit.self_s",
        "sql.parse.self_s",
        "sql.execute.self_s",
        "sql.evaluate.self_s",
        "warehouse.view.self_s",
        "engine.self_s",
        "sql.self_s",
        "warehouse.self_s",
        "trace.timed_s",
        "trace.unattributed_s",
    }
)
JSON_PER_LAYER = tuple(
    (name, unit)
    for name, unit, _source in PER_LAYER
    if unit != "s" or name in UNIVERSAL_SELF_TIMES
)


class BenchmarkError(Exception):
    """A worker failed to produce a result."""


def run_worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Start a fresh interpreter; returns its result and its set-up time."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, str(HERE / "worker.py"), *args]
    started = time.monotonic()
    try:
        completed = subprocess.run(
            command,
            cwd=str(HERE),
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - started),
            check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker timed out: {' '.join(args)}") from exc
    if completed.returncode != 0 or not completed.stdout.strip():
        raise BenchmarkError(
            f"worker exited {completed.returncode}: {' '.join(args)}\n{completed.stderr}"
        )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    return result, result["setup_done"] - started


def host_factor(reference_s: list[float]) -> float:
    """How much slower than the reference speed the host ran: the median
    reference sample over ``REFERENCE_MS``."""
    return statistics.median(reference_s) * 1e3 / REFERENCE_MS


def factor_of(result: dict) -> float:
    """The host factor of a whole run."""
    return host_factor([s for w in result["samples"] for s in w["reference_s"]])


def timings(result: dict, scale: bool = True) -> dict:
    """A run's samples, each wall time divided by its window's host factor.

    A window's factor comes from the reference samples of that window and
    its two neighbours (about a second of the run), so the host drifting
    within a run is scaled out too.  ``scale=False`` gives the unscaled
    wall times.
    """
    samples = result["samples"]
    factors = [
        host_factor([s for near in samples[max(0, i - 1) : i + 2] for s in near["reference_s"]])
        if scale
        else 1.0
        for i in range(len(samples))
    ]
    pairs = list(zip(samples, factors))
    return {
        "txn_ms": [t / f for w, f in pairs for t in w["txn_ms"]],
        "window_ms": [w["window_ms"] / f for w, f in pairs],
        "olap_ms": [t / f for w, f in pairs for t in w["olap_ms"]],
        "timed_s": sum(
            (sum(w["txn_ms"]) + w["window_ms"] + sum(w["olap_ms"])) / f for w, f in pairs
        )
        / 1e3,
    }


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1)."""
    ordered = sorted(values)
    rank = -(-len(ordered) * share // 1)
    return ordered[max(1, int(rank)) - 1]


def end_to_end(result: dict, setups: list[float], scale: bool = True) -> dict:
    """``name -> (value, samples)`` for one measured run."""
    carried = result["attempted"] - result["failed"]
    times = timings(result, scale)
    txn, window, olap = times["txn_ms"], times["window_ms"], times["olap_ms"]
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "ops_per_s": (carried / times["timed_s"], carried),
        "txn_ms_p50": (percentile(txn, 0.50), len(txn)),
        "txn_ms_p90": (percentile(txn, 0.90), len(txn)),
        "window_ms_p50": (percentile(window, 0.50), len(window)),
        "window_ms_p90": (percentile(window, 0.90), len(window)),
        "virtual_ms": (result["virtual_ms"], 1),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
        "error_rate": (result["failed"] / result["attempted"], result["attempted"]),
    }
    if len(txn) >= 1000:
        metrics["txn_ms_p99"] = (percentile(txn, 0.99), len(txn))
    if olap:
        metrics["olap_ms_p50"] = (percentile(olap, 0.50), len(olap))
        metrics["olap_ms_p90"] = (percentile(olap, 0.90), len(olap))
    return metrics


def per_layer(traced: dict, untraced: dict) -> dict[str, float]:
    """Per-layer metrics of a traced run; ``untraced`` gives the overhead.
    Self times are scaled by the traced run's host factor."""
    counts = traced["counts"]
    factor = factor_of(traced)
    self_s = {name: value / factor for name, value in traced["self_s"].items()}
    layers = {name: value / factor for name, value in traced["layer_self_s"].items()}
    changed = counts["sql.execute.rows"] + counts["columnar.rows_changed"]
    derived = {
        "engine.scan_amplification": _ratio(counts["engine.scan.rows"], changed),
        "columnar.image_rows": counts["columnar.image.rows"],
        "columnar.image_amplification": _ratio(
            counts["columnar.image.rows"], counts["columnar.rows_changed"]
        ),
        "extraction.trigger.rows": counts["extraction.trigger.calls"],
    }

    def scaled_rate(result: dict) -> float:
        return result["attempted"] / timings(result)["timed_s"]

    run_level = {
        "trace.timed_s": traced["traced_s"] / factor,
        "trace.unattributed_s": self_s["bench"],
        "trace.overhead": _ratio(scaled_rate(untraced), scaled_rate(traced)),
    }
    metrics = {}
    for name, _unit, source in PER_LAYER:
        if source == "self":
            metrics[name] = self_s[name.removesuffix(".self_s")]
        elif source == "layer":
            metrics[name] = layers[name.removesuffix(".self_s")]
        elif source == "setup":
            metrics[name] = traced["setup_verify_s"] / host_factor(traced["setup_reference_s"])
        elif source == "run":
            metrics[name] = run_level[name]
        else:
            metrics[name] = derived[name] if name in derived else counts[name]
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def repeats(first: dict, second: dict) -> bool:
    """Two runs of one seed agree on virtual time, the statement stream and
    every count the first reports (the second may be traced, with more)."""
    return first["virtual_ms"] == second["virtual_ms"] and all(
        second["counts"][name] == value for name, value in first["counts"].items()
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Op-Delta wall-clock benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    measure = [*common, "--seconds", str(args.seconds)]
    try:
        if args.trace:
            untraced, _setup = run_worker(measure, deadline)
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json"
            traced, _setup = run_worker([*measure, "--trace-out", str(trace_path)], deadline)
            results = [untraced, traced]
        else:
            runs = [run_worker([*common, "--setup-only"], deadline) for _ in range(SETUP_SAMPLES)]
            measured, setup = run_worker(measure, deadline)
            runs.append((measured, setup))
            raw_setups = [seconds for _result, seconds in runs]
            setups = [
                seconds / host_factor(result["setup_reference_s"]) for result, seconds in runs
            ]
            results = [measured]
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failures = [f for result in results for f in result["failures"]]
    if args.trace and not repeats(untraced, traced):
        failures.append("virtual time or counts differ between two runs of one seed")
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    correct = not failures and failed == 0

    if args.trace:
        values = per_layer(traced, untraced)
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in JSON_PER_LAYER
        }
        print(f"# {args.workload} seed {args.seed}: traced {traced['windows']} windows, "
              f"{timings(traced, scale=False)['timed_s']:.3f} s of wall time, host factor "
              f"{factor_of(traced):.4f}; spans in {trace_path.relative_to(ROOT)}")
        for name, unit, _src in PER_LAYER:
            print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    else:
        values = end_to_end(measured, setups)
        raw = end_to_end(measured, raw_setups, scale=False)
        units = dict(END_TO_END) | {
            "error_rate": "ratio",
            "txn_ms_p99": "ms",
            "olap_ms_p50": "ms",
            "olap_ms_p90": "ms",
        }
        print(f"# {args.workload} seed {args.seed}: {measured['windows']} windows, "
              f"timed phase {timings(measured, scale=False)['timed_s']:.3f} s, host "
              f"factor {factor_of(measured):.4f}, statement stream "
              f"{measured['counts']['stream_sha256'][:16]}")
        for name, (value, samples) in values.items():
            line = f"{args.workload} {name} = {value:.6g} {units[name]} (n={samples}"
            if raw[name][0] != value:
                line += f", unscaled wall {raw[name][0]:.6g}"
            print(line + ")")
        metrics = {
            name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END
        }
    for failure in failures:
        print(f"{args.workload} CHECK FAILED: {failure}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
