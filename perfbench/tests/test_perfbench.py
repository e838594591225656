"""Tiny-scale tests of the wall-clock benchmark.

    python3 -m pytest perfbench/tests

They live outside ``tests/`` and ``benchmarks/`` so neither the tier-1
suite nor the ``pytest benchmarks/`` job collects them.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest
from conftest import BENCH, ROOT

import run
from pipelines import WORKLOADS, Pipeline, make_stream
from worker import HostReference, timed_phase


@pytest.fixture(scope="module")
def host():
    return HostReference()


def _worker(*args: str) -> dict:
    """One fresh-interpreter worker run, as ``run.py`` starts it."""
    completed = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=str(BENCH),
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _traced(workload: str, seed: int, tmp_path) -> dict:
    trace = tmp_path / f"{workload}-{seed}.json"
    return _worker(
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace-out", str(trace),
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_runs_and_passes_the_gate(workload, host):
    pipeline = Pipeline(workload, seed=11)
    with pipeline.observing():
        result, counts = timed_phase(pipeline, 2, 11, host, None)
        failures = pipeline.check()
    assert failures == []
    assert len(result.samples) == 2 and result.failed == 0
    stream = make_stream(workload, 11)
    windows = [stream.window() for _ in range(2)]
    assert result.attempted == sum(len(txn) for window in windows for txn in window)
    assert result.virtual_ms > 0 and counts["stream_sha256"]
    for sample, window in zip(result.samples, windows):
        assert len(sample.txn_ms) == len(window)
        olap = workload == "value-olap"
        assert len(sample.olap_ms) == (3 if olap else 0)
        assert len(sample.reference_s) == len(window) + 1 + olap


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_fails_on_a_corrupted_mirror(workload, host):
    pipeline = Pipeline(workload, seed=12)
    with pipeline.observing():
        timed_phase(pipeline, 1, 12, host, None)
    mirror = pipeline.warehouse.database.internal_session()
    mirror.execute("UPDATE parts SET quantity = quantity + 1")
    failures = pipeline.check()
    assert any("digest" in failure for failure in failures)


def test_gate_fails_on_a_corrupted_view(host):
    pipeline = Pipeline("scan-replay", seed=13)
    timed_phase(pipeline, 1, 13, host, None)
    view = pipeline.warehouse.database.internal_session()
    view.execute("DELETE FROM revised_parts WHERE part_id >= 0")
    assert any("view" in failure for failure in pipeline.check())


def test_failed_statements_are_counted():
    pipeline = Pipeline("point-churn", seed=14)
    with pipeline.observing():
        assert pipeline.run_txn([("UPDATE parts SET quantity = 1 WHERE part_id = -5", 1)]) == 1
        assert pipeline.run_txn([("UPDATE parts SET nosuch = 1 WHERE part_id = 5", 1)]) == 1
    assert "touched 0 rows, not 1" in pipeline.errors[0]
    assert "nosuch" in pipeline.errors[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_output_lists_every_layer_metric(workload, tmp_path):
    traced = _traced(workload, 21, tmp_path)
    values = run.per_layer(traced, traced)
    assert [name for name, _unit, _src in run.PER_LAYER] == list(values)
    layers = sum(values[f"{layer}.self_s"] for layer in run.LAYERS)
    assert math.isclose(
        layers + values["trace.unattributed_s"], values["trace.timed_s"], rel_tol=1e-9
    )
    assert values["trace.unattributed_s"] > 0
    assert values["engine.decode_row.calls"] > 0 and values["sql.parse.calls"] > 0
    with open(tmp_path / f"{workload}-21.json", encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    spans = [event for event in events if event["ph"] == "X"]
    assert {"bench.txn", "bench.window", "sql.parse"} <= {e["name"] for e in spans}
    assert all(event["dur"] >= 0 for event in spans)


def test_same_seed_repeats_virtual_time_and_counts(tmp_path):
    first = _traced("point-churn", 31, tmp_path)
    second = _traced("point-churn", 31, tmp_path)
    assert first["virtual_ms"] == second["virtual_ms"]
    assert first["counts"] == second["counts"]
    untraced = _worker("--workload", "point-churn", "--seed", "31", "--seconds", "0")
    assert run.repeats(untraced, first)
    other = _traced("point-churn", 32, tmp_path)
    assert other["counts"]["stream_sha256"] != first["counts"]["stream_sha256"]


def test_scaling_divides_each_window_by_its_host_factor():
    slow = {"txn_ms": [10.0], "window_ms": 20.0, "olap_ms": [], "reference_s": [2 * run.REFERENCE_MS / 1e3]}
    fast = {"txn_ms": [10.0], "window_ms": 20.0, "olap_ms": [], "reference_s": [run.REFERENCE_MS / 1e3]}
    times = run.timings({"samples": [slow, slow, slow, fast, fast, fast]})
    assert times["txn_ms"] == [5.0, 5.0, 5.0, 10.0, 10.0, 10.0]
    assert times["window_ms"][0] == 10.0 and times["window_ms"][-1] == 20.0
    assert times["timed_s"] == pytest.approx((3 * 15 + 3 * 30) / 1e3)
    assert run.timings({"samples": [slow]}, scale=False)["txn_ms"] == [10.0]


def test_scan_replay_and_value_olap_see_identical_statements():
    args = ("--seed", "41", "--seconds", "0")
    scan = _worker("--workload", "scan-replay", *args)
    value = _worker("--workload", "value-olap", *args)
    assert scan["counts"]["stream_sha256"] == value["counts"]["stream_sha256"]


def test_benchmark_json_matches_the_metrics_printed():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.JSON_PER_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
