"""The virtual-time regression gate (tools/bench_gate.py)."""

import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
BASELINES = REPO / "benchmarks" / "baselines"
sys.path.insert(0, str(REPO / "tools"))

import bench_gate  # noqa: E402

#: The ``repro-bench`` arguments that produce each gated artifact.
ARTIFACT_ARGS = {
    "BENCH_columnar.json": ["--columnar"],
    "BENCH_compaction.json": ["compaction", "--compact"],
    "BENCH_health.json": ["--health"],
    "BENCH_flight.json": ["--flight"],
    "BENCH_certify.json": ["--certify"],
    "BENCH_verify_plans.json": ["--verify-plans"],
    "BENCH_forensics.json": ["--forensics"],
}


def write_json(path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestFlatten:
    def test_nested_dicts_and_lists(self):
        leaves = bench_gate.flatten(
            {"a": {"b_ms": 1.5, "rows": [{"t_ms": 2}, {"t_ms": 3}]}}
        )
        assert leaves == {
            "a.b_ms": 1.5,
            "a.rows.0.t_ms": 2.0,
            "a.rows.1.t_ms": 3.0,
        }

    def test_non_numbers_dropped(self):
        leaves = bench_gate.flatten(
            {"name": "x", "ok": True, "none": None, "v_ms": 7}
        )
        assert leaves == {"v_ms": 7.0}

    def test_bools_are_not_measurements(self):
        # bool is an int subclass; a verdict flipping true->false must
        # never read as a 100% "regression".
        assert bench_gate.flatten({"conservative": True}) == {}


class TestTimeLeafSelection:
    def test_ms_and_ns_suffixes_gated(self):
        assert bench_gate.is_time_leaf("final_virtual_ms")
        assert bench_gate.is_time_leaf("ledger.rows.0.self_ns")
        assert bench_gate.is_time_leaf("modes.plain.tables.0.lag_ms")

    def test_counts_and_ratios_ignored(self):
        assert not bench_gate.is_time_leaf("windows.0.txns")
        assert not bench_gate.is_time_leaf("span_count")
        assert not bench_gate.is_time_leaf("schema_version")
        assert not bench_gate.is_time_leaf("exit_code")

    def test_series_index_looks_through_to_key(self):
        # "series.apply_span_ms.1" is the second point of a _ms series.
        assert bench_gate.is_time_leaf("series.apply_span_ms.1")
        assert not bench_gate.is_time_leaf("series.ops_applied.1")


class TestGate:
    def artifact(self, tmp_path, name, payload):
        return write_json(tmp_path / name, payload)

    def baseline(self, tmp_path, name, payload):
        return write_json(tmp_path / "baselines" / name, payload)

    def run(self, tmp_path, *names, tolerance=None):
        argv = [str(tmp_path / n) for n in names]
        argv += ["--baseline-dir", str(tmp_path / "baselines")]
        if tolerance is not None:
            argv += ["--tolerance", str(tolerance)]
        return bench_gate.main(argv)

    def test_identical_artifact_passes(self, tmp_path):
        doc = {"final_virtual_ms": 100.0, "windows": 3}
        self.artifact(tmp_path, "B.json", doc)
        self.baseline(tmp_path, "B.json", doc)
        assert self.run(tmp_path, "B.json") == 0

    def test_within_tolerance_passes(self, tmp_path):
        self.artifact(tmp_path, "B.json", {"final_virtual_ms": 109.0})
        self.baseline(tmp_path, "B.json", {"final_virtual_ms": 100.0})
        assert self.run(tmp_path, "B.json") == 0

    def test_regression_fails(self, tmp_path, capsys):
        self.artifact(tmp_path, "B.json", {"final_virtual_ms": 111.0})
        self.baseline(tmp_path, "B.json", {"final_virtual_ms": 100.0})
        assert self.run(tmp_path, "B.json") == 1
        out = capsys.readouterr().out
        assert "final_virtual_ms" in out
        assert "11.0%" in out

    def test_improvement_passes(self, tmp_path):
        self.artifact(tmp_path, "B.json", {"final_virtual_ms": 50.0})
        self.baseline(tmp_path, "B.json", {"final_virtual_ms": 100.0})
        assert self.run(tmp_path, "B.json") == 0

    def test_non_time_leaf_never_gates(self, tmp_path):
        self.artifact(tmp_path, "B.json", {"span_count": 900})
        self.baseline(tmp_path, "B.json", {"span_count": 3})
        assert self.run(tmp_path, "B.json") == 0

    def test_new_leaf_passes(self, tmp_path):
        self.artifact(
            tmp_path, "B.json", {"old_ms": 10.0, "brand_new_ms": 99.0}
        )
        self.baseline(tmp_path, "B.json", {"old_ms": 10.0})
        assert self.run(tmp_path, "B.json") == 0

    def test_vanished_time_leaf_fails(self, tmp_path, capsys):
        windows = [{"at_ms": 10.0}, {"at_ms": 20.0}, {"at_ms": 30.0}]
        self.artifact(tmp_path, "B.json", {"windows": windows[:2]})
        self.baseline(tmp_path, "B.json", {"windows": windows})
        assert self.run(tmp_path, "B.json") == 1
        out = capsys.readouterr().out
        assert "windows.2.at_ms" in out
        assert "baseline 30" in out

    def test_vanished_count_leaf_passes(self, tmp_path):
        self.artifact(tmp_path, "B.json", {"t_ms": 5.0})
        self.baseline(tmp_path, "B.json", {"t_ms": 5.0, "span_count": 3})
        assert self.run(tmp_path, "B.json") == 0

    def test_zero_baseline_never_divides(self, tmp_path):
        self.artifact(tmp_path, "B.json", {"t_ms": 5.0})
        self.baseline(tmp_path, "B.json", {"t_ms": 0.0})
        assert self.run(tmp_path, "B.json") == 0

    def test_missing_baseline_fails_with_instruction(self, tmp_path, capsys):
        self.artifact(tmp_path, "B.json", {"t_ms": 5.0})
        assert self.run(tmp_path, "B.json") == 1
        assert "--update" in capsys.readouterr().out

    def test_missing_artifact_is_usage_error(self, tmp_path):
        assert self.run(tmp_path, "nope.json") == 2

    def test_negative_tolerance_is_usage_error(self, tmp_path):
        self.artifact(tmp_path, "B.json", {"t_ms": 5.0})
        assert self.run(tmp_path, "B.json", tolerance=-0.1) == 2

    def test_custom_tolerance(self, tmp_path):
        self.artifact(tmp_path, "B.json", {"t_ms": 104.0})
        self.baseline(tmp_path, "B.json", {"t_ms": 100.0})
        assert self.run(tmp_path, "B.json", tolerance=0.05) == 0
        assert self.run(tmp_path, "B.json", tolerance=0.03) == 1

    def test_update_writes_baseline(self, tmp_path):
        self.artifact(tmp_path, "B.json", {"t_ms": 5.0})
        argv = [
            str(tmp_path / "B.json"),
            "--baseline-dir",
            str(tmp_path / "baselines"),
            "--update",
        ]
        assert bench_gate.main(argv) == 0
        stored = json.loads(
            (tmp_path / "baselines" / "B.json").read_text(encoding="utf-8")
        )
        assert stored == {"t_ms": 5.0}
        # And the freshly updated baseline gates clean.
        assert self.run(tmp_path, "B.json") == 0

    def test_multiple_artifacts_gate_independently(self, tmp_path, capsys):
        self.artifact(tmp_path, "A.json", {"t_ms": 100.0})
        self.baseline(tmp_path, "A.json", {"t_ms": 100.0})
        self.artifact(tmp_path, "B.json", {"t_ms": 200.0})
        self.baseline(tmp_path, "B.json", {"t_ms": 100.0})
        assert self.run(tmp_path, "A.json", "B.json") == 1
        out = capsys.readouterr().out
        assert "B.json" in out and "A.json" not in out


class TestExplain:
    """--explain: blame regressions on (stage x entity) cost-ledger rows."""

    def ledger_doc(self, total_ms, rows):
        return {
            "final_virtual_ms": total_ms,
            "ledger": {
                "rows": [
                    {
                        "stage": stage,
                        "entity": entity,
                        "self_ms": self_ms,
                        "self_ns": int(self_ms * 1e6),
                        "spans": 1,
                    }
                    for stage, entity, self_ms in rows
                ]
            },
        }

    def run(self, tmp_path, *extra):
        argv = [
            str(tmp_path / "B.json"),
            "--baseline-dir",
            str(tmp_path / "baselines"),
            *extra,
        ]
        return bench_gate.main(argv)

    def test_explain_names_the_grown_rows(self, tmp_path, capsys):
        write_json(
            tmp_path / "B.json",
            self.ledger_doc(
                200.0,
                [("apply", "parts", 150.0), ("ship", "parts", 50.0)],
            ),
        )
        write_json(
            tmp_path / "baselines" / "B.json",
            self.ledger_doc(
                100.0,
                [("apply", "parts", 50.0), ("ship", "parts", 50.0)],
            ),
        )
        assert self.run(tmp_path, "--explain") == 1
        out = capsys.readouterr().out
        assert "blame apply x parts" in out
        assert "+100" in out  # +100 virtual ms of growth
        assert "ship x parts" not in out  # unchanged rows are not blamed

    def test_explain_caps_the_blame_at_three_rows(self, tmp_path, capsys):
        grown = [(f"stage{i}", "e", 10.0 + i) for i in range(5)]
        write_json(tmp_path / "B.json", self.ledger_doc(100.0, grown))
        write_json(
            tmp_path / "baselines" / "B.json",
            self.ledger_doc(50.0, [(s, e, 1.0) for s, e, _ in grown]),
        )
        assert self.run(tmp_path, "--explain") == 1
        out = capsys.readouterr().out
        assert out.count("blame") == 3
        # The top-3 by absolute growth are the largest current rows.
        assert "stage4" in out and "stage3" in out and "stage2" in out

    def test_explain_is_silent_without_a_regression(self, tmp_path, capsys):
        doc = self.ledger_doc(100.0, [("apply", "parts", 50.0)])
        write_json(tmp_path / "B.json", doc)
        write_json(tmp_path / "baselines" / "B.json", doc)
        assert self.run(tmp_path, "--explain") == 0
        assert "blame" not in capsys.readouterr().out

    def test_explain_tolerates_artifacts_without_a_ledger(
        self, tmp_path, capsys
    ):
        write_json(tmp_path / "B.json", {"final_virtual_ms": 200.0})
        write_json(
            tmp_path / "baselines" / "B.json", {"final_virtual_ms": 100.0}
        )
        assert self.run(tmp_path, "--explain") == 1
        assert "blame" not in capsys.readouterr().out

    def test_new_rows_are_blamed_as_new(self, tmp_path, capsys):
        write_json(
            tmp_path / "B.json",
            self.ledger_doc(
                200.0,
                [("apply", "parts", 50.0), ("apply", "orders", 80.0)],
            ),
        )
        write_json(
            tmp_path / "baselines" / "B.json",
            self.ledger_doc(100.0, [("apply", "parts", 50.0)]),
        )
        assert self.run(tmp_path, "--explain") == 1
        out = capsys.readouterr().out
        assert "blame apply x orders" in out
        assert "new row" in out


class TestCommittedBaselines:
    """The real artifacts must gate clean against the committed baselines."""

    def test_registry_pins_the_ci_artifact_set(self):
        assert bench_gate.GATED_ARTIFACTS == (
            "BENCH_columnar.json",
            "BENCH_compaction.json",
            "BENCH_health.json",
            "BENCH_flight.json",
            "BENCH_certify.json",
            "BENCH_verify_plans.json",
            "BENCH_forensics.json",
        )

    def test_baselines_exist_for_ci_gated_artifacts(self):
        for name in bench_gate.GATED_ARTIFACTS:
            assert (REPO / "benchmarks" / "baselines" / name).exists(), name

    def test_no_arguments_gates_the_registered_set(self, tmp_path, capsys):
        # Missing artifacts are a usage error, so gating the registry
        # from an empty directory names every registered file.
        import os

        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            assert bench_gate.main([]) == 2
        finally:
            os.chdir(cwd)
        err = capsys.readouterr().err
        for name in bench_gate.GATED_ARTIFACTS:
            assert name in err

    def test_default_baseline_dir_does_not_depend_on_cwd(
        self, tmp_path, monkeypatch
    ):
        artifact = tmp_path / "BENCH_flight.json"
        artifact.write_bytes((BASELINES / "BENCH_flight.json").read_bytes())
        monkeypatch.chdir(tmp_path)
        assert bench_gate.main([str(artifact)]) == 0

    def test_dropped_windows_fail_the_flight_baseline(self, tmp_path, capsys):
        doc = json.loads((BASELINES / "BENCH_flight.json").read_text("utf-8"))
        last = doc["windows"][-1]["window"]
        doc["windows"] = doc["windows"][:-3]
        artifact = write_json(tmp_path / "BENCH_flight.json", doc)
        assert bench_gate.main([str(artifact)]) == 1
        assert f"windows.{last}.at_ms vanished" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name",
        bench_gate.GATED_ARTIFACTS,
        ids=lambda name: name.removeprefix("BENCH_").removesuffix(".json"),
    )
    def test_artifact_matches_committed_baseline(self, name, tmp_path, capsys):
        from repro.bench.cli import main

        artifact = tmp_path / name
        assert main([*ARTIFACT_ARGS[name], "--json", str(artifact)]) == 0
        capsys.readouterr()
        assert artifact.read_text("utf-8") == (BASELINES / name).read_text(
            "utf-8"
        )
