#!/usr/bin/env python3
"""Gate BENCH_*.json artifacts against committed baselines.

Every ``repro-bench`` JSON artifact is deterministic virtual time, so a
regression is never noise: if a virtual-time leaf grew more than the
tolerance over its committed baseline (``benchmarks/baselines/``), some
code change made the modelled pipeline genuinely slower, and CI fails.

What is compared: the artifact is flattened to ``(dotted.path, number)``
leaves and only **time-ish** leaves are gated — paths whose final segment
ends in ``_ms`` / ``_ns`` or is named in :data:`TIME_KEYS`.  Counts,
ratios and verdict flags are ignored (they are pinned by tests instead).
New leaves (no baseline counterpart) pass; a baseline time leaf the
artifact no longer has fails (a dropped timeline window must not pass as
"no regression"), and so does a *missing* committed baseline file, with
the command that creates it.

Usage::

    python tools/bench_gate.py                         # the registered set
    python tools/bench_gate.py BENCH_compaction.json BENCH_health.json
    python tools/bench_gate.py --update BENCH_*.json   # rewrite baselines
    python tools/bench_gate.py --tolerance 0.05 BENCH_flight.json
    python tools/bench_gate.py --explain               # blame cost rows

With ``--explain``, an artifact that regresses *and* embeds a cost
ledger (``ledger.rows`` — the same per-(stage x entity) rows the system
catalog serves as ``sys.cost``) gets a blame section: the top-3 rows by
absolute virtual-time growth over the baseline ledger, so the failure
names the stage and entity that got slower instead of just the leaf.

Exit status: 0 all gated artifacts within tolerance, 1 regression or
missing baseline, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Default regression tolerance: >10% growth of any virtual-time leaf fails.
DEFAULT_TOLERANCE = 0.10

#: Where committed baselines live: ``benchmarks/baselines`` of the
#: repository this script sits in, whatever the working directory.
BASELINE_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"

#: Leaf-key names gated even without an ``_ms``/``_ns`` suffix.
TIME_KEYS = frozenset({"elapsed", "duration", "apply_span"})

#: Every CI-gated artifact, in bench-smoke production order.  Running
#: the gate with no arguments gates exactly this set; adding a new
#: ``repro-bench --json`` artifact means registering it here *and*
#: committing its baseline under :data:`BASELINE_DIR`.
GATED_ARTIFACTS = (
    "BENCH_columnar.json",
    "BENCH_compaction.json",
    "BENCH_health.json",
    "BENCH_flight.json",
    "BENCH_certify.json",
    "BENCH_verify_plans.json",
    "BENCH_forensics.json",
)


def is_time_leaf(path: str) -> bool:
    """Whether a flattened leaf path names a virtual-time quantity."""
    leaf = path.rsplit(".", 1)[-1]
    # Strip a trailing series index ("series.apply_span_ms.1" -> the key).
    if leaf.isdigit() and "." in path:
        leaf = path.rsplit(".", 2)[-2]
    return leaf.endswith(("_ms", "_ns")) or leaf in TIME_KEYS


def flatten(node: object, prefix: str = "") -> dict[str, float]:
    """Flatten JSON to dotted-path -> numeric-leaf (non-numbers dropped)."""
    leaves: dict[str, float] = {}
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            leaves.update(flatten(value, path))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            path = f"{prefix}.{index}" if prefix else str(index)
            leaves.update(flatten(value, path))
    elif isinstance(node, bool):
        pass  # bools are verdicts, not measurements
    elif isinstance(node, (int, float)):
        leaves[prefix] = float(node)
    return leaves


def cost_blame(
    name: str, current_doc: object, baseline_doc: object, top: int = 3
) -> list[str]:
    """Blame a regression on specific cost-ledger rows.

    Diffs the embedded ``ledger.rows`` (per-(stage x entity) self time)
    of artifact vs baseline and returns the ``top`` rows by absolute
    virtual-ms growth — empty when either document carries no ledger.
    """

    def rows(doc: object) -> dict[tuple[str, str], float]:
        if not isinstance(doc, dict):
            return {}
        ledger = doc.get("ledger")
        if not isinstance(ledger, dict):
            return {}
        return {
            (row["stage"], row["entity"]): float(row["self_ms"])
            for row in ledger.get("rows", [])
        }

    current, expected = rows(current_doc), rows(baseline_doc)
    if not current or not expected:
        return []
    grown = []
    for key, now in current.items():
        delta = now - expected.get(key, 0.0)
        if delta > 0:
            grown.append((delta, key))
    grown.sort(key=lambda item: (-item[0], item[1]))
    lines = []
    for delta, (stage, entity) in grown[:top]:
        was = expected.get((stage, entity), 0.0)
        now = current[(stage, entity)]
        growth = f"+{(now / was - 1.0) * 100.0:.1f}%" if was > 0 else "new row"
        lines.append(
            f"{name}:   blame {stage} x {entity}: "
            f"+{delta:g} virtual ms ({was:g} -> {now:g}, {growth})"
        )
    return lines


def gate_artifact(
    name: str, current_doc: object, baseline_doc: object, tolerance: float
) -> list[str]:
    """Compare one artifact against its baseline; return failure lines."""
    current = flatten(current_doc)
    expected = flatten(baseline_doc)
    failures: list[str] = []
    for path in sorted(current):
        if not is_time_leaf(path):
            continue
        if path not in expected:
            continue  # new measurement: gated once the baseline is updated
        was, now = expected[path], current[path]
        if was <= 0:
            continue  # nothing to regress against
        if now > was * (1.0 + tolerance):
            growth = (now / was - 1.0) * 100.0
            failures.append(
                f"{name}: {path} regressed {growth:.1f}% "
                f"({was:g} -> {now:g} virtual, tolerance "
                f"{tolerance * 100:.0f}%)"
            )
    for path in sorted(expected):
        if is_time_leaf(path) and path not in current:
            failures.append(
                f"{name}: {path} vanished (baseline {expected[path]:g} "
                f"virtual, absent from the artifact)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "artifacts",
        nargs="*",
        type=Path,
        help="BENCH_*.json artifacts to gate against their baselines "
        "(default: the registered set)",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=BASELINE_DIR,
        help=f"committed baseline directory (default: {BASELINE_DIR})",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional growth per virtual-time leaf "
        f"(default: {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="copy the given artifacts over their baselines instead of gating",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="on a regression, diff the artifact's embedded cost ledger "
        "(sys.cost rows) against the baseline's and print the top-3 "
        "(stage x entity) rows by virtual-time growth",
    )
    args = parser.parse_args(argv)
    if not args.artifacts:
        args.artifacts = [Path(name) for name in GATED_ARTIFACTS]
    if args.tolerance < 0:
        print("bench_gate: tolerance must be >= 0", file=sys.stderr)
        return 2

    missing_artifacts = [a for a in args.artifacts if not a.exists()]
    if missing_artifacts:
        for artifact in missing_artifacts:
            print(f"bench_gate: no such artifact: {artifact}", file=sys.stderr)
        return 2

    if args.update:
        args.baseline_dir.mkdir(parents=True, exist_ok=True)
        for artifact in args.artifacts:
            target = args.baseline_dir / artifact.name
            target.write_text(
                artifact.read_text(encoding="utf-8"), encoding="utf-8"
            )
            print(f"bench_gate: baseline updated: {target}")
        return 0

    failures: list[str] = []
    gated = 0
    for artifact in args.artifacts:
        baseline = args.baseline_dir / artifact.name
        if not baseline.exists():
            failures.append(
                f"{artifact.name}: no committed baseline at {baseline}; "
                f"create it with: python tools/bench_gate.py --update "
                f"{artifact}"
            )
            continue
        current_doc = json.loads(artifact.read_text(encoding="utf-8"))
        baseline_doc = json.loads(baseline.read_text(encoding="utf-8"))
        regressions = gate_artifact(
            artifact.name, current_doc, baseline_doc, args.tolerance
        )
        if regressions and args.explain:
            regressions.extend(
                cost_blame(artifact.name, current_doc, baseline_doc)
            )
        failures.extend(regressions)
        gated += 1
    for line in failures:
        print(line)
    print(
        f"bench_gate: {gated}/{len(args.artifacts)} artifacts gated, "
        f"{len(failures)} failures",
        file=sys.stderr,
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
