"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

    python3 -m pytest perfbench -q

Run from the repository root. The smoke runs shrink every n_pairs by
``--scale``; the whole file takes under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(detail_line)["detail"], json.loads(result_line)


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(workload, trace):
    detail, result = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
                            "--scale", "0.01")
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in listed]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in listed)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, detail["problems"]
    assert detail["env"]["seed"] == 3 and detail["env"]["iterations"] >= 1
    if trace == "1":
        assert detail["trace"]["missing_hooks"] == []
        assert result["metrics"]["trace.coverage"]["value"] > 0.5


def test_manifests_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.build(workload, 7) == workloads.build(workload, 7)
        assert workloads.build(workload, 7) != workloads.build(workload, 8)


def _batch(out_dir: Path, spec_path: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(spec_path), str(out_dir), "batch", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    summary = json.loads((out_dir / "summary.json").read_text())
    return {"outcomes": check.outcomes(summary, result["plans"]), "files": check.hash_outputs(out_dir)}


def test_output_check_counts_a_corrupted_report_as_a_failure(tmp_path):
    spec = workloads.build("csv_export", 5, scale=0.01)
    spec["plan_target_error"] = workloads.PLAN_TARGET_ERROR
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    expected = check.load_expected("csv_export")

    out_dir = tmp_path / "reports"  # summary.json names it, so both iterations share it
    first = _batch(out_dir, spec_path)
    second = _batch(out_dir, spec_path)
    tally = check.Tally()
    check.check_iteration(expected, first["outcomes"], "a", tally, check_verdicts=False)
    check.check_repeatable(first, second, "b", tally)
    assert tally.failed == 0, tally.problems

    report = out_dir / "quantum_eraser-render.events.csv"
    data = bytearray(report.read_bytes())
    data[-2] = ord("7") if data[-2] != ord("7") else ord("8")
    report.write_bytes(bytes(data))
    corrupted = {**second, "files": check.hash_outputs(out_dir)}
    check.check_repeatable(first, corrupted, "b", tally)
    assert tally.failed == 1
    assert "quantum_eraser-render.events.csv" in tally.problems[0]


def test_output_check_counts_known_defects_apart_from_failures():
    expected = {
        "ok": {"status": "completed", "verdicts": {"screen": "wave"}},
        "defect": {"status": "error", "error": "DomainError", "known_defect": True},
        "fixed": {"status": "error", "error": "ArithmeticError", "known_defect": True},
    }
    found = {
        "ok": {"status": "completed", "verdicts": {"screen": "particle"}},
        "defect": {"status": "error", "error": "DomainError"},
        "fixed": {"status": "completed", "verdicts": {}},
    }
    tally = check.Tally()
    check.check_iteration(expected, found, "it", tally)
    assert (tally.attempted, tally.failed, tally.known_failures) == (3, 1, 1)
    assert "verdict particle, expected wave" in tally.problems[0]


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        {"id": 0, "name": "cli.execute_manifest", "parent": None, "start": 0.0, "end": 10.0, "counts": {}, "failed": False},
        {"id": 1, "name": "protocols.run_protocol", "parent": 0, "start": 1.0, "end": 6.0, "counts": {}, "failed": False},
        {"id": 2, "name": "protocols.run_protocol", "parent": 0, "start": 4.0, "end": 8.0, "counts": {}, "failed": True},
    ]
    traced = {"trace": {"spans": spans, "counters": {}, "missing": ["cli.ascii_histogram"]},
              "batch_start": 0.0, "batch_end": 10.0, "batch_s": 10.0}
    metrics = bench.layer_metrics(traced, untraced_batch_s=9.0)
    assert metrics["cli.execute_manifest.self_s"] == pytest.approx(3.0)
    assert metrics["protocols.run_protocol.s"] == pytest.approx(9.0)
    assert metrics["protocols.run_protocol.failed"] == 1
    assert metrics["cli.concurrency"] == pytest.approx(0.9)
    assert metrics["trace.coverage"] == pytest.approx(0.7)
    assert metrics["trace.overhead_s"] == pytest.approx(1.0)
    assert metrics["trace.missing_hooks"] == 1


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "perfbench" / "expected.json").write_text(check.EXPECTED_PATH.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "csv_export", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
