"""Smoke test of the benchmark: every workload at a tiny budget.

Checks that each run reports exactly the metrics ``BENCHMARK.json`` names,
with their units, that the output checks pass, and that the span self
times of every traced pass sum to the pass's traced wall time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from perfbench.bench import ROOT, measure

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _assert_metrics(metrics: dict, declared: list) -> None:
    assert sorted(metrics) == sorted(entry["name"] for entry in declared)
    for entry in declared:
        assert metrics[entry["name"]]["unit"] == entry["unit"], entry["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(workload, tmp_path):
    result = measure(workload, 0, 0.0, False, tmp_path, small=True)
    summary = result.pop("summary")
    assert summary["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    _assert_metrics(result["metrics"], SPEC["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_accounts_for_wall_time(workload, tmp_path):
    result = measure(workload, 0, 0.0, True, tmp_path, small=True)
    summary = result.pop("summary")
    assert summary["errors"] == []
    assert result["correct"] and result["failed"] == 0
    _assert_metrics(result["metrics"], SPEC["per_layer"])
    span_sums = summary["span_sums_ns"]
    assert sorted(span_sums) == ["cold", "plain", "warm"]
    for self_sum, wall in span_sums.values():
        assert wall > 0 and self_sum == wall
    for name in span_sums:
        assert result["metrics"][f"{name}.trace.coverage"]["value"] >= 0.95


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
