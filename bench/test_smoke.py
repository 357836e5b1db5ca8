"""Smoke test of the benchmark harness at tiny sizes; no timing assertions.

    python -m pytest bench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_runs_and_every_check_passes(workload, trace):
    result, _ = run.measure(workload, seed=3, seconds=1, trace=trace, smoke=True)
    assert result["attempted"] == run.WORKLOADS[workload](3, smoke=True).n_inputs
    assert result["correct"] and result["failed"] == 0, result["problems"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }


def test_one_command_runs_every_workload():
    done = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", "all", "--smoke"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    lines = done.stdout.splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] and summary["attempted"] == sum(
        workload(0, smoke=True).n_inputs for workload in run.WORKLOADS.values()
    )
    for name in run.WORKLOADS:
        assert any(line.startswith(f"== {name}:") for line in lines)
        for metric in ("setup_s", "ops_per_s", "p50_ms", "p90_ms", "peak_rss_mb"):
            assert f"{name}/{metric}" in summary["metrics"]
