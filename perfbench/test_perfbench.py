"""The benchmark's own tests, at smoke size.

Run from the repository root with ``python3 -m pytest perfbench``.
Each test runs ``perfbench/run.py`` in a subprocess, from the checkout root,
with ``--smoke`` inputs, and reads the JSON result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(workload, trace=0, seed=3, *extra, cwd=ROOT):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return completed.returncode, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    code, result = run_bench(workload, trace)
    assert code == 0 and result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))


@pytest.mark.parametrize(
    "workload, trace",
    [("table1-batch", 0), ("service-http", 0), ("power-capped", 0),
     ("large-nets", 1)],
)
def test_a_planted_wrong_answer_is_caught(workload, trace):
    code, result = run_bench(workload, trace, 3, "--plant-bug")
    assert code == 1
    assert result["correct"] is False


def test_count_metrics_repeat_exactly():
    for workload in ("power-capped", "table1-batch"):
        first = run_bench(workload, 1, 5)[1]["metrics"]
        second = run_bench(workload, 1, 5)[1]["metrics"]
        for name in ("core.dp.candidates", "core.dp.frontier_peak",
                     "failed_share"):
            assert first[name] == second[name], (workload, name)
        assert first["core.dp.candidates"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    code, result = run_bench("table1-batch", 0, 3, cwd=tmp_path)
    assert code != 0
    assert result is None
