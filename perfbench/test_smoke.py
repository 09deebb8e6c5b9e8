"""Smoke path of the benchmark: every workload at small sizes, untraced and
traced, so the harness cannot rot.  Checks only that it runs and that its
outputs are well formed, never timings.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, seed, trace, cwd=ROOT, run=RUN):
    return subprocess.run(
        [sys.executable, str(run), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=cwd)


def _result(workload, seed, trace):
    done = _run(workload, seed, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    for seed in (1, 2):
        metrics = _result(workload, seed, 0)
        assert {n: m["unit"] for n, m in metrics.items()} == {
            m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_between_runs(workload):
    first, second = _result(workload, 1, 1), _result(workload, 1, 1)
    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert [first[n] for n in counts] == [second[n] for n in counts]
    assert first["trace.pass_s"]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(RUN.parent, tmp_path / RUN.parent.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run(WORKLOADS[0], 1, 0, cwd=tmp_path, run=tmp_path / RUN.parent.name / RUN.name)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
