"""The benchmark harness in perfbench/ must keep running against the library.

perfbench wraps the methods of each manifold class by name and checks its
workloads against recorded reference rows, so a library change can break
it without failing any other test.  One traced smoke pass per workload
catches that.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_pass_has_no_failures(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--smoke", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0 and result["attempted"] >= 1, result
