"""Traced smoke runs of the benchmark: the madm functions its tracer hooks
must still exist under their names and must still see the work."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["gaussian-two-coin", "verify-exact"])
def test_traced_tiny_run_sees_the_kernels(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1", "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["engine.two_coin.iterations"]["value"] > 0
    if workload == "verify-exact":
        assert metrics["adjust_exact.replicates.decisions"]["value"] > 0
