"""Traced smoke runs of the benchmark: the madm functions its tracer hooks
must still exist under their names and must still see the work."""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve_to_live_madm_functions():
    # a renamed hook target would only zero its per-layer metrics
    from madm import engine, targets

    for name in _tracing().HOOKS:
        short, *path = name.split(".")
        obj = importlib.import_module(f"madm.{short}")
        for attr in path:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)
        assert isinstance(obj, types.FunctionType), name
        if len(path) == 1:  # module functions are wrapped where defined
            assert obj.__module__ == f"madm.{short}", name
    sweep = inspect.signature(engine.corrector_sweep).parameters
    assert {"kind", "poisson_cap"} <= set(sweep)
    oracle = inspect.signature(targets.diffused_empirical_oracle).parameters
    assert "data" in oracle


@pytest.mark.parametrize("workload", ["gaussian-two-coin", "verify-exact",
                                      "checkerboard-hybrid"])
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
    if workload == "checkerboard-hybrid":
        # the hybrid's exact rounds, its capped rows and its fallback
        assert metrics["engine.hybrid.capped_rows"]["value"] > 0
        assert metrics["engine.quadrature.rows"]["value"] > 0
