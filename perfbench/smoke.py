"""Smoke run of the benchmark at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For every workload (those BENCHMARK.json lists and spiral-ancestral, which
runs only on request), with tracing off and on, it asserts that the run exits 0,
that its last line carries ``correct``, ``attempted`` and ``failed`` and
every metric BENCHMARK.json names for that mode with its unit, and that the
line before records the git sha, nproc, the Python, numpy and scipy versions,
and the BLAS library with its thread count.  It also asserts that the
benchmark refuses to run, printing no result, where the program's sources
are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
from workloads import SIZES  # noqa: E402


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable if c == "python3" else c for c in SPEC["command"]]
    return subprocess.run(
        cmd + ["--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_output(proc, workload: str, trace: int) -> None:
    where = f"{workload} trace={trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert isinstance(result["failed"], int) and result["failed"] >= 0, where
    assert result["correct"] is True, f"{where}: checks failed\n{proc.stderr}"
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}, \
        f"{where}: metric names differ: {set(got) ^ {m['name'] for m in wanted}}"
    for m in wanted:
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], f"{where}: unit of {m['name']}"
        assert isinstance(entry["value"], (int, float)), f"{where}: {m['name']}"
    env = json.loads(lines[-2])["environment"]
    for key in ("git_sha", "nproc", "python", "numpy", "scipy"):
        assert env.get(key), f"{where}: environment lacks {key}"
    assert env["blas"]["name"] and env["blas"]["threads"], f"{where}: BLAS"


def check_refuses_without_program() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, "verify-exact", 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "ran without the program's sources"
    assert '"metrics"' not in proc.stdout, "printed a result without the program"


def main() -> int:
    listed = {w["name"] for w in SPEC["workloads"]}
    assert listed <= set(SIZES), f"BENCHMARK.json names unknown workloads {listed - set(SIZES)}"
    for name in SIZES:
        for trace in (0, 1):
            check_output(run(ROOT, name, trace), name, trace)
            print(f"ok {name} trace={trace}", flush=True)
    check_refuses_without_program()
    print("ok refuses to run without src/madm")
    return 0


if __name__ == "__main__":
    sys.exit(main())
