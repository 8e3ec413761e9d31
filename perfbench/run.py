"""madm benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload checkerboard-hybrid --seed 1 \
        --seconds 35 --trace 0

Workloads: checkerboard-hybrid, gaussian-two-coin and verify-exact, the three
that BENCHMARK.json lists, and spiral-ancestral, which runs only on request
(see README.md).  Each is a closed-loop batch job: a round of
jobs runs to completion before the next round starts, and rounds repeat until
``--seconds`` is spent.  The program runs single-threaded (``run.threads=1``).

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` prints the per-layer metrics: half the time runs untraced, half
traced, and the difference of the two is reported as the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
describes the environment.  Both, with the per-round figures and the checks,
also go to ``.perfbench_out/`` (and, for a traced run, every span).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

PROBES = 5                  # fresh processes timed for setup_s
TRACE_PROBES = 3


def _program_path() -> None:
    """Put the checkout's own sources first on the import path."""
    if not (SRC / "madm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no madm sources at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))


# -- environment ---------------------------------------------------------------

def _blas() -> dict:
    """The BLAS library numpy loaded and the thread count it will use."""
    import ctypes

    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    info = {"name": deps.get("blas", {}).get("name"),
            "version": deps.get("blas", {}).get("version"),
            "threads": None, "library": None}
    # wheels ship the library beside the package; loading it again returns
    # the handle numpy already holds
    pkg = Path(numpy.__file__).parent
    libs = sorted(glob.glob(str(pkg.parent / "numpy.libs" / "*openblas*"))
                  + glob.glob(str(pkg / ".libs" / "*openblas*")))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info.update(threads=int(fn()), library=os.path.basename(path))
                return info
    return info


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() or "unavailable"


def environment() -> dict:
    import numpy
    import scipy

    return {"git_sha": _git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": _blas(),
            "program_threads": 1, "machine": platform.machine()}


# -- set-up time ---------------------------------------------------------------

def probe_setup(workload: str, seed: int, scale: str, count: int) -> list[dict]:
    """Start ``count`` fresh interpreters, one after another, each doing what
    a run does before its first score evaluation; return their phase times."""
    out = []
    for _ in range(count):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), workload, str(seed), scale],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT))
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        stamps = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append({"setup_s": stamps["oracle"] - t0,
                    "import_s": stamps["import"] - t0,
                    "config_s": stamps["config"] - stamps["import"],
                    "dataset_s": stamps["dataset"] - stamps["config"],
                    "oracle_s": stamps["oracle"] - stamps["dataset"]})
    return out


# -- timed rounds ----------------------------------------------------------------

class Rounds:
    """Closed-loop rounds of one workload, with the per-round records."""

    def __init__(self, workload, registry):
        self.workload = workload
        self.registry = registry
        self.times = []
        self.rows = []
        self.digests = []
        self.attempted = 0
        self.failed = 0
        self.outputs = None

    def run(self, seconds: float, call=None) -> None:
        """Repeat rounds while the next one should end within ``seconds``."""
        w = self.workload
        call = call or w.run
        start = perf_counter()
        first = len(self.times)
        while True:
            self.registry.clear()
            outputs = []
            t0 = perf_counter()
            for job in w.jobs:
                try:
                    outputs.append(call(job))
                except Exception:   # counted, reported, and the round goes on
                    traceback.print_exc()
                    outputs.append(None)
            self.times.append(perf_counter() - t0)
            self.attempted += len(outputs)
            self.failed += sum(o is None for o in outputs)
            self.rows.append(self.registry.queries())
            digest = hashlib.sha256()
            for o in outputs:
                digest.update(b"failed" if o is None else w.fingerprint(o))
            self.digests.append(digest.hexdigest())
            self.outputs = outputs
            elapsed = perf_counter() - start
            if elapsed + self.run_s(first) > seconds:
                break

    def run_s(self, first: int = 0, last: int | None = None) -> float:
        """Mean wall time of a round: the host's speed changes in plateaus
        of seconds, and a mean over the whole run spans more of them than the
        median round, which sits inside one."""
        return statistics.fmean(self.times[first:last])


# -- checks --------------------------------------------------------------------------

def run_checks(workload, rounds: Rounds, timer: dict) -> list[dict]:
    results = []
    repeat_ok = len(set(rounds.digests)) == 1 and len(set(rounds.rows)) == 1
    results.append({"check": "rerun-identical", "ok": repeat_ok,
                    "detail": f"{len(rounds.digests)} rounds, "
                              f"{len(set(rounds.digests))} distinct outputs, "
                              f"score rows {sorted(set(rounds.rows))}"})
    done = [o for o in rounds.outputs if o is not None]
    if not done:
        results.append({"check": "outputs", "ok": False, "detail": "every job failed"})
        return results
    try:
        good, controls = workload.check(rounds.outputs, timer)
    except Exception:   # a check that cannot run is a failed check, not a crash
        results.append({"check": "checks-ran", "ok": False,
                        "detail": traceback.format_exc(limit=3)})
        return results
    for name, ok, detail in good:
        results.append({"check": name, "ok": bool(ok), "detail": detail})
    for name, ok, detail in controls:
        # a negative control passes when its check rejects the wrong output
        results.append({"check": f"negative-control:{name}", "ok": not ok,
                        "detail": detail})
    return results


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke-run sizes")
    args = parser.parse_args(argv)

    _program_path()
    sys.path.insert(0, str(BENCH))
    import madm
    import workloads
    from tracing import OracleRegistry, Tracer

    if Path(madm.__file__).resolve().parent != (SRC / "madm").resolve():
        sys.exit(f"perfbench: imported madm from {madm.__file__}, not {SRC}")
    if args.workload not in workloads.SIZES:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"expected one of {sorted(workloads.SIZES)}")

    env = environment()
    w = workloads.Workload(args.workload, args.seed, args.scale)
    registry = OracleRegistry()
    registry.install()
    setups = probe_setup(args.workload, args.seed, args.scale,
                         TRACE_PROBES if args.trace else PROBES)

    # one small untimed job first: lazy imports, BLAS thread start-up
    w.warm_up()
    rounds = Rounds(w, registry)
    timer = {"diagnostics.nn_distances": 0.0}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "scale": args.scale, "environment": env}
    if not args.trace:
        rounds.run(args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run_s = rounds.run_s()
        decisions = sum(w.decisions(o) for o in rounds.outputs if o is not None)
        metrics = {
            "setup_s": _metric(statistics.median(s["setup_s"] for s in setups), "s"),
            "run_s": _metric(run_s, "s"),
            "decisions_per_s": _metric(decisions / run_s, "1/s"),
            "score_rows": _metric(statistics.median(rounds.rows), "count"),
            "peak_rss_mb": _metric(peak_mb, "MB"),
        }
    else:
        rounds.run(args.seconds / 2)
        untraced = len(rounds.times)
        tracer = Tracer(registry)
        tracer.install()
        unseen = []
        try:
            def traced(job):
                tracer.run_id += 1
                return tracer.job(w.run, job)

            while True:
                tracer.rows_by_oracle.clear()
                tracer.components.clear()
                rounds.run(0.0, call=traced)   # one round at a time
                unseen += tracer.unseen_queries()
                if sum(rounds.times[untraced:]) + rounds.times[-1] > args.seconds / 2:
                    break
        finally:
            tracer.uninstall()
        n_traced = len(rounds.times) - untraced
        layer = tracer.layer_metrics(n_traced)
        traced_s = rounds.run_s(untraced)
        layer["trace.run_s"] = (traced_s, "s")
        layer["trace.overhead_s"] = (traced_s - rounds.run_s(0, untraced), "s")
        for phase in ("import_s", "config_s", "dataset_s", "oracle_s"):
            layer[f"setup.{phase}"] = (statistics.median(s[phase] for s in setups), "s")
        record["spans"] = tracer.span_table(n_traced)
        record["unseen_queries"] = unseen
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.csv.gz")
        metrics = None
    registry.uninstall()

    checks = run_checks(w, rounds, timer)
    if args.trace:
        checks.append({"check": "trace-sees-every-query", "ok": not unseen,
                       "detail": "; ".join(unseen[:3]) or "all oracle queries traced"})
        layer["diagnostics.nn_distances.busy_s"] = (timer["diagnostics.nn_distances"], "s")
        metrics = {k: _metric(v, u) for k, (v, u) in sorted(layer.items())}
    correct = all(c["ok"] for c in checks)
    for c in checks:
        if not c["ok"]:
            print(f"perfbench: check {c['check']} failed: {c['detail']}", file=sys.stderr)

    result = {"correct": correct, "attempted": rounds.attempted,
              "failed": rounds.failed, "metrics": metrics}
    record.update(rounds={"seconds": rounds.times, "score_rows": rounds.rows},
                  setups=setups, checks=checks, result=result)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
