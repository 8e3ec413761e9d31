#!/usr/bin/env python3
r"""Time the diffused-mixture score per call on every fig1 level.

For each level of the fig1-checkerboard preset (1200 components, vp-discrete
ladder with T = 18) and each call size of 7, 200 and 10 000 rows, this times
``oracle.score`` on rows drawn from that level's diffused mixture and prints
the median seconds per call and per row.  The header gives the git sha of
the ``madm`` checkout, the CPU count and the BLAS library with its thread
count, so two records can be told apart:

    PYTHONPATH=src python3 scripts/bench_kernel.py
    PYTHONPATH=src python3 scripts/bench_kernel.py --label change \
        --json BENCH_mixture_kernel.json

``--json`` adds the record under ``--label`` to the file (creating it), so
runs against two checkouts land side by side.  ``madm`` is imported from
``PYTHONPATH`` (or the installed package), never looked up beside this file.
"""

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import madm
from madm.config import preset_run_config
from madm.sampler import run_plan
from madm.targets import generate_dataset

PRESET = "fig1-checkerboard"
SIZES = (7, 200, 10_000)
# calls timed per size: about 20 s for the whole ladder on 2 cores
REPEATS = {7: 400, 200: 100, 10_000: 5}


def git_sha() -> str:
    """The checkout's commit, with ``-dirty`` when its files differ from it."""
    here = Path(madm.__file__).resolve().parent
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty",
                               "--abbrev=40"], cwd=here,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def blas_info() -> dict:
    """numpy's BLAS build entry and, for OpenBLAS, its live thread count."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads": None}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                get_threads = getattr(lib, symbol)
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                info["threads"] = get_threads()
                return info
    return info


def time_calls(oracle, x, t, repeats) -> float:
    """Median wall seconds of one ``oracle.score(x, t)`` call."""
    oracle.score(x, t)  # warm the level cache
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        oracle.score(x, t)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", default="run")
    parser.add_argument("--json", type=Path,
                        help="add the record to this JSON file under --label")
    args = parser.parse_args(argv)

    cfg = preset_run_config(PRESET)
    schedule, plan = run_plan(cfg)
    oracle = cfg.target.build_oracle(schedule)
    points = generate_dataset(cfg.target.kind, cfg.target.n_points,
                              cfg.target.data_seed).points
    record = {"git_sha": git_sha(), "nproc": os.cpu_count(),
              "blas": blas_info(), "python": platform.python_version(),
              "numpy": np.__version__, "preset": PRESET,
              "components": len(points), "levels": []}
    print(f"git {record['git_sha']}  nproc {record['nproc']}  "
          f"blas {record['blas']['name']} {record['blas']['version']} "
          f"threads {record['blas']['threads']}")
    print(f"{'t':>8} {'rows':>6} {'s/call':>11} {'us/row':>8}")
    rng = np.random.default_rng(0)
    for level in plan:
        r, sigma = schedule.marginal_params(level.t)
        entry = {"t": level.t, "calls": []}
        for rows in SIZES:
            # draws from the level's own mixture, as the sampler's chains are
            x = (r * points[rng.integers(0, len(points), rows)]
                 + r * sigma * rng.standard_normal((rows, 2)))
            per_call = time_calls(oracle, x, level.t, REPEATS[rows])
            entry["calls"].append({"rows": rows, "s_per_call": per_call,
                                   "us_per_row": 1e6 * per_call / rows})
            print(f"{level.t:8.4f} {rows:6d} {per_call:11.3e} "
                  f"{1e6 * per_call / rows:8.3f}", flush=True)
        record["levels"].append(entry)
    totals = {rows: sum(c["s_per_call"] for lv in record["levels"]
                        for c in lv["calls"] if c["rows"] == rows)
              for rows in SIZES}
    record["sum_s_per_call_over_levels"] = {str(k): v
                                            for k, v in totals.items()}
    print("sum over levels, s/call: " + "  ".join(
        f"{rows} rows {v:.3e}" for rows, v in totals.items()))
    if args.json is not None:
        store = json.loads(args.json.read_text()) if args.json.exists() else {}
        store[args.label] = record
        args.json.write_text(json.dumps(store, indent=2, sort_keys=True)
                             + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
