#!/usr/bin/env python3
"""Checkerboard bias demonstration: unadjusted vs adjusted correctors.

Runs the fig1-checkerboard preset twice (corrector = ula, corrector =
hybrid) plus a predictor-only baseline, then emits the plot CSVs and the
distance table.  About two minutes at full scale (108 s on a 2-core
host, 70 s of it the hybrid run); pass --fast for a 10x smaller version.

    python3 scripts/run_fig1.py --out runs/fig1 [--fast] [--seed N]
"""

import argparse
import sys
from pathlib import Path

from madm.cli import main as madm_main

FAST = ["--set", "run.chains=1000", "--set", "target.n_points=400"]


def run(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="runs/fig1")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--fast", action="store_true")
    args = parser.parse_args(argv)
    out = Path(args.out)

    for name, corrector in (("predictor-only", "none"),
                            ("ula", "ula"), ("madm", "hybrid")):
        cmd = ["sample", "--preset", "fig1-checkerboard", "--quiet",
               "--out", str(out / name)]
        if corrector == "none":
            cmd += ["--set", "corrector.kind=none"]
        else:
            cmd += ["--corrector", corrector]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.fast:
            cmd += FAST
        print(f"[{name}] madm " + " ".join(cmd))
        code = madm_main(cmd)
        if code != 0:
            return code
    return madm_main(["plotdata", str(out), "--out", str(out / "plots")])


if __name__ == "__main__":
    sys.exit(run())
