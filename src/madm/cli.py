"""Command-line front end: sampling runs, verification suites, scaling curves.

Commands
--------
sample    run the predictor-corrector sampler; writes samples.csv,
          diagnostics.csv and report.json into the output directory.
verify    run one named property suite; writes verify_<suite>.json and
          exits nonzero on failure.
scaling   emit the (l, A(l), l^2 A(l)) curve CSV plus the measured
          finite-dimensional acceptance/ESJD comparison CSV.
plotdata  post-process sampling run directories into gnuplot-ready CSVs
          (true cloud, per-run samples, distance metrics).

Exit codes: 0 success, 1 failed verification, 2 configuration error,
3 numerical error.  The environment variable MADM_OUT overrides --out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, diagnostics, verify
from .config import (CORRECTOR_NAMES, PRESETS, RunConfig, apply_overrides,
                     config_from_file, expand_preset, preset_run_config)
from .errors import ConfigError, MadmError
from .sampler import run_oracle, run_pc, run_plan
from .targets import DATASET_NAMES, dataset_to_csv, generate_dataset

VERSION_STRING = f"v{__version__}"


def _out_dir(args) -> Path:
    out = os.environ.get("MADM_OUT") or args.out
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _load_run_config(args) -> tuple[RunConfig, str | None]:
    if args.preset and args.config:
        raise ConfigError("give either --preset or --config, not both")
    if args.preset:
        cfg = preset_run_config(args.preset)
        name = args.preset
    elif args.config:
        cfg = config_from_file(args.config)
        name = None
    else:
        raise ConfigError("sample needs --preset or --config")
    overrides = list(args.set or [])
    if args.corrector:
        overrides.append(f"corrector.kind={args.corrector}")
    if args.seed is not None:
        overrides.append(f"run.seed={args.seed}")
    if args.threads is not None:
        overrides.append(f"run.threads={args.threads}")
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    return cfg, name


def cmd_sample(args) -> int:
    cfg, preset = _load_run_config(args)
    schedule, _ = run_plan(cfg)
    oracle = run_oracle(cfg, schedule)
    out = _out_dir(args)
    echo = cfg.to_flat_dict()
    if not args.quiet:
        for key in sorted(echo):
            print(f"{key} = {echo[key]}")
    report = run_pc(cfg, oracle)
    report.write_samples_csv(out / "samples.csv")
    report.write_diagnostics_csv(out / "diagnostics.csv")
    payload = {
        "version": VERSION_STRING,
        "preset": preset,
        "config": echo,
    }
    payload.update(report.summary_dict())
    _write_json(out / "report.json", payload)
    if not args.quiet:
        print(f"wrote {out}/samples.csv ({report.chains} rows), "
              f"diagnostics.csv, report.json in {report.wall_time:.1f}s "
              f"({report.total_queries} score queries)")
    return 0


def cmd_verify(args) -> int:
    if args.suite not in verify.SUITES:
        print(f"unknown suite {args.suite!r}; valid suites: "
              f"{', '.join(sorted(verify.SUITES))}", file=sys.stderr)
        return 2
    out = _out_dir(args)
    started = time.perf_counter()
    verdict = verify.run_suite(args.suite, seed=args.seed)
    verdict["wall_time_s"] = time.perf_counter() - started
    verdict["version"] = VERSION_STRING
    _write_json(out / f"verify_{args.suite}.json", verdict)
    if "errors" in verdict and "h" in verdict:
        # tabular companion for the error-decay suites
        names = sorted(verdict["errors"])
        with open(out / f"verify_{args.suite}.csv", "w") as fh:
            fh.write("h," + ",".join(names) + "\n")
            for i, h in enumerate(verdict["h"]):
                row = ",".join(f"{verdict['errors'][n][i]:.17g}"
                               for n in names)
                fh.write(f"{h:.17g},{row}\n")
    print(f"{args.suite}: {'PASS' if verdict['pass'] else 'FAIL'}")
    return 0 if verdict["pass"] else 1


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, num = spec.split(":")
        grid = np.linspace(float(start), float(stop), int(num))
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {spec!r}; expected start:stop:num") from exc
    if np.any(grid <= 0):
        raise ConfigError("grid values must be positive")
    return grid


def _parse_dims(spec: str) -> tuple:
    try:
        dims = tuple(int(d) for d in spec.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad dims {spec!r}; expected D1,D2,...") from exc
    if min(dims) < 1:
        raise ConfigError(f"dims must be >= 1, got {spec!r}")
    return dims


def cmd_scaling(args) -> int:
    preset = expand_preset(args.preset) if args.preset else expand_preset("scaling")
    if preset.get("command") != "scaling":
        raise ConfigError(f"preset {args.preset!r} is not a scaling preset")
    grid = _parse_grid(args.grid or preset["grid"])
    dims = _parse_dims(args.dims) if args.dims else tuple(preset["dims"])
    proposals = (args.proposals if args.proposals is not None
                 else preset["proposals"])
    seed = args.seed if args.seed is not None else preset["seed"]
    if proposals < 1:
        raise ConfigError(f"proposals must be >= 1, got {proposals}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")

    out = _out_dir(args)
    curve = diagnostics.optimal_scaling_curve(grid)
    with open(out / "scaling_curve.csv", "w") as fh:
        fh.write("l,acceptance,efficiency\n")
        for l, a, e in curve.rows():
            fh.write(f"{l:.17g},{a:.17g},{e:.17g}\n")

    root = np.random.SeedSequence(seed)
    rows = []
    for child, d in zip(root.spawn(len(dims)), dims):
        rng = np.random.Generator(np.random.Philox(child))
        acc, esjd_val = diagnostics.empirical_scaling_acceptance(
            d, curve.l_star, proposals, rng)
        rows.append((d, curve.l_star ** 2 * d ** (-1.0 / 3.0), acc, esjd_val))
    with open(out / "scaling_empirical.csv", "w") as fh:
        fh.write("d,h,acceptance,esjd\n")
        for d, h, acc, esjd_val in rows:
            fh.write(f"{d},{h:.17g},{acc:.17g},{esjd_val:.17g}\n")

    _write_json(out / "scaling.json", {
        "version": VERSION_STRING,
        "seed": seed,
        "l_star": curve.l_star,
        "acceptance_at_star": curve.acceptance_at_star,
        "empirical": [{"d": d, "h": h, "acceptance": acc, "esjd": e}
                      for d, h, acc, e in rows],
    })
    print(f"l* = {curve.l_star:.4f}, acceptance at l* = "
          f"{curve.acceptance_at_star:.4f}")
    return 0


def _find_runs(run_dir: Path) -> list[Path]:
    if (run_dir / "report.json").exists():
        return [run_dir]
    runs = sorted(p.parent for p in run_dir.glob("*/report.json"))
    if not runs:
        raise ConfigError(f"no report.json found under {run_dir}")
    return runs


def cmd_plotdata(args) -> int:
    configs = {}
    for run in _find_runs(Path(args.run_dir)):
        with open(run / "report.json") as fh:
            cfg = json.load(fh)["config"]
        if cfg["target.kind"] not in DATASET_NAMES:
            raise ConfigError(
                f"plotdata supports 2D dataset targets, run {run.name} used "
                f"{cfg['target.kind']!r}"
            )
        configs[run] = cfg
    out = _out_dir(args)
    clouds_written = {}
    lines = ["run,target,mean_distance,containment_q95"]
    for run, cfg in configs.items():
        kind = cfg["target.kind"]
        samples = np.loadtxt(run / "samples.csv", delimiter=",", ndmin=2)
        if kind not in clouds_written:
            cloud = generate_dataset(kind, int(cfg["run.reference_points"]),
                                     int(cfg["run.reference_seed"]))
            dataset_to_csv(cloud, out / f"true_{kind}.csv")
            clouds_written[kind] = cloud
        cloud = clouds_written[kind]
        dists = diagnostics.nn_distances(samples, cloud.points)
        shutil.copyfile(run / "samples.csv", out / f"{run.name}_samples.csv")
        lines.append(f"{run.name},{kind},{np.mean(dists):.17g},"
                     f"{np.quantile(dists, 0.95):.17g}")
    (out / "distances.csv").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="madm",
        description="Metropolis-adjusted Langevin correctors for "
                    "score-based diffusion sampling",
    )
    parser.add_argument("--version", action="version", version=VERSION_STRING)
    sub = parser.add_subparsers(dest="command", required=True)

    sample = sub.add_parser("sample", help="run the predictor-corrector sampler")
    sample.add_argument("--config", help="ini-style config file")
    sample.add_argument("--preset", choices=sorted(PRESETS),
                        help="named experiment preset")
    sample.add_argument("--seed", type=int, default=None)
    sample.add_argument("--out", default="out")
    sample.add_argument("--threads", type=int, default=None)
    sample.add_argument("--corrector",
                        choices=[c for c in CORRECTOR_NAMES if c != "none"],
                        default=None, help="override the corrector kind")
    sample.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                        help="override any config key (repeatable)")
    sample.add_argument("--quiet", action="store_true")
    sample.set_defaults(func=cmd_sample)

    ver = sub.add_parser("verify", help="run a named verification suite")
    ver.add_argument("suite")
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--out", default="out")
    ver.set_defaults(func=cmd_verify)

    scal = sub.add_parser("scaling", help="emit the optimal-scaling curves")
    scal.add_argument("--grid", default=None, metavar="START:STOP:NUM")
    scal.add_argument("--dims", default=None, metavar="D1,D2,...")
    scal.add_argument("--proposals", type=int, default=None)
    scal.add_argument("--seed", type=int, default=None)
    scal.add_argument("--preset", default=None)
    scal.add_argument("--out", default="out")
    scal.set_defaults(func=cmd_scaling)

    plot = sub.add_parser("plotdata", help="emit plot CSVs for finished runs")
    plot.add_argument("run_dir")
    plot.add_argument("--out", default="out")
    plot.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except MadmError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
