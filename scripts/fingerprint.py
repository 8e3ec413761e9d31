#!/usr/bin/env python3
"""Print one sha256 per case for a fixed set of small sampler runs.

Two builds of ``madm`` that draw, decide and report alike print the same
lines, so running this file against two checkouts shows whether a change
kept the output byte for byte:

    PYTHONPATH=src python3 scripts/fingerprint.py
    PYTHONPATH=/path/to/other/checkout/src python3 scripts/fingerprint.py

The cases are every corrector kind through ``engine.corrector_sweep`` (5
steps of 3000 chains; samples, scores, every ``SweepStats`` field and the
generator state) and ``run_pc`` on nine small preset configurations
(samples, the flat config and the report without its wall time; each run
also prints a digest of its samples alone, so a change to query counts or
report keys can be told apart from a change to the draws).  On a
target whose line integrand is not affine (score -x + 0.8 sin x), so that
the Poisson products draw factors, they are also two-coin and hybrid sweeps
on the ``lipschitz-sharp`` and ``lipschitz`` envelopes (5 steps of 1000
chains), and both replicate samplers of ``madm.adjust_exact`` on one fixed
proposal under each of those envelopes: the W draws on the route's line,
the two-coin decisions on the proposal and the route as the sweep decides
them.
``madm`` is imported from ``PYTHONPATH`` (or the installed package), never
looked up beside this file.
"""

import dataclasses
import hashlib
import json
import sys

import numpy as np

from madm import engine
from madm.adjust_exact import poisson_w_replicates, two_coin_replicates
from madm.adjust_quadrature import simpson13
from madm.config import apply_overrides, preset_run_config
from madm.engine import BoundSpec
from madm.sampler import run_pc
from madm.schedule import NoiseSchedule
from madm.targets import ScoreOracle, gaussian_oracle

SWEEP_KINDS = ("ula", "two-coin", "quadrature", "hybrid", "oracle-mh")

RUNS = {
    "fig1-hybrid": ("fig1-checkerboard", ["corrector.kind=hybrid"]),
    "fig1-simpson13": ("fig1-checkerboard", ["corrector.kind=simpson13"]),
    "fig1-ula": ("fig1-checkerboard", ["corrector.kind=ula"]),
    "fig1-heun": ("fig1-checkerboard", ["predictor.kind=pf-ode-heun"]),
    "gaussian-two-coin": ("gaussian-bias", ["corrector.kind=two-coin"]),
    "gaussian-oracle-mh": ("gaussian-bias", ["corrector.kind=oracle-mh"]),
    "gaussian-trapezoid": ("gaussian-bias", ["corrector.kind=trapezoid"]),
    "gaussian-hybrid-threads2": ("gaussian-bias", ["corrector.kind=hybrid",
                                                   "run.threads=2"]),
    "spiral": ("spiral", []),
}

RIPPLED_SWEEPS = [(kind, route) for kind in ("two-coin", "hybrid")
                  for route in ("lipschitz-sharp", "lipschitz")]
REPLICATES = [(sampler, route) for sampler in ("w", "two-coin")
              for route in ("lipschitz-sharp", "lipschitz")]

# shrink each preset to a few seconds of work
SMALL = {
    "fig1-checkerboard": ["run.chains=200", "target.n_points=400"],
    "gaussian-bias": ["run.chains=64", "corrector.steps=200"],
    "spiral": ["run.chains=200", "target.n_points=500",
               "corrector.steps=5"],
}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else
                 json.dumps(part, sort_keys=True, default=repr).encode())
    return h.hexdigest()


def sweep_case(kind: str) -> str:
    oracle = gaussian_oracle(np.zeros(2), 1.0)
    rng = np.random.default_rng(2024)
    X = rng.standard_normal((3000, 2))
    X, S, stats = engine.corrector_sweep(
        X, oracle.score(X, 1.0), oracle, 1.0, 0.4, kind, rng,
        schedule=NoiseSchedule.edm(), bound=BoundSpec("lipschitz"),
        rule=simpson13(), hybrid_rounds=3, steps=5)
    return _digest(X.tobytes(), S.tobytes(), dataclasses.asdict(stats),
                   rng.bit_generator.state)


def rippled_oracle(a=0.8) -> ScoreOracle:
    """Score -x + a sin x, so L = 1 + a and the line integrand bends."""
    return ScoreOracle(dim=1, score_fn=lambda x, t: -x + a * np.sin(x),
                       lipschitz=1.0 + a, name="rippled")


def rippled_sweep_case(kind: str, route: str) -> str:
    # the cap lets every hybrid row with 2C <= 60 try its exact rounds
    oracle = rippled_oracle()
    rng = np.random.default_rng(2025)
    X = rng.standard_normal((1000, 1))
    X, S, stats = engine.corrector_sweep(
        X, oracle.score(X, 1.0), oracle, 1.0, 0.2, kind, rng,
        schedule=NoiseSchedule.edm(), bound=BoundSpec(route),
        rule=simpson13(), hybrid_rounds=3, poisson_cap=60.0, steps=5)
    return _digest(X.tobytes(), S.tobytes(), dataclasses.asdict(stats),
                   rng.bit_generator.state)


def replicate_case(sampler: str, route: str) -> str:
    # one fixed proposal -0.4 -> 1.1 at h = 0.5; the W draws run from x with
    # the route's C, on the line through the endpoint integrands on the
    # sharp route
    oracle = rippled_oracle()
    X, Xt = np.array([[-0.4]]), np.array([[1.1]])
    S, St = oracle.score(X, 1.0), oracle.score(Xt, 1.0)
    rng = np.random.default_rng(2026)
    if sampler == "two-coin":
        out = two_coin_replicates(X, Xt, S, St, 0.5, 1.0, BoundSpec(route),
                                  oracle, rng, 5_000)
        out.pop("swap")   # a function of the proposal, not of the draws
    else:
        V, f0, f1, _, C, _ = engine.proposal_terms(
            X, Xt, S, St, 0.5, bound=BoundSpec(route), t=1.0, oracle=oracle,
            schedule=NoiseSchedule.edm())
        C = float(C[0])
        kw = ({"baseline": (float(f0[0]), float(f1[0] - f0[0]))}
              if route == "lipschitz-sharp" else {})
        out = {"w": poisson_w_replicates(X[0], V[0], C, 1.0, oracle, rng,
                                         20_000, **kw)}
    return _digest(*(np.asarray(out[k]).tobytes() for k in sorted(out)),
                   rng.bit_generator.state)


def run_case(name: str) -> tuple[str, str]:
    """The run's digest and its samples' digest."""
    preset, overrides = RUNS[name]
    config = apply_overrides(preset_run_config(preset),
                             SMALL[preset] + overrides)
    report = run_pc(config)
    summary = report.summary_dict()
    summary.pop("wall_time_s")
    samples = np.ascontiguousarray(report.samples).tobytes()
    return (_digest(samples, config.to_flat_dict(), summary),
            _digest(samples))


def main() -> int:
    for kind in SWEEP_KINDS:
        print(f"{sweep_case(kind)}  sweep-{kind}", flush=True)
    for name in RUNS:
        run, samples = run_case(name)
        print(f"{run}  run-{name}\n{samples}  samples-{name}", flush=True)
    for kind, route in RIPPLED_SWEEPS:
        print(f"{rippled_sweep_case(kind, route)}  rippled-{kind}-{route}",
              flush=True)
    for sampler, route in REPLICATES:
        print(f"{replicate_case(sampler, route)}  replicates-{sampler}-{route}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
