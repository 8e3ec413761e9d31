"""Predictors and the full predictor-corrector sampling loop.

The reverse-time generative dynamics split into a deterministic
probability-flow drift (the predictor) and a Langevin refinement at a fixed
noise level (the corrector).  One run walks the noise levels from t = 1 down
to t = 0, taking a single predictor step per level transition followed by K
corrector steps targeting the level just reached.

Chains start from N(0, I) at t = 1 and are held in one array per thread
block.  Each level's corrector steps run in lockstep sweeps, except the
exact two-coin corrector's, whose chains each run their K steps out of
lockstep (:func:`madm.engine.corrector_sweep`).  Runs are fully
reproducible from the seed (each thread block draws from its own spawned
stream, merged in block order).
"""

from __future__ import annotations

import functools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import engine
from .adjust_exact import BoundSpec
from .adjust_quadrature import rule_by_name
from .config import RunConfig
from .errors import ConfigError, MadmError, NonFiniteError
from .schedule import NoiseSchedule, VP_DISCRETE
from .targets import ScoreOracle


# ---------------------------------------------------------------------------
# Predictor steps
# ---------------------------------------------------------------------------

def _check_drift(arr, what: str):
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite {what}")


def ancestral_step(x, oracle: ScoreOracle, t: float, beta: float,
                   rng: Optional[np.random.Generator], z=None,
                   add_noise: bool = True):
    """One reverse step of the discrete-chain sampler.

    x_prev = (x + beta * s(x, t)) / sqrt(1 - beta) + sqrt(beta) * z.

    ``z`` pins the innovation; ``add_noise=False`` gives the conventional
    noiseless final step.
    """
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"beta must lie in (0, 1), got {beta}")
    x = np.asarray(x, dtype=float)
    s = oracle.score(x, t)
    _check_drift(s, f"score in ancestral step at t={t}")
    out = (x + beta * s) / math.sqrt(1.0 - beta)
    if add_noise:
        if z is None:
            z = rng.standard_normal(x.shape)
        out = out + math.sqrt(beta) * np.asarray(z, dtype=float)
    return out


def _pf_drift(x, oracle, schedule, t):
    s = oracle.score(x, t)
    f = schedule.f(t)
    g = schedule.g(t)
    drift = -f * x + 0.5 * g * g * s
    _check_drift(drift, f"probability-flow drift at t={t}")
    return drift


def pf_ode_step_euler(x, oracle: ScoreOracle, schedule: NoiseSchedule,
                      t: float, dt: float):
    """Explicit Euler step of the probability-flow drift, from t to t - dt."""
    if dt <= 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    x = np.asarray(x, dtype=float)
    return x + dt * _pf_drift(x, oracle, schedule, t)


def pf_ode_step_heun(x, oracle: ScoreOracle, schedule: NoiseSchedule,
                     t: float, dt: float):
    """Heun step: Euler predictor plus trapezoidal drift correction (2 queries)."""
    if dt <= 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    x = np.asarray(x, dtype=float)
    d1 = _pf_drift(x, oracle, schedule, t)
    x_euler = x + dt * d1
    d2 = _pf_drift(x_euler, oracle, schedule, t - dt)
    return x + 0.5 * dt * (d1 + d2)


# ---------------------------------------------------------------------------
# Level plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Level:
    index: int
    t_from: Optional[float]
    t: float
    beta: Optional[float]  # ladder beta of the arriving transition


def _level_plan(config: RunConfig, schedule: NoiseSchedule) -> list[_Level]:
    pk = config.predictor.kind
    t_end = config.predictor.t_end
    if pk == "none":
        return [_Level(index=0, t_from=None, t=1.0, beta=None)]
    if schedule.kind == VP_DISCRETE:
        T = schedule.T
        if config.predictor.steps not in (0, T):
            raise ConfigError(
                f"predictor steps ({config.predictor.steps}) must match the "
                f"ladder length T={T} for vp-discrete schedules"
            )
        k_end = math.ceil(t_end * T - 1e-9)
        if k_end >= T:
            raise ConfigError(f"t_end={t_end} leaves no levels on the ladder")
        return [_Level(index=k, t_from=(k + 1) / T, t=k / T,
                       beta=float(schedule.betas[k]))
                for k in range(T - 1, k_end - 1, -1)]
    if pk == "ancestral":
        raise ConfigError("the ancestral predictor requires a vp-discrete schedule")
    steps = config.predictor.steps
    if steps < 1:
        raise ConfigError("pf-ode predictors need steps >= 1 for this schedule")
    k_end = math.ceil(t_end * steps - 1e-9)
    if k_end >= steps:
        raise ConfigError(f"t_end={t_end} leaves no levels on the grid")
    return [_Level(index=k, t_from=(k + 1) / steps, t=k / steps, beta=None)
            for k in range(steps - 1, k_end - 1, -1)]


def _corrector_step_size(config: RunConfig, schedule: NoiseSchedule,
                         level: _Level) -> float:
    c = config.corrector.step_scale
    rule = config.corrector.step_rule
    if rule == "const":
        return c
    if rule == "beta":
        if level.beta is None:
            raise ConfigError("step_rule 'beta' needs a vp-discrete ladder level")
        return c * level.beta
    if rule == "var":
        # step proportional to the marginal noise variance: keeps the step
        # a fixed multiple of the local curvature scale at every level
        std = float(schedule.marginal_std(level.t))
        if std <= 0:
            raise ConfigError(f"step_rule 'var' gives h = 0 at t={level.t}")
        return c * std * std
    sigma = float(schedule.sigma(level.t))
    if sigma <= 0:
        raise ConfigError(f"step_rule 'sigma' gives h = 0 at t={level.t}")
    return c * sigma


def _bound_spec(config: RunConfig, oracle: ScoreOracle) -> BoundSpec:
    name = config.corrector.bound
    if name == "auto":
        if oracle.lipschitz is not None:
            name = "lipschitz"
        elif oracle.denoiser_bound is not None:
            name = "bounded-denoiser"
        else:
            raise ConfigError(
                f"oracle {oracle.name!r} declares neither a Lipschitz constant "
                "nor a denoiser bound; set corrector.bound explicitly"
            )
    return BoundSpec(strategy=name, value=config.corrector.bound_value)


_ENGINE_KIND = {
    "ula": "ula",
    "two-coin": "two-coin",
    "hybrid": "hybrid",
    "oracle-mh": "oracle-mh",
    "trapezoid": "quadrature",
    "simpson13": "quadrature",
    "simpson38": "quadrature",
}


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class LevelStats:
    t: float
    corrector_steps: int
    acceptance_rate: float
    mean_rounds: float
    mean_queries: float
    esjd: float
    predictor_queries: int
    corrector_queries: int
    round_passes: int = 0
    max_rounds: int = 0
    post_mean: Optional[float] = None
    post_var: Optional[float] = None
    post_var_se: Optional[float] = None


@dataclass
class RunReport:
    samples: np.ndarray
    per_level: list[LevelStats]
    seed: int
    chains: int
    predictor_queries: int
    corrector_queries: int
    total_queries: int
    wall_time: float = 0.0

    def write_samples_csv(self, path) -> None:
        np.savetxt(path, np.atleast_2d(self.samples), fmt="%.17g", delimiter=",")

    def write_diagnostics_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("t,acceptance_rate,mean_rounds,mean_queries\n")
            for ls in self.per_level:
                fh.write(f"{ls.t:.17g},{ls.acceptance_rate:.17g},"
                         f"{ls.mean_rounds:.17g},{ls.mean_queries:.17g}\n")

    def summary_dict(self) -> dict:
        per_level = []
        for ls in self.per_level:
            row = {
                "t": ls.t,
                "corrector_steps": ls.corrector_steps,
                "acceptance_rate": ls.acceptance_rate,
                "mean_rounds": ls.mean_rounds,
                "mean_queries": ls.mean_queries,
                "esjd": ls.esjd,
                "predictor_queries": ls.predictor_queries,
                "corrector_queries": ls.corrector_queries,
                "round_passes": ls.round_passes,
                "max_rounds": ls.max_rounds,
            }
            if ls.post_var is not None:
                row.update(post_mean=ls.post_mean, post_var=ls.post_var,
                           post_var_se=ls.post_var_se)
            per_level.append(row)
        return {
            "seed": self.seed,
            "chains": self.chains,
            "predictor_queries": self.predictor_queries,
            "corrector_queries": self.corrector_queries,
            "score_queries": self.total_queries,
            "wall_time_s": self.wall_time,
            "per_level": per_level,
        }


@dataclass
class _LevelAccumulator:
    level: _Level
    corrector_steps: int
    stats: engine.SweepStats = field(default_factory=engine.SweepStats)
    predictor_queries: int = 0
    moment_count: int = 0
    moment_sum: float = 0.0
    moment_sq: float = 0.0
    unit_var_sum: float = 0.0
    unit_var_sq: float = 0.0
    units: int = 0

    def merge(self, other: "_LevelAccumulator") -> None:
        self.stats.merge(other.stats)
        self.predictor_queries += other.predictor_queries
        # blocks run the same sweep schedule, so the per-chain draw count is
        # shared while sums and units pool across chains
        self.moment_count = max(self.moment_count, other.moment_count)
        self.moment_sum += other.moment_sum
        self.moment_sq += other.moment_sq
        self.unit_var_sum += other.unit_var_sum
        self.unit_var_sq += other.unit_var_sq
        self.units += other.units


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def _run_block(config: RunConfig, schedule: NoiseSchedule, oracle: ScoreOracle,
               n_chains: int, seed_seq: np.random.SeedSequence):
    rng = np.random.Generator(np.random.Philox(seed_seq))
    dim = oracle.dim
    plan = _level_plan(config, schedule)
    K = config.corrector.steps
    ck = config.corrector.kind
    engine_kind = None if ck == "none" else _ENGINE_KIND[ck]
    quad_rule = (rule_by_name(ck) if ck in ("trapezoid", "simpson13", "simpson38")
                 else rule_by_name(config.corrector.hybrid_rule))
    bound = (_bound_spec(config, oracle)
             if engine_kind in ("two-coin", "hybrid") else None)
    burn = math.ceil(config.run.burn_in_frac * K) if K > 1 else 0

    X = rng.standard_normal((n_chains, dim))
    accumulators = []
    for level in plan:
        acc = _LevelAccumulator(level=level, corrector_steps=K)
        q_before = oracle.queries
        if level.t_from is not None:
            try:
                X = _predictor_step(X, oracle, schedule, config, level, rng)
            except MadmError as err:
                err.args = (f"predictor into level t={level.t:.6g}: {err}",)
                raise
        acc.predictor_queries = oracle.queries - q_before
        if engine_kind is not None and K > 0 and level.t > 0:
            h = _corrector_step_size(config, schedule, level)
            q_entry = oracle.queries
            S = oracle.score(X, level.t)
            engine._require_finite_rows(S, "score")
            acc.stats.score_queries += oracle.queries - q_entry
            unit_sum, unit_sq = np.zeros_like(X), np.zeros_like(X)

            def record(rows, steps, X_rows):
                # post-burn-in moments of the chains that just finished a step
                keep = steps >= burn
                rows, X_rows = rows[keep], X_rows[keep]
                sq = X_rows * X_rows
                acc.moment_sum += float(X_rows.sum())
                acc.moment_sq += float(sq.sum())
                unit_sum[rows] += X_rows
                unit_sq[rows] += sq

            sweep = functools.partial(
                engine.corrector_sweep, oracle=oracle, t=level.t, h=h,
                kind=engine_kind, rng=rng, schedule=schedule, bound=bound,
                rule=quad_rule, hybrid_rounds=config.corrector.hybrid_rounds,
                max_rounds=config.corrector.max_rounds,
                poisson_cap=config.corrector.poisson_cap)
            sweep_idx = None
            try:
                if engine_kind == "two-coin":
                    # one call: each chain runs its K steps out of lockstep
                    X, S, st = sweep(X, S, steps=K, on_step=record)
                    acc.stats.merge(st)
                else:
                    everyone = np.arange(n_chains)
                    for sweep_idx in range(K):
                        X, S, st = sweep(X, S)
                        acc.stats.merge(st)
                        record(everyone, np.full(n_chains, sweep_idx), X)
            except MadmError as err:
                if err.sweep is None:
                    err.sweep = sweep_idx
                at_sweep = "" if err.sweep is None else f", sweep {err.sweep}"
                err.args = (f"corrector at level t={level.t:.6g}{at_sweep}: "
                            f"{err}",)
                raise
            acc.moment_count = max(K - burn, 0)
            if acc.moment_count >= 2:
                # per-(chain, dim) within-chain variance summaries
                cnt = acc.moment_count
                mean = unit_sum / cnt
                var = (unit_sq / cnt - mean ** 2) * cnt / (cnt - 1)
                acc.unit_var_sum = float(var.sum())
                acc.unit_var_sq = float((var ** 2).sum())
                acc.units = var.size
        accumulators.append(acc)
    return X, accumulators, oracle.queries


def _predictor_step(X, oracle, schedule, config: RunConfig, level: _Level,
                    rng) -> np.ndarray:
    pk = config.predictor.kind
    t_from, t_to = level.t_from, level.t
    if pk == "ancestral":
        return ancestral_step(X, oracle, t_from, level.beta, rng,
                              add_noise=t_to > 0.0)
    dt = t_from - t_to
    if pk == "pf-ode-heun" and t_to > 0.0:
        return pf_ode_step_heun(X, oracle, schedule, t_from, dt)
    return pf_ode_step_euler(X, oracle, schedule, t_from, dt)


def run_pc(config: RunConfig) -> RunReport:
    """Run the predictor-corrector sampler described by ``config``."""
    config.validate()
    start = time.perf_counter()
    schedule = config.schedule.build()
    base_oracle = config.target.build_oracle(schedule)
    n = config.run.chains
    threads = min(config.run.threads, n)
    root = np.random.SeedSequence(config.run.seed)
    children = root.spawn(threads)
    sizes = [n // threads + (1 if i < n % threads else 0) for i in range(threads)]

    if threads == 1:
        results = [_run_block(config, schedule, base_oracle, n, children[0])]
    else:
        oracles = [base_oracle.fork() for _ in range(threads)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_run_block, config, schedule, oracles[i],
                                   sizes[i], children[i])
                       for i in range(threads)]
            results = [f.result() for f in futures]
        for fork in oracles:
            base_oracle.absorb(fork)

    samples = np.concatenate([r[0] for r in results], axis=0)
    merged = results[0][1]
    for _, accs, _ in results[1:]:
        for into, extra in zip(merged, accs):
            into.merge(extra)

    per_level = []
    predictor_total = 0
    corrector_total = 0
    for acc in merged:
        st = acc.stats
        props = max(st.proposals, 1)
        post_mean = post_var = post_se = None
        if acc.units:
            total_draws = acc.moment_count * acc.units
            post_mean = acc.moment_sum / max(total_draws, 1)
            post_var = acc.unit_var_sum / acc.units
            if acc.units > 1:
                # numpy arithmetic: diverged chains give inf, not OverflowError
                spread = np.maximum(
                    acc.unit_var_sq / acc.units - np.float64(post_var) ** 2, 0.0)
                post_se = float(np.sqrt(spread / (acc.units - 1)))
        per_level.append(LevelStats(
            t=acc.level.t,
            corrector_steps=acc.corrector_steps,
            acceptance_rate=st.accepted / props,
            mean_rounds=st.rounds_total / props,
            mean_queries=st.score_queries / props,
            esjd=st.jump_sq_total / props,
            predictor_queries=acc.predictor_queries,
            corrector_queries=st.score_queries,
            round_passes=st.round_passes, max_rounds=st.max_rounds,
            post_mean=post_mean, post_var=post_var, post_var_se=post_se,
        ))
        predictor_total += acc.predictor_queries
        corrector_total += st.score_queries

    report = RunReport(
        samples=samples,
        per_level=per_level,
        seed=config.run.seed,
        chains=n,
        predictor_queries=predictor_total,
        corrector_queries=corrector_total,
        total_queries=base_oracle.queries,
        wall_time=time.perf_counter() - start,
    )
    return report
