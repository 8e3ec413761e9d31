"""Predictors and the full predictor-corrector sampling loop.

The reverse-time generative dynamics split into a deterministic
probability-flow drift (the predictor) and a Langevin refinement at a fixed
noise level (the corrector).  One run walks the noise levels from t = 1 down
to t = 0, taking a single predictor step per level transition followed by K
corrector steps targeting the level just reached.

Chains start from N(0, I) at t = 1 and are held in one array per thread
block.  Each level's K corrector steps run in one call to
:func:`madm.engine.corrector_sweep`, whose step loop serves every corrector:
the exact two-coin corrector's chains each run their K steps out of
lockstep, and the other correctors move all chains one step per pass.
Runs are fully reproducible from the seed at a fixed thread count (each
thread block draws from its own spawned stream, merged in block order).

A sweep returns the scores of its final states, and the next predictor step
starts from those states at the same t: it takes the scores instead of
querying them again, so each state is scored once across a level boundary.
The first level, and a level after one without a corrector, still query.

Each block keeps one :class:`LevelRecord` per level: the sweep's
:class:`~madm.engine.SweepStats` extended by the predictor's queries and the
post-burn-in moment sums.  Records merge across blocks under the one
``SweepStats.merge`` rule, and every per-level stat and query total of the
report is built from the merged records alone.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from . import engine
from .adjust_quadrature import RULES, rule_by_name
from .config import RunConfig
from .engine import BoundSpec
from .errors import ConfigError, DomainError, MadmError, NonFiniteError
from .schedule import NoiseSchedule, VP_DISCRETE
from .targets import ScoreOracle


# ---------------------------------------------------------------------------
# Predictor steps
# ---------------------------------------------------------------------------

def _check_drift(arr, what: str):
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite {what}")


def _score(x, oracle: ScoreOracle, t: float, s=None):
    """s(x, t): the caller's ``s`` when it holds the score of ``x`` at ``t``
    already, else one query of ``oracle``."""
    if s is None:
        return oracle.score(x, t)
    s = np.asarray(s, dtype=float)
    if s.shape != x.shape:
        raise DomainError(f"score of shape {s.shape} given for states of "
                          f"shape {x.shape}")
    return s


def ancestral_step(x, oracle: ScoreOracle, t: float, beta: float,
                   rng: Optional[np.random.Generator], z=None,
                   add_noise: bool = True, s=None):
    """One reverse step of the discrete-chain sampler.

    x_prev = (x + beta * s(x, t)) / sqrt(1 - beta) + sqrt(beta) * z.

    ``z`` pins the innovation; ``add_noise=False`` gives the conventional
    noiseless final step.  ``s``, when given, is s(x, t) and saves the query.
    """
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"beta must lie in (0, 1), got {beta}")
    x = np.asarray(x, dtype=float)
    s = _score(x, oracle, t, s)
    _check_drift(s, f"score in ancestral step at t={t}")
    out = (x + beta * s) / math.sqrt(1.0 - beta)
    if add_noise:
        if z is None:
            z = rng.standard_normal(x.shape)
        out = out + math.sqrt(beta) * np.asarray(z, dtype=float)
    return out


def _pf_drift(x, oracle, schedule, t, s=None):
    s = _score(x, oracle, t, s)
    f = schedule.f(t)
    g = schedule.g(t)
    drift = -f * x + 0.5 * g * g * s
    _check_drift(drift, f"probability-flow drift at t={t}")
    return drift


def pf_ode_step_euler(x, oracle: ScoreOracle, schedule: NoiseSchedule,
                      t: float, dt: float, s=None):
    """Explicit Euler step of the probability-flow drift, from t to t - dt.
    ``s``, when given, is s(x, t) and saves the query."""
    if dt <= 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    x = np.asarray(x, dtype=float)
    return x + dt * _pf_drift(x, oracle, schedule, t, s)


def pf_ode_step_heun(x, oracle: ScoreOracle, schedule: NoiseSchedule,
                     t: float, dt: float, s=None):
    """Heun step: Euler predictor plus trapezoidal drift correction (2
    queries).  ``s``, when given, is s(x, t) and saves the first query."""
    if dt <= 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    x = np.asarray(x, dtype=float)
    d1 = _pf_drift(x, oracle, schedule, t, s)
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
    h: Optional[float] = None  # corrector step; None where none runs


def run_plan(config: RunConfig) -> tuple[NoiseSchedule, list[_Level]]:
    """The validated ``config``'s noise schedule and level plan, each level
    with its corrector step: every configuration error a run can meet
    before its first draw is raised here, so a caller can check a run
    before it writes anything."""
    config.validate()
    schedule = config.schedule.build()
    corrects = config.corrector.kind != "none" and config.corrector.steps > 0
    return schedule, [
        replace(level, h=_corrector_step_size(config, schedule, level))
        if corrects and level.t > 0 else level
        for level in _level_plan(config, schedule)]


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


def run_oracle(config: RunConfig, schedule: NoiseSchedule) -> ScoreOracle:
    """The ``config``'s target oracle, checked against its corrector's
    envelope: with :func:`run_plan`, every configuration error a run can
    meet before its first draw."""
    oracle = config.target.build_oracle(schedule)
    _bound_spec(config, oracle)
    return oracle


def _bound_spec(config: RunConfig, oracle: ScoreOracle) -> Optional[BoundSpec]:
    """The exact correctors' envelope (None for the other kinds), with the
    constant it needs looked up on ``oracle`` when the config gives none.
    ``auto`` takes ``lipschitz-sharp`` when the oracle declares L: on the same
    L its C is never above plain ``lipschitz``'s, and 0 on Gaussian targets."""
    if config.corrector.kind not in ("two-coin", "hybrid"):
        return None
    name = config.corrector.bound
    if name == "auto":
        if oracle.lipschitz is not None:
            name = "lipschitz-sharp"
        elif oracle.denoiser_bound is not None:
            name = "bounded-denoiser"
        else:
            raise ConfigError(
                f"oracle {oracle.name!r} declares neither a Lipschitz constant "
                "nor a denoiser bound; set corrector.bound explicitly"
            )
    spec = BoundSpec(strategy=name, value=config.corrector.bound_value)
    if spec.value is None:
        if spec.strategy == engine.MANUAL:
            raise ConfigError("corrector.bound 'manual' needs a bound_value")
        what, constant = (
            ("denoiser bound", oracle.denoiser_bound)
            if spec.strategy == engine.BOUNDED_DENOISER
            else ("Lipschitz constant", oracle.lipschitz))
        if constant is None:
            raise ConfigError(
                f"oracle {oracle.name!r} declares no {what}; set "
                f"corrector.bound_value or another corrector.bound")
    return spec


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
    capped_rows: int = 0
    budget_rows: int = 0
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
            row = asdict(ls)
            if ls.post_var is None:
                for key in ("post_mean", "post_var", "post_var_se"):
                    del row[key]
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
class LevelRecord(engine.SweepStats):
    """One level's counters for one block of chains: the corrector's
    :class:`~madm.engine.SweepStats` plus the predictor's score queries and
    the post-burn-in moment sums.  Every added field is a sum, so records
    merge across blocks, and a sweep's stats fold in, under
    :meth:`~madm.engine.SweepStats.merge`."""

    predictor_queries: int = 0
    moment_sum: float = 0.0
    unit_var_sum: float = 0.0
    unit_var_sq: float = 0.0
    units: int = 0


def _kept_draws(config: RunConfig) -> int:
    """Corrector draws per chain and level kept after burn-in."""
    K = config.corrector.steps
    burn = math.ceil(config.run.burn_in_frac * K) if K > 1 else 0
    return K - burn


def _level_stats(level: _Level, rec: LevelRecord,
                 config: RunConfig) -> LevelStats:
    props = max(rec.proposals, 1)
    post_mean = post_var = post_se = None
    if rec.units:
        post_mean = rec.moment_sum / (_kept_draws(config) * rec.units)
        post_var = rec.unit_var_sum / rec.units
        if rec.units > 1:
            # numpy arithmetic: diverged chains give inf, not OverflowError
            spread = np.maximum(
                rec.unit_var_sq / rec.units - np.float64(post_var) ** 2, 0.0)
            post_se = float(np.sqrt(spread / (rec.units - 1)))
    return LevelStats(
        t=level.t,
        corrector_steps=config.corrector.steps,
        acceptance_rate=rec.accepted / props,
        mean_rounds=rec.rounds_total / props,
        mean_queries=rec.score_queries / props,
        esjd=rec.jump_sq_total / props,
        predictor_queries=rec.predictor_queries,
        corrector_queries=rec.score_queries,
        round_passes=rec.round_passes, max_rounds=rec.max_rounds,
        capped_rows=rec.capped_rows, budget_rows=rec.budget_rows,
        post_mean=post_mean, post_var=post_var, post_var_se=post_se,
    )


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def _run_block(config: RunConfig, schedule: NoiseSchedule, plan: list[_Level],
               oracle: ScoreOracle, n_chains: int,
               seed_seq: np.random.SeedSequence):
    rng = np.random.Generator(np.random.Philox(seed_seq))
    dim = oracle.dim
    K = config.corrector.steps
    ck = config.corrector.kind
    engine_kind = (None if ck == "none" else
                   "quadrature" if ck in RULES else ck)
    quad_rule = rule_by_name(ck if ck in RULES else
                             config.corrector.hybrid_rule)
    bound = _bound_spec(config, oracle)
    kept = _kept_draws(config)
    burn = K - kept

    X = rng.standard_normal((n_chains, dim))
    held = None  # (t, S): the last corrector's scores S of X at its level t
    records = []
    for level in plan:
        rec = LevelRecord()
        q_before = oracle.queries
        if level.t_from is not None:
            S = held[1] if held is not None and held[0] == level.t_from else None
            held = None
            try:
                X = _predictor_step(X, oracle, schedule, config, level, rng,
                                    s=S)
            except MadmError as err:
                err.args = (f"predictor into level t={level.t:.6g}: {err}",)
                raise
        rec.predictor_queries = oracle.queries - q_before
        if level.h is not None:
            unit_sum, unit_sq = np.zeros_like(X), np.zeros_like(X)

            def record(rows, steps, X_rows):
                # post-burn-in moments of the chains that just finished a
                # step; they come in ascending order, so a step of every
                # chain adds to the whole arrays, with no gather or scatter
                # (C-level counts and sums: numpy's method wrappers cost
                # more than the work on a pass of a few hundred rows)
                keep = steps >= burn
                if np.count_nonzero(keep) < keep.size:
                    rows, X_rows = rows[keep], X_rows[keep]
                rec.moment_sum += float(np.add.reduce(X_rows, axis=None))
                at = slice(None) if rows.size == n_chains else rows
                unit_sum[at] += X_rows
                unit_sq[at] += X_rows * X_rows

            try:
                q_entry = oracle.queries
                S = oracle.score(X, level.t)
                engine._require_finite_rows(S, "score")
                rec.score_queries += oracle.queries - q_entry
                X, S, st = engine.corrector_sweep(
                    X, S, oracle, level.t, level.h, engine_kind, rng,
                    schedule=schedule, bound=bound, rule=quad_rule,
                    hybrid_rounds=config.corrector.hybrid_rounds,
                    max_rounds=config.corrector.max_rounds,
                    poisson_cap=config.corrector.poisson_cap, steps=K,
                    on_step=record)
            except MadmError as err:
                at_sweep = "" if err.sweep is None else f", sweep {err.sweep}"
                err.args = (f"corrector at level t={level.t:.6g}{at_sweep}: "
                            f"{err}",)
                raise
            held = (level.t, S)
            rec.merge(st)
            if kept >= 2:
                # per-(chain, dim) within-chain variance summaries
                mean = unit_sum / kept
                var = (unit_sq / kept - mean ** 2) * kept / (kept - 1)
                rec.unit_var_sum = float(var.sum())
                rec.unit_var_sq = float((var ** 2).sum())
                rec.units = var.size
        records.append(rec)
    return X, records


def _predictor_step(X, oracle, schedule, config: RunConfig, level: _Level,
                    rng, s=None) -> np.ndarray:
    """X moved from ``level.t_from`` to ``level.t``; ``s``, when given, holds
    the scores of X at ``level.t_from`` and replaces the first query."""
    pk = config.predictor.kind
    t_from, t_to = level.t_from, level.t
    if pk == "ancestral":
        return ancestral_step(X, oracle, t_from, level.beta, rng,
                              add_noise=t_to > 0.0, s=s)
    dt = t_from - t_to
    if pk == "pf-ode-heun" and t_to > 0.0:
        return pf_ode_step_heun(X, oracle, schedule, t_from, dt, s=s)
    return pf_ode_step_euler(X, oracle, schedule, t_from, dt, s=s)


def run_pc(config: RunConfig,
           oracle: Optional[ScoreOracle] = None) -> RunReport:
    """Run the predictor-corrector sampler described by ``config``, on
    ``oracle`` if the caller has built it with :func:`run_oracle`."""
    start = time.perf_counter()
    schedule, plan = run_plan(config)
    base_oracle = (oracle if oracle is not None
                   else run_oracle(config, schedule))
    n = config.run.chains
    threads = min(config.run.threads, n)
    root = np.random.SeedSequence(config.run.seed)
    children = root.spawn(threads)
    sizes = [n // threads + (1 if i < n % threads else 0) for i in range(threads)]

    if threads == 1:
        results = [_run_block(config, schedule, plan, base_oracle, n,
                              children[0])]
    else:
        # one oracle per block: the query counter is not thread-safe
        oracles = [base_oracle.fork() for _ in range(threads)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_run_block, config, schedule, plan,
                                   oracles[i], sizes[i], children[i])
                       for i in range(threads)]
            results = [f.result() for f in futures]

    samples = np.concatenate([X for X, _ in results], axis=0)
    merged = results[0][1]
    for _, records in results[1:]:
        for into, extra in zip(merged, records):
            into.merge(extra)

    predictor_total = sum(rec.predictor_queries for rec in merged)
    corrector_total = sum(rec.score_queries for rec in merged)
    report = RunReport(
        samples=samples,
        per_level=[_level_stats(level, rec, config) for level, rec
                   in zip(plan, merged)],
        seed=config.run.seed,
        chains=n,
        predictor_queries=predictor_total,
        corrector_queries=corrector_total,
        total_queries=predictor_total + corrector_total,
        wall_time=time.perf_counter() - start,
    )
    return report
