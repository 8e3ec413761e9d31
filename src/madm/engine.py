"""Batched kernels: the one implementation of every corrector computation.

Each concept of the accept/reject machinery lives here once, written for a
batch of rows: the envelope C (:func:`bound_c_batch`), the proposal
log-ratio (:func:`log_h_batch`), the Newton-Cotes estimate
(:func:`_quadrature_log_ratio_batch`), the Poisson product W
(:func:`_factor_products`) and the two-coin round loop
(:func:`_two_coin_rounds`).  The sampler runs its chains through them as one
array of states, one shared draw per algorithmic event, with masks tracking
which rows are still undecided.

Every accept/reject decision is made here, by :func:`corrector_sweep` and
the decision kernels it calls (:func:`_two_coin_steps`,
:func:`_quadrature_accept`, :func:`_hybrid_accept`, whose ``fallback`` rows
record which path decided).  The quadrature, hybrid, oracle-mh and ula
sweeps move all chains one step in lockstep.  The two-coin corrector's round
count is geometric with a heavy tail, so its chains run out of lockstep
instead: each pass proposes for every chain whose last decision is made and
then runs one round for every chain still deciding, and a chain starts its
next step as soon as its own decision is made.  The replicate samplers of
:mod:`madm.adjust_exact` run the same kernels on broadcast views of one
fixed proposal; ``bound_C``, ``log_H`` and ``quadrature_log_ratio`` run them
on one row.

The two-coin decision may run each pair in whichever direction is cheaper
(Barker satisfies alpha(x -> y) = 1 - alpha(y -> x), so negating the
reversed decision leaves the law unchanged while taming the e^{log H}
factor in the round count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import expit

from .errors import (BoundViolationError, ConfigError, DomainError,
                     MadmError, NonFiniteError, NonterminationError)
from .schedule import NoiseSchedule
from .targets import ScoreOracle

CORRECTOR_KINDS = ("none", "ula", "two-coin", "quadrature", "hybrid", "oracle-mh")

BOUNDED_DENOISER = "bounded-denoiser"
LIPSCHITZ = "lipschitz"
LIPSCHITZ_SHARP = "lipschitz-sharp"
MANUAL = "manual"
BOUND_STRATEGIES = (BOUNDED_DENOISER, LIPSCHITZ, LIPSCHITZ_SHARP, MANUAL)

# Tolerance band for declaring the envelope violated: factors may stray this
# far outside [0, 1] from rounding before we call the bound invalid.
FACTOR_TOLERANCE = 1e-9

DEFAULT_MAX_ROUNDS = 1_000_000

# Skip the exact rounds of the hybrid decision when the Poisson mean 2C
# exceeds this cap; the factory terminates in a handful of rounds only while
# e^C stays small (its cost grows like e^C), so a loose envelope would
# otherwise burn the entire round budget without ever deciding.  The selector
# depends only on C, which is symmetric in (x, x_tilde), so reversibility of
# the exact branch is kept.
HYBRID_POISSON_CAP = 4.0

# Factor rows scored per oracle call inside one Poisson-product draw; bounds
# the memory of large replicate batches without changing the draws.
FACTOR_BLOCK = 65_536


@dataclass(frozen=True)
class BoundSpec:
    """How to compute the integrand envelope C for a proposal.

    ``value`` overrides the oracle's declared constant (b for the bounded
    denoiser, L for the Lipschitz route, C itself for ``manual``); when None
    the oracle capability is used.
    """

    strategy: str
    value: Optional[float] = None

    def __post_init__(self):
        if self.strategy not in BOUND_STRATEGIES:
            raise ConfigError(
                f"unknown bound strategy {self.strategy!r}; "
                f"expected one of {BOUND_STRATEGIES}"
            )
        if self.value is not None:
            if not np.isfinite(self.value) or self.value < 0:
                raise DomainError(
                    f"bound value must be finite and >= 0, got {self.value}"
                )


@dataclass
class SweepStats:
    """Aggregated accept/reject accounting for one corrector sweep.

    ``round_passes`` counts the iterations of the two-coin round loop (each
    pays its Python overhead once for all the rows it serves) and
    ``max_rounds`` is the longest single decision, in rounds.
    """

    proposals: int = 0
    accepted: int = 0
    rounds_total: int = 0
    poisson_total: int = 0
    score_queries: int = 0
    jump_sq_total: float = 0.0
    round_passes: int = 0
    max_rounds: int = 0

    def merge(self, other: "SweepStats") -> None:
        self.proposals += other.proposals
        self.accepted += other.accepted
        self.rounds_total += other.rounds_total
        self.poisson_total += other.poisson_total
        self.score_queries += other.score_queries
        self.jump_sq_total += other.jump_sq_total
        self.round_passes += other.round_passes
        self.max_rounds = max(self.max_rounds, other.max_rounds)


def _chain_of(row, chains=None) -> int:
    """The chain number an error reports for ``row``; ``chains`` maps rows to
    chain numbers when the rows are a subset of the chains."""
    return int(row) if chains is None else int(chains[row])


def _at_chain(err, chain: int):
    err.chain = chain
    return err


def _require_finite_rows(arr: np.ndarray, what: str, chains=None) -> None:
    bad = ~np.isfinite(arr)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        chain = _chain_of(row, chains)
        raise _at_chain(NonFiniteError(f"non-finite {what} at chain {chain}, "
                                       f"coordinate {col}"), chain)


def _row_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", A, B)


def _take_rows(A: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A[rows]; an array broadcast along its rows (stride 0, as the replicate
    samplers pass) holds one row, returned to broadcast instead of gathered."""
    return A[:1] if A.strides[0] == 0 else A[rows]


def _segment_products(factors: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Product of consecutive ``factors`` segments of the given lengths."""
    out = np.ones(counts.shape[0])
    mask = counts > 0
    if not mask.any():
        return out
    ends = np.cumsum(counts)
    starts = ends - counts
    out[mask] = np.multiply.reduceat(factors, starts[mask])
    return out


def bound_c_batch(X, Xt, S, St, t, spec: BoundSpec, schedule: NoiseSchedule,
                  oracle: ScoreOracle, chains=None) -> np.ndarray:
    """Row-wise envelope C(x, x_tilde) dominating the line integrand.

    Bounded-denoiser route (Tweedie: the posterior mean of the clean data
    lies in a centred ball of radius b):

        C = (b r_t + max(||x||, ||x_tilde||)) / (r_t^2 sigma_t^2) * ||v||

    Lipschitz route (score L-Lipschitz; only the one-sided condition is
    actually needed):

        C = max(||s(x)||, ||s(x_tilde)||) ||v|| + (L/2) ||v||^2

    Sharp Lipschitz route: under the same assumption the integrand itself is
    (L ||v||^2)-Lipschitz on [0, 1], and with both endpoint values in hand

        C = (|f(0)| + |f(1)| + L ||v||^2) / 2

    dominates the whole segment.  It is never larger than the plain route
    and is exactly tight for affine integrands (Gaussian targets), which
    collapses the e^C tail of the loop's round count.

    Each row's C is checked against its endpoint integrands: C must dominate
    |f(0)| and |f(1)| or the bound is rejected outright.  ``chains`` maps
    rows to the chain numbers that errors report.
    """
    V = Xt - X
    norm_v = np.linalg.norm(V, axis=1)
    f0 = _row_dot(S, V)
    f1 = _row_dot(St, V)
    if spec.strategy == BOUNDED_DENOISER:
        b = spec.value if spec.value is not None else oracle.denoiser_bound
        if b is None:
            raise ConfigError(f"oracle {oracle.name!r} declares no denoiser bound")
        r, sigma = schedule.marginal_params(t)
        if sigma <= 0:
            raise DomainError(f"bounded-denoiser bound undefined at t={t} "
                              "(sigma_t = 0)")
        reach = np.maximum(np.linalg.norm(X, axis=1), np.linalg.norm(Xt, axis=1))
        c = (b * r + reach) / (r * r * sigma * sigma) * norm_v
    elif spec.strategy in (LIPSCHITZ, LIPSCHITZ_SHARP):
        lip = spec.value if spec.value is not None else oracle.lipschitz
        if lip is None:
            raise ConfigError(f"oracle {oracle.name!r} declares no Lipschitz constant")
        if spec.strategy == LIPSCHITZ:
            s_max = np.maximum(np.linalg.norm(S, axis=1),
                               np.linalg.norm(St, axis=1))
            c = s_max * norm_v + 0.5 * lip * norm_v ** 2
        else:
            c = 0.5 * (np.abs(f0) + np.abs(f1) + lip * norm_v ** 2)
    elif spec.strategy == MANUAL:
        if spec.value is None:
            raise ConfigError("manual bound requires an explicit value")
        c = np.full(X.shape[0], float(spec.value))
    else:  # pragma: no cover - BoundSpec validates
        raise ConfigError(f"unknown bound strategy {spec.strategy!r}")

    needed = np.maximum(np.abs(f0), np.abs(f1))
    bad = c < needed * (1.0 - 1e-12) - 1e-15
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        chain = _chain_of(row, chains)
        raise _at_chain(BoundViolationError(
            f"C={c[row]:.6g} fails to dominate the endpoint integrands "
            f"at chain {chain} (needed {needed[row]:.6g})"), chain)
    return c


def log_h_batch(X, Xt, S, St, h: float) -> np.ndarray:
    """Row-wise log of the proposal ratio q(x | x_tilde) / q(x_tilde | x)."""
    fwd = Xt - X - 0.5 * h * S
    bwd = X - Xt - 0.5 * h * St
    return (_row_dot(fwd, fwd) - _row_dot(bwd, bwd)) / (2.0 * h)


def _factor_products(Xa, Va, C, active, counts, t, oracle, rng, chains=None):
    """W draws for the active rows given their Poisson counts.

    Factor rows are scored ``FACTOR_BLOCK`` at a time, each block drawing its
    uniforms just before its score call; consecutive draws equal one draw of
    all the uniforms, so the blocking leaves the stream unchanged.
    ``chains`` maps rows to the chain numbers that errors report.
    """
    rep = np.repeat(active, counts)
    factors = np.empty(rep.size)
    for lo in range(0, rep.size, FACTOR_BLOCK):
        rows = rep[lo:lo + FACTOR_BLOCK]
        u = rng.uniform(size=rows.size)
        v = _take_rows(Va, rows)
        pts = _take_rows(Xa, rows) + u[:, None] * v
        integrands = _row_dot(oracle.score(pts, t), v)
        block = 0.5 + integrands / (2.0 * _take_rows(C, rows))
        # min and max propagate NaN, which fails both comparisons
        if not (block.min() >= -FACTOR_TOLERANCE
                and block.max() <= 1.0 + FACTOR_TOLERANCE):
            _envelope_error(block, integrands, rows, C, chains)
        np.clip(block, 0.0, 1.0, out=factors[lo:lo + rows.size])
    return _segment_products(factors, counts)


def _envelope_error(block, integrands, rows, C, chains):
    """Raise for the first factor outside the band, naming its chain."""
    inside = (block >= -FACTOR_TOLERANCE) & (block <= 1.0 + FACTOR_TOLERANCE)
    i = int(np.flatnonzero(~inside)[0])
    row = int(rows[i])
    chain = _chain_of(row, chains)
    if not np.isfinite(integrands[i]):
        raise _at_chain(
            NonFiniteError(f"non-finite interior score at chain {chain}"), chain)
    raise _at_chain(BoundViolationError(
        f"line integrand {integrands[i]:.6g} escapes the envelope "
        f"C={C[row]:.6g} at chain {chain}"), chain)


def _two_coin_rounds(Xa, Va, log_h_a, C, t, oracle, rng, max_rounds,
                     round_limit=None, chains=None):
    """Masked two-coin rounds; returns per-row frame outcomes.

    Each round rejects outright with probability alpha' = (1 + H e^C)^{-1},
    otherwise accepts with probability W, otherwise restarts.
    ``round_limit`` caps the number of rounds without treating the cap as an
    error (hybrid use); rows still undecided are reported in the fourth
    return value.  Without it, exhausting ``max_rounds`` raises.  ``chains``
    maps rows to the chain numbers that errors report.
    """
    n = Xa.shape[0]
    alpha_prime = expit(-(log_h_a + C))
    frame_accept = np.zeros(n, dtype=bool)
    rounds = np.zeros(n, dtype=np.int64)
    poisson = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    cap = max_rounds if round_limit is None else min(round_limit, max_rounds)
    for round_idx in range(1, cap + 1):
        rounds[active] = round_idx
        reject_now = rng.uniform(size=active.size) <= alpha_prime[active]
        active = active[~reject_now]
        if active.size == 0:
            break
        counts = rng.poisson(2.0 * _take_rows(C, active), size=active.size)
        poisson[active] += counts
        w = _factor_products(Xa, Va, C, active, counts, t, oracle, rng, chains)
        accept_now = rng.uniform(size=active.size) <= w
        frame_accept[active[accept_now]] = True
        active = active[~accept_now]
        if active.size == 0:
            break
    if active.size and round_limit is None:
        raise _stuck_error(active, max_rounds, C, log_h_a, chains)
    return frame_accept, rounds, poisson, active


def _stuck_error(stuck, max_rounds, C, log_h_a, chains=None):
    """NonterminationError for the ``stuck`` rows, naming the first."""
    first = int(stuck[0])
    chain = _chain_of(first, chains)
    return _at_chain(NonterminationError(
        f"two-coin loop undecided for {stuck.size} chains after "
        f"{max_rounds} rounds (first stuck chain {chain})",
        rounds=max_rounds, c_bound=float(C[first]),
        log_h=float(log_h_a[first])), chain)


def _endpoint_terms(X, Xt, S, St, h):
    """(v, f(0), f(1), log H) per row, from the cached endpoint scores."""
    V = Xt - X
    return V, _row_dot(S, V), _row_dot(St, V), log_h_batch(X, Xt, S, St, h)


def _swap_rows(f0, f1, logH):
    """Rows cheaper to decide from x_tilde: log H above the trapezoid
    estimate (f(0) + f(1)) / 2 of log r."""
    return logH > 0.5 * (f0 + f1)


def _decision_frame(X, Xt, V, logH, swap):
    """(start, direction, log H) of each row's two-coin decision.  The
    ``swap`` rows run from x_tilde back to x; their callers negate the
    decision the round loop returns for them."""
    return (np.where(swap[:, None], Xt, X), np.where(swap[:, None], -V, V),
            np.where(swap, -logH, logH))


def _two_coin_steps(X, S, oracle, t, h, rng, steps, bound, schedule,
                    max_rounds, on_step):
    """``steps`` exact Barker steps per chain, out of lockstep.

    Each pass first proposes for every chain that has no pending proposal
    and has steps left, then runs one two-coin round for every chain with a
    pending proposal.  A chain starts its next step on the pass after its
    own decision, whatever the other chains are doing, so the passes number
    about ``steps`` times the mean rounds plus the slowest chain's tail,
    where lockstep sweeps pay the slowest chain's rounds at every step.
    Rounds draw from ``rng`` exactly as in lockstep, in chain order within a
    pass, so one step reproduces the lockstep sweep draw for draw.

    ``on_step(chains, step, X_rows)`` receives the chains that finish a step
    in a pass, the index of the step each finished, and their new states.
    Each decision is capped at ``max_rounds`` rounds.  An error names the
    chain and that chain's own sweep.  Returns (X', S', stats).
    """
    n, d = X.shape
    X, S = X.copy(), S.copy()
    Xt, St, Xa, Va = (np.empty_like(X) for _ in range(4))
    log_h_a, C = np.empty(n), np.empty(n)
    swap = np.zeros(n, dtype=bool)
    pending = np.zeros(n, dtype=bool)
    done = np.zeros(n, dtype=np.int64)     # steps each chain has finished
    rounds = np.zeros(n, dtype=np.int64)   # rounds of each pending decision
    stats = SweepStats(proposals=n * steps)
    free, proposed = np.arange(n), 0
    try:
        while True:
            if free.size:
                x, s = X[free], S[free]
                xt = (x + 0.5 * h * s
                      + np.sqrt(h) * rng.standard_normal((free.size, d)))
                st = oracle.score(xt, t)
                _require_finite_rows(st, "score", free)
                v, f0, f1, logH = _endpoint_terms(x, xt, s, st, h)
                C[free] = bound_c_batch(x, xt, s, st, t, bound, schedule,
                                        oracle, free)
                sw = _swap_rows(f0, f1, logH)
                Xa[free], Va[free], log_h_a[free] = _decision_frame(
                    x, xt, v, logH, sw)
                Xt[free], St[free], swap[free] = xt, st, sw
                rounds[free] = 0
                pending[free] = True
                proposed += free.size
            active = np.flatnonzero(pending)
            if active.size == 0:
                break
            # a lone pending decision, or decisions after which no chain
            # proposes again, run their remaining rounds in one call: the
            # passes would draw the same numbers in the same order
            limit = (max_rounds - int(rounds[active].max())
                     if active.size == 1 or proposed == stats.proposals else 1)
            frame_accept, ran, poisson, still = _two_coin_rounds(
                Xa[active], Va[active], log_h_a[active], C[active], t, oracle,
                rng, max_rounds, round_limit=limit, chains=active)
            stats.round_passes += int(ran.max())
            stats.poisson_total += int(poisson.sum())
            rounds[active] += ran
            if still.size:
                stuck = still[rounds[active[still]] >= max_rounds]
                if stuck.size:
                    raise _stuck_error(stuck, max_rounds, C[active],
                                       log_h_a[active], active)
            decided = np.ones(active.size, dtype=bool)
            decided[still] = False
            rows = active[decided]
            moved = rows[frame_accept[decided] ^ swap[rows]]
            stats.accepted += moved.size
            stats.jump_sq_total += float(np.sum((Xt[moved] - X[moved]) ** 2))
            X[moved], S[moved] = Xt[moved], St[moved]
            took = rounds[rows]
            stats.rounds_total += int(took.sum())
            stats.max_rounds = max(stats.max_rounds, int(took.max(initial=0)))
            pending[rows] = False
            step = done[rows]
            if on_step is not None:
                on_step(rows, step, X[rows])
            done[rows] = step + 1
            free = rows[step + 1 < steps]
    except MadmError as err:
        if err.chain is not None and err.sweep is None:
            err.sweep = int(done[err.chain])
        raise
    return X, S, stats


def _quadrature_log_ratio_batch(X, V, f0, f1, t, rule,
                                oracle: ScoreOracle, rows=None) -> np.ndarray:
    """Row-wise Newton-Cotes estimate of log p_t(x_tilde) - log p_t(x).

    ``rule`` is a :class:`madm.adjust_quadrature.QuadratureRule`.  The
    endpoint integrands come in precomputed; the interior nodes of all rows
    are scored in one call.
    """
    idx = np.arange(X.shape[0]) if rows is None else rows
    total = rule.weights[0] * f0[idx] + rule.weights[-1] * f1[idx]
    interior = rule.interior_nodes
    if interior.size:
        m = idx.size
        # node-major stack: rows for node u_1, then node u_2, ...
        pts = (X[idx][None, :, :] + interior[:, None, None] * V[idx][None, :, :])
        scores = oracle.score(pts.reshape(-1, X.shape[1]), t)
        integrands = _row_dot(scores, np.tile(V[idx], (interior.size, 1)))
        total = total + rule.weights[1:-1] @ integrands.reshape(interior.size, m)
    if not np.all(np.isfinite(total)):
        row = int(idx[np.flatnonzero(~np.isfinite(total))[0]])
        raise _at_chain(
            NonFiniteError(f"quadrature log-ratio non-finite at chain {row}"), row)
    return total


def _quadrature_accept(X, V, f0, f1, logH, t, rule, oracle, rng, rows=None):
    """MH decisions with the Newton-Cotes estimate in place of log r:
    accept iff log U <= min{0, I_hat + log H}, for ``rows`` in that order."""
    i_hat = _quadrature_log_ratio_batch(X, V, f0, f1, t, rule, oracle, rows=rows)
    log_alpha = np.minimum(0.0, i_hat + (logH if rows is None else logH[rows]))
    return np.log(rng.uniform(size=log_alpha.size)) <= log_alpha


def _hybrid_accept(X, V, f0, f1, logH, C, t, rule, oracle, rng,
                   hybrid_rounds, max_rounds, poisson_cap):
    """At most ``hybrid_rounds`` exact rounds, then the quadrature fallback.

    Rows with 2C above ``poisson_cap``, and every row when
    ``hybrid_rounds`` is 0, skip the exact rounds.  Returns the decisions,
    the rounds per row (the fallback counts as one), the Poisson totals per
    row and the rows the fallback decided.
    """
    n = X.shape[0]
    accept = np.zeros(n, dtype=bool)
    rounds = np.zeros(n, dtype=np.int64)
    poisson = np.zeros(n, dtype=np.int64)
    exact = (2.0 * C <= poisson_cap) & (hybrid_rounds > 0)
    fallback = np.flatnonzero(~exact)
    if np.any(exact):
        rows = np.flatnonzero(exact)
        frame_accept, rounds[rows], poisson[rows], still = _two_coin_rounds(
            X[rows], V[rows], logH[rows], C[rows], t, oracle, rng,
            max_rounds, round_limit=hybrid_rounds, chains=rows)
        # rows still undecided are overwritten by the fallback below
        accept[rows] = frame_accept
        fallback = np.concatenate([fallback, rows[still]])
    if fallback.size:
        accept[fallback] = _quadrature_accept(X, V, f0, f1, logH, t, rule,
                                              oracle, rng, rows=fallback)
        rounds[fallback] += 1
    return accept, rounds, poisson, fallback


def corrector_sweep(X, S, oracle: ScoreOracle, t: float, h: float, kind: str,
                    rng: np.random.Generator, *, schedule=None, bound=None,
                    rule=None, hybrid_rounds: int = 10,
                    max_rounds: int = DEFAULT_MAX_ROUNDS,
                    poisson_cap: float = HYBRID_POISSON_CAP,
                    steps: int = 1, on_step=None):
    """``steps`` corrector steps for every chain; returns (X', S', stats).

    ``S`` holds the cached scores of ``X`` at level ``t`` so repeated sweeps
    cost one new score evaluation per chain (the proposal endpoint) plus
    whatever the decision itself queries.  The two-coin corrector runs its
    steps out of lockstep and reports each chain's finished steps to
    ``on_step`` (:func:`_two_coin_steps`); every other kind takes one
    lockstep step.
    """
    if kind not in CORRECTOR_KINDS or kind == "none":
        raise ConfigError(f"unsupported corrector kind {kind!r}")
    if not (np.isfinite(h) and h > 0.0):
        raise DomainError(f"corrector step h must be finite and > 0, got {h}")
    if steps < 1 or (steps > 1 and kind != "two-coin"):
        raise ConfigError(f"steps={steps}: two-coin sweeps take steps >= 1, "
                          f"every other kind exactly 1")
    n, d = X.shape
    queries_before = oracle.queries
    if kind == "two-coin":
        X, S, stats = _two_coin_steps(X, S, oracle, t, h, rng, steps, bound,
                                      schedule, max_rounds, on_step)
        stats.score_queries = oracle.queries - queries_before
        return X, S, stats
    stats = SweepStats(proposals=n)

    Z = rng.standard_normal((n, d))
    Xt = X + 0.5 * h * S + np.sqrt(h) * Z
    St = oracle.score(Xt, t)
    _require_finite_rows(St, "score")

    if kind == "ula":
        stats.accepted = n
        stats.rounds_total = 0
        stats.jump_sq_total = float(np.sum((Xt - X) ** 2))
        stats.score_queries = oracle.queries - queries_before
        return Xt, St, stats

    V, f0, f1, logH = _endpoint_terms(X, Xt, S, St, h)
    rounds, poisson = np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    if kind == "oracle-mh":
        log_r = oracle.log_density(Xt, t) - oracle.log_density(X, t)
        log_alpha = np.minimum(0.0, log_r + logH)
        accept = np.log(rng.uniform(size=n)) <= log_alpha
    elif kind == "quadrature":
        accept = _quadrature_accept(X, V, f0, f1, logH, t, rule, oracle, rng)
    else:  # hybrid
        C = bound_c_batch(X, Xt, S, St, t, bound, schedule, oracle)
        accept, rounds, poisson, fallback = _hybrid_accept(
            X, V, f0, f1, logH, C, t, rule, oracle, rng, hybrid_rounds,
            max_rounds, poisson_cap)
        # iterations of the exact loop: the rounds without the fallback's
        exact_rounds = rounds.copy()
        exact_rounds[fallback] -= 1
        stats.round_passes = int(exact_rounds.max(initial=0))

    stats.max_rounds = int(rounds.max(initial=0))
    stats.accepted = int(accept.sum())
    stats.rounds_total = int(rounds.sum())
    stats.poisson_total = int(poisson.sum())
    stats.jump_sq_total = float(np.sum(V[accept] ** 2))
    stats.score_queries = oracle.queries - queries_before
    X_new = np.where(accept[:, None], Xt, X)
    S_new = np.where(accept[:, None], St, S)
    return X_new, S_new, stats
