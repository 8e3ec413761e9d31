"""Batched kernels: the one implementation of every corrector computation.

Each concept of the accept/reject machinery lives here once, written for a
batch of rows: a proposal's terms (:func:`proposal_terms`: v, the endpoint
integrands, log H, the envelope C of :func:`bound_c_batch` and the decision
frame, all from one set of row dots), the Newton-Cotes estimate
(:func:`_quadrature_log_ratio_batch`), the Poisson product W
(:func:`_factor_products`) and the two-coin round loop
(:func:`_two_coin_rounds`).  The sampler runs its chains through them as one
array of states, one shared draw per algorithmic event, with one pending
block holding the chains whose proposal is undecided, in chain order.

Every accept/reject decision is made here, by :func:`corrector_sweep`: one
call runs all K steps of a level in one step loop shared by every corrector
(its docstring tells how the passes go).  Both exact kinds, two-coin and
hybrid, run their rounds in one step, :func:`_two_coin_rounds` on each row's
decision frame (below); every other decision is drawn at once
(:func:`_accept_at_once`).  The replicate samplers of :mod:`madm.adjust_exact`
run the same kernels and frame on broadcast views of one fixed proposal,
which the verification suites give as one-row arrays.

The exact rounds run each pair in the canonical direction of its frame, the
cheaper one (Barker satisfies
alpha(x -> y) = 1 - alpha(y -> x), so negating the reversed decision leaves
the law unchanged while taming the e^{log H} factor in the round count).
The rule is antisymmetric, so a move and its reverse run the same frame:
hybrid's chance of leaving a row open after its rounds is then the same
both ways, which keeps its quadrature fallback reversible.  The fallback
itself decides in the original direction, because MH's acceptance is not
one minus the reverse move's.  Every envelope is an affine split (see
:func:`proposal_terms`): C bounds the integrand's remainder after a line
whose exact integral E joins log H.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, fields
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

# Hybrid skips the exact rounds when the Poisson mean 2C exceeds this cap:
# the factory's cost grows like e^C, so a loose envelope would burn the round
# budget without deciding.  C is symmetric in (x, x_tilde), so the selector
# keeps the exact branch reversible.
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
            raise ConfigError(f"unknown bound strategy {self.strategy!r}; "
                              f"expected one of {BOUND_STRATEGIES}")
        if self.value is not None and not (np.isfinite(self.value)
                                           and self.value >= 0):
            raise DomainError(f"bound value must be finite and >= 0, got {self.value}")


@dataclass
class SweepStats:
    """Aggregated accept/reject accounting for one corrector sweep.

    ``round_passes`` counts the iterations of the two-coin round loop (each
    pays its Python overhead once for all the rows it serves) and
    ``max_rounds`` is the longest single decision, in rounds.

    Under hybrid, ``capped_rows`` counts the proposals whose Poisson mean 2C
    exceeds ``poisson_cap``, which skip the exact rounds, and
    ``budget_rows`` those the ``hybrid_rounds`` rounds left open; both go to
    the quadrature fallback, and the other proposals were decided exactly.
    With ``hybrid_rounds`` = 0 every proposal within the cap has a budget of
    no rounds and counts in ``budget_rows``.  Other kinds leave both at 0.

    The sampler's per-level record (:class:`madm.sampler.LevelRecord`)
    extends this class, so one :meth:`merge` rule folds a sweep into a level
    and merges the levels of thread blocks: a counter needs only a field.
    """

    proposals: int = 0
    accepted: int = 0
    rounds_total: int = 0
    poisson_total: int = 0
    score_queries: int = 0
    jump_sq_total: float = 0.0
    round_passes: int = 0
    max_rounds: int = 0
    capped_rows: int = 0
    budget_rows: int = 0

    def merge(self, other: "SweepStats") -> None:
        """Add ``other``'s fields in: the ``max_*`` fields keep the larger
        value, every other field sums.  ``other`` may be a base-class
        record, whose missing fields leave this one's as they are."""
        for f in fields(other):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            setattr(self, f.name, max(mine, theirs)
                    if f.name.startswith("max_") else mine + theirs)


def _chain_of(row, chains=None) -> int:
    """The chain number an error reports for ``row``; ``chains`` maps rows to
    chain numbers when the rows are a subset of the chains."""
    return int(row) if chains is None else int(chains[row])


def _at_chain(err, chain: int):
    err.chain = chain
    return err


def _require_finite_rows(arr: np.ndarray, what: str, chains=None) -> None:
    if not np.isfinite(arr).all():
        row, *col = np.argwhere(~np.isfinite(arr))[0]
        chain = _chain_of(row, chains)
        at = f", coordinate {col[0]}" if col else ""
        raise _at_chain(NonFiniteError(f"non-finite {what} at chain {chain}{at}"), chain)


def _row_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    if A.shape[1] == 1:   # one coordinate: the product, without einsum's dispatch
        return A[:, 0] * B[:, 0]
    return np.einsum("ij,ij->i", A, B)


def _take_rows(A: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A[rows]; an array broadcast along its rows (stride 0, as the replicate
    samplers pass) holds one row, returned to broadcast instead of gathered."""
    return A[:1] if A.strides[0] == 0 else A[rows]


def _segment_products(factors: np.ndarray, seg: np.ndarray, n: int) -> np.ndarray:
    """Product of the ``factors`` of each of n rows, ``seg`` holding each
    factor's row in ascending order: each row's factors are multiplied left
    to right from 1.0, so a row without factors gives 1.0."""
    out = np.ones(n)
    np.multiply.at(out, seg, factors)
    return out


def _marginal(schedule: Optional[NoiseSchedule], t: float):
    """(r_t, sigma_t) of the bounded-denoiser route at level ``t``; a sweep
    looks it up once for all its passes."""
    if schedule is None:
        raise ConfigError("the bounded-denoiser bound needs a noise schedule")
    r, sigma = schedule.marginal_params(t)
    if sigma <= 0:
        raise DomainError(f"bounded-denoiser bound undefined at t={t} (sigma_t = 0)")
    return r, sigma


# Per row: v, f(0), f(1), log H (None where no decision reads it) and, with an
# envelope, C and the frame (swap, start, direction, log H + E, a, b).
ProposalTerms = namedtuple("ProposalTerms", "v f0 f1 log_h c frame",
                           defaults=(None, None))


def proposal_terms(X, Xt, S, St, h: float, *, bound: Optional[BoundSpec] = None,
                   t=None, oracle: Optional[ScoreOracle] = None, schedule=None,
                   chains=None, marginal=None, log_h: bool = True):
    """The :data:`ProposalTerms` of the proposals X -> Xt (endpoint scores S
    and St, step h), from each row's dots formed once: f(0) = <s, v>,
    f(1) = <s_tilde, v>, ||s||^2, ||s_tilde||^2 and those C reads.

    log H = h (||s||^2 - ||s_tilde||^2) / 8 - (f(0) + f(1)) / 2 takes its O(h)
    part from the score norms, not from O(1) terms that cancel; ``log_h``
    False skips it where only the sharp route's frame would read it.

    A ``bound`` (with ``t``, ``oracle`` and ``schedule`` for its route) adds
    C (:func:`bound_c_batch`) and the frame: the envelope's line
    l(u) = a + b u, whose exact integral E joins log H, runs through f(0) and
    f(1) on the sharp route and is zero on the others.  A row swaps to run
    from x_tilde back to x along -v when log H + 2E exceeds the trapezoid
    (f(0) + f(1)) / 2; it then sees -(log H + E) and, along u' = 1 - u, the
    line (-a - b) + b u'.  On the sharp route log H + E is
    h (||s||^2 - ||s_tilde||^2) / 8 exactly, and a row swaps when
    ||s||^2 > ||s_tilde||^2.  ``chains`` maps rows to chain numbers for errors.
    """
    V = Xt - X
    f0, f1 = _row_dot(S, V), _row_dot(St, V)
    ss, sts = _row_dot(S, S), _row_dot(St, St)
    sharp = bound is not None and bound.strategy == LIPSCHITZ_SHARP
    log_h_e = (0.125 * h) * (ss - sts)   # log H + (f(0) + f(1)) / 2
    trapezoid = 0.5 * (f0 + f1) if log_h or not sharp else None
    logH = None if trapezoid is None else log_h_e - trapezoid
    if bound is None:
        return ProposalTerms(V, f0, f1, logH)
    xx, xtxt = ((_row_dot(X, X), _row_dot(Xt, Xt))
                if bound.strategy == BOUNDED_DENOISER else (None, None))
    C = bound_c_batch(f0, f1, ss, sts, _row_dot(V, V), xx, xtxt, t, bound,
                      schedule, oracle, chains, marginal=marginal)
    if sharp:
        swap, b = ss > sts, f1 - f0
        a = np.where(swap, -f0 - b, f0)
    else:
        swap, log_h_e = logH > trapezoid, logH
        a = b = np.zeros_like(f0)
    rows = swap[:, None]
    frame = (swap, np.where(rows, Xt, X), np.where(rows, -V, V),
             np.where(swap, -log_h_e, log_h_e), a, b)
    return ProposalTerms(V, f0, f1, logH, C, frame)


def bound_c_batch(f0, f1, ss, sts, vv, xx, xtxt, t, spec: BoundSpec,
                  schedule: Optional[NoiseSchedule], oracle: ScoreOracle,
                  chains=None, *, marginal=None) -> np.ndarray:
    """Row-wise envelope C(x, x_tilde) on the line integrand's remainder
    after the line of the rows' frame (:func:`proposal_terms`): the whole
    integrand but on the sharp route.

    Bounded-denoiser route (Tweedie: the posterior mean of the clean data
    lies in a centred ball of radius b):

        C = (b r_t + max(||x||, ||x_tilde||)) / (r_t^2 sigma_t^2) * ||v||

    Lipschitz route (score L-Lipschitz; only the one-sided condition is
    actually needed):

        C = max(||s(x)||, ||s(x_tilde)||) ||v|| + (L/2) ||v||^2

    Sharp Lipschitz route, an affine split: under the same assumption the
    integrand is L' = L ||v||^2 Lipschitz on [0, 1], and C bounds only its
    remainder g = f - l after the line l(u) = f(0) + D u (D = f(1) - f(0)),
    whose integral E = (f(0) + f(1)) / 2 joins log H:

        C = (L'^2 - D^2) / (2 L')

    the tight bound on |g| given f(0), f(1) and L'.  It is 0 on affine
    integrands (Gaussian targets), and E + C never exceeds the
    whole-integrand bound (|f(0)| + |f(1)| + L') / 2.  A rounding slack of
    1e-12 (|f(0)| + |f(1)| + L') keeps factors drawn on an affine integrand
    in [0, 1]; a null move gets C = 0.  An endpoint slope |D| above L'
    (beyond rounding) proves the declared L wrong and is rejected.

    The rows come as :func:`proposal_terms`' dots (||x||^2 and ||x_tilde||^2
    None off the bounded-denoiser route, which takes (r_t, sigma_t) from
    ``marginal`` if given).  On the other routes C must dominate |f(0)| and
    |f(1)| or the bound is rejected.  ``chains`` maps rows to chain numbers.
    """
    if spec.strategy == BOUNDED_DENOISER:
        b = spec.value if spec.value is not None else oracle.denoiser_bound
        if b is None:
            raise ConfigError(f"oracle {oracle.name!r} declares no denoiser bound")
        r, sigma = marginal or _marginal(schedule, t)
        reach = np.sqrt(np.maximum(xx, xtxt))
        c = (b * r + reach) / (r * r * sigma * sigma) * np.sqrt(vv)
    elif spec.strategy in (LIPSCHITZ, LIPSCHITZ_SHARP):
        lip = spec.value if spec.value is not None else oracle.lipschitz
        if lip is None:
            raise ConfigError(f"oracle {oracle.name!r} declares no Lipschitz constant")
        if spec.strategy == LIPSCHITZ:
            c = (np.sqrt(np.maximum(ss, sts)) * np.sqrt(vv)
                 + 0.5 * lip * vv)
        else:
            lip_v = lip * vv
            slope = np.abs(f1 - f0)
            room = lip_v - slope
            steep = room < -1e-12 * lip_v - 1e-15
            if np.count_nonzero(steep):
                row = int(np.flatnonzero(steep)[0])
                chain = _chain_of(row, chains)
                raise _at_chain(BoundViolationError(
                    f"endpoint integrands f(0)={f0[row]:.6g} and "
                    f"f(1)={f1[row]:.6g} differ by more than "
                    f"L ||v||^2={lip_v[row]:.6g} at chain {chain}: "
                    "the declared Lipschitz constant does not hold"), chain)
            # (L'^2 - D^2) / (2 L') as (L' - |D|)(L' + |D|) / (2 L'); the
            # divisor's floor, the least subnormal, makes a null move's 0/0
            # read 0 and leaves every L' > 0 as it is
            room = np.maximum(room, 0.0) * (lip_v + slope)
            c = room / np.maximum(2.0 * lip_v, 5e-324)
            return c + 1e-12 * (np.abs(f0) + np.abs(f1) + lip_v)
    else:   # manual; BoundSpec admits no other strategy
        if spec.value is None:
            raise ConfigError("manual bound requires an explicit value")
        c = np.full(f0.shape[0], float(spec.value))

    needed = np.maximum(np.abs(f0), np.abs(f1))
    bad = c < needed * (1.0 - 1e-12) - 1e-15
    if np.count_nonzero(bad):
        row = int(np.flatnonzero(bad)[0])
        chain = _chain_of(row, chains)
        raise _at_chain(BoundViolationError(
            f"C={c[row]:.6g} fails to dominate the endpoint integrands "
            f"at chain {chain} (needed {needed[row]:.6g})"), chain)
    return c


def _factor_products(Xa, Va, C, active, counts, t, oracle, rng, chains=None,
                     *, base):
    """W draws for the active rows given their Poisson counts.

    Each factor is 1/2 + g(U) / (2C), g(U) = f(U) - a - b U the remainder of
    the line integrand f after the line ``base = (a, b)``, arrays aligned
    with ``C``.  Factor rows are scored ``FACTOR_BLOCK`` at a time, each
    block drawing its uniforms just before its score call, which leaves the
    stream as one draw of all the uniforms.  With every count 0 every W is 1.
    ``chains`` maps rows to the chain numbers that errors report.
    """
    if not np.count_nonzero(counts):
        return np.ones(counts.size)
    seg = np.repeat(np.arange(counts.size), counts)   # each factor's row
    rep = active.take(seg)
    factors = np.empty(rep.size)
    for lo in range(0, rep.size, FACTOR_BLOCK):
        rows = rep[lo:lo + FACTOR_BLOCK]
        u = rng.random(rows.size)
        v = _take_rows(Va, rows)
        pts = _take_rows(Xa, rows) + u[:, None] * v
        integrands = _row_dot(oracle.score(pts, t), v)
        a, b = (_take_rows(part, rows) for part in base)
        integrands -= a + b * u
        block = 0.5 + integrands / (2.0 * _take_rows(C, rows))
        # min and max propagate NaN, which fails both comparisons
        if not (block.min() >= -FACTOR_TOLERANCE
                and block.max() <= 1.0 + FACTOR_TOLERANCE):
            _envelope_error(block, integrands, rows, C, chains)
        np.clip(block, 0.0, 1.0, out=factors[lo:lo + rows.size])
    return _segment_products(factors, seg, counts.size)


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
        f"line integrand's remainder {integrands[i]:.6g} escapes the "
        f"envelope C={C[row]:.6g} at chain {chain}"), chain)


def _two_coin_rounds(Xa, Va, log_h_a, C, t, oracle, rng, max_rounds,
                     round_limit=None, chains=None, *, base, swap):
    """Masked two-coin rounds on each row's frame (:func:`proposal_terms`);
    returns (accept, rounds, Poisson counts, undecided rows).

    Each round rejects outright with probability alpha' = (1 + H e^C)^{-1},
    otherwise accepts with probability W, otherwise restarts.
    ``round_limit`` caps the rounds without error (one two-coin pass, or
    hybrid's ``hybrid_rounds``), leaving rows undecided, whose ``accept``
    means nothing; without it, exhausting ``max_rounds`` raises.  The W-coin
    runs on the remainder after the line ``base = (a, b)``, which ``C``
    bounds, ``log_h_a`` holds log H + E, and ``accept`` negates the ``swap``
    rows' frame decisions.  ``chains`` maps rows to chain numbers for errors.
    """
    n = Xa.shape[0]
    if C.strides[0] == 0:   # replicate rows: one alpha', kept broadcast
        alpha_prime = np.broadcast_to(expit(-(log_h_a[:1] + C[:1])), (n,))
    else:
        alpha_prime = expit(-(log_h_a + C))
    frame_accept = np.zeros(n, dtype=bool)
    rounds = np.zeros(n, dtype=np.int64)
    poisson = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    cap = max_rounds if round_limit is None else min(round_limit, max_rounds)
    for round_idx in range(1, cap + 1):
        if round_idx == 1:   # every row runs round 1: no gather or scatter
            rounds[:], alpha_rows = 1, alpha_prime
        else:
            rounds[active], alpha_rows = round_idx, _take_rows(alpha_prime, active)
        active = active[~(rng.random(active.size) <= alpha_rows)]
        if active.size == 0:
            break
        counts = rng.poisson(2.0 * _take_rows(C, active), size=active.size)
        poisson[active] += counts
        w = _factor_products(Xa, Va, C, active, counts, t, oracle, rng, chains,
                             base=base)
        accept_now = rng.random(active.size) <= w
        frame_accept[active[accept_now]] = True
        active = active[~accept_now]
    if active.size and round_limit is None:
        raise _stuck_error(active, max_rounds, C, log_h_a, chains)
    return frame_accept ^ swap, rounds, poisson, active


def _stuck_error(stuck, max_rounds, C, log_h_a, chains=None):
    """NonterminationError for the ``stuck`` rows, naming the first."""
    first = int(stuck[0])
    chain = _chain_of(first, chains)
    return _at_chain(NonterminationError(
        f"two-coin loop undecided for {stuck.size} chains after "
        f"{max_rounds} rounds (first stuck chain {chain})",
        rounds=max_rounds, c_bound=float(C[first]),
        log_h=float(log_h_a[first])), chain)


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


def _accept_at_once(kind, rows, X, Xt, terms, t, rule, oracle, rng):
    """Decisions drawn at once for the chains ``rows``, in that order, from
    their :data:`ProposalTerms`: ula accepts every proposal, every other kind
    iff log U <= min{0, log r + log H}, with the exact log r under oracle-mh
    and the Newton-Cotes estimate under the quadrature kinds (hybrid's
    fallback too, in the original direction)."""
    if kind == "ula":
        return np.ones(rows.size, dtype=bool)
    if kind == "oracle-mh":
        log_r = (oracle.log_density(Xt[rows], t)
                 - oracle.log_density(X[rows], t))
        _require_finite_rows(log_r, "log-density ratio", rows)
    else:
        log_r = _quadrature_log_ratio_batch(X, terms.v, terms.f0, terms.f1, t,
                                            rule, oracle, rows=rows)
    log_alpha = np.minimum(0.0, log_r + terms.log_h[rows])
    return np.log(rng.random(rows.size)) <= log_alpha


def corrector_sweep(X, S, oracle: ScoreOracle, t: float, h: float, kind: str,
                    rng: np.random.Generator, *, schedule=None, bound=None,
                    rule=None, hybrid_rounds: int = 10,
                    max_rounds: int = DEFAULT_MAX_ROUNDS,
                    poisson_cap: float = HYBRID_POISSON_CAP,
                    steps: int = 1, on_step=None):
    """``steps`` corrector steps for every chain; returns (X', S', stats).

    ``S`` holds the cached scores of ``X`` at level ``t`` so repeated steps
    cost one new score evaluation per chain (the proposal endpoint) plus
    whatever the decision itself queries.

    Each pass proposes for every chain that has no pending proposal and has
    steps left, then decides the pending block: the chains with an undecided
    proposal, in ascending chain order.  The two-coin kind runs one round on
    the block and carries the rows it leaves open into the next pass's
    block, so a chain starts its next step on the pass after its own
    decision, whatever the other chains are doing: the passes number about
    ``steps`` times the mean rounds plus the slowest chain's tail, not the
    sum of each step's slowest chain.  Every other kind decides each
    proposal in the pass that made it, so all chains move in lockstep, one
    step per pass: hybrid runs up to ``hybrid_rounds`` exact rounds on the
    rows with 2C <= ``poisson_cap``, and the quadrature fallback decides the
    rest.  A fallback decision counts one round more than the exact rounds
    before it: 1 for a row above the cap, ``hybrid_rounds`` + 1 for a row
    the rounds left open.

    ``on_step(chains, step, X_rows)`` receives the chains that finish a step
    in a pass, in ascending order, the index of the step each finished, and
    their new states.  Each two-coin decision is capped at ``max_rounds``
    rounds.  An error names the chain and that chain's own sweep, or the
    sweep every chain has reached when it names no chain.
    """
    if kind not in CORRECTOR_KINDS or kind == "none":
        raise ConfigError(f"unsupported corrector kind {kind!r}")
    exact = kind in ("two-coin", "hybrid")
    if exact and bound is None:
        raise ConfigError(f"corrector kind {kind!r} needs a bound")
    if kind in ("quadrature", "hybrid") and rule is None:
        raise ConfigError(f"corrector kind {kind!r} needs a quadrature rule")
    marginal = (_marginal(schedule, t)
                if exact and bound.strategy == BOUNDED_DENOISER else None)
    if not (np.isfinite(h) and h > 0.0):
        raise DomainError(f"corrector step h must be finite and > 0, got {h}")
    if (isinstance(steps, bool) or not isinstance(steps, (int, np.integer))
            or steps < 1):
        raise ConfigError(f"steps must be an integer >= 1, got {steps!r}")
    if np.ndim(X) != 2 or np.shape(S) != np.shape(X):
        raise DomainError(f"X must be 2-D and S of its shape, got shapes "
                          f"{np.shape(X)} and {np.shape(S)}")
    n, d = X.shape
    X, S, root_h = X.copy(), S.copy(), np.sqrt(h)
    done = np.zeros(n, dtype=np.int64)     # steps each chain has finished
    stats = SweepStats(proposals=n * steps)
    queries_before = oracle.queries
    # a block is (chains, rounds, x_tilde, s(x_tilde), v), and under
    # two-coin C and the frame (swap, start, direction, log H + E, a, b)
    free, proposed, carry = np.arange(n), 0, ()
    try:
        while True:
            block = carry
            if free.size:
                # take gathers the same rows as X[free] at a fraction of its
                # fixed cost, which dominates on blocks of a few hundred rows
                x, s = X.take(free, axis=0), S.take(free, axis=0)
                xt = (x + 0.5 * h * s
                      + root_h * rng.standard_normal((free.size, d)))
                st = oracle.score(xt, t)
                _require_finite_rows(st, "score", free)
                terms = None if kind == "ula" else proposal_terms(
                    x, xt, s, st, h, bound=bound if exact else None, t=t,
                    oracle=oracle, schedule=schedule, chains=free,
                    marginal=marginal, log_h=kind != "two-coin")
                block = (free, np.zeros(free.size, dtype=np.int64), xt, st,
                         xt - x if terms is None else terms.v)
                if kind == "two-coin":
                    block += (terms.c,) + terms.frame
                    if carry:
                        # in chain order, which the round loop draws in
                        order = np.argsort(np.concatenate([carry[0], free]))
                        block = tuple(np.concatenate(pair)[order]
                                      for pair in zip(carry, block))
                proposed += free.size
            if not block:
                break
            ids, rounds, xt, st, v = block[:5]
            still = ran = poisson = ids[:0]  # still: rows open after this pass
            if kind == "two-coin":
                # a lone pending decision, or decisions after which no chain
                # proposes again, run their remaining rounds in one call: the
                # passes would draw the same numbers in the same order
                C, swap, xa, va, ha, a, b = block[5:]
                limit = (max_rounds - int(rounds.max())
                         if ids.size == 1 or proposed == stats.proposals
                         else 1)
                accept, ran, poisson, still = _two_coin_rounds(
                    xa, va, ha, C, t, oracle, rng, max_rounds,
                    round_limit=limit, chains=ids, base=(a, b), swap=swap)
                rounds = rounds + ran
                if still.size:
                    stuck = still[rounds[still] >= max_rounds]
                    if stuck.size:
                        raise _stuck_error(stuck, max_rounds, C, ha, ids)
            else:
                accept = np.empty(ids.size, dtype=bool)
                once = np.arange(ids.size)    # the rows decided at once
                if kind == "hybrid":
                    # all its rounds run in this pass, on the rows with 2C <= cap
                    capped = 2.0 * terms.c > poisson_cap
                    runs = np.flatnonzero(~capped) if hybrid_rounds else once[:0]
                    if runs.size:
                        swap, xa, va, ha, a, b = (f[runs] for f in terms.frame)
                        accept[runs], ran, poisson, left = _two_coin_rounds(
                            xa, va, ha, terms.c[runs], t, oracle, rng,
                            max_rounds, round_limit=hybrid_rounds,
                            chains=runs, base=(a, b), swap=swap)
                        rounds[runs] = ran
                        # the rows still open join the capped rows
                        once = np.concatenate([np.flatnonzero(capped),
                                               runs[left]])
                    # budget rows: the rows within the cap decided at once
                    stats.capped_rows += int(np.count_nonzero(capped))
                    stats.budget_rows += once.size - int(np.count_nonzero(capped))
                # every chain proposed in this pass, so the rows are the chains
                accept[once] = _accept_at_once(kind, once, x, xt, terms, t,
                                               rule, oracle, rng)
                if kind != "ula":
                    rounds[once] += 1
            if ran.size:
                stats.round_passes += int(ran.max())
                stats.poisson_total += int(poisson.sum())
            rows, carry = ids, ()
            if still.size:
                carry = tuple(f[still] for f in (ids, rounds) + block[2:])
                accept[still] = False
                rows, rounds = np.delete(ids, still), np.delete(rounds, still)
            moved = accept.nonzero()[0]
            if moved.size:
                stats.accepted += moved.size
                stats.jump_sq_total += float((v.take(moved, axis=0) ** 2).sum())
                to = ids[moved]
                X[to], S[to] = xt.take(moved, axis=0), st.take(moved, axis=0)
            if rows.size:
                stats.rounds_total += int(rounds.sum())
                stats.max_rounds = max(stats.max_rounds, int(rounds.max()))
            step = done[rows]
            if on_step is not None:
                on_step(rows, step, X.take(rows, axis=0))
            done[rows] = step = step + 1
            free = rows[step < steps]
    except MadmError as err:
        if err.sweep is None:
            err.sweep = int(done.min() if err.chain is None
                            else done[err.chain])
        raise
    stats.score_queries = oracle.queries - queries_before
    return X, S, stats
