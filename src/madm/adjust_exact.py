"""Exact Barker adjustment through a two-coin Bernoulli factory.

The log density ratio between a proposal and the current state equals the
line integral of the score along the segment joining them.  Given an
envelope C with  max_u |<s(x + u v, t), v>| <= C  (v = x_tilde - x), the
Poisson product

    W = prod_{j=1..N} (1/2 + I_j / (2C)),   N ~ Poisson(2C),
    I_j = <s(x + U_j v, t), v>,             U_j ~ Uniform[0, 1],

lies in [0, 1] almost surely and satisfies e^C E[W] = p_t(x_tilde)/p_t(x).
The two-coin loop turns that W-coin into an accept/reject decision whose
acceptance probability is exactly Barker's  H r / (1 + H r), without ever
evaluating the density ratio r.  Each round rejects outright with
probability alpha' = (1 + H e^C)^{-1}, otherwise accepts with probability W,
otherwise restarts; rounds are geometric with success (1 + Hr)/(1 + H e^C)
and the expected number of interior score queries is 2 C H e^C / (1 + Hr).

Every envelope is an affine split: the integrand is written f = l + g with
l(u) = a + b u a line whose integral E = a + b/2 is exact and joins H, and
the Poisson product runs on g with C bounding |g| only, so e^C E[W] =
r e^{-E} and the acceptance is still H r / (1 + H r).  :func:`expected_rounds`
and :func:`expected_queries` apply with H e^E in place of H, r e^{-E} in
place of r, and the remainder's C.  The ``lipschitz-sharp`` route takes the
line through f(0) and f(1); every other route takes the zero line (E = 0),
for which the formulas above hold as written.  Where the sharp remainder's
bound is within rounding (affine integrands: Gaussian targets) C is 0, so
W = 1 and round 1's coin alone decides, at H e^E / (1 + H e^E), with no
Poisson count, no W-coin and no score query: one round, as
:func:`expected_rounds` gives for C = 0 and r e^{-E} = 1.

The decisions and the envelope C run in :mod:`madm.engine`; this module
holds the closed-form costs and the replicate samplers that the
verification suites replay on one fixed proposal, the two-coin decisions
in the frame the sampler's sweep picks.
"""

from __future__ import annotations

import numpy as np

from . import engine
from .engine import DEFAULT_MAX_ROUNDS, BoundSpec
from .errors import DomainError
from .targets import ScoreOracle


def _check_c(C: float) -> None:
    if not (np.isfinite(C) and C >= 0):
        raise DomainError(f"C must be finite and >= 0, got {C}")


def expected_rounds(C: float, H: float, r: float) -> float:
    """Mean of the geometric round count: (1 + H e^C) / (1 + H r)."""
    _check_cost_args(C, H, r)
    return (1.0 + H * np.exp(C)) / (1.0 + H * r)


def expected_queries(C: float, H: float, r: float) -> float:
    """Expected interior score queries of the two-coin loop: 2 C H e^C / (1 + H r)."""
    _check_cost_args(C, H, r)
    return 2.0 * C * H * np.exp(C) / (1.0 + H * r)


def _check_cost_args(C, H, r):
    _check_c(C)
    if H <= 0 or r <= 0:
        raise DomainError(f"H and r must be positive, got H={H}, r={r}")


# ---------------------------------------------------------------------------
# Replicate samplers (verification instrumentation)
#
# The verification suites need 1e5..1e6 independent replays of the factory on
# a fixed proposal at level t; these run the engine kernels on n broadcast
# copies of its row, so replicate i is reported as chain i.
# ---------------------------------------------------------------------------

def _broadcast(row, n: int):
    """A read-only view of n copies of ``row``, a one-row array or a scalar."""
    return np.broadcast_to(row, (n,) + np.shape(row)[1:])


def poisson_w_replicates(x, v, C: float, t: float, oracle: ScoreOracle,
                         rng: np.random.Generator, n: int, *,
                         baseline=(0.0, 0.0)) -> np.ndarray:
    """n independent draws of W for the proposal x -> x + v (batched).

    The factors run on the remainder f(u) - a - b u after the line
    ``baseline = (a, b)``, which C must bound, and e^C E[W] = r e^{-(a + b/2)};
    the default zero line leaves the integrand f itself.
    """
    _check_c(C)
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    if x.ndim != 1 or x.shape != v.shape:
        raise DomainError(f"x and v must be aligned 1-D arrays, got shapes "
                          f"{x.shape} and {v.shape}")
    C_rows = _broadcast(float(C), n)
    counts = rng.poisson(2.0 * C_rows)
    return engine._factor_products(
        _broadcast(x[None, :], n), _broadcast(v[None, :], n), C_rows,
        np.arange(n), counts, t, oracle, rng,
        base=tuple(_broadcast(float(part), n) for part in baseline))


def two_coin_replicates(X, Xt, S, St, h: float, t: float, bound: BoundSpec,
                        oracle: ScoreOracle, rng: np.random.Generator, n: int,
                        max_rounds: int = DEFAULT_MAX_ROUNDS, *,
                        schedule=None) -> dict:
    """n independent two-coin decisions on the one-row proposal X -> Xt
    (endpoint scores S and St, step h, level t), made as
    :func:`madm.engine.corrector_sweep` makes them: C on ``bound``
    (``schedule`` serves the bounded-denoiser route), frame and swap included.

    Returns ``accept`` (bool, in the original direction), ``rounds``,
    ``poisson_total``, the total interior ``score_queries``, and ``swap``:
    rounds run from Xt back to X cost :func:`expected_rounds` at 1/H and 1/r.
    """
    X, Xt, S, St = (np.asarray(a, dtype=float) for a in (X, Xt, S, St))
    if (X.ndim != 2 or X.shape[0] != 1
            or {a.shape for a in (Xt, S, St)} != {X.shape}):
        raise DomainError("X, Xt, S and St must be aligned one-row arrays")
    queries_before = oracle.queries
    terms = engine.proposal_terms(X, Xt, S, St, h, bound=bound, t=t,
                                  oracle=oracle, schedule=schedule,
                                  log_h=False)
    swap, Xa, Va, log_h_a, a, b = (f if f is None else _broadcast(f, n)
                                   for f in terms.frame)
    accept, rounds, poisson, _ = engine._two_coin_rounds(
        Xa, Va, log_h_a, _broadcast(terms.c, n), t, oracle, rng, max_rounds,
        base=(a, b), swap=swap)
    return {
        "accept": accept,
        "rounds": rounds,
        "poisson_total": poisson,
        "score_queries": oracle.queries - queries_before,
        "swap": bool(terms.frame[0][0]),
    }
