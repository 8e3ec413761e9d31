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

The decisions run in :mod:`madm.engine`; this module holds the envelope of
one proposal, the closed-form costs and the replicate samplers that the
verification suites replay on one fixed proposal.
"""

from __future__ import annotations

import numpy as np

from . import engine
from .engine import DEFAULT_MAX_ROUNDS, BoundSpec
from .errors import DomainError
from .proposal import LangevinProposal
from .schedule import NoiseSchedule
from .targets import ScoreOracle


def _check_c(C: float) -> None:
    if C < 0:
        raise DomainError(f"C must be >= 0, got {C}")


def bound_C(p: LangevinProposal, spec: BoundSpec, schedule: NoiseSchedule,
            oracle: ScoreOracle) -> float:
    """Envelope C(x, x_tilde) dominating the line integrand along the segment.

    :func:`madm.engine.bound_c_batch` on the proposal's one row; its
    docstring gives the bounded-denoiser, Lipschitz and sharp Lipschitz
    formulas.  C must dominate the cached endpoint integrands |f(0)| and
    |f(1)| or the bound is rejected outright.
    """
    return float(engine.bound_c_batch(*p.as_rows(), p.t, spec, schedule,
                                      oracle)[0])


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
# a fixed proposal; these run the engine kernels on n broadcast copies of the
# proposal's row, so replicate i is reported as chain i.
# ---------------------------------------------------------------------------

def _replicate_rows(p: LangevinProposal, C: float, n: int):
    """(x, v, C) as read-only views of n identical rows."""
    _check_c(C)
    d = p.x.shape[-1]
    return (np.broadcast_to(p.x, (n, d)), np.broadcast_to(p.displacement, (n, d)),
            np.broadcast_to(float(C), (n,)))


def poisson_w_replicates(p: LangevinProposal, oracle: ScoreOracle, C: float,
                         rng: np.random.Generator, n: int) -> np.ndarray:
    """n independent draws of W for a fixed proposal (batched)."""
    X, V, C_rows = _replicate_rows(p, C, n)
    counts = rng.poisson(2.0 * C_rows)
    return engine._factor_products(X, V, C_rows, np.arange(n), counts, p.t,
                                   oracle, rng)


def two_coin_replicates(p: LangevinProposal, oracle: ScoreOracle, C: float,
                        rng: np.random.Generator, n: int,
                        max_rounds: int = DEFAULT_MAX_ROUNDS) -> dict:
    """n independent two-coin decisions for a fixed proposal (batched).

    Returns arrays: ``accept`` (bool), ``rounds``, ``poisson_total`` and the
    scalar total of interior score queries.  Each frame runs from x, without
    the direction swap of :func:`madm.engine.corrector_sweep`; both have
    Barker's acceptance law.
    """
    queries_before = oracle.queries
    X, V, C_rows = _replicate_rows(p, C, n)
    log_h = np.broadcast_to(engine.log_h_batch(*p.as_rows(), p.h)[0], (n,))
    accept, rounds, poisson, _ = engine._two_coin_rounds(
        X, V, log_h, C_rows, p.t, oracle, rng, max_rounds)
    return {
        "accept": accept,
        "rounds": rounds,
        "poisson_total": poisson,
        "score_queries": oracle.queries - queries_before,
    }
