"""Langevin proposals, the proposal ratio, and the density-ratio integrand.

A single Langevin (ULA) step

    x_tilde = x + (h/2) s(x, t) + sqrt(h) z,      z ~ N(0, I),

defines the Gaussian proposal q(x_tilde | x) = N(x + (h/2) s(x, t), h I)
(the diffusion coefficient is fixed to 1 inside the corrector; all
noise-level dependence enters through the per-level step size h).  Both
endpoint scores are cached on the proposal record so downstream acceptance
machinery never re-queries them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import log_h_batch
from .errors import DomainError, NonFiniteError
from .targets import ScoreOracle


@dataclass
class LangevinProposal:
    """One proposed move with its endpoint scores cached.

    ``score_x`` is the score used when drawing the proposal; ``score_x_tilde``
    is the score at the proposed point.  All arrays share one dimension d.
    """

    x: np.ndarray
    x_tilde: np.ndarray
    h: float
    t: float
    score_x: np.ndarray
    score_x_tilde: np.ndarray

    def __post_init__(self):
        shapes = {np.shape(a) for a in
                  (self.x, self.x_tilde, self.score_x, self.score_x_tilde)}
        if len(shapes) != 1:
            raise DomainError(f"mismatched state/score shapes: {shapes}")
        if self.h <= 0:
            raise DomainError(f"step size must be positive, got {self.h}")

    @property
    def displacement(self) -> np.ndarray:
        return self.x_tilde - self.x

    def as_rows(self):
        """(x, x_tilde, s(x), s(x_tilde)) as one-row batches for the engine."""
        return (self.x[None, :], self.x_tilde[None, :], self.score_x[None, :],
                self.score_x_tilde[None, :])

    def reversed(self) -> "LangevinProposal":
        """The same pair viewed as a move from x_tilde to x."""
        return LangevinProposal(
            x=self.x_tilde, x_tilde=self.x, h=self.h, t=self.t,
            score_x=self.score_x_tilde, score_x_tilde=self.score_x,
        )


def _require_finite(s: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(s)):
        bad = int(np.flatnonzero(~np.isfinite(np.atleast_1d(s)))[0])
        raise NonFiniteError(f"non-finite score at {where}, coordinate {bad}")


def ula_propose(x, oracle: ScoreOracle, t: float, h: float,
                rng: np.random.Generator, z=None) -> LangevinProposal:
    """Draw one ULA proposal from ``x`` and cache both endpoint scores.

    ``z`` may be supplied to pin the Gaussian innovation (test hook);
    otherwise it is drawn from ``rng``.
    """
    if h <= 0:
        raise DomainError(f"step size must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    s_x = oracle.score(x, t)
    _require_finite(s_x, f"x (t={t})")
    if z is None:
        z = rng.standard_normal(x.shape)
    x_tilde = x + 0.5 * h * s_x + np.sqrt(h) * np.asarray(z, dtype=float)
    s_xt = oracle.score(x_tilde, t)
    _require_finite(s_xt, f"x_tilde (t={t})")
    return LangevinProposal(x=x, x_tilde=x_tilde, h=h, t=t,
                            score_x=s_x, score_x_tilde=s_xt)


def make_proposal(x, x_tilde, oracle: ScoreOracle, t: float,
                  h: float) -> LangevinProposal:
    """Build a proposal record for a fixed (x, x_tilde) pair (two queries)."""
    x = np.asarray(x, dtype=float)
    x_tilde = np.asarray(x_tilde, dtype=float)
    s_x = oracle.score(x, t)
    s_xt = oracle.score(x_tilde, t)
    return LangevinProposal(x=x, x_tilde=x_tilde, h=h, t=t,
                            score_x=s_x, score_x_tilde=s_xt)


def log_H(p: LangevinProposal) -> float:
    """log of the proposal ratio q(x | x_tilde) / q(x_tilde | x)."""
    return float(log_h_batch(*p.as_rows(), p.h)[0])


def line_integrand(p: LangevinProposal, oracle: ScoreOracle, u: float) -> float:
    """<s(x + u (x_tilde - x), t), x_tilde - x> for u in [0, 1].

    Endpoint evaluations reuse the cached scores and cost no query; interior
    points cost exactly one score query.
    """
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"u must lie in [0, 1], got {u}")
    v = p.displacement
    if u == 0.0:
        s = p.score_x
    elif u == 1.0:
        s = p.score_x_tilde
    else:
        s = oracle.score(p.x + u * v, p.t)
    return float(s @ v)


def endpoint_integrands(p: LangevinProposal) -> tuple[float, float]:
    """(f(0), f(1)) of the line integrand from the cached endpoint scores."""
    v = p.displacement
    return float(p.score_x @ v), float(p.score_x_tilde @ v)
