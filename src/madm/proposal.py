"""Langevin proposal records and the proposal ratio.

A single Langevin (ULA) step

    x_tilde = x + (h/2) s(x, t) + sqrt(h) z,      z ~ N(0, I),

defines the Gaussian proposal q(x_tilde | x) = N(x + (h/2) s(x, t), h I)
(the diffusion coefficient is fixed to 1 inside the corrector; all
noise-level dependence enters through the per-level step size h).  Both
endpoint scores are cached on the proposal record so downstream acceptance
machinery never re-queries them.  The sampler draws its proposals batched,
inside :func:`madm.engine.corrector_sweep`; a record here pins one fixed
pair for the verification suites and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import log_h_batch
from .errors import DomainError
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
