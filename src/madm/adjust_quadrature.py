"""Newton-Cotes estimates of the log density ratio and the MH correctors.

A rule with N+1 equally spaced nodes approximates the score line integral as

    I_hat = sum_i w_i <s(x + (i/N) v, t), v>,        sum_i w_i = 1,

and plugs into the Metropolis-Hastings acceptance min{1, exp(I_hat) H}.
The endpoint integrands reuse the cached endpoint scores, so the trapezoid
rule costs no extra queries, Simpson 1/3 costs one midpoint evaluation and
Simpson 3/8 two.  Truncation errors are governed by derivatives of the
integrand, giving O(h^{3/2}) accuracy for the trapezoid rule and O(h^{5/2})
for both Simpson rules as the Langevin step h shrinks.

This module holds the rules.  The estimate (``_quadrature_log_ratio_batch``)
and the MH decision (``_accept_at_once``) run batched in
:mod:`madm.engine`, and so does the hybrid, inside ``corrector_sweep``'s
exact-round step.  The hybrid tries a capped number of exact two-coin
rounds first, in the same canonical frame as the two-coin corrector, and
falls back to the quadrature MH decision, bounding worst-case cost while
keeping the exact update whenever the factory terminates in time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError


@dataclass(frozen=True)
class QuadratureRule:
    """Equally spaced nodes on [0, 1] with unit-sum weights."""

    name: str
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1 or nodes.size < 2:
            raise DomainError("nodes and weights must be 1-D and aligned")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise DomainError("nodes must include both endpoints of [0, 1]")
        gaps = np.diff(nodes)
        if np.any(gaps <= 0) or not np.allclose(gaps, gaps[0], rtol=1e-12):
            raise DomainError("nodes must be strictly increasing and equally spaced")
        if not np.isclose(weights.sum(), 1.0, rtol=0, atol=1e-12):
            raise DomainError(f"weights must sum to 1, got {weights.sum()!r}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def interior_nodes(self) -> np.ndarray:
        return self.nodes[1:-1]


def trapezoid() -> QuadratureRule:
    return QuadratureRule("trapezoid", np.array([0.0, 1.0]),
                          np.array([0.5, 0.5]))


def simpson13() -> QuadratureRule:
    return QuadratureRule("simpson13", np.array([0.0, 0.5, 1.0]),
                          np.array([1.0, 4.0, 1.0]) / 6.0)


def simpson38() -> QuadratureRule:
    return QuadratureRule("simpson38", np.array([0.0, 1.0, 2.0, 3.0]) / 3.0,
                          np.array([1.0, 3.0, 3.0, 1.0]) / 8.0)


def composite(panels: int, base: Optional[QuadratureRule] = None) -> QuadratureRule:
    """``panels`` copies of ``base`` glued end to end (test infrastructure).

    Provides the high-resolution quadrature oracle used to validate the
    line-integral identity; the sampling correctors use single-panel rules.
    """
    if panels < 1:
        raise DomainError(f"panels must be >= 1, got {panels}")
    base = base if base is not None else simpson13()
    per = base.nodes.size - 1
    nodes = np.arange(panels * per + 1, dtype=float) / (panels * per)
    weights = np.zeros(nodes.size)
    for j in range(panels):
        weights[j * per:j * per + per + 1] += base.weights / panels
    return QuadratureRule(f"composite({panels}x{base.name})", nodes, weights)


RULES = {
    "trapezoid": trapezoid,
    "simpson13": simpson13,
    "simpson38": simpson38,
}


def rule_by_name(name: str) -> QuadratureRule:
    try:
        return RULES[name]()
    except KeyError:
        raise ConfigError(
            f"unknown quadrature rule {name!r}; expected one of {sorted(RULES)}"
        ) from None
