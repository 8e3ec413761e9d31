"""Quantitative diagnostics: ESJD, scaling limits, sample distances, order fits.

The optimal-scaling analysis of the Barker-adjusted Langevin corrector on a
standard Gaussian says: with step size h = l^2 d^{-1/3} the log accept ratio
converges (d -> infinity) to W ~ N(-sigma^2/2, sigma^2) with
sigma^2 = l^6 / 16, the limiting efficiency is l^2 A(l) with
A(l) = E[1 / (1 + e^{-W})], and at the l maximising the efficiency the
acceptance rate is 0.347 to three decimals.  ``barker_limit_A`` evaluates
A by Gauss-Hermite quadrature; the empirical helpers measure the same
quantities on finite-dimensional Gaussian targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import expit, roots_hermite

from .engine import proposal_terms
from .errors import DomainError

MIN_HERMITE_NODES = 64


def esjd(chain) -> float:
    """Mean squared displacement between consecutive chain states."""
    chain = np.asarray(chain, dtype=float)
    if chain.ndim == 1:
        chain = chain[:, None]
    if chain.shape[0] < 2:
        raise DomainError("esjd needs a chain of length >= 2")
    diffs = np.diff(chain, axis=0)
    return float(np.mean(np.sum(diffs * diffs, axis=1)))


@lru_cache(maxsize=8)
def _hermite(nodes: int):
    return roots_hermite(nodes)


def _nodes_for(sigma: float, nodes: Optional[int]) -> int:
    if nodes is not None:
        return max(int(nodes), MIN_HERMITE_NODES)
    # the logistic factor varies on a unit scale; resolve it against the
    # sqrt(2) sigma stretching of the Gauss-Hermite abscissae
    return int(min(max(128, 40 * sigma), 4096))


def barker_limit_A(l: float, nodes: Optional[int] = None) -> float:
    """A(l) = E[1/(1 + e^{-W})], W ~ N(-l^6/32, l^6/16), by Gauss-Hermite."""
    if l <= 0:
        raise DomainError(f"l must be positive, got {l}")
    sigma_sq = l ** 6 / 16.0
    sigma = np.sqrt(sigma_sq)
    z, w = _hermite(_nodes_for(sigma, nodes))
    values = expit(-0.5 * sigma_sq + np.sqrt(2.0) * sigma * z)
    return float(w @ values / np.sqrt(np.pi))


def barker_limit_A_mc(l: float, n: int, rng: np.random.Generator) -> float:
    """Monte Carlo estimate of A(l) (slow cross-check for the quadrature)."""
    sigma_sq = l ** 6 / 16.0
    w = rng.normal(-0.5 * sigma_sq, np.sqrt(sigma_sq), size=n)
    return float(np.mean(expit(w)))


@dataclass(frozen=True)
class ScalingCurve:
    l: np.ndarray
    acceptance: np.ndarray          # A(l)
    efficiency: np.ndarray          # l^2 A(l)
    l_star: float
    acceptance_at_star: float

    def rows(self):
        return zip(self.l, self.acceptance, self.efficiency)


def optimal_scaling_curve(l_grid, nodes: Optional[int] = None) -> ScalingCurve:
    """Evaluate (l, A(l), l^2 A(l)) on a grid and locate the efficiency argmax.

    The argmax is refined with one parabolic pass through the best grid
    triple; the curve is smooth and unimodal so this pins l* well below the
    grid spacing.
    """
    l_grid = np.asarray(l_grid, dtype=float)
    if l_grid.size == 0 or np.any(l_grid <= 0):
        raise DomainError("l grid must be nonempty and positive")
    acc = np.array([barker_limit_A(l, nodes) for l in l_grid])
    eff = l_grid ** 2 * acc
    best = int(np.argmax(eff))
    l_star = float(l_grid[best])
    if 0 < best < l_grid.size - 1:
        x0, x1, x2 = l_grid[best - 1:best + 2]
        y0, y1, y2 = eff[best - 1:best + 2]
        denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
        a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
        b = (x2 ** 2 * (y0 - y1) + x1 ** 2 * (y2 - y0) + x0 ** 2 * (y1 - y2)) / denom
        if a < 0:
            l_star = float(np.clip(-b / (2 * a), x0, x2))
    return ScalingCurve(l=l_grid, acceptance=acc, efficiency=eff,
                        l_star=l_star,
                        acceptance_at_star=barker_limit_A(l_star, nodes))


def empirical_scaling_acceptance(d: int, l: float, n_proposals: int,
                                 rng: np.random.Generator,
                                 chunk: int = 20000) -> tuple[float, float]:
    """Measured Barker acceptance and ESJD on N(0, I_d) at h = l^2 d^{-1/3}.

    Proposals start from exact stationarity, so acceptance indicators are
    iid; the decision uses the closed-form Gaussian accept ratio, which by
    the factory's exactness shares the two-coin decision's law (replaying
    the factory here is hopeless: its envelope C grows with h d, putting
    e^C beyond any budget in the scaling regime).
    """
    if d < 1 or l <= 0 or n_proposals < 1:
        raise DomainError("need d >= 1, l > 0, n_proposals >= 1")
    h = l * l * d ** (-1.0 / 3.0)
    accepted = 0
    jump_sq = 0.0
    done = 0
    while done < n_proposals:
        m = min(chunk, n_proposals - done)
        x = rng.standard_normal((m, d))
        z = rng.standard_normal((m, d))
        xt = x - 0.5 * h * x + np.sqrt(h) * z
        log_r = 0.5 * (np.einsum("ij,ij->i", x, x) -
                       np.einsum("ij,ij->i", xt, xt))
        v = xt - x
        # the N(0, I) score is -x
        alpha = expit(log_r + proposal_terms(x, xt, -x, -xt, h).log_h)
        acc = rng.uniform(size=m) <= alpha
        accepted += int(acc.sum())
        jump_sq += float(np.sum(v[acc] ** 2))
        done += m
    return accepted / n_proposals, jump_sq / n_proposals


def nn_distances(samples, reference, method: str = "auto") -> np.ndarray:
    """Distance from each sample to its nearest reference point.

    ``method``: "index" uses a spatial tree, "brute" a chunked exhaustive
    scan (the correctness oracle for the index), "auto" picks by size.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    reference = np.atleast_2d(np.asarray(reference, dtype=float))
    if samples.size == 0 or reference.size == 0:
        raise DomainError("both point sets must be nonempty")
    if method == "auto":
        method = "brute" if samples.shape[0] * reference.shape[0] <= 250_000 else "index"
    if method == "index":
        dist, _ = cKDTree(reference).query(samples, k=1)
        return np.asarray(dist, dtype=float)
    if method != "brute":
        raise DomainError(f"unknown method {method!r}")
    out = np.empty(samples.shape[0])
    step = max(1, 4_000_000 // max(reference.shape[0], 1))
    ref_sq = np.sum(reference * reference, axis=1)
    for lo in range(0, samples.shape[0], step):
        block = samples[lo:lo + step]
        d2 = (np.sum(block * block, axis=1)[:, None] + ref_sq[None, :]
              - 2.0 * block @ reference.T)
        # the expansion locates the neighbour; recompute its distance by
        # direct subtraction so exact matches come out exactly zero
        nearest = reference[d2.argmin(axis=1)]
        out[lo:lo + step] = np.linalg.norm(block - nearest, axis=1)
    return out


def containment_distance(samples, reference, q: float = 0.95,
                         method: str = "auto") -> float:
    """q-quantile of nearest-neighbour distances from samples to reference."""
    if not 0.0 < q <= 1.0:
        raise DomainError(f"q must lie in (0, 1], got {q}")
    return float(np.quantile(nn_distances(samples, reference, method), q))


@dataclass(frozen=True)
class OrderFit:
    slope: float
    intercept: float
    residual_stderr: float
    n: int


def order_fit(h_values, errors, floor: Optional[float] = 1e-16) -> OrderFit:
    """Least-squares slope of log(error) against log(h).

    Non-positive errors are clipped to ``floor`` (pass ``floor=None`` to make
    them a hard error instead).
    """
    h_values = np.asarray(h_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if h_values.shape != errors.shape or h_values.size < 4:
        raise DomainError("need >= 4 aligned (h, error) pairs")
    if np.any(h_values <= 0):
        raise DomainError("h values must be positive")
    if np.any(errors <= 0):
        if floor is None:
            raise DomainError("errors must be positive (or set a floor)")
        errors = np.maximum(errors, floor)
    x = np.log(h_values)
    y = np.log(errors)
    design = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    dof = max(x.size - 2, 1)
    return OrderFit(slope=float(coef[0]), intercept=float(coef[1]),
                    residual_stderr=float(np.sqrt(resid @ resid / dof)),
                    n=x.size)
