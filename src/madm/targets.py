"""Analytic score oracles and 2D dataset generators.

Every target here exposes an exact score, and where possible an exact
log-density, so accept/reject machinery can be validated against
closed-form density ratios.  The 2D "data" targets are point clouds whose
noised marginal is the exactly-diffused empirical measure

    p_t = (1/n) sum_i N(r_t x_i, r_t^2 sigma_t^2 I),

which stands in for a trained score network without introducing any
score-approximation error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import logsumexp

from .errors import ConfigError, DegenerateMixtureError, DomainError
from .schedule import NoiseSchedule

# Row budget for chunking pairwise mixture computations.
_PAIR_CHUNK = 8_000_000


@dataclass
class ScoreOracle:
    """Bundle of target capabilities keyed on the score function.

    ``score_fn(x, t)`` accepts a single state of shape (d,) or a batch of
    shape (n, d) and returns an array of matching shape.  ``queries`` counts
    one per state evaluated (a batched call on n rows adds n).  Oracles are
    read-only after construction; parallel chains should either share one
    oracle (single-threaded lockstep) or work on :meth:`fork` copies whose
    counters are merged afterwards.
    """

    dim: int
    score_fn: Callable[[np.ndarray, float], np.ndarray]
    log_density_fn: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    denoiser_bound: Optional[float] = None
    lipschitz: Optional[float] = None
    name: str = "oracle"
    queries: int = 0

    def score(self, x, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self.queries += 1 if x.ndim == 1 else x.shape[0]
        return self.score_fn(x, t)

    def log_density(self, x, t: float):
        if self.log_density_fn is None:
            raise ConfigError(f"oracle {self.name!r} exposes no log-density")
        return self.log_density_fn(np.asarray(x, dtype=float), t)

    def fork(self) -> "ScoreOracle":
        """Copy sharing the target functions but with a fresh query counter."""
        return ScoreOracle(
            dim=self.dim,
            score_fn=self.score_fn,
            log_density_fn=self.log_density_fn,
            denoiser_bound=self.denoiser_bound,
            lipschitz=self.lipschitz,
            name=self.name,
        )

    def absorb(self, other: "ScoreOracle") -> None:
        """Merge the query count of a fork back into this oracle."""
        self.queries += other.queries


def gaussian_oracle(mean, variance: float) -> ScoreOracle:
    """Gaussian target N(mean, variance * I) with exact score and log-density."""
    if variance <= 0:
        raise DomainError(f"variance must be positive, got {variance}")
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    d = mean.shape[0]
    log_norm = -0.5 * d * np.log(2.0 * np.pi * variance)

    def score(x, t):
        return (mean - x) / variance

    def log_density(x, t):
        sq = np.sum((x - mean) ** 2, axis=-1)
        return -0.5 * sq / variance + log_norm

    return ScoreOracle(
        dim=d,
        score_fn=score,
        log_density_fn=log_density,
        denoiser_bound=float(np.linalg.norm(mean)),
        lipschitz=1.0 / variance,
        name=f"gaussian(d={d}, var={variance:g})",
    )


def quartic_oracle(scale: float = 1.0) -> ScoreOracle:
    """1D target with log p(x) = -x^4 / (4 * scale) + const; score -x^3/scale."""
    if scale <= 0:
        raise DomainError(f"scale must be positive, got {scale}")

    def score(x, t):
        return -x ** 3 / scale

    def log_density(x, t):
        return np.sum(-x ** 4 / (4.0 * scale), axis=-1)

    return ScoreOracle(dim=1, score_fn=score, log_density_fn=log_density,
                       name=f"quartic(scale={scale:g})")


def quartic_perturbed_oracle(scale: float = 1.0, amplitude: float = 0.1) -> ScoreOracle:
    """1D quartic well with a cosine ripple: log p = -x^4/(4 scale) - a cos x.

    The ripple gives the score a non-vanishing fourth derivative, so no
    single-panel quadrature rule integrates the induced line integrand
    exactly; used by the quadrature order-of-accuracy studies.
    """
    if scale <= 0:
        raise DomainError(f"scale must be positive, got {scale}")

    def score(x, t):
        return -x ** 3 / scale + amplitude * np.sin(x)

    def log_density(x, t):
        return np.sum(-x ** 4 / (4.0 * scale) - amplitude * np.cos(x), axis=-1)

    return ScoreOracle(dim=1, score_fn=score, log_density_fn=log_density,
                       name=f"quartic-perturbed(scale={scale:g}, a={amplitude:g})")


# ---------------------------------------------------------------------------
# 2D datasets
# ---------------------------------------------------------------------------

DATASET_NAMES = ("spiral", "funnel", "sierpinski", "pinwheel", "checkerboard")

SPIRAL_TURNS = 1.5          # angle sweep: theta in [0, 2*pi*SPIRAL_TURNS]
SPIRAL_RADIUS = 2.0         # radius at the outermost angle
SPIRAL_NOISE = 0.05
SIERPINSKI_VERTICES = np.array(
    [[-2.0, -np.sqrt(3.0)], [2.0, -np.sqrt(3.0)], [0.0, np.sqrt(3.0)]]
)
SIERPINSKI_ITERS = 10
PINWHEEL_BLADES = 5
CHECKERBOARD_CELL = 2.0     # occupied cells tile [-4, 4]^2


@dataclass(frozen=True)
class Dataset2D:
    """Point cloud in R^2 with its bounding box as metadata."""

    points: np.ndarray
    name: str
    bbox: tuple = field(init=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
            raise DomainError(f"expected a nonempty (n, 2) array, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise DomainError("dataset contains non-finite coordinates")
        object.__setattr__(self, "points", pts)
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        object.__setattr__(self, "bbox", (float(lo[0]), float(lo[1]),
                                          float(hi[0]), float(hi[1])))

    def __len__(self):
        return self.points.shape[0]


def spiral_curve(theta):
    """Parametric Archimedean spiral used by the ``spiral`` dataset."""
    theta = np.asarray(theta, dtype=float)
    radius = SPIRAL_RADIUS * theta / (2.0 * np.pi * SPIRAL_TURNS)
    return np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=-1)


def _gen_spiral(n, rng):
    theta = 2.0 * np.pi * SPIRAL_TURNS * np.sqrt(rng.uniform(size=n))
    return spiral_curve(theta) + SPIRAL_NOISE * rng.standard_normal((n, 2))


def _gen_funnel(n, rng):
    # Neal-style funnel: v ~ N(0, 3^2), x | v ~ N(0, e^v)
    v = 3.0 * rng.standard_normal(n)
    x = rng.standard_normal(n) * np.exp(0.5 * v)
    return np.stack([x, v], axis=-1)


def _gen_sierpinski(n, rng):
    # chaos game from a uniform start; SIERPINSKI_ITERS maps put every point
    # within 2^-SIERPINSKI_ITERS of the attractor
    w = rng.dirichlet(np.ones(3), size=n)
    pts = w @ SIERPINSKI_VERTICES
    for _ in range(SIERPINSKI_ITERS):
        idx = rng.integers(0, 3, size=n)
        pts = 0.5 * (pts + SIERPINSKI_VERTICES[idx])
    return pts


def _gen_pinwheel(n, rng):
    # blades as rotated, sheared Gaussians
    radial_std, tangential_std, rate = 0.3, 0.1, 0.25
    angles0 = 2.0 * np.pi * np.arange(PINWHEEL_BLADES) / PINWHEEL_BLADES
    labels = rng.integers(0, PINWHEEL_BLADES, size=n)
    feats = rng.standard_normal((n, 2)) * np.array([radial_std, tangential_std])
    feats[:, 0] += 1.0
    angles = angles0[labels] + rate * np.exp(feats[:, 0])
    cos, sin = np.cos(angles), np.sin(angles)
    out = np.empty((n, 2))
    out[:, 0] = cos * feats[:, 0] - sin * feats[:, 1]
    out[:, 1] = sin * feats[:, 0] + cos * feats[:, 1]
    return 2.0 * out


def _gen_checkerboard(n, rng):
    # 4 x 4 grid of side-CHECKERBOARD_CELL cells on [-4, 4]^2, the 8 cells
    # with even (i + j) occupied
    cells = np.array([(i, j) for i in range(-2, 2) for j in range(-2, 2)
                      if (i + j) % 2 == 0], dtype=float)
    idx = rng.integers(0, len(cells), size=n)
    u = rng.uniform(size=(n, 2))
    return CHECKERBOARD_CELL * (cells[idx] + u)


_GENERATORS = {
    "spiral": _gen_spiral,
    "funnel": _gen_funnel,
    "sierpinski": _gen_sierpinski,
    "pinwheel": _gen_pinwheel,
    "checkerboard": _gen_checkerboard,
}


def generate_dataset(name: str, n: int, seed: int) -> Dataset2D:
    """Deterministically generate one of the named 2D point clouds."""
    if name not in _GENERATORS:
        raise ConfigError(
            f"unknown dataset {name!r}; expected one of {DATASET_NAMES}"
        )
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    return Dataset2D(points=_GENERATORS[name](n, rng), name=name)


def dataset_to_csv(dataset: Dataset2D, path) -> None:
    """Two comma-separated columns (x, y), no header, round-trip doubles."""
    np.savetxt(path, dataset.points, fmt="%.17g", delimiter=",")


def dataset_from_csv(path, name: str = "loaded") -> Dataset2D:
    pts = np.loadtxt(path, delimiter=",", ndmin=2)
    return Dataset2D(points=pts, name=name)


# ---------------------------------------------------------------------------
# Diffused empirical mixture
# ---------------------------------------------------------------------------

def _mixture_terms(x, means, var):
    """Per-component -||x - m_i||^2 / (2 var) for x of shape (n, d)."""
    # ||x - m||^2 = ||x||^2 + ||m||^2 - 2 x.m ; the cross term via BLAS
    x_sq = np.sum(x * x, axis=1)[:, None]
    m_sq = np.sum(means * means, axis=1)[None, :]
    cross = x @ means.T
    return -(x_sq + m_sq - 2.0 * cross) / (2.0 * var)


def diffused_empirical_oracle(data: Dataset2D, schedule: NoiseSchedule,
                              t: float) -> ScoreOracle:
    """Exact score/log-density of the diffused empirical measure of ``data``.

    The returned oracle is time-aware: ``score(x, u)`` evaluates the mixture
    at whatever level ``u`` is passed, so a single oracle serves a whole
    predictor-corrector run.  The construction-time ``t`` is validated up
    front; any level with sigma_u = 0 raises ``DegenerateMixtureError``.
    """
    _, sigma_t = schedule.marginal_params(t)
    if sigma_t <= 0.0:
        raise DegenerateMixtureError(
            f"mixture target degenerate at t={t} (sigma_t = 0)"
        )
    points = data.points
    n_comp = points.shape[0]
    log_n = np.log(n_comp)

    def _params(u):
        r, sigma = schedule.marginal_params(u)
        if sigma <= 0.0:
            raise DegenerateMixtureError(
                f"mixture target degenerate at t={u} (sigma_t = 0)"
            )
        return r, (r * sigma) ** 2

    def score(x, u):
        r, var = _params(u)
        means = r * points
        single = x.ndim == 1
        xb = x[None, :] if single else x
        out = np.empty_like(xb)
        step = max(1, _PAIR_CHUNK // n_comp)
        for lo in range(0, xb.shape[0], step):
            chunk = xb[lo:lo + step]
            terms = _mixture_terms(chunk, means, var)
            terms -= terms.max(axis=1, keepdims=True)
            w = np.exp(terms)
            w /= w.sum(axis=1, keepdims=True)
            out[lo:lo + step] = (w @ means - chunk) / var
        return out[0] if single else out

    def log_density(x, u):
        r, var = _params(u)
        means = r * points
        single = x.ndim == 1
        xb = x[None, :] if single else x
        out = np.empty(xb.shape[0])
        step = max(1, _PAIR_CHUNK // n_comp)
        for lo in range(0, xb.shape[0], step):
            chunk = xb[lo:lo + step]
            terms = _mixture_terms(chunk, means, var)
            out[lo:lo + step] = logsumexp(terms, axis=1)
        out += -log_n - 0.5 * xb.shape[1] * np.log(2.0 * np.pi * var)
        return out[0] if single else out

    return ScoreOracle(
        dim=points.shape[1],
        score_fn=score,
        log_density_fn=log_density,
        denoiser_bound=float(np.max(np.linalg.norm(points, axis=1))),
        lipschitz=None,
        name=f"diffused-{data.name}(n={n_comp})",
    )


def finite_difference_score(oracle: ScoreOracle, x, t: float,
                            eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of the oracle's log-density (test support)."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.shape[0]):
        hi = x.copy()
        lo = x.copy()
        hi[i] += eps
        lo[i] -= eps
        grad[i] = (oracle.log_density(hi, t) - oracle.log_density(lo, t)) / (2 * eps)
    return grad
