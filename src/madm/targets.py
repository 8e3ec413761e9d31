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

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DegenerateMixtureError, DomainError
from .schedule import NoiseSchedule

# Row budget for chunking pairwise mixture computations.
_PAIR_CHUNK = 8_000_000

# Floor for the max-shifted mixture logits.  exp() is ~100x slower where its
# result is subnormal and several times slower where it underflows to 0; at
# the floor a component still weighs e^-600 ~ 3e-261 of the largest one, far
# below the rounding of any sum over it.
_LOGIT_FLOOR = -600.0


@dataclass
class ScoreOracle:
    """Bundle of target capabilities keyed on the score function.

    ``score_fn(x, t)`` accepts a single state of shape (d,) or a batch of
    shape (n, d) and returns an array of matching shape.  ``queries`` counts
    one per state evaluated (a batched call on n rows adds n).  Apart from
    the query counter and the per-level constants a target function may
    cache (:func:`diffused_empirical_oracle` does, thread-safely), oracles
    are read-only after construction; parallel chains should either share
    one oracle (single-threaded lockstep) or work on :meth:`fork` copies,
    each with its own counter (the sampler sums its per-level records
    instead of the counters).
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
    """Nonempty, finite point cloud in R^2 and its name."""

    points: np.ndarray
    name: str

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
            raise DomainError(f"expected a nonempty (n, 2) array, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise DomainError("dataset contains non-finite coordinates")
        object.__setattr__(self, "points", pts)

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

def diffused_empirical_oracle(data: Dataset2D, schedule: NoiseSchedule,
                              t: float) -> ScoreOracle:
    """Exact score/log-density of the diffused empirical measure of ``data``.

    The returned oracle is time-aware: ``score(x, u)`` evaluates the mixture
    at whatever level ``u`` is passed, so a single oracle serves a whole
    predictor-corrector run.  The construction-time ``t`` is validated up
    front; any level with sigma_u = 0 raises ``DegenerateMixtureError``.

    With means m_i = r_u x_i and var = (r_u sigma_u)^2, both capabilities
    share one pass over the logits

        L_i(x) = <x, m_i> / var - ||m_i||^2 / (2 var),

    which leave out the per-row term -||x||^2 / (2 var).  It cancels in the
    softmax weights, so the score (sum_i w_i m_i - x) / var never needs it;
    ``log_density`` adds it back.  The per-level constants (var, m / var,
    ||m||^2 / (2 var) and [m | 1]) are computed once per level and kept, for
    the last four levels, in a cache inside the oracle's closure.  It holds
    read-only arrays and is safe to share between threads, so :meth:`fork`
    copies share it.
    """
    _, sigma_t = schedule.marginal_params(t)
    if sigma_t <= 0.0:
        raise DegenerateMixtureError(
            f"mixture target degenerate at t={t} (sigma_t = 0)"
        )
    points = data.points
    n_comp, dim = points.shape
    log_n = np.log(n_comp)

    @functools.lru_cache(maxsize=4)
    def _level(u):
        r, sigma = schedule.marginal_params(u)
        if sigma <= 0.0:
            raise DegenerateMixtureError(
                f"mixture target degenerate at t={u} (sigma_t = 0)"
            )
        var = (r * sigma) ** 2
        means = r * points
        scaled_t = (means / var).T
        bias = np.sum(means * means, axis=1) / (2.0 * var)
        means_one = np.hstack([means, np.ones((n_comp, 1))])
        for arr in (scaled_t, bias, means_one):
            arr.flags.writeable = False
        return var, scaled_t, bias, means_one

    def _fused(x, u):
        """Per row of x: the logits' max and [sum_i w_i m_i | sum_i w_i] for
        the unnormalised weights w_i = exp(L_i - max)."""
        var, scaled_t, bias, means_one = _level(float(u))
        top = np.empty(x.shape[0])
        sums = np.empty((x.shape[0], dim + 1))
        step = max(1, _PAIR_CHUNK // n_comp)
        for lo in range(0, x.shape[0], step):
            logits = x[lo:lo + step] @ scaled_t
            logits -= bias
            peak = logits.max(axis=1, keepdims=True)
            logits -= peak
            np.maximum(logits, _LOGIT_FLOOR, out=logits)
            np.exp(logits, out=logits)
            top[lo:lo + step] = peak[:, 0]
            sums[lo:lo + step] = logits @ means_one
        return var, top, sums

    def score(x, u):
        single = x.ndim == 1
        xb = x[None, :] if single else x
        var, _, sums = _fused(xb, u)
        out = (sums[:, :dim] / sums[:, dim:] - xb) / var
        return out[0] if single else out

    def log_density(x, u):
        single = x.ndim == 1
        xb = x[None, :] if single else x
        var, top, sums = _fused(xb, u)
        out = top + np.log(sums[:, dim]) - np.sum(xb * xb, axis=1) / (2.0 * var)
        out += -log_n - 0.5 * dim * np.log(2.0 * np.pi * var)
        return out[0] if single else out

    return ScoreOracle(
        dim=dim,
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
