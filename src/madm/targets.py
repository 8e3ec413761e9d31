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

# Blocks of the mixture kernel: about _BLOCK_ENTRIES logits per block (64
# rows of the fig1 checkerboard's 1200 components, 600 KB), so a block's
# logits stay in cache from the product that writes them, through exp, to
# the product that reads them, and never fewer than _BLOCK_ROWS rows, below
# which each block's fixed numpy overhead shows (timed at 7 to 20 000 rows
# on 3 to 10 000 components).  One buffer serves every block of a call:
# allocating one per block maps its pages anew each time, which costs as
# much as the block's work.  The count depends on the components alone, so
# a row's bits do not depend on the size of its call.
_BLOCK_ENTRIES = 64 * 1200
_BLOCK_ROWS = 16

# Floor for the mixture logits -||x - m_i||^2 / (2 var).  exp() is ~100x
# slower where its result is subnormal and several times slower where it
# underflows to 0.  A row the floor can change either is redone (its weight
# sum is below _FAR_SUM) or keeps a sum of at least 1e-40, beside which a
# floored weight of e^-600 ~ 3e-261 is far below rounding.  The pass runs
# only on calls whose reach bound says some logit can fall below it.
_LOGIT_FLOOR = -600.0

# Rows whose unshifted weights sum below this are far from every component
# and are redone with their logits shifted by the largest one.  Above it
# the largest weight is a normal number, so the sums keep full relative
# accuracy; the floored weights (n e^-600) sit some 220 decades below it.
_FAR_SUM = 1e-40


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

        L_i(x) = -||x - m_i||^2 / (2 var),

    which one matrix product gives directly: [x | 1 | ||x||^2] against the
    per-level coefficients [m_i / var ; -||m_i||^2 / (2 var) ; -1 / (2 var)].
    The weights w_i = exp(L_i) need no shift by their max, since L_i <= 0.
    The product runs in blocks of at least ``_BLOCK_ROWS`` rows and about
    ``_BLOCK_ENTRIES`` logits, so each block's logits stay in cache through
    exp and the product with [m | 1] that sums them; a row's bits depend
    only on the rows of its block.

    The ``_LOGIT_FLOOR`` pass runs only when the call's reach bound

        (max_x ||x|| + r_u B)^2 / (2 var) >= max_{x,i} ||x - m_i||^2 / (2 var)

    over the call's rows x, with B = max_i ||x_i|| the data's radius about
    the origin, exceeds 600: below that no logit can fall under the floor,
    so skipping the pass changes nothing.  A row whose weight sum falls
    below ``_FAR_SUM`` lies far from every component.  It is redone from
    the logits <x, m_i> / var - ||m_i||^2 / (2 var) shifted by their max,
    which keeps its relative accuracy however far it lies, and its shift
    goes into ``log_density``.

    The per-level constants (var, the coefficients and [m | 1]) are
    computed once per level and kept, for the last four levels, in a cache
    inside the oracle's closure.  It holds read-only arrays and is safe to
    share between threads, so :meth:`fork` copies share it.
    """
    _, sigma_t = schedule.marginal_params(t)
    if sigma_t <= 0.0:
        raise DegenerateMixtureError(
            f"mixture target degenerate at t={t} (sigma_t = 0)"
        )
    points = data.points
    n_comp, dim = points.shape
    log_n = np.log(n_comp)
    data_radius = float(np.max(np.linalg.norm(points, axis=1)))

    @functools.lru_cache(maxsize=4)
    def _level(u):
        r, sigma = schedule.marginal_params(u)
        if sigma <= 0.0:
            raise DegenerateMixtureError(
                f"mixture target degenerate at t={u} (sigma_t = 0)"
            )
        var = (r * sigma) ** 2
        means = r * points
        coef = np.empty((dim + 2, n_comp))
        coef[:dim] = means.T / var
        coef[dim] = -np.sum(means * means, axis=1) / (2.0 * var)
        coef[dim + 1] = -0.5 / var
        means_one = np.hstack([means, np.ones((n_comp, 1))])
        for arr in (coef, means_one):
            arr.flags.writeable = False
        return r, var, coef, means_one

    def _fused(x, u):
        """Per row of x: a log scale s and [sum_i w_i m_i | sum_i w_i] for
        the weights w_i = exp(L_i - s); s is 0 but on far rows."""
        r, var, coef, means_one = _level(float(u))
        rows = x.shape[0]
        block_rows = max(_BLOCK_ROWS, _BLOCK_ENTRIES // n_comp)
        sq = np.einsum("ij,ij->i", x, x)
        xa = np.empty((rows, dim + 2))
        xa[:, :dim] = x
        xa[:, dim] = 1.0
        xa[:, dim + 1] = sq
        reach = (np.sqrt(sq.max(initial=0.0)) + r * data_radius) ** 2
        floor = reach / (2.0 * var) > -_LOGIT_FLOOR
        scale = np.zeros(rows)
        sums = np.empty((rows, dim + 1))
        buf = np.empty((min(rows, block_rows), n_comp))
        for lo in range(0, rows, block_rows):
            part = xa[lo:lo + block_rows]
            logits = np.matmul(part, coef, out=buf[:part.shape[0]])
            if floor:
                np.maximum(logits, _LOGIT_FLOOR, out=logits)
            np.exp(logits, out=logits)
            block = np.matmul(logits, means_one, out=sums[lo:lo + block_rows])
            far = np.flatnonzero(block[:, dim] < _FAR_SUM)
            if far.size:
                logits = x[lo + far] @ coef[:dim] + coef[dim]
                peak = logits.max(axis=1, keepdims=True)
                logits -= peak
                np.maximum(logits, _LOGIT_FLOOR, out=logits)
                np.exp(logits, out=logits)
                block[far] = logits @ means_one
                scale[lo + far] = peak[:, 0] - sq[lo + far] / (2.0 * var)
        return var, scale, sums

    def score(x, u):
        single = x.ndim == 1
        xb = x[None, :] if single else x
        var, _, sums = _fused(xb, u)
        out = (sums[:, :dim] / sums[:, dim:] - xb) / var
        return out[0] if single else out

    def log_density(x, u):
        single = x.ndim == 1
        xb = x[None, :] if single else x
        var, scale, sums = _fused(xb, u)
        out = scale + np.log(sums[:, dim])
        out += -log_n - 0.5 * dim * np.log(2.0 * np.pi * var)
        return out[0] if single else out

    return ScoreOracle(
        dim=dim,
        score_fn=score,
        log_density_fn=log_density,
        denoiser_bound=data_radius,
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
