"""Output checks computed apart from the program under test.

Each check returns ``(name, ok, detail)``.  The checks against an independent
value have a negative control in :mod:`workloads`: the same check applied to
an output known to be wrong must fail, or the check itself is reported broken.

Nothing here imports ``madm``: :mod:`workloads` passes in the program's
outputs and the inputs it was given.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import expit, logsumexp, roots_hermite

# Relative gap allowed between the program's mixture score and the
# direct-difference score, as a share of the largest score component.
SCORE_REL_TOL = 1e-10


def vp_discrete_params(t: float, T: int, beta_min: float, beta_max: float):
    """(r_t, sigma_t) of the DDPM ladder at a grid level t = k / T.

    Written from the definition x_k = sqrt(1 - beta_k) x_{k-1} + sqrt(beta_k) z:
    r^2 = prod_{j <= k} (1 - beta_j) and r^2 sigma^2 = 1 - r^2.
    """
    k = round(t * T)
    if abs(k - t * T) > 1e-9 or not 1 <= k <= T:
        raise ValueError(f"t={t} is not a positive grid level of T={T}")
    betas = np.linspace(beta_min, beta_max, T)
    alpha_bar = float(np.prod(1.0 - betas[:k]))
    r = math.sqrt(alpha_bar)
    sigma = math.sqrt((1.0 - alpha_bar) / alpha_bar)
    return r, sigma


def direct_mixture_score(x: np.ndarray, points: np.ndarray, r: float,
                         sigma: float) -> np.ndarray:
    """Score of (1/n) sum_i N(r x_i, r^2 sigma^2 I) by explicit differences.

    Uses diff = r x_i - x directly (no ||x||^2 expansion) and logsumexp
    weights, one row at a time, so it shares no arithmetic shortcut with the
    program's chunked BLAS kernel.
    """
    var = (r * sigma) ** 2
    means = r * points
    out = np.empty_like(x)
    for i, row in enumerate(x):
        diff = means - row
        logw = -np.sum(diff * diff, axis=1) / (2.0 * var)
        w = np.exp(logw - logsumexp(logw))
        out[i] = w @ diff / var
    return out


def score_check(program_score: np.ndarray, reference: np.ndarray):
    scale = float(np.max(np.abs(reference)))
    gap = float(np.max(np.abs(program_score - reference)))
    ok = bool(np.all(np.isfinite(program_score))) and gap <= SCORE_REL_TOL * scale
    return ("score", ok, f"max gap {gap:.3g} vs {SCORE_REL_TOL:g} x {scale:.4g}")


def nn_distances(samples: np.ndarray, reference: np.ndarray) -> np.ndarray:
    dist, _ = cKDTree(reference).query(samples, k=1)
    return np.asarray(dist, dtype=float)


def nn_agreement(program: np.ndarray, independent: np.ndarray):
    gap = float(np.max(np.abs(program - independent)))
    return ("nn-distances", gap <= 1e-9,
            f"program vs cKDTree max gap {gap:.3g}")


def checkerboard_criterion(adjusted: np.ndarray, ula: np.ndarray):
    """Acceptance criterion 7: mean NN distance >= 25% lower, q95 lower."""
    mean_a, q95_a = float(np.mean(adjusted)), float(np.quantile(adjusted, 0.95))
    mean_u, q95_u = float(np.mean(ula)), float(np.quantile(ula, 0.95))
    ok = q95_a < q95_u and mean_u >= 1.25 * mean_a
    return ("criterion-7", ok,
            f"mean {mean_u:.4f} -> {mean_a:.4f}, q95 {q95_u:.4f} -> {q95_a:.4f}")


def containment_check(samples_nn: np.ndarray, train_nn: np.ndarray,
                      tolerance: float):
    mean_s, mean_t = float(np.mean(samples_nn)), float(np.mean(train_nn))
    ok = mean_s <= mean_t * (1.0 + tolerance)
    return ("containment", ok,
            f"samples {mean_s:.5f} vs training cloud {mean_t:.5f} "
            f"(+{100 * tolerance:.0f}%)")


def barker_acceptance_gaussian(h: float, nodes: int = 160) -> float:
    """Stationary Barker acceptance of Langevin proposals on N(0, 1).

    x ~ N(0, 1), x' = x - (h/2) x + sqrt(h) z with z ~ N(0, 1); the mean of
    expit(log r + log H) by 2-D Gauss-Hermite quadrature.
    """
    u, w = roots_hermite(nodes)
    x = math.sqrt(2.0) * u[:, None]
    z = math.sqrt(2.0) * u[None, :]
    xt = x - 0.5 * h * x + math.sqrt(h) * z
    log_r = 0.5 * (x * x - xt * xt)
    fwd = xt - x + 0.5 * h * x
    bwd = x - xt + 0.5 * h * xt
    log_h = (fwd * fwd - bwd * bwd) / (2.0 * h)
    weights = w[:, None] * w[None, :] / math.pi
    return float(np.sum(weights * expit(log_r + log_h)))


def acceptance_check(rate: float, proposals: int, expected: float):
    """Measured acceptance within six binomial standard errors.

    Decisions of one chain are correlated through its state, but at
    stationarity the measured |z| stayed near 1, so the binomial error holds.
    """
    se = math.sqrt(expected * (1.0 - expected) / proposals)
    z = abs(rate - expected) / se
    return ("acceptance", z <= 6.0,
            f"{rate:.5f} vs Gauss-Hermite {expected:.5f} (|z| {z:.2f} <= 6)")


def unit_variance_check(samples: np.ndarray):
    """Sample variance of iid N(0, 1) draws within six standard errors of 1."""
    n = samples.size
    var = float(np.var(samples, ddof=1))
    z = abs(var - 1.0) / math.sqrt(2.0 / (n - 1))
    return ("variance", z <= 6.0, f"{var:.4f} over {n} samples (|z| {z:.2f} <= 6)")


# -- verify-exact: the suites' numbers against closed forms ------------------

def barker_rounds(C: float, H: float, r: float) -> float:
    """Mean rounds of the two-coin loop: geometric with success
    (1 + H r) / (1 + H e^C)."""
    return (1.0 + H * math.exp(C)) / (1.0 + H * r)


def barker_queries(C: float, H: float, r: float) -> float:
    """Mean interior score queries: each failed first coin costs Poisson(2C)
    queries, (H e^C / (1 + H e^C)) per round times the mean rounds."""
    return 2.0 * C * H * math.exp(C) / (1.0 + H * r)


LEMMA1_C = 1.0
FIXTURE_R = math.exp(-0.5)   # N(0, 1) density ratio from x = 0 to x = 1


def verify_checks(v: dict, pairs: int, r_target: float = FIXTURE_R,
                  alpha_shift: float = 0.0, rounds_scale: float = 1.0):
    """Verdicts on the four suites, re-derived from their measured numbers.

    The shifts let the negative control feed deliberately wrong closed forms.
    Statistical bands are 5 to 6 standard errors so that no seed fails by
    chance: the suites' own 3-sigma band over 20 configurations has a nominal
    5% chance per seed of failing correct code.
    """
    out = []
    lem = v["lemma1"]
    err = abs(lem["estimate"] - r_target)
    out.append(("lemma1", err <= 6.0 * lem["stderr"],
                f"e^C E[W] {lem['estimate']:.5f} vs r {r_target:.5f}, "
                f"{err / lem['stderr']:.2f} se"))
    tc = v["two-coin-exactness"]
    worst = 0.0
    for case in tc["cases"]:
        alpha = case["alpha"] + alpha_shift
        se = math.sqrt(alpha * (1.0 - alpha) / tc["n"])
        worst = max(worst, abs(case["freq"] - alpha) / se)
    out.append(("two-coin", worst <= 5.0 and len(tc["cases"]) == tc["configs"],
                f"{tc['configs']} configs, worst |z| {worst:.2f} <= 5"))
    pq = v["prop2-queries"]
    want_r = rounds_scale * barker_rounds(LEMMA1_C, 1.0, r_target)
    want_q = barker_queries(LEMMA1_C, 1.0, r_target)
    rerr = abs(pq["mean_rounds"] - want_r) / want_r
    qerr = abs(pq["mean_queries"] - want_q) / want_q
    out.append(("prop2", rerr <= 0.02 and qerr <= 0.02,
                f"rounds {pq['mean_rounds']:.4f} vs {want_r:.4f}, "
                f"queries {pq['mean_queries']:.4f} vs {want_q:.4f}"))
    li = v["line-integral-identity"]
    out.append(("line-integral", li["pairs"] == pairs and li["worst_abs_error"] <= 1e-8,
                f"{li['pairs']} pairs, worst {li['worst_abs_error']:.2e}"))
    return out
