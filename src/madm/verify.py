"""Named verification suites with machine-readable verdicts.

Each suite checks one pillar of the accept/reject machinery against an
independent closed-form or statistical oracle and returns a dictionary with
a boolean ``pass`` plus the measured numbers.  The suites state each fixed
proposal as one-row arrays and call the batched kernels of
:mod:`madm.engine` and the replicate samplers of :mod:`madm.adjust_exact`
on them directly; the two-coin replicates run the sweep's own frame.  Suite
sizes here are chosen to finish in seconds; the acceptance test suite runs
the same checks at their full stated sample sizes.
"""

from __future__ import annotations

import numpy as np

from . import diagnostics, engine
from .adjust_exact import (expected_queries, expected_rounds,
                           poisson_w_replicates, two_coin_replicates)
from .adjust_quadrature import composite, rule_by_name, simpson13
from .config import RunConfig, config_from_dict
from .engine import BoundSpec
from .errors import ConfigError
from .sampler import run_pc
from .schedule import NoiseSchedule
from .targets import (Dataset2D, diffused_empirical_oracle, gaussian_oracle,
                      generate_dataset, quartic_oracle,
                      quartic_perturbed_oracle)

GAUSSIAN_FIXTURE_R = float(np.exp(-0.5))  # density ratio for x=0 -> x=1 on N(0,1)


def _pair_rows(x, x_tilde, oracle, t: float):
    """One-row arrays (X, Xt, S, St) of the pair x -> x_tilde at level t,
    with the scores of both endpoints (two queries)."""
    x = np.asarray(x, dtype=float)
    x_tilde = np.asarray(x_tilde, dtype=float)
    return (x[None, :], x_tilde[None, :], oracle.score(x, t)[None, :],
            oracle.score(x_tilde, t)[None, :])


def gaussian_fixture_proposal():
    """The 1D standard-normal pair x=0, x_tilde=1 at t = 1 with real
    endpoint scores: the oracle and the rows (X, Xt, S, St)."""
    oracle = gaussian_oracle(0.0, 1.0)
    return oracle, _pair_rows(np.array([0.0]), np.array([1.0]), oracle, 1.0)


def unit_h_fixture_proposal():
    """Same pair with zeroed endpoint scores, so H = 1 exactly.

    The factory's interior draws still query the real score, so the
    estimated ratio stays r = e^{-1/2}; only the proposal-ratio term is
    pinned.
    """
    oracle = gaussian_oracle(0.0, 1.0)
    zero = np.zeros((1, 1))
    return oracle, (np.array([[0.0]]), np.array([[1.0]]), zero, zero)


def suite_lemma1(seed: int = 0, n: int = 200_000) -> dict:
    """e^C E[W] must equal the closed-form density ratio r (4 sigma band)."""
    rng = np.random.default_rng(seed)
    oracle, (X, Xt, _, _) = gaussian_fixture_proposal()
    c = 1.0
    w = poisson_w_replicates(X[0], Xt[0] - X[0], c, 1.0, oracle, rng, n)
    estimate = float(np.exp(c) * w.mean())
    stderr = float(np.exp(c) * w.std(ddof=1) / np.sqrt(n))
    err = abs(estimate - GAUSSIAN_FIXTURE_R)
    return {
        "suite": "lemma1", "pass": bool(err <= 4.0 * stderr),
        "n": n, "estimate": estimate, "target": GAUSSIAN_FIXTURE_R,
        "abs_error": err, "stderr": stderr, "w_min": float(w.min()),
        "w_max": float(w.max()),
    }


def _exactness_cases(rng: np.random.Generator, count: int):
    """Randomised (oracle, pair (X, Xt, S, St), h, t, bound, C, alpha) cases
    with sane factory cost.

    Half the cases are Gaussians (Lipschitz envelope), half 3-component
    mixtures (bounded-denoiser envelope).  Cases whose H e^C exceeds 50 are
    redrawn so the geometric round count stays small.
    """
    cases = []
    edm = NoiseSchedule.edm()
    while len(cases) < count:
        mixture = len(cases) % 2 == 1
        if mixture:
            pts = rng.uniform(-1.2, 1.2, size=(3, 2))
            data = Dataset2D(points=pts, name="mix3")
            t = float(rng.uniform(0.5, 0.9))
            oracle = diffused_empirical_oracle(data, edm, t)
            x = rng.uniform(-1.2, 1.2, size=2)
            spec = BoundSpec("bounded-denoiser")
        else:
            mean = rng.uniform(-0.5, 0.5, size=2)
            var = float(rng.uniform(0.5, 2.0))
            oracle = gaussian_oracle(mean, var)
            t = 1.0
            x = mean + rng.uniform(-1.0, 1.0, size=2)
            spec = BoundSpec("lipschitz")
        h = float(rng.uniform(0.05, 0.4))
        x_tilde = x + rng.uniform(-0.25, 0.25, size=2)
        X, Xt, S, St = _pair_rows(x, x_tilde, oracle, t)
        terms = engine.proposal_terms(X, Xt, S, St, h, bound=spec, t=t,
                                      oracle=oracle, schedule=edm)
        c, lh = float(terms.c[0]), float(terms.log_h[0])
        log_ratio = float(oracle.log_density(x_tilde, t) - oracle.log_density(x, t))
        if lh + c > np.log(50.0):
            continue
        alpha = float(np.exp(lh + log_ratio) / (1.0 + np.exp(lh + log_ratio)))
        cases.append((oracle, (X, Xt, S, St), h, t, spec, c, alpha))
    return cases


def suite_two_coin_exactness(seed: int = 1, n_configs: int = 6,
                             n: int = 20_000) -> dict:
    """Two-coin acceptance frequency vs the Barker probability H r / (1 + H r)."""
    rng = np.random.default_rng(seed)
    cases = _exactness_cases(rng, n_configs)
    worst = 0.0
    rows = []
    ok = True
    for oracle, pair, h, t, spec, c, alpha in cases:
        rep = two_coin_replicates(*pair, h, t, spec, oracle, rng, n,
                                  schedule=NoiseSchedule.edm())
        freq = float(rep["accept"].mean())
        stderr = float(np.sqrt(alpha * (1.0 - alpha) / n))
        z = abs(freq - alpha) / stderr
        worst = max(worst, z)
        ok = ok and z <= 3.0
        rows.append({"target": oracle.name, "C": c, "alpha": alpha,
                     "freq": freq, "z": z, "swap": rep["swap"]})
    return {"suite": "two-coin-exactness", "pass": bool(ok), "n": n,
            "configs": len(cases), "worst_z": worst, "cases": rows}


def suite_prop2_queries(seed: int = 2, n: int = 200_000,
                        tolerance: float = 0.02) -> dict:
    """Mean rounds and score queries vs closed forms in the rounds' frame."""
    rng = np.random.default_rng(seed)
    oracle, rows = unit_h_fixture_proposal()
    c, h_ratio, r = 1.0, 1.0, GAUSSIAN_FIXTURE_R
    rep = two_coin_replicates(*rows, 0.5, 1.0, BoundSpec("manual", c), oracle,
                              rng, n)
    if rep["swap"]:
        h_ratio, r = 1.0 / h_ratio, 1.0 / r
    mean_rounds = float(rep["rounds"].mean())
    mean_queries = float(rep["score_queries"]) / n
    want_rounds = float(expected_rounds(c, h_ratio, r))
    want_queries = float(expected_queries(c, h_ratio, r))
    rounds_err = abs(mean_rounds - want_rounds) / want_rounds
    queries_err = abs(mean_queries - want_queries) / want_queries
    return {
        "suite": "prop2-queries",
        "pass": bool(rounds_err <= tolerance and queries_err <= tolerance),
        "n": n, "mean_rounds": mean_rounds, "expected_rounds": want_rounds,
        "rounds_rel_error": rounds_err, "mean_queries": mean_queries,
        "expected_queries": want_queries, "queries_rel_error": queries_err,
    }


def _quartic_perturbed_sample(n: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draws from the rippled quartic well on a fine grid."""
    grid = np.linspace(-4.0, 4.0, 200_001)
    log_p = -grid ** 4 / 4.0 - 0.1 * np.cos(grid)
    density = np.exp(log_p - log_p.max())
    cdf = np.cumsum(density)
    cdf /= cdf[-1]
    return np.interp(rng.uniform(size=n), cdf, grid)


def quadrature_order_study(seed: int = 3, n_proposals: int = 1000,
                           k_range=range(3, 10)) -> dict:
    """Mean |I_hat - log r| against h for each single-panel rule.

    The target is the rippled quartic well, whose score has non-vanishing
    second and fourth derivatives, so the trapezoid error is O(h^{3/2}) and
    both Simpson rules are O(h^{5/2}) over the ULA proposal distribution.
    Starting points are drawn from the target (chains at stationarity);
    heavier starting laws contaminate the small-h rates with the O(h) drift
    of outlying states.
    """
    rng = np.random.default_rng(seed)
    oracle = quartic_perturbed_oracle()
    rules = {name: rule_by_name(name) for name in
             ("trapezoid", "simpson13", "simpson38")}
    x0 = _quartic_perturbed_sample(n_proposals, rng)[:, None]
    z0 = rng.standard_normal((n_proposals, 1))
    s0 = oracle.score(x0, 1.0)
    h_values = np.array([2.0 ** -k for k in k_range])
    errors = {name: [] for name in rules}
    for h in h_values:
        xt = x0 + 0.5 * h * s0 + np.sqrt(h) * z0
        v = xt - x0
        f0 = engine._row_dot(s0, v)
        f1 = engine._row_dot(oracle.score(xt, 1.0), v)
        exact = oracle.log_density(xt, 1.0) - oracle.log_density(x0, 1.0)
        for name, rule in rules.items():
            i_hat = engine._quadrature_log_ratio_batch(x0, v, f0, f1, 1.0,
                                                       rule, oracle)
            errors[name].append(float(np.mean(np.abs(i_hat - exact))))
    fits = {name: diagnostics.order_fit(h_values, np.array(vals))
            for name, vals in errors.items()}
    return {"h": h_values, "errors": errors, "fits": fits}


def suite_quad_order(seed: int = 3) -> dict:
    study = quadrature_order_study(seed)
    fits = study["fits"]
    t_slope = fits["trapezoid"].slope
    s13 = fits["simpson13"].slope
    s38 = fits["simpson38"].slope
    ok = (abs(t_slope - 1.5) <= 0.15 and abs(s13 - 2.5) <= 0.2
          and abs(s38 - 2.5) <= 0.2)
    return {
        "suite": "quad-order", "pass": bool(ok),
        "trapezoid_slope": t_slope, "simpson13_slope": s13,
        "simpson38_slope": s38,
        "h": [float(h) for h in study["h"]],
        "errors": {k: [float(e) for e in v] for k, v in study["errors"].items()},
    }


ULA_LIMIT_VARIANCE = 8.0 / 7.0  # fixed point of v -> (1 - h/2)^2 v + h at h = 0.5


def corrector_bias_config(kind: str, chains: int, steps: int,
                          seed: int) -> RunConfig:
    """Corrector-only chains on N(0, 1) at h = 0.5."""
    return config_from_dict({
        "target": {"kind": "gaussian", "mean": 0.0, "variance": 1.0, "dim": 1},
        "schedule": {"kind": "edm"},
        "predictor": {"kind": "none"},
        "corrector": {"kind": kind, "steps": steps, "step_scale": 0.5,
                      "step_rule": "sigma",
                      "bound": "auto"},
        "run": {"chains": chains, "seed": seed},
    })


def suite_ula_bias(seed: int = 4, chains: int = 48, steps: int = 5000) -> dict:
    """Stationary variance: ULA inflated to 8/7, adjusted correctors at 1."""
    rows = {}
    ok = True
    for kind, target_var, sigmas in (("ula", ULA_LIMIT_VARIANCE, 4.0),
                                     ("two-coin", 1.0, 3.0),
                                     ("oracle-mh", 1.0, 3.0),
                                     ("simpson13", 1.0, 3.0)):
        report = run_pc(corrector_bias_config(kind, chains, steps, seed))
        level = report.per_level[0]
        z = abs(level.post_var - target_var) / level.post_var_se
        rows[kind] = {"variance": level.post_var, "stderr": level.post_var_se,
                      "target": target_var, "z": z,
                      "acceptance": level.acceptance_rate}
        ok = ok and z <= sigmas
    return {"suite": "ula-bias", "pass": bool(ok), "chains": chains,
            "steps": steps, "samplers": rows}


def _identity_targets(rng: np.random.Generator):
    edm = NoiseSchedule.edm()
    pts = rng.uniform(-1.5, 1.5, size=(3, 2))
    mixture = diffused_empirical_oracle(Dataset2D(points=pts, name="mix3"),
                                        edm, 0.7)
    board = generate_dataset("checkerboard", 64, seed=5)
    board_oracle = diffused_empirical_oracle(board, edm, 0.5)
    return [
        (gaussian_oracle(np.array([0.3, -0.2]), 1.3), 1.0, 2, 2.0),
        (mixture, 0.7, 2, 1.0),
        (board_oracle, 0.5, 2, 1.5),
        (quartic_oracle(), 1.0, 1, 1.0),
        (quartic_perturbed_oracle(), 1.0, 1, 1.0),
    ]


def suite_line_integral_identity(seed: int = 5, pairs_per_target: int = 20,
                                 panels: int = 10_000,
                                 tolerance: float = 1e-8) -> dict:
    """High-resolution composite quadrature of the score line integrand must
    reproduce the exact log-density difference for every target."""
    rng = np.random.default_rng(seed)
    rule = composite(panels, simpson13())
    worst = 0.0
    total_pairs = 0
    ok = True
    per_target = {}
    for oracle, t, dim, spread in _identity_targets(rng):
        target_worst = 0.0
        for _ in range(pairs_per_target):
            x = rng.uniform(-spread, spread, size=dim)
            x_tilde = x + rng.uniform(-0.8, 0.8, size=dim)
            X, Xt, S, St = _pair_rows(x, x_tilde, oracle, t)
            V, f0, f1, _, _, _ = engine.proposal_terms(X, Xt, S, St, 0.1)
            approx = float(engine._quadrature_log_ratio_batch(
                X, V, f0, f1, t, rule, oracle)[0])
            exact = float(oracle.log_density(x_tilde, t) -
                          oracle.log_density(x, t))
            target_worst = max(target_worst, abs(approx - exact))
            total_pairs += 1
        per_target[oracle.name] = target_worst
        worst = max(worst, target_worst)
        ok = ok and target_worst <= tolerance
    return {"suite": "line-integral-identity", "pass": bool(ok),
            "pairs": total_pairs, "worst_abs_error": worst,
            "tolerance": tolerance, "per_target": per_target}


SUITES = {
    "lemma1": suite_lemma1,
    "two-coin-exactness": suite_two_coin_exactness,
    "prop2-queries": suite_prop2_queries,
    "quad-order": suite_quad_order,
    "ula-bias": suite_ula_bias,
    "line-integral-identity": suite_line_integral_identity,
}


def run_suite(name: str, seed: int | None = None) -> dict:
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; "
                          f"valid suites: {sorted(SUITES)}")
    if seed is None:
        return SUITES[name]()
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return SUITES[name](seed=seed)
