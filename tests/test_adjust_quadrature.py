from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from madm import engine
from madm.adjust_quadrature import (composite, rule_by_name, simpson13,
                                    simpson38, trapezoid)
from madm.errors import ConfigError, DomainError, NonFiniteError
from madm.targets import ScoreOracle, gaussian_oracle, quartic_oracle
from test_proposal import _ZeroNoise

R_FIXTURE = float(np.exp(-0.5))


def one_row(x, x_tilde, oracle, t, h):
    """The proposal x -> x_tilde as the one-row arrays the engine kernels
    take: x, the endpoint terms (v, f(0), f(1), log H) and the level t."""
    X = np.array([x], dtype=float)
    Xt = np.array([x_tilde], dtype=float)
    V, f0, f1, logH = engine.proposal_terms(
        X, Xt, oracle.score(X, t), oracle.score(Xt, t), h)[:4]
    return SimpleNamespace(X=X, V=V, f0=f0, f1=f1, logH=logH, t=t)


def log_ratio(p, oracle, rule):
    """The Newton-Cotes estimate of log r for the one-row proposal ``p``."""
    return float(engine._quadrature_log_ratio_batch(p.X, p.V, p.f0, p.f1, p.t,
                                                    rule, oracle)[0])


def fixture(h=0.5):
    oracle = gaussian_oracle(0.0, 1.0)
    return oracle, one_row([0.0], [1.0], oracle, t=1.0, h=h)


# -- rules ---------------------------------------------------------------------

def test_rule_weights():
    np.testing.assert_allclose(trapezoid().weights, [0.5, 0.5])
    np.testing.assert_allclose(simpson13().weights, [1 / 6, 4 / 6, 1 / 6])
    np.testing.assert_allclose(simpson38().weights,
                               [1 / 8, 3 / 8, 3 / 8, 1 / 8])


@pytest.mark.parametrize("name,extra", [("trapezoid", 0), ("simpson13", 1),
                                        ("simpson38", 2)])
def test_rule_interior_counts(name, extra):
    assert rule_by_name(name).interior_nodes.size == extra


def test_rule_by_name_unknown():
    with pytest.raises(ConfigError):
        rule_by_name("boole")


def test_composite_rule_structure():
    rule = composite(4, simpson13())
    assert rule.nodes.size == 9
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
    gaps = np.diff(rule.nodes)
    assert np.allclose(gaps, gaps[0])


@given(st.integers(1, 30))
@settings(max_examples=20, deadline=None)
def test_composite_weights_always_normalised(panels):
    rule = composite(panels, trapezoid())
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_rule_rejects_uneven_nodes():
    from madm.adjust_quadrature import QuadratureRule

    with pytest.raises(DomainError):
        QuadratureRule("bad", np.array([0.0, 0.3, 1.0]),
                       np.array([0.3, 0.4, 0.3]))
    with pytest.raises(DomainError):
        QuadratureRule("bad", np.array([0.0, 0.5, 1.0]),
                       np.array([0.3, 0.3, 0.3]))


# -- the estimate ----------------------------------------------------------------

def test_log_ratio_zero_for_null_move():
    oracle = gaussian_oracle(0.0, 1.0)
    p = one_row([0.7], [0.7], oracle, t=1.0, h=0.2)
    for rule in (trapezoid(), simpson13(), simpson38(), composite(7)):
        assert log_ratio(p, oracle, rule) == 0.0


def test_trapezoid_exact_on_gaussian():
    oracle, p = fixture()
    est = log_ratio(p, oracle, trapezoid())
    assert est == pytest.approx(np.log(R_FIXTURE), rel=1e-12)


def test_simpson_exact_on_cubic_integrand():
    oracle = quartic_oracle(1.0)
    p = one_row([0.0], [1.0], oracle, t=1.0, h=0.2)
    assert log_ratio(p, oracle, simpson13()) == pytest.approx(-0.25, rel=1e-12)
    assert log_ratio(p, oracle, simpson38()) == pytest.approx(-0.25, rel=1e-12)


def test_query_accounting_per_rule():
    oracle = gaussian_oracle(0.0, 1.0)
    for rule, extra in ((trapezoid(), 0), (simpson13(), 1), (simpson38(), 2)):
        p = one_row([0.0], [1.0], oracle, t=1.0, h=0.2)
        before = oracle.queries
        log_ratio(p, oracle, rule)
        assert oracle.queries - before == extra


# -- MH decision -----------------------------------------------------------------

def quadrature_accept(p, n, oracle, rng):
    """The engine's Simpson-1/3 MH decisions on n broadcast rows of the fixed
    proposal, drawn at once as the sweep draws them."""
    X, V, f0, f1, logH = (np.broadcast_to(a, (n,) + a.shape[1:])
                          for a in (p.X, p.V, p.f0, p.f1, p.logH))
    return engine._accept_at_once("quadrature", np.arange(n), X, None,
                                  engine.ProposalTerms(V, f0, f1, logH), p.t,
                                  simpson13(), oracle, rng)


def test_quadrature_mh_always_accepts_on_nonnegative_log_alpha():
    # moving downhill-to-uphill in reverse: pick x_tilde with higher density
    oracle = gaussian_oracle(0.0, 1.0)
    p = one_row([2.0], [0.1], oracle, t=1.0, h=0.5)
    assert np.log(np.exp(log_ratio(p, oracle, simpson13())) *
                  np.exp(p.logH[0])) >= 0
    accept = quadrature_accept(p, 50, oracle, np.random.default_rng(0))
    assert accept.all()


def test_quadrature_mh_bernoulli_half():
    # on N(0, 1) the accept ratio is (h/8)(x^2 - x_tilde^2); pick x_tilde so
    # it equals log(1/2) exactly, and Simpson reproduces it exactly
    oracle = gaussian_oracle(0.0, 1.0)
    h = 0.5
    p = one_row([0.0], [np.sqrt(16.0 * np.log(2.0))], oracle, t=0.0, h=h)
    i_hat = log_ratio(p, oracle, simpson13())
    assert i_hat + p.logH[0] == pytest.approx(np.log(0.5), rel=1e-12)
    n = 40_000
    hits = quadrature_accept(p, n, oracle, np.random.default_rng(1)).sum()
    assert abs(hits / n - 0.5) < 3.0 * np.sqrt(0.25 / n)


def test_simpson_mh_matches_oracle_mh_on_gaussian():
    # affine integrand: Simpson reproduces the exact log ratio, so both
    # decisions share one acceptance probability
    oracle = gaussian_oracle(0.0, 1.0)
    rng = np.random.default_rng(2)
    n = 30_000
    X = np.zeros((n, 1))
    S = oracle.score(X, 1.0)
    hits = {}
    for kind in ("quadrature", "oracle-mh"):
        _, _, stats = engine.corrector_sweep(X, S, oracle, 1.0, 0.1, kind, rng,
                                             rule=simpson13())
        hits[kind] = stats.accepted
    se = np.sqrt(2 * 0.25 / n)
    assert abs(hits["quadrature"] / n - hits["oracle-mh"] / n) < 3.0 * se


def test_quadrature_mh_propagates_nonfinite_estimate():
    calls = {"n": 0}

    def flaky(x, t):
        calls["n"] += 1
        if calls["n"] > 2:  # after the two cached endpoint evaluations
            return np.full_like(x, np.nan)
        return np.zeros_like(x)

    oracle = ScoreOracle(dim=1, score_fn=flaky)
    p = one_row([0.0], [1.0], oracle, t=0.0, h=0.5)
    with pytest.raises(NonFiniteError):
        quadrature_accept(p, 1, oracle, np.random.default_rng(3))


# -- oracle decisions --------------------------------------------------------------

def test_oracle_mh_accepts_uphill_moves():
    # from x = 20 under N(0, 1) with h = 0.5 every proposal lands near 15,
    # closer to the mode, so log r + log H = (h/8)(x^2 - x_tilde^2) > 0
    oracle = gaussian_oracle(0.0, 1.0)
    X = np.full((20, 1), 20.0)
    Xn, _, stats = engine.corrector_sweep(X, oracle.score(X, 1.0), oracle, 1.0,
                                          0.5, "oracle-mh",
                                          np.random.default_rng(4))
    assert stats.accepted == 20
    assert np.all(np.abs(Xn) < 20.0)


def test_oracle_mh_requires_log_density():
    oracle = ScoreOracle(dim=1, score_fn=lambda x, t: -x)
    X = np.zeros((4, 1))
    with pytest.raises(ConfigError):
        engine.corrector_sweep(X, oracle.score(X, 0.0), oracle, 0.0, 0.5,
                               "oracle-mh", np.random.default_rng(5))


# -- hybrid ----------------------------------------------------------------------

def _hybrid(x0, C, K, seed, n, h=0.5, kind="hybrid"):
    """One ``corrector_sweep`` step of n chains at x0 under N(0, 1), with the
    innovation pinned to z = 0: every chain proposes the same move
    x0 -> x0 + (h/2) s(x0), and hybrid decides it under the manual
    envelope C.  Returns the sweep's output, the generator and the move as
    :func:`one_row`'s arrays."""
    oracle = gaussian_oracle(0.0, 1.0)
    X = np.full((n, 1), x0)
    rng = _ZeroNoise(seed)
    out = engine.corrector_sweep(X, oracle.score(X, 1.0), oracle, 1.0, h,
                                 kind, rng, rule=simpson13(), hybrid_rounds=K,
                                 bound=engine.BoundSpec("manual", C))
    p = one_row([x0], [x0 - 0.5 * h * x0], oracle, t=1.0, h=h)
    return out, rng, p


# the proposal 4/3 -> 1 at h = 0.5, whose endpoint integrands 4/9 and 1/3
# lie within the envelope C = 1.5
X0 = 4.0 / 3.0


def test_hybrid_k_zero_equals_quadrature_distribution():
    n = 5000
    (Xa, _, a), rng_a, _ = _hybrid(X0, 1.5, 0, 7, n)
    (Xb, _, b), rng_b, _ = _hybrid(X0, 1.5, 0, 7, n, kind="quadrature")
    np.testing.assert_array_equal(Xa, Xb)
    assert a.accepted == b.accepted > 0
    # identical rng consumption, and every row fell back: one round each,
    # no exact round and no Poisson draw
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    assert a.rounds_total == n and a.round_passes == a.poisson_total == 0


def test_hybrid_never_falls_back_on_sure_accept():
    # x0 = 0 is a null move under z = 0: H = 1 and C = 0, so every row is
    # decided in its first exact round without a factor draw
    n = 200
    (_, _, stats), _, _ = _hybrid(0.0, 0.0, 10, 8, n, h=0.3)
    assert stats.rounds_total == n and stats.max_rounds == 1
    assert stats.round_passes == 1
    # a fallback decision would score its Simpson midpoint
    assert stats.score_queries == n


def test_hybrid_large_k_converges_to_barker():
    n = 20_000
    (_, _, stats), _, p = _hybrid(X0, 1.5, 10_000, 9, n)
    oracle = gaussian_oracle(0.0, 1.0)
    log_r = oracle.log_density(p.X + p.V, 1.0) - oracle.log_density(p.X, 1.0)
    alpha = expit(p.logH[0] + log_r[0])
    hits = stats.accepted
    assert abs(hits / n - alpha) < 4.0 * np.sqrt(alpha * (1 - alpha) / n)


def test_hybrid_skips_factory_above_poisson_cap():
    # 2C = 100 is above the cap: the row's one round is the fallback's
    (_, _, stats), _, _ = _hybrid(X0, 50.0, 10, 10, 1)
    assert stats.poisson_total == 0
    assert stats.rounds_total == 1
    assert stats.round_passes == 0
    # the proposal endpoint and the Simpson midpoint
    assert stats.score_queries == 2


def test_hybrid_tags_fallback_path():
    n, K = 400, 1
    (_, _, stats), _, _ = _hybrid(X0, 1.5, K, 11, n)
    # a row the exact round left open counts K + 1 rounds
    fallback = stats.rounds_total - n
    assert stats.max_rounds == K + 1
    assert 0 < fallback < n
    # endpoints, factor rows, and one Simpson midpoint per fallback row
    assert stats.score_queries == n + stats.poisson_total + fallback


@pytest.mark.parametrize("h", [0.5, 0.25, 0.125])
def test_simpson_mh_chain_unbiased_on_gaussian(h):
    # the integrand is affine on a Gaussian, so Simpson-MH is exact MALA at
    # every h and the stationary variance is 1 at each step size
    from madm.config import config_from_dict
    from madm.sampler import run_pc

    cfg = config_from_dict({
        "target": {"kind": "gaussian", "mean": 0.0, "variance": 1.0, "dim": 1},
        "schedule": {"kind": "edm"},
        "predictor": {"kind": "none"},
        "corrector": {"kind": "simpson13", "steps": 1500, "step_scale": h,
                      "step_rule": "sigma"},
        "run": {"chains": 128, "seed": 21},
    })
    level = run_pc(cfg).per_level[0]
    assert abs(level.post_var - 1.0) <= 3.0 * level.post_var_se
