import numpy as np
import pytest
from scipy.special import expit

from madm import engine
from madm.adjust_exact import BoundSpec
from madm.adjust_quadrature import simpson13
from madm.errors import (BoundViolationError, ConfigError, NonFiniteError,
                         NonterminationError)
from madm.schedule import NoiseSchedule
from madm.targets import (Dataset2D, ScoreOracle, diffused_empirical_oracle,
                          gaussian_oracle)


def test_bound_c_batch_matches_closed_forms():
    var = 1.3
    oracle = gaussian_oracle(np.zeros(2), var)
    sched = NoiseSchedule.edm()
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, size=(16, 2))
    Xt = X + rng.uniform(-0.5, 0.5, size=(16, 2))
    S = oracle.score(X, 1.0)
    St = oracle.score(Xt, 1.0)
    r, sigma = sched.marginal_params(1.0)
    norm = np.linalg.norm
    for spec in (BoundSpec("lipschitz"), BoundSpec("bounded-denoiser"),
                 BoundSpec("manual", 50.0)):
        batch = engine.bound_c_batch(X, Xt, S, St, 1.0, spec, sched, oracle)
        for i in range(16):
            x, xt = X[i], Xt[i]
            v = norm(xt - x)
            if spec.strategy == "lipschitz":
                # max(||s(x)||, ||s(x~)||) ||v|| + (L/2) ||v||^2, L = 1/var
                want = max(norm(-x / var), norm(-xt / var)) * v + 0.5 / var * v ** 2
            elif spec.strategy == "bounded-denoiser":
                # (b r + max(||x||, ||x~||)) / (r^2 sigma^2) ||v||, b = 0
                want = max(norm(x), norm(xt)) / (r * r * sigma * sigma) * v
            else:
                want = 50.0
            assert batch[i] == pytest.approx(want, rel=1e-12)


def test_log_h_batch_matches_closed_form():
    oracle = gaussian_oracle(0.0, 1.0)
    rng = np.random.default_rng(1)
    X = rng.standard_normal((8, 1))
    Xt = X + rng.standard_normal((8, 1)) * 0.4
    S = oracle.score(X, 1.0)
    St = oracle.score(Xt, 1.0)
    h = 0.25
    batch = engine.log_h_batch(X, Xt, S, St, h)
    for i in range(8):
        x, xt = float(X[i, 0]), float(Xt[i, 0])
        fwd = xt - x - 0.5 * h * (-x)
        bwd = x - xt - 0.5 * h * (-xt)
        assert batch[i] == pytest.approx((fwd ** 2 - bwd ** 2) / (2.0 * h),
                                         rel=1e-12)


def test_ula_sweep_accepts_everything():
    oracle = gaussian_oracle(0.0, 1.0)
    rng = np.random.default_rng(2)
    X = rng.standard_normal((500, 1))
    S = oracle.score(X, 1.0)
    Xn, Sn, stats = engine.corrector_sweep(X, S, oracle, 1.0, 0.3, "ula", rng)
    assert stats.accepted == 500
    assert stats.proposals == 500
    assert not np.allclose(Xn, X)
    np.testing.assert_allclose(Sn, oracle.score_fn(Xn, 1.0))


def _stationary_acceptance(kind, h, n=200_000, seed=3, **kw):
    oracle = gaussian_oracle(0.0, 1.0)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 1))
    S = oracle.score(X, 1.0)
    _, _, stats = engine.corrector_sweep(
        X, S, oracle, 1.0, h, kind, rng, schedule=NoiseSchedule.edm(),
        bound=BoundSpec("lipschitz"), rule=simpson13(), **kw)
    return stats.accepted / stats.proposals


def _analytic_barker_acceptance(h, n=400_000, seed=99):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    z = rng.standard_normal(n)
    xt = x - 0.5 * h * x + np.sqrt(h) * z
    w = (h / 8.0) * (x * x - xt * xt)
    return float(expit(w).mean()), float(expit(w).std() / np.sqrt(n))


def test_engine_two_coin_matches_analytic_barker_rate():
    h = 0.4
    want, se_want = _analytic_barker_acceptance(h)
    got = _stationary_acceptance("two-coin", h)
    se = np.sqrt(want * (1 - want) / 200_000 + se_want ** 2)
    assert abs(got - want) < 4.0 * se


def test_engine_oracle_mh_and_quadrature_agree_on_gaussian():
    # Simpson is exact on the Gaussian, so the two decisions share one law
    h = 0.4
    a = _stationary_acceptance("oracle-mh", h, seed=4)
    b = _stationary_acceptance("quadrature", h, seed=5)
    se = np.sqrt(2 * 0.25 / 200_000)
    assert abs(a - b) < 4.0 * se


def test_engine_hybrid_matches_two_coin_rate():
    # with the cost cap lifted and a deep round budget, the fallback is
    # essentially never taken and the hybrid reduces to the exact decision
    h = 0.15
    a = _stationary_acceptance("two-coin", h, seed=6)
    b = _stationary_acceptance("hybrid", h, seed=7, hybrid_rounds=64,
                               poisson_cap=1e9)
    se = np.sqrt(2 * 0.25 / 200_000)
    assert abs(a - b) < 4.0 * se


def test_engine_rejects_unknown_kind():
    oracle = gaussian_oracle(0.0, 1.0)
    with pytest.raises(ConfigError):
        engine.corrector_sweep(np.zeros((2, 1)), np.zeros((2, 1)), oracle,
                               1.0, 0.1, "metropolis", np.random.default_rng(0))


def test_engine_two_coin_nontermination_names_a_chain():
    oracle = gaussian_oracle(0.0, 1.0)
    rng = np.random.default_rng(8)
    X = rng.standard_normal((64, 1))
    S = oracle.score(X, 1.0)
    with pytest.raises(NonterminationError, match="chain"):
        engine.corrector_sweep(X, S, oracle, 1.0, 0.4, "two-coin", rng,
                               schedule=NoiseSchedule.edm(),
                               bound=BoundSpec("manual", 40.0), max_rounds=5)


def test_engine_bound_violation_names_a_chain():
    oracle = gaussian_oracle(0.0, 1.0)
    rng = np.random.default_rng(9)
    X = np.full((8, 1), 3.0)
    S = oracle.score(X, 1.0)
    with pytest.raises(BoundViolationError, match="chain"):
        engine.corrector_sweep(X, S, oracle, 1.0, 0.4, "two-coin", rng,
                               schedule=NoiseSchedule.edm(),
                               bound=BoundSpec("manual", 1e-4))


def test_engine_query_accounting():
    oracle = gaussian_oracle(0.0, 1.0)
    rng = np.random.default_rng(10)
    X = rng.standard_normal((256, 1))
    S = oracle.score(X, 1.0)
    before = oracle.queries
    _, _, stats = engine.corrector_sweep(
        X, S, oracle, 1.0, 0.3, "quadrature", rng, rule=simpson13())
    assert oracle.queries - before == stats.score_queries
    # proposal endpoint (256) + one midpoint per chain (256)
    assert stats.score_queries == 512


def test_hybrid_bound_violation_names_the_chain():
    # rows 0-2 have 2C above the cap and go straight to the fallback; only
    # row 3 runs exact rounds, and its interior bump escapes C = 0.8
    data = Dataset2D(points=np.array([[-2.0, 0.0], [2.0, 0.0]]), name="pair")
    sched = NoiseSchedule.edm()
    oracle = diffused_empirical_oracle(data, sched, 0.5)
    X = np.array([[6.0, 0.0]] * 3 + [[-2.0, 0.0]])
    Xt = np.array([[6.5, 0.0]] * 3 + [[2.0, 0.0]])
    S, St = oracle.score(X, 0.5), oracle.score(Xt, 0.5)
    V = Xt - X
    C = engine.bound_c_batch(X, Xt, S, St, 0.5, BoundSpec("lipschitz", 0.1),
                             sched, oracle)
    assert C[:3] == pytest.approx(9.01, abs=0.01)
    assert C[3] == pytest.approx(0.8, rel=1e-9)
    f0 = np.einsum("ij,ij->i", S, V)
    f1 = np.einsum("ij,ij->i", St, V)
    logH = engine.log_h_batch(X, Xt, S, St, 0.3)
    with pytest.raises(BoundViolationError, match="at chain 3$"):
        engine._hybrid_accept(X, V, f0, f1, logH, C, 0.5, simpson13(), oracle,
                              np.random.default_rng(0), 10,
                              engine.DEFAULT_MAX_ROUNDS,
                              engine.HYBRID_POISSON_CAP)


def _nan_after_two_calls(lipschitz=1.0):
    """N(0, 1) score that turns NaN from the third call on: the cached
    scores and the proposal endpoints are finite, interior scores are not."""
    calls = {"n": 0}

    def score(x, t):
        calls["n"] += 1
        return np.full_like(x, np.nan) if calls["n"] > 2 else -x

    return ScoreOracle(dim=1, score_fn=score, lipschitz=lipschitz)


@pytest.mark.parametrize("kind", ["two-coin", "hybrid"])
def test_sweep_rejects_nonfinite_interior_score(kind):
    oracle = _nan_after_two_calls()
    rng = np.random.default_rng(12)
    X = rng.standard_normal((2000, 1))
    S = oracle.score(X, 1.0)
    with pytest.raises(NonFiniteError, match="interior score at chain"):
        engine.corrector_sweep(X, S, oracle, 1.0, 0.3, kind, rng,
                               schedule=NoiseSchedule.edm(),
                               bound=BoundSpec("lipschitz"), rule=simpson13())


def test_hybrid_without_rounds_is_the_quadrature_sweep():
    oracle = gaussian_oracle(0.0, 1.0)
    X = np.random.default_rng(17).standard_normal((4000, 1))
    S = oracle.score(X, 1.0)
    out = {}
    for kind in ("hybrid", "quadrature"):
        out[kind] = engine.corrector_sweep(
            X, S, oracle, 1.0, 0.4, kind, np.random.default_rng(18),
            schedule=NoiseSchedule.edm(), bound=BoundSpec("lipschitz"),
            rule=simpson13(), hybrid_rounds=0)
    np.testing.assert_array_equal(out["hybrid"][0], out["quadrature"][0])
    assert out["hybrid"][2].accepted == out["quadrature"][2].accepted > 0


def test_two_coin_rounds_same_on_broadcast_and_copied_rows():
    # replicate samplers pass stride-0 views, the sweeps pass real arrays
    oracle = gaussian_oracle(np.array([0.3, -0.1]), 1.7)
    x, v = np.array([0.5, 1.0]), np.array([-0.3, -0.4])
    n = 2000
    views = (np.broadcast_to(x, (n, 2)), np.broadcast_to(v, (n, 2)),
             np.broadcast_to(-0.2, (n,)), np.broadcast_to(1.1, (n,)))
    copies = tuple(np.array(a) for a in views)
    out = [engine._two_coin_rounds(*rows, 1.0, oracle,
                                   np.random.default_rng(19), 1000)
           for rows in (views, copies)]
    for a, b in zip(*out):
        np.testing.assert_array_equal(a, b)
