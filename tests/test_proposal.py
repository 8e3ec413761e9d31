import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from madm import engine
from madm.errors import NonFiniteError
from madm.targets import ScoreOracle, gaussian_oracle


def _rng():
    return np.random.default_rng(0)


class _ZeroNoise(np.random.Generator):
    """Generator pinning the sweep's Gaussian innovation to z = 0, or to the
    rows ``z``; every other draw comes from the stream of ``seed``."""

    def __init__(self, seed=0, z=0.0):
        super().__init__(np.random.PCG64(seed))
        self.z = z

    def standard_normal(self, shape):
        return np.broadcast_to(np.asarray(self.z, dtype=float), shape).copy()


def _ula(X, oracle, t, h, rng):
    X = np.asarray(X, dtype=float)
    return engine.corrector_sweep(X, oracle.score(X, t), oracle, t, h, "ula",
                                  rng)


def test_ula_zero_score_zero_noise_is_identity():
    oracle = ScoreOracle(dim=1, score_fn=lambda x, t: np.zeros_like(x))
    Xn, _, _ = _ula([[1.5]], oracle, 0.0, 0.3, _ZeroNoise())
    np.testing.assert_array_equal(Xn, [[1.5]])


def test_ula_gaussian_drift_value():
    oracle = gaussian_oracle(0.0, 1.0)
    Xn, _, _ = _ula([[1.0]], oracle, 0.0, 0.5, _ZeroNoise())
    assert Xn[0, 0] == pytest.approx(0.75)


def test_ula_mean_displacement_matches_drift():
    oracle = gaussian_oracle(0.0, 1.0)
    x = 0.7
    h = 0.3
    n = 1_000_000
    Xn, _, _ = _ula(np.full((n, 1), x), oracle, 0.0, h,
                    np.random.default_rng(0))
    moves = Xn[:, 0] - x
    ci = 4.0 * np.sqrt(h / n)
    assert abs(moves.mean() - 0.5 * h * (-x)) < ci
    # and each move is the proposal map of the sweep's first normal draw
    z = np.random.default_rng(0).standard_normal((n, 1))[:, 0]
    np.testing.assert_allclose(moves, 0.5 * h * (-x) + np.sqrt(h) * z,
                               rtol=0, atol=1e-12)


def test_ula_counts_two_queries_and_caches_scores():
    # one query for s(x), cached by the caller, and one for s(x_tilde)
    oracle = gaussian_oracle(0.0, 1.0)
    Xn, Sn, stats = _ula([[1.0]], oracle, 0.0, 0.5, _rng())
    assert oracle.queries == 2
    assert stats.score_queries == 1
    np.testing.assert_allclose(Sn, -Xn)


def test_ula_propagates_nonfinite_score_with_coordinate():
    def bad(x, t):
        s = -x.copy()
        s[x[:, 0] > 10.0, 1] = np.nan
        return s

    oracle = ScoreOracle(dim=3, score_fn=bad)
    X = np.zeros((4, 3))
    X[2, 0] = 20.0  # its proposal stays far above 10 at h = 0.1
    with pytest.raises(NonFiniteError, match="score at chain 2, coordinate 1"):
        engine.corrector_sweep(X, np.zeros((4, 3)), oracle, 0.0, 0.1, "ula",
                               _rng())


# -- log H ----------------------------------------------------------------------

def log_h(x, x_tilde, s, s_tilde, h):
    """log H of the proposal x -> x_tilde with endpoint scores s, s_tilde,
    as :func:`madm.engine.proposal_terms` computes it on one row."""
    rows = [np.array([a], dtype=float) for a in (x, x_tilde, s, s_tilde)]
    return float(engine.proposal_terms(*rows, h).log_h[0])


def test_log_h_zero_for_symmetric_random_walk():
    zero = [0.0, 0.0]
    assert log_h([0.3, -0.2], [1.0, 0.5], zero, zero, 0.4) == pytest.approx(
        0.0, abs=1e-15)


def test_log_h_matches_normal_density_oracle():
    oracle = gaussian_oracle(0.0, 1.0)
    h = 0.5
    x, xt = np.array([0.0]), np.array([1.0])
    lh = log_h(x, xt, oracle.score(x, 0.0), oracle.score(xt, 0.0), h)

    def log_q(to, frm):
        mean = frm - 0.5 * h * frm  # score of N(0,1) is -x
        return -0.5 * (to - mean) ** 2 / h - 0.5 * np.log(2 * np.pi * h)

    expected = log_q(0.0, 1.0) - log_q(1.0, 0.0)
    assert lh == pytest.approx(float(expected), rel=1e-12)
    assert lh == pytest.approx(0.4375, rel=1e-12)


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.01, 2.0),
       st.floats(-5, 5), st.floats(-5, 5))
@settings(max_examples=60, deadline=None)
def test_log_h_swap_antisymmetry(x, xt, h, sx, sxt):
    assert log_h([x], [xt], [sx], [sxt], h) == pytest.approx(
        -log_h([xt], [x], [sxt], [sx], h), abs=1e-12)
