from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from madm import engine
from madm.adjust_exact import (expected_queries, expected_rounds,
                               poisson_w_replicates, two_coin_replicates)
from madm.engine import BoundSpec
from madm.errors import (BoundViolationError, ConfigError, DomainError,
                         NonFiniteError, NonterminationError)
from madm.schedule import NoiseSchedule
from madm.targets import (Dataset2D, ScoreOracle, diffused_empirical_oracle,
                          gaussian_oracle, quartic_oracle)

R_FIXTURE = float(np.exp(-0.5))  # density ratio of x=0 -> x=1 under N(0,1)


def one_row(x, x_tilde, oracle, t, h, scores=None):
    """The proposal x -> x_tilde as the one-row arrays the engine kernels
    take, with the oracle's endpoint scores unless ``scores`` are given."""
    X = np.array([x], dtype=float)
    Xt = np.array([x_tilde], dtype=float)
    S, St = (oracle.score(X, t), oracle.score(Xt, t)) if scores is None else scores
    V, f0, f1, logH = engine.proposal_terms(X, Xt, S, St, h)[:4]
    return SimpleNamespace(X=X, Xt=Xt, S=S, St=St, V=V, f0=f0, f1=f1, t=t,
                           h=h, x=X[0], v=V[0], log_h=float(logH[0]))


def replicates(p, bound, oracle, rng, n, **kw):
    """Two-coin replicates of the one-row proposal ``p``."""
    return two_coin_replicates(p.X, p.Xt, p.S, p.St, p.h, p.t, bound, oracle,
                               rng, n, **kw)


def bound_c(p, spec, schedule, oracle):
    """The envelope C of the one-row proposal ``p``."""
    return float(engine.proposal_terms(p.X, p.Xt, p.S, p.St, p.h, bound=spec,
                                       t=p.t, oracle=oracle,
                                       schedule=schedule).c[0])


def fixture_proposal(h=0.5):
    oracle = gaussian_oracle(0.0, 1.0)
    return oracle, one_row([0.0], [1.0], oracle, t=1.0, h=h)


def unit_h_proposal():
    # the fixture pair with zeroed endpoint scores, which pins H = 1; the
    # factory integrand still queries the true score, so r stays e^{-1/2}
    oracle = gaussian_oracle(0.0, 1.0)
    zero = np.zeros((1, 1))
    return oracle, one_row([0.0], [1.0], oracle, t=1.0, h=0.5,
                           scores=(zero, zero))


def null_move_proposal():
    oracle = gaussian_oracle(0.0, 1.0)
    return oracle, one_row([0.4], [0.4], oracle, t=1.0, h=0.3)


# -- the envelope C on one row -------------------------------------------------

def test_bound_c_zero_for_null_move():
    oracle, p = null_move_proposal()
    edm = NoiseSchedule.edm()
    assert bound_c(p, BoundSpec("lipschitz"), edm, oracle) == 0.0
    assert bound_c(p, BoundSpec("bounded-denoiser"), edm, oracle) == 0.0
    assert bound_c(p, BoundSpec("lipschitz-sharp"), edm, oracle) == 0.0


def test_bound_c_lipschitz_gaussian_value():
    oracle, p = fixture_proposal()
    c = bound_c(p, BoundSpec("lipschitz"), NoiseSchedule.edm(), oracle)
    # max(|s(0)|, |s(1)|) * 1 + (1/2) * 1^2
    assert c == pytest.approx(1.5, rel=1e-12)


def test_bound_c_bounded_denoiser_single_point_dataset():
    data = Dataset2D(points=np.zeros((1, 2)), name="origin")
    sched = NoiseSchedule.edm()
    oracle = diffused_empirical_oracle(data, sched, 1.0)
    p = one_row([0.0, 0.0], [1.0, 0.0], oracle, t=1.0, h=0.3)
    c = bound_c(p, BoundSpec("bounded-denoiser"), sched, oracle)
    # b = 0, r = 1, sigma = 1: C = max(||x||, ||x_tilde||) * ||v||
    assert c == pytest.approx(1.0, rel=1e-12)


def test_bound_c_missing_capability_is_config_error():
    oracle = quartic_oracle()
    p = one_row([0.0], [0.5], oracle, t=1.0, h=0.3)
    with pytest.raises(ConfigError):
        bound_c(p, BoundSpec("lipschitz"), NoiseSchedule.edm(), oracle)
    with pytest.raises(ConfigError):
        bound_c(p, BoundSpec("bounded-denoiser"), NoiseSchedule.edm(), oracle)


def test_bound_c_lipschitz_sharp_tight_on_affine_integrand():
    oracle, p = fixture_proposal()
    sharp = bound_c(p, BoundSpec("lipschitz-sharp"), NoiseSchedule.edm(),
                    oracle)
    # f(0) = 0, f(1) = -1, L ||v||^2 = 1: the integrand is its own line, so
    # the remainder bound (L'^2 - D^2) / (2 L') is 0, below the rounding
    # slack 1e-12 (|f0| + |f1| + L') = 2e-12, and C is 0
    assert sharp == 0.0
    plain = bound_c(p, BoundSpec("lipschitz"), NoiseSchedule.edm(), oracle)
    assert sharp <= plain


def test_bound_c_lipschitz_sharp_dominates_the_integrand():
    # the sharp route bounds the remainder f - l after the line l through
    # f(0) and f(1); on this Gaussian the remainder is rounding alone, so C
    # is 0 and f stays within the slack of its line
    rng = np.random.default_rng(42)
    oracle = gaussian_oracle(np.array([0.3, -0.1]), 1.7)
    for _ in range(25):
        x = rng.uniform(-2, 2, size=2)
        xt = x + rng.uniform(-1, 1, size=2)
        p = one_row(x, xt, oracle, t=1.0, h=0.3)
        c = bound_c(p, BoundSpec("lipschitz-sharp"), NoiseSchedule.edm(),
                    oracle)
        u = np.linspace(0, 1, 101)
        pts = x[None, :] + u[:, None] * (xt - x)[None, :]
        f = oracle.score_fn(pts, 1.0) @ (xt - x)
        line = p.f0[0] + (p.f1[0] - p.f0[0]) * u
        slack = 1e-12 * (abs(p.f0[0]) + abs(p.f1[0])
                         + oracle.lipschitz * (p.v @ p.v))
        assert c == 0.0
        assert np.abs(f - line).max() <= slack


def test_bound_c_manual_endpoint_violation():
    oracle, p = fixture_proposal()
    with pytest.raises(BoundViolationError):
        bound_c(p, BoundSpec("manual", 0.5), NoiseSchedule.edm(), oracle)
    assert bound_c(p, BoundSpec("manual", 1.0), NoiseSchedule.edm(),
                   oracle) == 1.0


# -- Poisson product estimator ---------------------------------------------------

def test_w_is_one_for_zero_bound():
    oracle, p = fixture_proposal()
    w = poisson_w_replicates(p.x, p.v, 0.0, p.t, oracle,
                             np.random.default_rng(0), 1)
    np.testing.assert_array_equal(w, [1.0])


def test_w_for_null_move_is_half_power_poisson():
    oracle, p = null_move_proposal()
    w = poisson_w_replicates(p.x, p.v, 2.0, p.t, oracle,
                             np.random.default_rng(1), 20)
    # every factor is exactly 1/2, so W = 2^{-N}
    assert np.all(w > 0)
    np.testing.assert_allclose(w, 0.5 ** np.round(-np.log2(w)), rtol=1e-12)


@given(st.floats(0.0, 3.0), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=50, deadline=None)
def test_w_always_in_unit_interval(c_extra, seed):
    oracle, p = fixture_proposal()
    c = 1.0 + c_extra  # keeps Assumption-1 validity: sup |f| = 1
    w = poisson_w_replicates(p.x, p.v, c, p.t, oracle,
                             np.random.default_rng(seed), 1)
    assert 0.0 <= w[0] <= 1.0


def test_w_mean_matches_density_ratio():
    oracle, p = fixture_proposal()
    rng = np.random.default_rng(2)
    n = 60_000
    w = poisson_w_replicates(p.x, p.v, 1.0, p.t, oracle, rng, n)
    est = np.exp(1.0) * w.mean()
    se = np.exp(1.0) * w.std(ddof=1) / np.sqrt(n)
    assert abs(est - R_FIXTURE) < 4.0 * se


def test_w_bound_violation_detected_on_interior_bump():
    # two far-apart mixture components: the score vanishes at both endpoints
    # of the segment joining them but is large in between, so a manual C
    # passing the endpoint check must still be caught by the factor band
    data = Dataset2D(points=np.array([[-2.0, 0.0], [2.0, 0.0]]), name="pair")
    sched = NoiseSchedule.edm()
    oracle = diffused_empirical_oracle(data, sched, 0.5)
    p = one_row([-2.0, 0.0], [2.0, 0.0], oracle, t=0.5, h=0.3)
    c = bound_c(p, BoundSpec("manual", 0.05), sched, oracle)
    with pytest.raises(BoundViolationError):
        poisson_w_replicates(p.x, p.v, c, p.t, oracle,
                             np.random.default_rng(4), 400)


# -- two-coin decision ------------------------------------------------------------

def test_alpha_prime_limit_never_rejects():
    # H e^C -> infinity: the immediate-reject coin never fires
    assert expit(-(800.0)) == 0.0


def test_null_move_decides_round_one_at_half():
    oracle, p = null_move_proposal()
    rep = replicates(p, BoundSpec("manual", 0.0), oracle,
                     np.random.default_rng(5), 4000)
    assert np.all(rep["rounds"] == 1)
    freq = rep["accept"].mean()
    assert abs(freq - 0.5) < 4.0 * np.sqrt(0.25 / 4000)


def test_two_coin_acceptance_matches_barker_probability():
    # the fixture pair run backwards, 1 -> 0, which the rule runs forward:
    # log H = -0.4375 <= (f(0) + f(1)) / 2 = 0.5
    oracle = gaussian_oracle(0.0, 1.0)
    p = one_row([1.0], [0.0], oracle, t=1.0, h=0.5)
    rng = np.random.default_rng(6)
    c = bound_c(p, BoundSpec("lipschitz"), NoiseSchedule.edm(), oracle)
    assert c == pytest.approx(1.5)
    alpha = expit(p.log_h - np.log(R_FIXTURE))
    n = 20_000
    rep = replicates(p, BoundSpec("lipschitz"), oracle, rng, n)
    assert not rep["swap"]
    se = np.sqrt(alpha * (1 - alpha) / n)
    assert abs(rep["accept"].mean() - alpha) < 4.0 * se


def test_two_coin_swap_direction_preserves_the_law():
    # the sweep's own rule runs this fixture from x_tilde back to x:
    # log H = 0.4375 > (f(0) + f(1)) / 2 = -0.5
    oracle, p = fixture_proposal()
    n = 20_000
    rep = replicates(p, BoundSpec("lipschitz"), oracle,
                     np.random.default_rng(7), n)
    assert rep["swap"]
    alpha = expit(p.log_h + np.log(R_FIXTURE))
    se = np.sqrt(alpha * (1 - alpha) / n)
    assert abs(rep["accept"].mean() - alpha) < 4.0 * se


def test_two_coin_rounds_law_on_unit_h_fixture():
    oracle, p = unit_h_proposal()
    assert p.log_h == 0.0
    rng = np.random.default_rng(8)
    n = 30_000
    rep = replicates(p, BoundSpec("manual", 1.0), oracle, rng, n)
    assert not rep["swap"]
    want = expected_rounds(1.0, 1.0, R_FIXTURE)
    rounds = rep["rounds"]
    se = rounds.std(ddof=1) / np.sqrt(n)
    assert abs(rounds.mean() - want) < 4.0 * se
    want_q = expected_queries(1.0, 1.0, R_FIXTURE)
    assert rep["score_queries"] / n == pytest.approx(want_q, rel=0.05)


def test_two_coin_rounds_law_in_the_swapped_frame():
    # the rule swaps the fixture (log H = 0.4375 > -0.5), so the rounds cost
    # what the reverse move costs, at 1/H and 1/r: about 1.89 rounds, where
    # the forward frame would take about 4.09
    oracle, p = fixture_proposal()
    n = 30_000
    rep = replicates(p, BoundSpec("manual", 1.5), oracle,
                     np.random.default_rng(18), n)
    assert rep["swap"]
    h_ratio = np.exp(p.log_h)
    want = expected_rounds(1.5, 1.0 / h_ratio, 1.0 / R_FIXTURE)
    assert want == pytest.approx(1.886, abs=1e-3)
    assert expected_rounds(1.5, h_ratio, R_FIXTURE) == pytest.approx(
        4.095, abs=1e-3)
    rounds = rep["rounds"]
    se = rounds.std(ddof=1) / np.sqrt(n)
    assert abs(rounds.mean() - want) < 4.0 * se
    want_q = expected_queries(1.5, 1.0 / h_ratio, 1.0 / R_FIXTURE)
    assert rep["score_queries"] / n == pytest.approx(want_q, rel=0.05)


def test_two_coin_records_cost_fields():
    oracle, p = fixture_proposal()
    before = oracle.queries
    rep = replicates(p, BoundSpec("manual", 1.5), oracle,
                     np.random.default_rng(9), 1)
    assert rep["accept"].dtype == bool
    assert rep["rounds"][0] >= 1
    assert rep["poisson_total"][0] >= 0
    assert rep["score_queries"] == oracle.queries - before
    assert rep["score_queries"] == rep["poisson_total"].sum()


def test_two_coin_nontermination_carries_diagnostics():
    oracle, p = unit_h_proposal()
    with pytest.raises(NonterminationError) as excinfo:
        replicates(p, BoundSpec("manual", 30.0), oracle,
                   np.random.default_rng(10), 1, max_rounds=25)
    err = excinfo.value
    assert err.rounds == 25
    assert err.c_bound == 30.0
    assert err.log_h == 0.0


def _nan_interior_proposal():
    """The fixture pair on an oracle whose scores turn NaN after the two
    cached endpoint evaluations."""
    calls = {"n": 0}

    def score(x, t):
        calls["n"] += 1
        return np.full_like(x, np.nan) if calls["n"] > 2 else -x

    oracle = ScoreOracle(dim=1, score_fn=score)
    return oracle, one_row([0.0], [1.0], oracle, t=1.0, h=0.5)


def test_two_coin_decision_rejects_nonfinite_interior_score():
    oracle, p = _nan_interior_proposal()
    # with C = 30 the first coin (1 + H e^C)^{-1} essentially never rejects
    with pytest.raises(NonFiniteError, match="interior score at chain 0"):
        replicates(p, BoundSpec("manual", 30.0), oracle,
                   np.random.default_rng(13), 1)


def test_two_coin_replicates_denoiser_bound_needs_a_schedule():
    # it used to end in AttributeError on the missing schedule, where the
    # sweep raises ConfigError before any draw
    oracle, p = fixture_proposal()
    rng = np.random.default_rng(17)
    queries, state = oracle.queries, rng.bit_generator.state
    with pytest.raises(ConfigError, match="needs a noise schedule"):
        replicates(p, BoundSpec("bounded-denoiser", 1.0), oracle, rng, 100)
    assert oracle.queries == queries
    assert rng.bit_generator.state == state


def test_two_coin_replicates_reject_nonfinite_interior_score():
    oracle, p = _nan_interior_proposal()
    with pytest.raises(NonFiniteError, match="interior score at chain"):
        replicates(p, BoundSpec("manual", 1.5), oracle,
                   np.random.default_rng(14), 500)


def test_replicates_do_not_depend_on_the_factor_block(monkeypatch):
    oracle = gaussian_oracle(np.array([0.3, -0.1]), 1.7)
    p = one_row([0.5, 1.0], [0.2, 0.6], oracle, t=1.0, h=0.3)
    c = bound_c(p, BoundSpec("lipschitz"), NoiseSchedule.edm(), oracle)

    def run():
        rep = replicates(p, BoundSpec("lipschitz"), oracle,
                         np.random.default_rng(15), 3000)
        w = poisson_w_replicates(p.x, p.v, c, p.t, oracle,
                                 np.random.default_rng(16), 3000)
        return rep, w

    rep, w = run()
    monkeypatch.setattr(engine, "FACTOR_BLOCK", 7)
    rep7, w7 = run()
    for key in ("accept", "rounds", "poisson_total"):
        np.testing.assert_array_equal(rep7[key], rep[key])
    assert rep7["score_queries"] == rep["score_queries"]
    np.testing.assert_array_equal(w7, w)


def _replicates(sampler, oracle, p, C):
    rng = np.random.default_rng(17)
    if sampler == "two-coin":
        return replicates(p, BoundSpec("manual", C), oracle, rng, 10)
    return poisson_w_replicates(p.x, p.v, C, 1.0, oracle, rng, 10)


@pytest.mark.parametrize("sampler", ["two-coin", "w"])
@pytest.mark.parametrize("C", [np.nan, np.inf])
def test_replicates_reject_a_non_finite_envelope(sampler, C):
    oracle, p = fixture_proposal()
    with pytest.raises(DomainError, match="finite"):
        _replicates(sampler, oracle, p, C)


@pytest.mark.parametrize("sampler", ["two-coin", "w"])
def test_replicates_need_aligned_1d_rows(sampler):
    # the W sampler takes 1-D x and v, the two-coin sampler one-row arrays
    oracle, p = fixture_proposal()
    for wrong in ({"x": p.X, "v": p.V, "X": np.vstack([p.X, p.X])},
                  {"v": np.zeros(2), "St": np.zeros((1, 2))}):
        with pytest.raises(DomainError, match="aligned 1-D|one-row arrays"):
            _replicates(sampler, oracle, SimpleNamespace(**{**vars(p),
                                                            **wrong}), 1.5)


# -- closed-form cost ------------------------------------------------------------

def test_expected_queries_examples():
    assert expected_queries(0.0, 1.0, 1.0) == 0.0
    want = 2.0 * np.e / (1.0 + np.exp(-0.5))
    assert expected_queries(1.0, 1.0, R_FIXTURE) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(3.3842, abs=5e-4)


def test_expected_queries_large_h_limit():
    c, r = 1.3, 0.7
    limit = 2.0 * c * np.exp(c) / r
    assert expected_queries(c, 1e12, r) == pytest.approx(limit, rel=1e-9)


def test_expected_rounds_fixture_value():
    want = (1.0 + np.e) / (1.0 + R_FIXTURE)
    assert expected_rounds(1.0, 1.0, R_FIXTURE) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("bad", [(-1.0, 1.0, 1.0), (1.0, 0.0, 1.0),
                                 (1.0, 1.0, -0.5), (np.nan, 1.0, 1.0),
                                 (np.inf, 1.0, 1.0)])
def test_cost_argument_domains(bad):
    with pytest.raises(DomainError):
        expected_queries(*bad)
    with pytest.raises(DomainError):
        expected_rounds(*bad)


# -- BoundSpec invariants ----------------------------------------------------------

def test_bound_spec_validates():
    with pytest.raises(ConfigError):
        BoundSpec("magic")
    with pytest.raises(DomainError):
        BoundSpec("manual", -1.0)


# -- kernel-level reversibility ----------------------------------------------------

def test_adjusted_kernel_detailed_balance_on_grid():
    """Empirical flow matrix of (ULA propose + two-coin accept) on N(0, 1).

    Detailed balance makes the cell-to-cell flows symmetric; each observed
    pair of counts (n_ij, n_ji) is a two-sided binomial split, so their gap
    is bounded by a few standard deviations.
    """
    rng = np.random.default_rng(11)
    oracle = gaussian_oracle(0.0, 1.0)
    n = 300_000
    X = rng.standard_normal((n, 1))
    S = oracle.score(X, 1.0)
    Xn, _, _ = engine.corrector_sweep(
        X, S, oracle, 1.0, 0.3, "two-coin", rng,
        schedule=NoiseSchedule.edm(), bound=BoundSpec("lipschitz"))
    edges = np.linspace(-2.625, 2.625, 22)
    i = np.digitize(X[:, 0], edges) - 1
    j = np.digitize(Xn[:, 0], edges) - 1
    ok = (i >= 0) & (i < 21) & (j >= 0) & (j < 21)
    counts = np.zeros((21, 21))
    np.add.at(counts, (i[ok], j[ok]), 1.0)
    for a in range(21):
        for b in range(a + 1, 21):
            gap = abs(counts[a, b] - counts[b, a])
            assert gap <= 5.0 * np.sqrt(counts[a, b] + counts[b, a]) + 10.0
