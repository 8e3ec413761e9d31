import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from madm.diagnostics import (barker_limit_A, barker_limit_A_mc,
                              containment_distance, empirical_scaling_acceptance,
                              esjd, nn_distances, optimal_scaling_curve,
                              order_fit)
from madm.errors import DomainError


# -- esjd -------------------------------------------------------------------

def test_esjd_constant_chain_is_zero():
    assert esjd(np.ones((50, 2))) == 0.0


def test_esjd_alternating_unit_chain():
    chain = np.array([0.0, 1.0] * 10)
    assert esjd(chain) == 1.0


def test_esjd_needs_two_states():
    with pytest.raises(DomainError):
        esjd(np.zeros((1, 2)))


def test_esjd_matches_autocovariance_identity():
    # stationary identity: ESJD = 2 (var - lag-1 autocovariance)
    rng = np.random.default_rng(0)
    n = 200_000
    rho = 0.6
    chain = np.empty(n)
    chain[0] = rng.standard_normal()
    innov = rng.standard_normal(n) * np.sqrt(1 - rho ** 2)
    for i in range(1, n):
        chain[i] = rho * chain[i - 1] + innov[i]
    measured = esjd(chain)
    var = chain.var()
    cov = np.mean((chain[1:] - chain.mean()) * (chain[:-1] - chain.mean()))
    identity = 2.0 * (var - cov)
    # the stationary identity holds up to O(1/n) edge terms
    assert measured == pytest.approx(identity, rel=1e-4)
    assert measured == pytest.approx(2.0 * (1 - rho), rel=0.02)


def test_esjd_identity_on_adjusted_langevin_chain():
    from madm.engine import corrector_sweep
    from madm.targets import gaussian_oracle

    oracle = gaussian_oracle(0.0, 1.0)
    rng = np.random.default_rng(6)
    h = 0.5
    x = np.zeros((1, 1))
    s = oracle.score(x, 1.0)
    chain = np.empty(30_000)
    for i in range(chain.size):
        x, s, _ = corrector_sweep(x, s, oracle, 1.0, h, "oracle-mh", rng)
        chain[i] = x[0, 0]
    measured = esjd(chain[2000:])
    kept = chain[2000:]
    cov = np.mean((kept[1:] - kept.mean()) * (kept[:-1] - kept.mean()))
    identity = 2.0 * (kept.var() - cov)
    assert measured == pytest.approx(identity, rel=1e-3)


# -- scaling limit ------------------------------------------------------------

def test_barker_limit_small_l_is_half():
    assert barker_limit_A(1e-4) == pytest.approx(0.5, abs=1e-6)


def test_barker_limit_large_l_vanishes():
    assert barker_limit_A(4.0) < 1e-4


def test_barker_limit_matches_monte_carlo():
    rng = np.random.default_rng(1)
    for l in (0.8, 1.5, 2.2):
        quad = barker_limit_A(l)
        n = 2_000_000
        mc = barker_limit_A_mc(l, n, rng)
        assert abs(quad - mc) < 4.0 * 0.5 / np.sqrt(n) * 4


def test_barker_limit_quadrature_self_consistency():
    for l in (0.5, 1.5, 2.5):
        a = barker_limit_A(l, nodes=256)
        b = barker_limit_A(l, nodes=512)
        assert abs(a - b) < 1e-8 * max(abs(a), 1e-3)


def test_barker_limit_strictly_decreasing():
    grid = np.linspace(0.05, 4.0, 160)
    values = np.array([barker_limit_A(l) for l in grid])
    assert np.all(np.diff(values) < 0)


def test_efficiency_curve_unimodal():
    grid = np.linspace(0.05, 4.0, 160)
    eff = np.array([l * l * barker_limit_A(l) for l in grid])
    peak = int(np.argmax(eff))
    assert np.all(np.diff(eff[:peak + 1]) > 0)
    assert np.all(np.diff(eff[peak:]) < 0)


def test_scaling_curve_single_point():
    curve = optimal_scaling_curve(np.array([1.2]))
    assert curve.l_star == pytest.approx(1.2)
    assert curve.acceptance_at_star == pytest.approx(barker_limit_A(1.2))


def test_scaling_curve_argmax_acceptance():
    grid = np.linspace(0.3, 3.0, 109)
    curve = optimal_scaling_curve(grid)
    assert abs(curve.acceptance_at_star - 0.347) <= 0.002


def test_empirical_scaling_matches_limit_at_moderate_dimension():
    curve = optimal_scaling_curve(np.linspace(0.5, 3.0, 101))
    rng = np.random.default_rng(2)
    acc, jump = empirical_scaling_acceptance(100, curve.l_star, 40_000, rng)
    assert abs(acc - curve.acceptance_at_star) < 0.02
    assert jump > 0


# -- containment distance --------------------------------------------------------

def test_containment_zero_when_samples_subset():
    rng = np.random.default_rng(3)
    ref = rng.uniform(size=(100, 2))
    assert containment_distance(ref[:40], ref, q=0.95) == 0.0


def test_containment_single_pair():
    assert containment_distance(np.array([[3.0, 0.0]]),
                                np.array([[0.0, 0.0]]), q=0.95) == 3.0


def test_index_and_brute_agree():
    rng = np.random.default_rng(4)
    samples = rng.standard_normal((400, 2))
    ref = rng.standard_normal((700, 2))
    a = nn_distances(samples, ref, method="index")
    b = nn_distances(samples, ref, method="brute")
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


@given(st.floats(0.1, 10.0))
@settings(max_examples=25, deadline=None)
def test_containment_scale_equivariance(scale):
    rng = np.random.default_rng(5)
    samples = rng.standard_normal((60, 2))
    ref = rng.standard_normal((80, 2))
    base = containment_distance(samples, ref, q=0.9)
    scaled = containment_distance(scale * samples, scale * ref, q=0.9)
    assert scaled == pytest.approx(scale * base, rel=1e-9)


def test_containment_quantile_domain():
    with pytest.raises(DomainError):
        containment_distance(np.zeros((2, 2)), np.zeros((2, 2)), q=0.0)


# -- order fit -------------------------------------------------------------------

def test_order_fit_exact_power_law():
    h = np.array([0.5, 0.25, 0.125, 0.0625])
    fit = order_fit(h, h ** 2)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.residual_stderr < 1e-12


def test_order_fit_constant_errors():
    h = np.array([0.5, 0.25, 0.125, 0.0625])
    assert order_fit(h, np.full(4, 0.3)).slope == pytest.approx(0.0, abs=1e-12)


def test_order_fit_floors_nonpositive_errors():
    h = np.array([0.5, 0.25, 0.125, 0.0625])
    fit = order_fit(h, np.array([1e-2, 1e-4, 0.0, 0.0]))
    assert np.isfinite(fit.slope)
    with pytest.raises(DomainError):
        order_fit(h, np.array([1e-2, 1e-4, 0.0, 0.0]), floor=None)


def test_order_fit_needs_four_points():
    with pytest.raises(DomainError):
        order_fit(np.array([0.5, 0.25]), np.array([1.0, 2.0]))
