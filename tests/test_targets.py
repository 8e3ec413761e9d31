import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, softmax

from madm import targets
from madm.errors import ConfigError, DegenerateMixtureError, DomainError
from madm.schedule import NoiseSchedule
from madm.targets import (CHECKERBOARD_CELL, Dataset2D, dataset_from_csv,
                          dataset_to_csv, diffused_empirical_oracle,
                          finite_difference_score, gaussian_oracle,
                          generate_dataset, quartic_oracle,
                          quartic_perturbed_oracle, spiral_curve)


# -- gaussian ----------------------------------------------------------------

def test_gaussian_score_values():
    oracle = gaussian_oracle(0.0, 1.0)
    assert oracle.score(np.array([0.0]), 0.0) == pytest.approx(0.0)
    assert oracle.score(np.array([2.0]), 0.0) == pytest.approx(-2.0)


def test_gaussian_density_ratio():
    oracle = gaussian_oracle(0.0, 1.0)
    log_r = oracle.log_density(np.array([1.0]), 0.0) - \
        oracle.log_density(np.array([0.0]), 0.0)
    assert np.exp(log_r) == pytest.approx(np.exp(-0.5), rel=1e-12)


def test_gaussian_capabilities():
    oracle = gaussian_oracle(np.array([3.0, 4.0]), 2.0)
    assert oracle.lipschitz == pytest.approx(0.5)
    assert oracle.denoiser_bound == pytest.approx(5.0)


def test_gaussian_rejects_bad_variance():
    with pytest.raises(DomainError):
        gaussian_oracle(0.0, 0.0)


# -- query counter -----------------------------------------------------------

def test_query_counter_increments_per_state():
    oracle = gaussian_oracle(0.0, 1.0)
    oracle.score(np.array([1.0]), 0.0)
    assert oracle.queries == 1
    oracle.score(np.ones((7, 1)), 0.0)
    assert oracle.queries == 8


def test_fork_counts_its_own_queries():
    oracle = gaussian_oracle(0.0, 1.0)
    oracle.score(np.array([1.0]), 0.0)
    fork = oracle.fork()
    fork.score(np.ones((3, 1)), 0.0)
    assert fork.queries == 3 and oracle.queries == 1


# -- quartic -----------------------------------------------------------------

def test_quartic_score_and_ratio():
    oracle = quartic_oracle(1.0)
    assert oracle.score(np.array([0.0]), 0.0) == pytest.approx(0.0)
    assert oracle.score(np.array([1.0]), 0.0) == pytest.approx(-1.0)
    log_r = oracle.log_density(np.array([1.0]), 0.0) - \
        oracle.log_density(np.array([0.0]), 0.0)
    assert log_r == pytest.approx(-0.25, rel=1e-12)


def test_quartic_perturbed_gradient_consistency():
    oracle = quartic_perturbed_oracle()
    for x in (-1.3, 0.2, 2.1):
        fd = finite_difference_score(oracle, np.array([x]), 0.0)
        assert oracle.score(np.array([x]), 0.0) == pytest.approx(fd, rel=1e-5)


# -- datasets ----------------------------------------------------------------

def test_generate_dataset_unknown_name():
    with pytest.raises(ConfigError):
        generate_dataset("doughnut", 10, 0)


@pytest.mark.parametrize("name", ["spiral", "funnel", "sierpinski",
                                  "pinwheel", "checkerboard"])
def test_generate_dataset_deterministic(name):
    a = generate_dataset(name, 200, seed=3)
    b = generate_dataset(name, 200, seed=3)
    np.testing.assert_array_equal(a.points, b.points)
    assert len(a) == 200
    assert np.all(np.isfinite(a.points))


def test_checkerboard_single_point_in_occupied_cell():
    ds = generate_dataset("checkerboard", 1, seed=0)
    x, y = ds.points[0]
    assert -4.0 <= x <= 4.0 and -4.0 <= y <= 4.0
    i = np.floor(x / CHECKERBOARD_CELL)
    j = np.floor(y / CHECKERBOARD_CELL)
    assert (int(i) + int(j)) % 2 == 0


def test_checkerboard_all_points_in_occupied_cells():
    ds = generate_dataset("checkerboard", 5000, seed=1)
    ij = np.floor(ds.points / CHECKERBOARD_CELL).astype(int)
    assert np.all((ij.sum(axis=1)) % 2 == 0)
    assert np.all(np.abs(ds.points) <= 4.0)


def test_spiral_points_stay_near_curve():
    ds = generate_dataset("spiral", 1000, seed=0)
    theta = np.linspace(0.0, 2.0 * np.pi * 1.5, 20000)
    curve = spiral_curve(theta)
    d2 = (np.sum(ds.points ** 2, axis=1)[:, None] + np.sum(curve ** 2, axis=1)
          - 2.0 * ds.points @ curve.T)
    nearest = np.sqrt(np.maximum(d2.min(axis=1), 0.0))
    # generator noise is N(0, 0.05^2) per coordinate
    assert nearest.max() < 6.0 * 0.05


def test_sierpinski_points_inside_triangle():
    from madm.targets import SIERPINSKI_VERTICES

    ds = generate_dataset("sierpinski", 2000, seed=2)
    v0, v1, v2 = SIERPINSKI_VERTICES
    mat = np.stack([v1 - v0, v2 - v0], axis=1)
    bary = np.linalg.solve(mat, (ds.points - v0).T).T
    assert np.all(bary >= -1e-9)
    assert np.all(bary.sum(axis=1) <= 1.0 + 1e-9)


def test_dataset_csv_roundtrip(tmp_path):
    ds = generate_dataset("pinwheel", 64, seed=5)
    path = tmp_path / "points.csv"
    dataset_to_csv(ds, path)
    again = dataset_from_csv(path, name="pinwheel")
    np.testing.assert_array_equal(ds.points, again.points)
    first_line = path.read_text().splitlines()[0]
    assert len(first_line.split(",")) == 2


# -- diffused empirical mixture ----------------------------------------------

@pytest.fixture
def three_point_oracle():
    data = Dataset2D(points=np.array([[0.5, 0.0], [-0.5, 0.4], [0.1, -0.8]]),
                     name="mix3")
    return diffused_empirical_oracle(data, NoiseSchedule.edm(), 0.6)


def test_mixture_degenerate_at_zero_noise():
    data = Dataset2D(points=np.zeros((1, 2)), name="point")
    with pytest.raises(DegenerateMixtureError):
        diffused_empirical_oracle(data, NoiseSchedule.edm(), 0.0)


def test_single_point_mixture_equals_gaussian():
    data = Dataset2D(points=np.zeros((1, 2)), name="point")
    sched = NoiseSchedule.edm()
    mix = diffused_empirical_oracle(data, sched, 0.5)
    ref = gaussian_oracle(np.zeros(2), 0.25)
    x = np.array([0.3, -0.7])
    np.testing.assert_allclose(mix.score(x, 0.5), ref.score(x, 0.5), rtol=1e-12)
    assert mix.log_density(x, 0.5) == pytest.approx(ref.log_density(x, 0.5),
                                                    rel=1e-12)


def test_symmetric_two_point_mixture_score_zero_at_origin():
    data = Dataset2D(points=np.array([[1.0, 0.0], [-1.0, 0.0]]), name="pair")
    mix = diffused_empirical_oracle(data, NoiseSchedule.edm(), 0.8)
    np.testing.assert_allclose(mix.score(np.zeros(2), 0.8), 0.0, atol=1e-14)


def test_mixture_score_matches_finite_differences(three_point_oracle):
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.uniform(-1.5, 1.5, size=2)
        fd = finite_difference_score(three_point_oracle, x, 0.6)
        score = three_point_oracle.score(x, 0.6)
        np.testing.assert_allclose(score, fd, rtol=1e-5, atol=1e-7)


def test_mixture_denoiser_bound(three_point_oracle):
    expected = max(np.linalg.norm(p)
                   for p in ([0.5, 0.0], [-0.5, 0.4], [0.1, -0.8]))
    assert three_point_oracle.denoiser_bound == pytest.approx(expected)


def test_mixture_far_field_stays_finite(three_point_oracle):
    x = np.array([1e3, -1e3])
    s = three_point_oracle.score(x, 0.6)
    ld = three_point_oracle.log_density(x, 0.6)
    assert np.all(np.isfinite(s))
    assert np.isfinite(ld)


def test_mixture_batched_matches_single(three_point_oracle):
    xs = np.array([[0.1, 0.2], [-0.4, 0.9], [2.0, -1.0]])
    batch = three_point_oracle.score(xs, 0.6)
    for i, x in enumerate(xs):
        np.testing.assert_allclose(batch[i], three_point_oracle.score(x, 0.6),
                                   rtol=1e-14)


def test_mixture_is_time_aware(three_point_oracle):
    x = np.array([0.2, 0.2])
    s_low = three_point_oracle.score(x, 0.3)
    s_high = three_point_oracle.score(x, 0.9)
    assert not np.allclose(s_low, s_high)
    with pytest.raises(DegenerateMixtureError):
        three_point_oracle.score(x, 0.0)


# -- the fused mixture kernel against direct differences -----------------------

FIG1_LADDER = NoiseSchedule.vp_discrete(T=18, beta_min=0.02, beta_max=0.35)
FIG1_LEVELS = (17 / 18, 9 / 18, 2 / 18)


@pytest.fixture(scope="module")
def checkerboard():
    return generate_dataset("checkerboard", 1200, 7)


def _mixture_reference(points, schedule, x, u):
    """Score and log-density of the diffused mixture from r x_i - x."""
    r, sigma = schedule.marginal_params(u)
    var = (r * sigma) ** 2
    diff = r * points[None, :, :] - x[:, None, :]
    terms = -np.sum(diff * diff, axis=2) / (2.0 * var)
    score = np.einsum("mn,mnd->md", softmax(terms, axis=1), diff) / var
    log_p = (logsumexp(terms, axis=1) - np.log(points.shape[0])
             - 0.5 * points.shape[1] * np.log(2.0 * np.pi * var))
    return score, log_p


def _rows(points, rng, m=96):
    """Rows near the data, across its box, and just outside it."""
    near = points[rng.integers(0, len(points), m // 2)]
    near = near + 0.1 * rng.standard_normal(near.shape)
    box = rng.uniform(-6.0, 6.0, size=(m - m // 2, 2))
    return np.vstack([near, box])


def _assert_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("u", FIG1_LEVELS)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=8, deadline=None)
def test_fused_mixture_matches_direct_differences(checkerboard, u, seed):
    # the kernel drops -||x||^2 / (2 var) from its logits; log_density adds
    # it back
    oracle = diffused_empirical_oracle(checkerboard, FIG1_LADDER, u)
    x = _rows(checkerboard.points, np.random.default_rng(seed))
    want, want_log_p = _mixture_reference(checkerboard.points, FIG1_LADDER, x, u)
    _assert_close(oracle.score(x, u), want)
    _assert_close(oracle.log_density(x, u), want_log_p)


@pytest.mark.parametrize("u", FIG1_LEVELS)
def test_fused_mixture_single_row_matches_direct_differences(checkerboard, u):
    oracle = diffused_empirical_oracle(checkerboard, FIG1_LADDER, u)
    x = np.array([0.7, -1.3])
    want, want_log_p = _mixture_reference(checkerboard.points, FIG1_LADDER,
                                          x[None, :], u)
    _assert_close(oracle.score(x, u), want[0])
    assert oracle.log_density(x, u) == pytest.approx(want_log_p[0], rel=1e-12)


@pytest.mark.parametrize("u", FIG1_LEVELS)
def test_fused_mixture_far_field_matches_direct_differences(checkerboard, u):
    # rows 1e3 away: ||x||^2 / (2 var) reaches ~1e7 and the weights are one-hot
    oracle = diffused_empirical_oracle(checkerboard, FIG1_LADDER, u)
    rng = np.random.default_rng(11)
    angle = rng.uniform(0.0, 2.0 * np.pi, size=16)
    x = 1e3 * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    want, want_log_p = _mixture_reference(checkerboard.points, FIG1_LADDER, x, u)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        score = oracle.score(x, u)
        log_p = oracle.log_density(x, u)
    assert np.all(np.isfinite(score)) and np.all(np.isfinite(log_p))
    _assert_close(score, want)
    _assert_close(log_p, want_log_p)


def test_fused_mixture_chunks_stitch_bit_for_bit(checkerboard, monkeypatch):
    # A chunked call must equal separate calls on its chunks bit for bit.
    # Against the one-chunk call it agrees only to rounding: OpenBLAS rounds
    # a row differently by its place in the 4-row blocks of its kernel.
    oracle = diffused_empirical_oracle(checkerboard, FIG1_LADDER, 0.5)
    x = _rows(checkerboard.points, np.random.default_rng(13), m=23)
    pieces = [x[lo:lo + 5] for lo in range(0, 23, 5)]  # 5 + 5 + 5 + 5 + 3
    whole = {u: (oracle.score(x, u), oracle.log_density(x, u))
             for u in FIG1_LEVELS}
    split = {u: (np.vstack([oracle.score(p, u) for p in pieces]),
                 np.concatenate([oracle.log_density(p, u) for p in pieces]))
             for u in FIG1_LEVELS}
    monkeypatch.setattr(targets, "_BLOCK_ENTRIES", 5 * len(checkerboard))
    monkeypatch.setattr(targets, "_BLOCK_ROWS", 1)
    for u in FIG1_LEVELS:
        score, log_p = oracle.score(x, u), oracle.log_density(x, u)
        np.testing.assert_array_equal(score, split[u][0])
        np.testing.assert_array_equal(log_p, split[u][1])
        _assert_close(score, whole[u][0], rel=1e-14)
        _assert_close(log_p, whole[u][1], rel=1e-14)


@pytest.mark.parametrize("u", FIG1_LEVELS)
def test_fused_mixture_zero_rows(checkerboard, u):
    # hybrid makes zero-row Simpson calls when no row is capped
    oracle = diffused_empirical_oracle(checkerboard, FIG1_LADDER, u)
    x = np.empty((0, 2))
    assert oracle.score(x, u).shape == (0, 2)
    assert oracle.log_density(x, u).shape == (0,)


def test_fused_mixture_rows_off_the_board_take_the_max_shift(checkerboard):
    # 5 to 20 units outside [-4, 4]^2 at the lowest fig1 level every weight
    # e^{L_i} is below 1e-90, so each row is redone shifted by its max
    u = FIG1_LEVELS[2]
    oracle = diffused_empirical_oracle(checkerboard, FIG1_LADDER, u)
    rng = np.random.default_rng(16)
    angle = rng.uniform(0.0, 2.0 * np.pi, size=48)
    edge = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    edge /= np.max(np.abs(edge), axis=1, keepdims=True)
    x = (4.0 + rng.uniform(5.0, 20.0, size=(48, 1))) * edge
    want, want_log_p = _mixture_reference(checkerboard.points, FIG1_LADDER, x, u)
    r, sigma = FIG1_LADDER.marginal_params(u)
    log_sums = want_log_p + np.log(len(checkerboard) * 2.0 * np.pi
                                   * (r * sigma) ** 2)
    assert np.all(log_sums < np.log(targets._FAR_SUM))
    _assert_close(oracle.score(x, u), want)
    _assert_close(oracle.log_density(x, u), want_log_p)


def _reach(points, schedule, x, u):
    """The kernel's bound on max_ij ||x_j - m_i||^2 / (2 var)."""
    r, sigma = schedule.marginal_params(u)
    reach = (np.max(np.linalg.norm(x, axis=1))
             + r * np.max(np.linalg.norm(points, axis=1)))
    return reach ** 2 / (2.0 * (r * sigma) ** 2)


def test_fused_mixture_skipped_floor_changes_no_bit(checkerboard):
    # at the lowest fig1 level, rows within 2.5 of the origin reach logits
    # below -500 but skip the floor on their own; rows 40 units away
    # make the whole call take it, which leaves the near rows alone
    u = FIG1_LEVELS[2]
    oracle = diffused_empirical_oracle(checkerboard, FIG1_LADDER, u)
    rng = np.random.default_rng(17)
    block = targets._BLOCK_ENTRIES // len(checkerboard)  # rows per block
    angle = rng.uniform(0.0, 2.0 * np.pi, size=block)
    near = 2.5 * np.sqrt(rng.uniform(size=(block, 1))) * np.stack(
        [np.cos(angle), np.sin(angle)], axis=1)
    far = 40.0 * rng.standard_normal((block, 2))
    x = np.vstack([near, far])
    assert _reach(checkerboard.points, FIG1_LADDER, near, u) <= 600.0
    assert _reach(checkerboard.points, FIG1_LADDER, x, u) > 600.0
    np.testing.assert_array_equal(
        oracle.score(x, u), np.vstack([oracle.score(near, u),
                                       oracle.score(far, u)]))
    np.testing.assert_array_equal(
        oracle.log_density(x, u),
        np.concatenate([oracle.log_density(near, u),
                        oracle.log_density(far, u)]))


def test_mixture_level_cache_does_not_change_results(checkerboard):
    x = _rows(checkerboard.points, np.random.default_rng(14))
    u1, u2 = FIG1_LEVELS[0], FIG1_LEVELS[2]
    reused = diffused_empirical_oracle(checkerboard, FIG1_LADDER, u1)
    got = [(reused.score(x, u), reused.log_density(x, u)) for u in (u1, u2, u1)]
    for u, (score, log_p) in zip((u1, u2, u1), got):
        fresh = diffused_empirical_oracle(checkerboard, FIG1_LADDER, u)
        np.testing.assert_array_equal(score, fresh.score(x, u))
        np.testing.assert_array_equal(log_p, fresh.log_density(x, u))
    # more levels than the cache holds, then back to the first
    for k in range(1, 18):
        reused.score(x, k / 18)
    np.testing.assert_array_equal(reused.score(x, u1), got[0][0])


def test_mixture_level_cache_is_shared_safely_between_threads(checkerboard):
    # forks share the closure, so threads hit one cache at changing levels
    oracle = diffused_empirical_oracle(checkerboard, FIG1_LADDER, 0.5)
    x = _rows(checkerboard.points, np.random.default_rng(15), m=32)
    levels = [k / 18 for k in range(1, 18)] * 3
    want = [diffused_empirical_oracle(checkerboard, FIG1_LADDER, u).score(x, u)
            for u in levels]
    forks = [oracle.fork() for _ in range(4)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        runs = list(pool.map(
            lambda fork: [fork.score(x, u) for u in levels], forks))
    for got in runs:
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
