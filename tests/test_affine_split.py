"""The affine split of the ``lipschitz-sharp`` route.

The line l(u) = f(0) + (f(1) - f(0)) u through the endpoint integrands
integrates exactly to E = (f(0) + f(1)) / 2, which joins log H; the two-coin
factory runs on the remainder f - l, whose bound C is 0 on affine integrands
(Gaussian targets).  The non-affine oracle here is the rippled target with
score -x + a sin x.
"""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import expit

from madm import engine
from madm.adjust_exact import (expected_rounds, poisson_w_replicates,
                               two_coin_replicates)
from madm.adjust_quadrature import simpson13
from madm.engine import BoundSpec
from madm.errors import BoundViolationError
from madm.schedule import NoiseSchedule
from madm.targets import ScoreOracle, gaussian_oracle

RIPPLE = 0.8
SHARP = BoundSpec("lipschitz-sharp")


def rippled_oracle(a=RIPPLE):
    """Score -x + a sin x per coordinate, so log p = -x^2/2 - a cos x + const
    and L = 1 + a; its line integrand is not affine."""

    def score(x, t):
        return -x + a * np.sin(x)

    def log_density(x, t):
        return np.sum(-0.5 * x ** 2 - a * np.cos(x), axis=-1)

    return ScoreOracle(dim=1, score_fn=score, log_density_fn=log_density,
                       lipschitz=1.0 + a, name=f"rippled(a={a:g})")


def rippled_draws(rng, n, a=RIPPLE):
    """n exact draws of the rippled target, by rejection from N(0, 1) with
    acceptance e^{-a cos x - a} <= 1."""
    out = np.empty(0)
    while out.size < n:
        x = rng.standard_normal(2 * n)
        keep = rng.uniform(size=x.size) <= np.exp(-a * np.cos(x) - a)
        out = np.concatenate([out, x[keep]])
    return out[:n, None]


def rippled_moments(a=RIPPLE):
    """E[x^2] and E[x^4] of the rippled target (its mean is 0), by the
    trapezoid rule on a fine grid, which is spectrally accurate here."""
    x = np.linspace(-14.0, 14.0, 280_001)
    w = np.exp(-0.5 * x ** 2 - a * np.cos(x))
    return (x ** 2 * w).sum() / w.sum(), (x ** 4 * w).sum() / w.sum()


def rows(oracle, X, Xt, h=0.5, spec=SHARP):
    """Endpoint terms and the sharp C of the proposals X -> Xt."""
    S, St = oracle.score(X, 1.0), oracle.score(Xt, 1.0)
    return engine.proposal_terms(X, Xt, S, St, h, bound=spec, t=1.0,
                                 oracle=oracle, schedule=NoiseSchedule.edm())[:5]


def random_rows(oracle, seed, n=25, d=1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3, 3, size=(n, d))
    return X, X + rng.uniform(-1.5, 1.5, size=(n, d))


# -- the envelope of the remainder -------------------------------------------------

@pytest.mark.parametrize("target", ["rippled", "gaussian"])
def test_remainder_bound_dominates_and_has_its_closed_form(target):
    if target == "rippled":
        oracle, d = rippled_oracle(), 1
    else:
        oracle, d = gaussian_oracle(np.array([0.3, -0.1]), 1.7), 2
    X, Xt = random_rows(oracle, seed=40, d=d)
    V, f0, f1, _, C = rows(oracle, X, Xt)
    u = np.linspace(0.0, 1.0, 101)
    for i in range(X.shape[0]):
        pts = X[i][None, :] + u[:, None] * V[i][None, :]
        f = oracle.score_fn(pts, 1.0) @ V[i]
        line = f0[i] + (f1[i] - f0[i]) * u
        assert np.abs(f - line).max() <= C[i] * (1 + 1e-12)
        lip_v = oracle.lipschitz * (V[i] @ V[i])
        slack = 1e-12 * (abs(f0[i]) + abs(f1[i]) + lip_v)
        if target == "rippled":
            slope = f1[i] - f0[i]
            want = (lip_v ** 2 - slope ** 2) / (2.0 * lip_v) + slack
            assert C[i] == pytest.approx(want, rel=1e-12)
        else:
            # an affine integrand leaves only the rounding slack
            assert 0.0 < C[i] <= slack * (1 + 1e-2)
        # E + C never exceeds the whole-integrand bound of the parent route
        assert 0.5 * (f0[i] + f1[i]) + C[i] <= \
            0.5 * (abs(f0[i]) + abs(f1[i]) + lip_v) * (1 + 1e-12)


def test_remainder_bound_of_a_null_move_is_zero():
    oracle = rippled_oracle()
    X = np.array([[0.7], [-1.2]])
    _, _, _, _, C = rows(oracle, X, X.copy())
    np.testing.assert_array_equal(C, [0.0, 0.0])


# -- the law on fixed proposals ------------------------------------------------------

RIPPLED_PROPOSALS = [(-0.4, 1.1), (1.3, 2.4), (2.6, 1.5)]


def fixed_proposal(x, xt, h=0.5):
    """One rippled proposal x -> xt: its rows, its split and log r."""
    oracle = rippled_oracle()
    X, Xt = np.array([[x]]), np.array([[xt]])
    V, f0, f1, logH, C = rows(oracle, X, Xt, h)
    log_p = oracle.log_density(np.vstack([X, Xt]), 1.0)
    return oracle, SimpleNamespace(
        X=X, Xt=Xt, S=oracle.score(X, 1.0), St=oracle.score(Xt, 1.0), h=h,
        x=X[0], v=V[0], a=float(f0[0]), b=float(f1[0] - f0[0]),
        exact=float(0.5 * (f0[0] + f1[0])), log_h=float(logH[0]),
        c=float(C[0]), log_r=float(log_p[1] - log_p[0]))


@pytest.mark.parametrize("x, xt", RIPPLED_PROPOSALS)
def test_remainder_w_is_unbiased(x, xt):
    oracle, p = fixed_proposal(x, xt)
    assert p.c > 0.1
    n = 60_000
    w = poisson_w_replicates(p.x, p.v, p.c, 1.0, oracle,
                             np.random.default_rng(41), n,
                             baseline=(p.a, p.b))
    assert np.all((w >= 0.0) & (w <= 1.0))
    est = np.exp(p.c) * w.mean()
    se = np.exp(p.c) * w.std(ddof=1) / np.sqrt(n)
    # e^C E[W] = r e^{-E}
    assert abs(est - np.exp(p.log_r - p.exact)) < 4.0 * se


@pytest.mark.parametrize("x, xt", RIPPLED_PROPOSALS)
@pytest.mark.parametrize("frame", ["forward", "swapped"])
def test_split_two_coin_is_barker_in_both_frames(x, xt, frame):
    # a move and its reverse, scores exchanged: on either route the rule
    # swaps exactly one of the two, and the replicates of the one it runs in
    # ``frame`` read that move's Barker alpha
    n = 20_000
    moves = [fixed_proposal(*pair) for pair in ((x, xt), (xt, x))]
    for bound in (SHARP, BoundSpec("lipschitz")):
        swaps = [bool(engine.proposal_terms(
                     p.X, p.Xt, p.S, p.St, p.h, bound=bound, t=1.0,
                     oracle=oracle).frame[0][0]) for oracle, p in moves]
        assert swaps.count(True) == 1
        oracle, p = moves[swaps.index(frame == "swapped")]
        rep = two_coin_replicates(p.X, p.Xt, p.S, p.St, p.h, 1.0, bound,
                                  oracle, np.random.default_rng(42), n)
        assert rep["swap"] == (frame == "swapped")
        alpha = expit(p.log_h + p.log_r)
        se = np.sqrt(alpha * (1 - alpha) / n)
        assert abs(rep["accept"].mean() - alpha) < 4.0 * se


# -- the engine's frame ----------------------------------------------------------------

def test_split_decisions_run_in_the_cheaper_frame_with_their_own_line(
        monkeypatch):
    # the swap rule puts every decision where H e^E <= 1, the frame the
    # expected-round formula prefers when the remainder's ratio is near 1;
    # the round loop gets log H + E and the line of that frame
    oracle = rippled_oracle()
    rng = np.random.default_rng(43)
    X = rippled_draws(rng, 4000)
    real, seen = engine._two_coin_rounds, []

    def spy(Xa, Va, log_h_a, C, *args, base, **kw):
        seen.append((Xa.copy(), Va.copy(), log_h_a.copy(), C.copy(), base))
        return real(Xa, Va, log_h_a, C, *args, base=base, **kw)

    monkeypatch.setattr(engine, "_two_coin_rounds", spy)
    engine.corrector_sweep(X, oracle.score(X, 1.0), oracle, 1.0, 0.5,
                           "two-coin", rng, bound=SHARP)
    Xa, Va, log_h_a, C, (a, b) = seen[0]
    assert Xa.shape[0] == 4000
    assert np.all(log_h_a <= 0.0)
    # the line of the frame passes through the frame's endpoint integrands
    g0 = engine._row_dot(oracle.score_fn(Xa, 1.0), Va)
    g1 = engine._row_dot(oracle.score_fn(Xa + Va, 1.0), Va)
    np.testing.assert_allclose(a, g0, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(a + b, g1, rtol=1e-9, atol=1e-12)
    # swapped rows start at x_tilde, so about half of them differ from X
    swapped = np.any(Xa != X, axis=1)
    assert 0.2 < swapped.mean() < 0.8
    # and that frame is the cheaper one under the expected-round formula
    h_e = np.exp(log_h_a)
    for i in np.flatnonzero(np.abs(log_h_a) > 1e-3)[:200]:
        here = expected_rounds(C[i], h_e[i], 1.0)
        there = expected_rounds(C[i], 1.0 / h_e[i], 1.0)
        assert here <= there


@pytest.mark.parametrize("h", [1e-2, 1e-4, 1e-6, 1e-8])
def test_sharp_frame_log_h_e_matches_exact_arithmetic(h):
    # log H + E = h (||s||^2 - ||s~||^2) / 8 on the sharp route: against
    # rational arithmetic on the same float inputs it is good to a few ulps
    # of h (||s||^2 + ||s~||^2) / 8, where adding the O(1) terms of log H
    # and E, which cancel, lost up to 2e-2 of it at h = 1e-8
    oracle = gaussian_oracle(np.array([0.3, -0.1]), 1.7)
    rng = np.random.default_rng(48)
    X = rng.standard_normal((200, 2))
    S = oracle.score(X, 1.0)
    Xt = X + 0.5 * h * S + np.sqrt(h) * rng.standard_normal(X.shape)
    St = oracle.score(Xt, 1.0)
    swap, _, _, log_h_e, _, _ = engine.proposal_terms(
        X, Xt, S, St, h, bound=SHARP, t=1.0, oracle=oracle,
        log_h=False).frame
    hf = Fraction(h)

    def dot(a, b):
        return sum(p * q for p, q in zip(a, b))

    for i in range(X.shape[0]):
        x, xt, s, st = ([Fraction(float(c)) for c in row[i]]
                        for row in (X, Xt, S, St))
        v = [b - a for a, b in zip(x, xt)]
        fwd = [vj - hf * sj / 2 for vj, sj in zip(v, s)]
        bwd = [vj + hf * sj / 2 for vj, sj in zip(v, st)]
        exact = ((dot(fwd, fwd) - dot(bwd, bwd)) / (2 * hf)
                 + (dot(s, v) + dot(st, v)) / 2)
        assert bool(swap[i]) == (dot(s, s) > dot(st, st))
        ulp = np.finfo(float).eps * float(hf * (dot(s, s) + dot(st, st)) / 8)
        frame_value = -exact if swap[i] else exact
        assert abs(float(Fraction(float(log_h_e[i])) - frame_value)) <= 4 * ulp


@pytest.mark.parametrize("route", [SHARP, BoundSpec("lipschitz")])
def test_sweep_and_replicates_build_the_same_frame(monkeypatch, route):
    # every proposal of a sweep's first pass, replayed one at a time by the
    # replicate sampler, reaches the round loop with the sweep's own row
    oracle = rippled_oracle()
    rng = np.random.default_rng(49)
    X = rippled_draws(rng, 40)
    real_rounds, real_terms, seen, inputs = (engine._two_coin_rounds,
                                             engine.proposal_terms, [], [])

    def rounds_spy(Xa, Va, log_h_a, C, *args, base, swap, **kw):
        seen.append((swap, Xa, Va, log_h_a, C) + tuple(base))
        return real_rounds(Xa, Va, log_h_a, C, *args, base=base, swap=swap,
                           **kw)

    def terms_spy(*args, **kw):
        inputs.append(args[:4])
        return real_terms(*args, **kw)

    monkeypatch.setattr(engine, "_two_coin_rounds", rounds_spy)
    monkeypatch.setattr(engine, "proposal_terms", terms_spy)
    engine.corrector_sweep(X, oracle.score(X, 1.0), oracle, 1.0, 0.5,
                           "two-coin", rng, bound=route)
    sweep_frame, rows = seen[0], inputs[0]
    assert 0 < sweep_frame[0].sum() < 40
    for i in range(40):
        seen.clear()
        two_coin_replicates(*(a[i:i + 1] for a in rows), 0.5, 1.0, route,
                            oracle, np.random.default_rng(i), 3)
        for mine, theirs in zip(seen[0], sweep_frame):
            np.testing.assert_array_equal(mine[0], theirs[i])


# -- stationarity from exact draws -----------------------------------------------------

@pytest.mark.parametrize("h", [0.5, 1.0])
def test_split_two_coin_keeps_the_gaussian_stationary(h):
    n, k = 100_000, 5
    oracle = gaussian_oracle(0.0, 1.0)
    rng = np.random.default_rng(44)
    X = rng.standard_normal((n, 1))
    Xn, _, stats = engine.corrector_sweep(
        X, oracle.score(X, 1.0), oracle, 1.0, h, "two-coin", rng,
        bound=SHARP, steps=k)
    # affine integrands: no interior query, every decision in one round
    assert stats.poisson_total == 0
    assert stats.rounds_total == n * k
    assert 0 < stats.accepted < n * k
    assert abs(Xn.var(ddof=1) - 1.0) < 4.0 * np.sqrt(2.0 / (n - 1))


def test_split_hybrid_decides_gaussian_rows_exactly():
    # 2C is within the cap on every row and one exact round decides each,
    # so no row falls back to quadrature and the law is Barker's
    n, k = 100_000, 5
    oracle = gaussian_oracle(0.0, 1.0)
    rng = np.random.default_rng(45)
    X = rng.standard_normal((n, 1))
    Xn, _, stats = engine.corrector_sweep(
        X, oracle.score(X, 1.0), oracle, 1.0, 0.5, "hybrid", rng,
        bound=SHARP, rule=simpson13(), steps=k)
    assert stats.poisson_total == 0
    assert stats.rounds_total == n * k
    assert abs(Xn.var(ddof=1) - 1.0) < 4.0 * np.sqrt(2.0 / (n - 1))


def test_split_two_coin_keeps_the_rippled_target_stationary():
    n, k = 40_000, 5
    oracle = rippled_oracle()
    rng = np.random.default_rng(46)
    X = rippled_draws(rng, n)
    Xn, _, stats = engine.corrector_sweep(
        X, oracle.score(X, 1.0), oracle, 1.0, 0.5, "two-coin", rng,
        bound=SHARP, steps=k)
    assert stats.poisson_total > 0
    m2, m4 = rippled_moments()
    sq = Xn[:, 0] ** 2
    assert abs(sq.mean() - m2) < 4.0 * np.sqrt((m4 - m2 ** 2) / n)


# -- the declared constant -------------------------------------------------------------

def test_sharp_route_names_the_chain_and_sweep_of_a_too_small_constant():
    # the rippled score's slope is -1 + 0.8 cos x, steeper than the declared
    # L = 1 only where cos x < 0, far from the chains' start at 0
    oracle = rippled_oracle()
    X = np.zeros((4, 1))
    done = np.zeros(4, dtype=np.int64)

    def on_step(chains, steps, X_rows):
        done[chains] = steps + 1

    with pytest.raises(BoundViolationError,
                       match="declared Lipschitz constant") as info:
        engine.corrector_sweep(X, oracle.score(X, 1.0), oracle, 1.0, 0.3,
                               "two-coin", np.random.default_rng(47),
                               bound=BoundSpec("lipschitz-sharp", 1.0),
                               steps=500, on_step=on_step)
    err = info.value
    assert f"at chain {err.chain}:" in str(err)
    assert err.sweep == done[err.chain] > 0
