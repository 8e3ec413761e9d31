import numpy as np
import pytest
from scipy.special import expit

from madm import engine
from madm.adjust_exact import BoundSpec
from madm.adjust_quadrature import simpson13
from madm.errors import (BoundViolationError, ConfigError, DomainError,
                         NonFiniteError, NonterminationError)
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


@pytest.mark.parametrize("kind", [k for k in engine.CORRECTOR_KINDS
                                  if k != "none"])
@pytest.mark.parametrize("h", [0.0, -0.1, np.nan, np.inf])
def test_sweep_rejects_a_step_that_is_not_positive_and_finite(kind, h):
    # h = 0 used to leave ula chains in place, all "accepted", and gave
    # oracle-mh log H = 0/0
    oracle = gaussian_oracle(0.0, 1.0)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((4, 1))
    S = oracle.score(X, 1.0)
    queries, state = oracle.queries, rng.bit_generator.state
    with pytest.raises(DomainError, match="step h"):
        engine.corrector_sweep(X, S, oracle, 1.0, h, kind, rng,
                               schedule=NoiseSchedule.edm(),
                               bound=BoundSpec("lipschitz"), rule=simpson13())
    assert oracle.queries == queries
    assert rng.bit_generator.state == state


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


# -- two-coin steps out of lockstep ----------------------------------------------

def _two_coin_sweep(X, oracle, rng, h=0.3, bound=BoundSpec("lipschitz"), **kw):
    return engine.corrector_sweep(X, oracle.score(X, 1.0), oracle, 1.0, h,
                                  "two-coin", rng, bound=bound, **kw)


class _Steps:
    """on_step recorder: per chain, the steps it finished, in order, and how
    many of them moved the chain (an accepted proposal moves it a.s.)."""

    def __init__(self, X):
        self.last = X.copy()
        self.steps = [[] for _ in range(X.shape[0])]
        self.moves = np.zeros(X.shape[0], dtype=np.int64)

    def __call__(self, rows, steps, X_rows):
        for chain, step in zip(rows, steps):
            self.steps[chain].append(int(step))
        self.moves[rows] += np.any(X_rows != self.last[rows], axis=1)
        self.last[rows] = X_rows


def _spy_rounds(monkeypatch, decided, calls=None, oracle_for=None):
    """Wrap the round loop: count the decisions each chain has made and the
    iterations of each call; ``oracle_for(Xa, Va, chains, oracle)`` may
    hand a call another oracle."""
    real = engine._two_coin_rounds

    def spy(Xa, Va, log_h_a, C, t, oracle, rng, max_rounds, round_limit=None,
            chains=None):
        if oracle_for is not None:
            oracle = oracle_for(Xa, Va, chains, oracle)
        out = real(Xa, Va, log_h_a, C, t, oracle, rng, max_rounds,
                   round_limit=round_limit, chains=chains)
        if calls is not None:
            calls.append(int(out[1].max()))
        undecided = np.zeros(len(chains), dtype=bool)
        undecided[out[3]] = True
        decided[chains[~undecided]] += 1
        return out

    monkeypatch.setattr(engine, "_two_coin_rounds", spy)


def test_one_two_coin_step_is_the_lockstep_sweep():
    # the lockstep sweep written out: every proposal, then the round loop run
    # to the end on all rows at once; one step must draw the same numbers
    oracle = gaussian_oracle(0.0, 1.0)
    X = np.random.default_rng(20).standard_normal((3000, 1))
    S = oracle.score(X, 1.0)
    h, spec, sched = 0.4, BoundSpec("lipschitz"), NoiseSchedule.edm()
    Xn, Sn, stats = engine.corrector_sweep(
        X, S, oracle, 1.0, h, "two-coin", np.random.default_rng(21),
        schedule=sched, bound=spec)
    rng = np.random.default_rng(21)
    Xt = X + 0.5 * h * S + np.sqrt(h) * rng.standard_normal(X.shape)
    St = oracle.score(Xt, 1.0)
    V, f0, f1, logH = engine._endpoint_terms(X, Xt, S, St, h)
    C = engine.bound_c_batch(X, Xt, S, St, 1.0, spec, sched, oracle)
    swap = engine._swap_rows(f0, f1, logH)
    frame_accept, rounds, poisson, _ = engine._two_coin_rounds(
        *engine._decision_frame(X, Xt, V, logH, swap), C, 1.0, oracle, rng,
        engine.DEFAULT_MAX_ROUNDS)
    accept = frame_accept ^ swap
    np.testing.assert_array_equal(Xn, np.where(accept[:, None], Xt, X))
    np.testing.assert_array_equal(Sn, np.where(accept[:, None], St, S))
    assert stats.accepted == accept.sum()
    assert stats.rounds_total == rounds.sum()
    assert stats.poisson_total == poisson.sum()
    assert stats.round_passes == stats.max_rounds == rounds.max() > 1


def test_two_coin_steps_make_exactly_k_proposals_per_chain():
    oracle = gaussian_oracle(0.0, 1.0)
    rng = np.random.default_rng(22)
    X = rng.standard_normal((300, 1))
    seen = _Steps(X)
    Xn, _, stats = _two_coin_sweep(X, oracle, rng, steps=7, on_step=seen)
    assert stats.proposals == 300 * 7
    assert all(steps == list(range(7)) for steps in seen.steps)
    assert stats.accepted == seen.moves.sum()
    np.testing.assert_array_equal(Xn, seen.last)
    # out of lockstep the passes track the mean, not the sum of the maxima
    assert stats.max_rounds < stats.round_passes < 7 * stats.max_rounds


@pytest.mark.parametrize("h", [0.2, 0.4])
def test_two_coin_steps_keep_the_barker_rate_and_stationarity(h):
    # chains started in stationarity take K = 3 steps each; per-chain
    # acceptance counts are independent across chains, so their spread gives
    # the standard error without assuming the steps are independent
    n, k = 100_000, 3
    oracle = gaussian_oracle(0.0, 1.0)
    rng = np.random.default_rng(23)
    X = rng.standard_normal((n, 1))
    seen = _Steps(X)
    Xn, _, stats = _two_coin_sweep(X, oracle, rng, h=h, steps=k, on_step=seen)
    want, se_want = _analytic_barker_acceptance(h)
    per_chain = seen.moves / k
    se = np.sqrt(per_chain.var(ddof=1) / n + se_want ** 2)
    assert stats.accepted / stats.proposals == pytest.approx(per_chain.mean())
    assert abs(per_chain.mean() - want) < 4.0 * se
    assert abs(Xn.var(ddof=1) - 1.0) < 4.0 * np.sqrt(2.0 / (n - 1))


def test_two_coin_steps_name_the_stuck_chain_and_its_own_sweep(monkeypatch):
    oracle = gaussian_oracle(0.0, 1.0)
    rng = np.random.default_rng(25)
    X = rng.standard_normal((3, 1))
    decided = np.zeros(3, dtype=np.int64)
    _spy_rounds(monkeypatch, decided)
    # at h = 0.02 the sharp envelope decides nearly every proposal in its
    # first round, so the first decision to need a second comes steps in
    with pytest.raises(NonterminationError) as info:
        _two_coin_sweep(X, oracle, rng, h=0.02,
                        bound=BoundSpec("lipschitz-sharp"), steps=1000,
                        max_rounds=1)
    err = info.value
    assert f"first stuck chain {err.chain}" in str(err)
    # the sweep is the stuck chain's own: the decisions it made before
    assert err.sweep == decided[err.chain] > 0
    assert err.rounds == 1


def _nan_on_segment(oracle, start, direction):
    """``oracle``'s score, NaN strictly inside one segment of R^2."""
    norm2 = float(direction @ direction)

    def score(x, t):
        out = oracle.score_fn(x, t)
        rel = np.atleast_2d(x) - start
        along = rel @ direction / norm2
        off = np.abs(rel[:, 0] * direction[1] - rel[:, 1] * direction[0])
        hit = (along > 1e-9) & (along < 1 - 1e-9) & (off < 1e-9 * norm2)
        out = np.atleast_2d(out).copy()
        out[hit] = np.nan
        return out.reshape(np.shape(x))

    return ScoreOracle(dim=2, score_fn=score, lipschitz=oracle.lipschitz)


def test_two_coin_steps_name_the_chain_and_step_of_a_nan_interior_score(
        monkeypatch):
    # the score turns NaN on the segment of chain 2's third proposal only;
    # a manual C = 5 makes that decision draw interior points at once
    chain, oracle = 2, gaussian_oracle(np.zeros(2), 1.0)
    decided = np.zeros(5, dtype=np.int64)

    def oracle_for(Xa, Va, chains, given):
        hit = np.flatnonzero(chains == chain)
        if hit.size and decided[chain] == 2:
            return _nan_on_segment(oracle, Xa[hit[0]], Va[hit[0]])
        return given

    _spy_rounds(monkeypatch, decided, oracle_for=oracle_for)
    rng = np.random.default_rng(26)
    X = rng.standard_normal((5, 2))
    with pytest.raises(NonFiniteError,
                       match=f"interior score at chain {chain}$") as info:
        _two_coin_sweep(X, oracle, rng, h=0.1, bound=BoundSpec("manual", 5.0),
                        steps=6)
    assert (info.value.chain, info.value.sweep) == (chain, 2)
    assert decided[chain] == 2


def test_two_coin_steps_name_the_chain_of_an_endpoint_bound_violation():
    oracle = gaussian_oracle(0.0, 1.0)
    X = np.full((8, 1), 3.0)
    with pytest.raises(BoundViolationError, match="chain 0 ") as info:
        _two_coin_sweep(X, oracle, np.random.default_rng(27), h=0.4,
                        bound=BoundSpec("manual", 1e-4), steps=4)
    assert (info.value.chain, info.value.sweep) == (0, 0)


def test_sweep_steps_run_only_for_two_coin():
    oracle = gaussian_oracle(0.0, 1.0)
    X = np.zeros((4, 1))
    with pytest.raises(ConfigError, match="steps"):
        engine.corrector_sweep(X, X, oracle, 1.0, 0.1, "ula",
                               np.random.default_rng(0), steps=2)
    with pytest.raises(ConfigError, match="steps"):
        _two_coin_sweep(X, oracle, np.random.default_rng(0), steps=0)


def test_sweep_stats_merge_sums_passes_and_keeps_the_longest_decision():
    a = engine.SweepStats(round_passes=30, max_rounds=7)
    a.merge(engine.SweepStats(round_passes=12, max_rounds=9))
    a.merge(engine.SweepStats(round_passes=5, max_rounds=2))
    assert (a.round_passes, a.max_rounds) == (47, 9)


def test_hybrid_reports_round_loop_iterations(monkeypatch):
    oracle = gaussian_oracle(0.0, 1.0)
    rng = np.random.default_rng(28)
    X = rng.standard_normal((2000, 1))
    calls = []
    _spy_rounds(monkeypatch, np.zeros(2000, dtype=np.int64), calls)
    _, _, stats = engine.corrector_sweep(
        X, oracle.score(X, 1.0), oracle, 1.0, 0.4, "hybrid", rng,
        schedule=NoiseSchedule.edm(), bound=BoundSpec("lipschitz"),
        rule=simpson13(), hybrid_rounds=3)
    assert calls and stats.round_passes == sum(calls) == 3
    # budget-exhausted rows count their fallback decision as one more round
    assert stats.max_rounds == 4
