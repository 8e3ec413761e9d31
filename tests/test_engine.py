import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from madm import engine
from madm.adjust_quadrature import simpson13
from madm.engine import BoundSpec
from madm.errors import (BoundViolationError, ConfigError, DomainError,
                         NonFiniteError, NonterminationError)
from madm.schedule import NoiseSchedule
from madm.targets import (Dataset2D, ScoreOracle, diffused_empirical_oracle,
                          gaussian_oracle, quartic_oracle)
from test_proposal import _ZeroNoise


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
                 BoundSpec("lipschitz-sharp", 2.0), BoundSpec("manual", 50.0)):
        batch = engine.proposal_terms(X, Xt, S, St, 0.3, bound=spec, t=1.0,
                                      oracle=oracle, schedule=sched).c
        for i in range(16):
            x, xt = X[i], Xt[i]
            v = norm(xt - x)
            if spec.strategy == "lipschitz":
                # max(||s(x)||, ||s(x~)||) ||v|| + (L/2) ||v||^2, L = 1/var
                want = max(norm(-x / var), norm(-xt / var)) * v + 0.5 / var * v ** 2
            elif spec.strategy == "bounded-denoiser":
                # (b r + max(||x||, ||x~||)) / (r^2 sigma^2) ||v||, b = 0
                want = max(norm(x), norm(xt)) / (r * r * sigma * sigma) * v
            elif spec.strategy == "lipschitz-sharp":
                # (L'^2 - D^2) / (2 L') + 1e-12 (|f0| + |f1| + L') with
                # L' = 2 ||v||^2 (a declared L above the true 1/var, so the
                # remainder bound is not 0) and D = f1 - f0 = -||v||^2 / var
                lip_v, slope = 2.0 * v ** 2, -v ** 2 / var
                f0_i, f1_i = -x @ (xt - x) / var, -xt @ (xt - x) / var
                want = ((lip_v ** 2 - slope ** 2) / (2.0 * lip_v)
                        + 1e-12 * (abs(f0_i) + abs(f1_i) + lip_v))
            else:
                want = 50.0
            assert batch[i] == pytest.approx(want, rel=1e-12)


@given(st.lists(st.integers(0, 5), max_size=40), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=100, deadline=None)
def test_segment_products_are_left_to_right_loops(counts, seed):
    counts = np.array(counts, dtype=np.int64)
    factors = np.random.default_rng(seed).uniform(size=int(counts.sum()))
    want, pos = [], 0
    for count in counts:
        prod = 1.0
        for f in factors[pos:pos + count]:
            prod *= f
        want.append(prod)
        pos += count
    got = engine._segment_products(
        factors, np.repeat(np.arange(counts.size), counts), counts.size)
    assert got.tobytes() == np.array(want, dtype=float).tobytes()


def test_proposal_terms_log_h_matches_closed_form():
    oracle = gaussian_oracle(0.0, 1.0)
    rng = np.random.default_rng(1)
    X = rng.standard_normal((8, 1))
    Xt = X + rng.standard_normal((8, 1)) * 0.4
    S = oracle.score(X, 1.0)
    St = oracle.score(Xt, 1.0)
    h = 0.25
    batch = engine.proposal_terms(X, Xt, S, St, h).log_h
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


def test_oracle_mh_names_the_chain_of_a_non_finite_log_density():
    # a NaN log-density used to read as a reject: the chains that start
    # above 1.5 never moved and no error was raised
    def log_density(x, t):
        return np.where(x[:, 0] > 1.5, np.nan, -0.5 * x[:, 0] ** 2)

    oracle = ScoreOracle(dim=1, score_fn=lambda x, t: -x,
                         log_density_fn=log_density, name="nan-tail")
    rng = np.random.default_rng(48)
    X = rng.standard_normal((50, 1))
    assert np.count_nonzero(X > 1.5) == 3
    done = np.zeros(50, dtype=np.int64)

    def on_step(chains, steps, X_rows):
        done[chains] = steps + 1

    with pytest.raises(NonFiniteError, match="non-finite log-density ratio "
                                             r"at chain \d+$") as info:
        engine.corrector_sweep(X, -X, oracle, 1.0, 0.3, "oracle-mh", rng,
                               steps=20, on_step=on_step)
    err = info.value
    assert f"at chain {err.chain}" in str(err)
    assert err.sweep == done[err.chain]
    # the first sweep's proposals start from X, so its first bad chain is
    # at or before the first chain that starts above 1.5
    assert err.sweep > 0 or err.chain <= np.flatnonzero(X[:, 0] > 1.5)[0]


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
    spec = BoundSpec("lipschitz", 0.1)
    C = engine.proposal_terms(X, Xt, S, St, 0.3, bound=spec, t=0.5,
                              oracle=oracle, schedule=sched).c
    assert C[:3] == pytest.approx(9.01, abs=0.01)
    assert C[3] == pytest.approx(0.8, rel=1e-9)
    # the innovation that proposes Xt from X
    z = (Xt - X - 0.15 * S) / np.sqrt(0.3)
    with pytest.raises(BoundViolationError, match="at chain 3$"):
        engine.corrector_sweep(X, S, oracle, 0.5, 0.3, "hybrid",
                               _ZeroNoise(0, z), schedule=sched, bound=spec,
                               rule=simpson13())


@pytest.mark.parametrize("rounds", [1, 10])
def test_hybrid_keeps_the_gaussian_stationary(rounds):
    # a move and its reverse run their exact rounds in the same frame, so
    # both leave the row open for the fallback with the same chance; rounds
    # run from x would put the variance about 44 sigma (K = 1) and 47 sigma
    # (K = 10) high here.  Plain lipschitz: on the sharp route every
    # Gaussian decision ends in round 1 and no row falls back
    oracle = gaussian_oracle(0.0, 1.0)
    n = 100_000
    rng = np.random.default_rng(11)
    X = rng.standard_normal((n, 1))
    Xn, _, stats = engine.corrector_sweep(
        X, oracle.score(X, 1.0), oracle, 1.0, 0.5, "hybrid", rng,
        bound=BoundSpec("lipschitz"), rule=simpson13(), hybrid_rounds=rounds,
        poisson_cap=1e9, steps=30)
    assert stats.max_rounds == rounds + 1   # some decisions fell back
    z = (np.mean(Xn ** 2) - 1.0) / np.sqrt(2.0 / n)
    assert abs(z) < 4.0


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
             np.broadcast_to(-0.2, (n,)), np.broadcast_to(1.1, (n,)),
             np.broadcast_to(0.0, (n,)), np.broadcast_to(0.0, (n,)),
             np.broadcast_to(True, (n,)))
    copies = tuple(np.array(a) for a in views)
    out = [engine._two_coin_rounds(*rows[:4], 1.0, oracle,
                                   np.random.default_rng(19), 1000,
                                   base=rows[4:6], swap=rows[6])
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
            chains=None, *, base, swap):
        if oracle_for is not None:
            oracle = oracle_for(Xa, Va, chains, oracle)
        out = real(Xa, Va, log_h_a, C, t, oracle, rng, max_rounds,
                   round_limit=round_limit, chains=chains, base=base,
                   swap=swap)
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
    terms = engine.proposal_terms(X, Xt, S, St, h, bound=spec, t=1.0,
                                  oracle=oracle, schedule=sched)
    swap, Xa, Va, log_h_a, a, b = terms.frame
    accept, rounds, poisson, _ = engine._two_coin_rounds(
        Xa, Va, log_h_a, terms.c, 1.0, oracle, rng, engine.DEFAULT_MAX_ROUNDS,
        base=(a, b), swap=swap)
    assert 0 < swap.sum() < swap.size
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
    # at h = 0.02 the plain envelope decides nearly every proposal in its
    # first round, so the first decision to need a second comes steps in
    # (the sharp route's split decides every Gaussian proposal in one round)
    with pytest.raises(NonterminationError) as info:
        _two_coin_sweep(X, oracle, rng, h=0.02, bound=BoundSpec("lipschitz"),
                        steps=1000, max_rounds=1)
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


def test_two_coin_names_a_stuck_carried_chain_and_its_frame(monkeypatch):
    # chains 0 and 1 sit near the mode and finish both steps within a few
    # rounds; chain 2 starts far out, where the plain envelope's C is large,
    # and is carried from pass to pass until it runs alone, so its block
    # row (0) is not its chain number
    oracle = gaussian_oracle(0.0, 1.0)
    calls = []
    real = engine._two_coin_rounds

    def spy(Xa, Va, log_h_a, C, *args, chains=None, **kw):
        calls.append((chains.copy(), np.array(log_h_a), np.array(C)))
        return real(Xa, Va, log_h_a, C, *args, chains=chains, **kw)

    monkeypatch.setattr(engine, "_two_coin_rounds", spy)
    X = np.array([[0.0], [0.1], [20.0]])
    with pytest.raises(NonterminationError,
                       match="first stuck chain 2") as info:
        _two_coin_sweep(X, oracle, np.random.default_rng(36), h=0.4,
                        steps=2, max_rounds=10)
    err = info.value
    chains, log_h_a, C = calls[-1]
    np.testing.assert_array_equal(chains, [2])
    assert (err.chain, err.sweep, err.rounds) == (2, 0, 10)
    assert (err.log_h, err.c_bound) == (log_h_a[0], C[0])
    assert C[0] > 10.0


def test_hybrid_fallback_names_the_chain_of_a_nan_midpoint(monkeypatch):
    # chains 0 and 1 make short moves and run exact rounds; chains 2 and 3
    # make long ones, above the Poisson cap, and go to the Simpson fallback,
    # whose midpoint for chain 2 (x = 4) scores NaN
    def score(x, t):
        out = -x
        out[np.abs(x - 4.0) < 1e-6] = np.nan
        return out

    oracle = ScoreOracle(dim=1, score_fn=score, lipschitz=1.0)
    ran = []
    real = engine._two_coin_rounds

    def spy(*args, chains=None, **kw):
        ran.append(chains.copy())
        return real(*args, chains=chains, **kw)

    monkeypatch.setattr(engine, "_two_coin_rounds", spy)
    X = np.array([[0.0], [0.5], [3.0], [-3.0]])
    Xt = np.array([[0.1], [0.6], [5.0], [-5.0]])
    S, h = -X, 0.3
    z = (Xt - X - 0.5 * h * S) / np.sqrt(h)
    with pytest.raises(NonFiniteError, match="non-finite at chain 2$") as info:
        engine.corrector_sweep(X, S, oracle, 1.0, h, "hybrid",
                               _ZeroNoise(0, z), bound=BoundSpec("lipschitz"),
                               rule=simpson13())
    assert (info.value.chain, info.value.sweep) == (2, 0)
    assert len(ran) == 1
    np.testing.assert_array_equal(ran[0], [0, 1])


def test_factor_products_without_factors_draw_and_score_nothing():
    # a round whose Poisson counts are all zero has W = 1 on every row
    oracle = gaussian_oracle(0.0, 1.0)
    rng = np.random.default_rng(36)
    X, V = rng.standard_normal((6, 1)), rng.standard_normal((6, 1))
    C, zero = np.full(6, 0.7), np.zeros(6)
    queries, state = oracle.queries, rng.bit_generator.state
    w = engine._factor_products(X, V, C, np.arange(6),
                                np.zeros(6, dtype=np.int64), 1.0, oracle, rng,
                                base=(zero, zero))
    np.testing.assert_array_equal(w, np.ones(6))
    assert oracle.queries == queries
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("kind", ["two-coin", "hybrid"])
def test_sweep_reads_the_denoiser_level_once(monkeypatch, kind):
    # the bounded-denoiser route's (r_t, sigma_t) is looked up once per
    # sweep, not on every pass, and gives the C of a lookup per batch
    oracle, sched = gaussian_oracle(0.0, 1.0), NoiseSchedule.edm()
    spec = BoundSpec("bounded-denoiser", 1.0)
    X = np.random.default_rng(37).standard_normal((50, 1))
    S = oracle.score(X, 1.0)
    bounds, calls = [], []
    real_bound, real_marginal = engine.bound_c_batch, NoiseSchedule.marginal_params

    def bound_spy(*args, **kwargs):
        C = real_bound(*args, **kwargs)
        bounds.append((args, C))
        return C

    def marginal_spy(self, t):
        calls.append(t)
        return real_marginal(self, t)

    monkeypatch.setattr(engine, "bound_c_batch", bound_spy)
    monkeypatch.setattr(NoiseSchedule, "marginal_params", marginal_spy)
    engine.corrector_sweep(X, S, oracle, 1.0, 0.01, kind,
                           np.random.default_rng(38), schedule=sched,
                           bound=spec, rule=simpson13(), steps=4)
    assert calls == [1.0] and len(bounds) > 1
    monkeypatch.undo()
    for args, C in bounds:
        np.testing.assert_array_equal(real_bound(*args[:10], oracle), C)


SWEEP_KINDS =[k for k in engine.CORRECTOR_KINDS if k != "none"]
LOCKSTEP_KINDS = [k for k in SWEEP_KINDS if k != "two-coin"]


def _sweep(X, S, oracle, kind, rng, **kw):
    return engine.corrector_sweep(X, S, oracle, 1.0, 0.4, kind, rng,
                                  schedule=NoiseSchedule.edm(),
                                  bound=BoundSpec("lipschitz"),
                                  rule=simpson13(), **kw)


@pytest.mark.parametrize("kind", SWEEP_KINDS)
def test_sweep_rejects_fewer_than_one_step(kind):
    oracle = gaussian_oracle(0.0, 1.0)
    rng = np.random.default_rng(0)
    X = np.zeros((4, 1))
    queries, state = oracle.queries, rng.bit_generator.state
    with pytest.raises(ConfigError, match="steps"):
        _sweep(X, X, oracle, kind, rng, steps=0)
    assert oracle.queries == queries
    assert rng.bit_generator.state == state


BAD_SWEEP_INPUTS = {
    "two-coin-without-bound": ("two-coin", {"bound": None}, ConfigError,
                               "needs a bound"),
    "hybrid-without-bound": ("hybrid", {"bound": None}, ConfigError,
                             "needs a bound"),
    "quadrature-without-rule": ("quadrature", {"rule": None}, ConfigError,
                                "quadrature rule"),
    "hybrid-without-rule": ("hybrid", {"rule": None}, ConfigError,
                            "quadrature rule"),
    "denoiser-bound-without-schedule": (
        "two-coin", {"schedule": None, "bound": BoundSpec("bounded-denoiser")},
        ConfigError, "noise schedule"),
    "fractional-steps": ("ula", {"steps": 2.5}, ConfigError, "integer"),
    "boolean-steps": ("ula", {"steps": True}, ConfigError, "integer"),
    "fewer-score-rows": ("quadrature", {"S_rows": 3}, DomainError, "shape"),
    "more-score-rows": ("two-coin", {"S_rows": 5}, DomainError, "shape"),
    "one-dimensional-states": ("ula", {"flat": True}, DomainError, "2-D"),
}


@pytest.mark.parametrize("case", list(BAD_SWEEP_INPUTS))
def test_sweep_rejects_bad_inputs_before_any_draw(case):
    # each of these ended in AttributeError or IndexError after the first
    # draws, or ran: steps=2.5 made 3 steps and reported 2.5 n proposals,
    # and surplus score rows were used silently
    kind, kw, error, match = BAD_SWEEP_INPUTS[case]
    kw = dict(kw)
    oracle = gaussian_oracle(0.0, 1.0)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((4, 1))
    S = oracle.score(np.vstack([X, X])[:kw.pop("S_rows", 4)], 1.0)
    if kw.pop("flat", False):
        X, S = X[:, 0], S[:, 0]
    args = dict(schedule=NoiseSchedule.edm(), bound=BoundSpec("lipschitz"),
                rule=simpson13())
    args.update(kw)
    queries, state = oracle.queries, rng.bit_generator.state
    with pytest.raises(error, match=match):
        engine.corrector_sweep(X, S, oracle, 1.0, 0.4, kind, rng, **args)
    assert oracle.queries == queries
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("kind", LOCKSTEP_KINDS)
def test_lockstep_steps_in_one_call_are_one_step_calls(kind):
    # K lockstep steps in one call: the same samples, stats and generator
    # state as K one-step calls, and on_step sees every chain at each step
    oracle, k = gaussian_oracle(0.0, 1.0), 4
    X0 = np.random.default_rng(29).standard_normal((500, 1))
    S0 = oracle.score(X0, 1.0)
    rng_one, rng_each = np.random.default_rng(30), np.random.default_rng(30)
    seen = []

    def on_step(rows, steps, X_rows):
        seen.append((rows.copy(), steps.copy(), X_rows.copy()))

    X, S, stats = _sweep(X0, S0, oracle, kind, rng_one, steps=k,
                         on_step=on_step)
    Xe, Se, each = X0, S0, engine.SweepStats()
    for step in range(k):
        Xe, Se, st = _sweep(Xe, Se, oracle, kind, rng_each)
        each.merge(st)
        rows, steps, X_rows = seen[step]
        np.testing.assert_array_equal(rows, np.arange(500))
        np.testing.assert_array_equal(steps, np.full(500, step))
        np.testing.assert_array_equal(X_rows, Xe)
    assert len(seen) == k
    np.testing.assert_array_equal(X, Xe)
    np.testing.assert_array_equal(S, Se)
    assert stats == each
    assert stats.proposals == 500 * k
    assert rng_one.bit_generator.state == rng_each.bit_generator.state


def test_lockstep_steps_name_the_step_of_an_error():
    # the score turns NaN from its third call: the caller's cached scores
    # and step 0's endpoints are finite, step 1's endpoints are not
    oracle = _nan_after_two_calls()
    X = np.zeros((3, 1))
    with pytest.raises(NonFiniteError, match="chain 0") as info:
        _sweep(X, oracle.score(X, 1.0), oracle, "ula",
               np.random.default_rng(31), steps=5)
    assert info.value.sweep == 1


@pytest.mark.parametrize("kind", ["two-coin", "hybrid"])
def test_sweep_gives_a_chainless_error_the_common_step(kind):
    # the quartic oracle declares no denoiser bound, which no chain trips
    oracle = quartic_oracle()
    X = np.zeros((4, 1))
    with pytest.raises(ConfigError, match="no denoiser bound") as info:
        engine.corrector_sweep(X, oracle.score(X, 1.0), oracle, 1.0, 0.4,
                               kind, np.random.default_rng(32),
                               schedule=NoiseSchedule.edm(),
                               bound=BoundSpec("bounded-denoiser"),
                               rule=simpson13(), steps=3)
    assert info.value.chain is None
    assert info.value.sweep == 0


def test_sweep_stats_merge_sums_passes_and_keeps_the_longest_decision():
    a = engine.SweepStats(round_passes=30, max_rounds=7)
    a.merge(engine.SweepStats(round_passes=12, max_rounds=9))
    a.merge(engine.SweepStats(round_passes=5, max_rounds=2))
    assert (a.round_passes, a.max_rounds) == (47, 9)

    # the sampler's level record extends SweepStats and merges by one rule
    from madm.sampler import LevelRecord

    rec = LevelRecord(round_passes=4, max_rounds=3, predictor_queries=10,
                      moment_sum=1.5, unit_var_sum=2.0, unit_var_sq=4.0,
                      units=6)
    rec.merge(LevelRecord(round_passes=1, max_rounds=8, predictor_queries=5,
                          moment_sum=-0.5, unit_var_sum=1.0, unit_var_sq=1.0,
                          units=6))
    assert (rec.round_passes, rec.max_rounds) == (5, 8)
    assert (rec.predictor_queries, rec.moment_sum, rec.unit_var_sum,
            rec.unit_var_sq, rec.units) == (15, 1.0, 3.0, 5.0, 12)
    # a sweep's plain stats fold in and leave the sampler's fields alone
    rec.merge(engine.SweepStats(proposals=7, score_queries=21,
                                round_passes=2, max_rounds=5))
    assert (rec.proposals, rec.score_queries, rec.round_passes,
            rec.max_rounds) == (7, 21, 7, 8)
    assert (rec.predictor_queries, rec.units) == (15, 12)


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


@pytest.mark.parametrize("rounds", [0, 1])
def test_hybrid_counts_capped_and_budget_rows(monkeypatch, rounds):
    # the counters against spies on the bound and the round loop: capped rows
    # have 2C above the cap, budget rows are the rows the rounds left open;
    # with no rounds every row within the cap is a budget row
    oracle = gaussian_oracle(0.0, 1.0)
    rng = np.random.default_rng(33)
    X = rng.standard_normal((2000, 1))
    cap, capped, still = 1.0, [], []
    real_bound, real_rounds = engine.bound_c_batch, engine._two_coin_rounds

    def bound_spy(*args, **kwargs):
        C = real_bound(*args, **kwargs)
        capped.append(int(np.sum(2.0 * C > cap)))
        return C

    def rounds_spy(*args, **kwargs):
        out = real_rounds(*args, **kwargs)
        still.append(out[3].size)
        return out

    monkeypatch.setattr(engine, "bound_c_batch", bound_spy)
    monkeypatch.setattr(engine, "_two_coin_rounds", rounds_spy)
    _, _, stats = engine.corrector_sweep(
        X, oracle.score(X, 1.0), oracle, 1.0, 0.4, "hybrid", rng,
        schedule=NoiseSchedule.edm(), bound=BoundSpec("lipschitz"),
        rule=simpson13(), hybrid_rounds=rounds, poisson_cap=cap, steps=3)
    assert 0 < stats.capped_rows == sum(capped) < stats.proposals
    if rounds:
        assert 0 < stats.budget_rows == sum(still)
    else:
        assert not still
        assert stats.capped_rows + stats.budget_rows == stats.proposals


@pytest.mark.parametrize("kind", ["two-coin", "quadrature"])
def test_other_kinds_count_no_hybrid_paths(kind):
    oracle = gaussian_oracle(0.0, 1.0)
    rng = np.random.default_rng(34)
    X = rng.standard_normal((500, 1))
    _, _, stats = engine.corrector_sweep(
        X, oracle.score(X, 1.0), oracle, 1.0, 0.4, kind, rng,
        schedule=NoiseSchedule.edm(), bound=BoundSpec("lipschitz"),
        rule=simpson13(), poisson_cap=1.0, steps=3)
    assert (stats.capped_rows, stats.budget_rows) == (0, 0)
