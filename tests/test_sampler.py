import numpy as np
import pytest
from scipy.special import expit

from madm.config import config_from_dict
from madm.diagnostics import order_fit
from madm.errors import ConfigError, DomainError, NonFiniteError
from madm.sampler import (ancestral_step, pf_ode_step_euler, pf_ode_step_heun,
                          run_pc)
from madm.schedule import NoiseSchedule
from madm.targets import ScoreOracle, gaussian_oracle


# -- ancestral step ------------------------------------------------------------

def test_ancestral_small_beta_limit_is_identity():
    oracle = gaussian_oracle(0.0, 1.0)
    x = np.array([1.3])
    out = ancestral_step(x, oracle, 1.0, 1e-9, None, z=np.array([0.0]))
    assert out[0] == pytest.approx(1.3, abs=1e-8)


def test_ancestral_zero_score_value():
    oracle = ScoreOracle(dim=1, score_fn=lambda x, t: np.zeros_like(x))
    out = ancestral_step(np.array([1.0]), oracle, 1.0, 0.19, None,
                         z=np.array([0.0]))
    assert out[0] == pytest.approx(1.0 / 0.9, rel=1e-12)


def test_ancestral_rejects_bad_beta():
    oracle = gaussian_oracle(0.0, 1.0)
    with pytest.raises(ConfigError):
        ancestral_step(np.array([0.0]), oracle, 1.0, 1.0, None)


def test_ancestral_preserves_standard_normal():
    # N(0, 1) is a fixed point of the reverse recursion with the exact score
    oracle = gaussian_oracle(0.0, 1.0)
    sched = NoiseSchedule.vp_discrete(T=50, beta_min=5e-3, beta_max=0.4)
    rng = np.random.default_rng(0)
    n = 40_000
    x = rng.standard_normal((n, 1))
    for k in range(50, 0, -1):
        x = ancestral_step(x, oracle, k / 50, sched.beta_at_level(k), rng,
                           add_noise=k > 1)
    var = float(x.var())
    # last step is noiseless, so the terminal variance is (1 - beta_1) scaled
    beta_1 = sched.beta_at_level(1)
    want = (1.0 - beta_1)  # variance of (x + beta s) / sqrt(1 - beta) at v=1
    se = want * np.sqrt(2.0 / n)
    assert abs(var - want) < 4.0 * se


# -- probability-flow steps -----------------------------------------------------

def test_pf_euler_identity_when_drift_vanishes():
    oracle = ScoreOracle(dim=1, score_fn=lambda x, t: np.zeros_like(x))
    sched = NoiseSchedule.edm()  # f = 0
    x = np.array([0.8])
    out = pf_ode_step_euler(x, oracle, sched, 0.6, 0.1)
    np.testing.assert_array_equal(out, x)


def test_pf_heun_equals_euler_for_constant_drift():
    # EDM drift is t * s(x, t); score c / t makes it constant in x and t
    oracle = ScoreOracle(dim=1, score_fn=lambda x, t: np.full_like(x, 5.0) / t)
    sched = NoiseSchedule.edm()
    x = np.array([0.2])
    euler = pf_ode_step_euler(x, oracle, sched, 0.9, 0.3)
    heun = pf_ode_step_heun(x, oracle, sched, 0.9, 0.3)
    assert heun[0] == pytest.approx(euler[0], rel=1e-12)
    assert heun[0] == pytest.approx(0.2 + 0.3 * 0.5 * 5.0 * 2.0, rel=1e-12)


def test_pf_ode_orders_on_linear_flow():
    # diffused N(0, 0.25) data: p_t = N(0, 0.25 + t^2) with exact score, so
    # the flow has the closed form x(t) = x(1) sqrt((0.25 + t^2) / 1.25)
    oracle = ScoreOracle(dim=1, score_fn=lambda x, t: -x / (0.25 + t ** 2))
    sched = NoiseSchedule.edm()
    t_end = 0.1
    x0 = np.array([1.0])
    exact = x0 * np.sqrt((0.25 + t_end ** 2) / 1.25)
    errs = {"euler": [], "heun": []}
    step_counts = [8, 16, 32, 64, 128]
    for n in step_counts:
        ts = np.linspace(1.0, t_end, n + 1)
        xe = x0.copy()
        xh = x0.copy()
        for i in range(n):
            dt = ts[i] - ts[i + 1]
            xe = pf_ode_step_euler(xe, oracle, sched, ts[i], dt)
            xh = pf_ode_step_heun(xh, oracle, sched, ts[i], dt)
        errs["euler"].append(abs(float(xe[0]) - float(exact[0])))
        errs["heun"].append(abs(float(xh[0]) - float(exact[0])))
    h_values = 1.0 / np.array(step_counts)
    euler_fit = order_fit(h_values, np.array(errs["euler"]))
    heun_fit = order_fit(h_values, np.array(errs["heun"]))
    assert abs(euler_fit.slope - 1.0) < 0.15
    assert abs(heun_fit.slope - 2.0) < 0.15


@pytest.mark.parametrize("step", ["ancestral", "euler", "heun"])
def test_predictor_steps_take_the_callers_score(step):
    # a given score replaces the first query and changes no bit; Heun still
    # scores its Euler point
    oracle = ScoreOracle(dim=2, score_fn=lambda x, t: -x / (0.25 + t ** 2))
    sched = NoiseSchedule.edm()
    x = np.random.default_rng(3).standard_normal((5, 2))
    run = {"ancestral": lambda s: ancestral_step(x, oracle, 0.6, 0.1, None,
                                                 z=np.ones_like(x), s=s),
           "euler": lambda s: pf_ode_step_euler(x, oracle, sched, 0.6, 0.1,
                                                s=s),
           "heun": lambda s: pf_ode_step_heun(x, oracle, sched, 0.6, 0.1,
                                              s=s)}[step]
    fresh = run(None)
    queries = oracle.queries
    given = run(oracle.score(x, 0.6))
    assert oracle.queries - queries == (10 if step == "heun" else 5)
    assert given.tobytes() == fresh.tobytes()
    with pytest.raises(DomainError, match="shape"):
        run(np.zeros((5, 1)))


def test_predictor_steps_check_a_given_score():
    oracle = gaussian_oracle(0.0, 1.0)
    sched = NoiseSchedule.edm()
    x, s = np.ones((2, 1)), np.array([[0.0], [np.nan]])
    with pytest.raises(NonFiniteError, match="drift"):
        pf_ode_step_euler(x, oracle, sched, 0.6, 0.1, s=s)
    with pytest.raises(NonFiniteError, match="ancestral"):
        ancestral_step(x, oracle, 0.6, 0.1, None, s=s, add_noise=False)


# -- run_pc ----------------------------------------------------------------------

def _base_config(**overrides):
    tree = {
        "target": {"kind": "gaussian", "mean": 0.0, "variance": 1.0, "dim": 1},
        "schedule": {"kind": "vp-discrete", "beta_min": 0.01, "beta_max": 0.2,
                     "T": 10},
        "predictor": {"kind": "ancestral", "steps": 10},
        "corrector": {"kind": "none", "steps": 0},
        "run": {"chains": 64, "seed": 5},
    }
    for section, kv in overrides.items():
        tree[section].update(kv)
    return config_from_dict(tree)


def test_run_pc_predictor_only_query_accounting():
    cfg = _base_config()
    report = run_pc(cfg)
    assert report.corrector_queries == 0
    # one ancestral score evaluation per chain per level
    assert report.predictor_queries == 64 * 10
    assert report.total_queries == report.predictor_queries


def _small_fig1_hybrid(threads):
    from madm.config import apply_overrides, preset_run_config

    cfg = apply_overrides(preset_run_config("fig1-checkerboard"),
                          ["run.chains=40", "target.n_points=60",
                           "corrector.steps=3", f"run.threads={threads}"])
    assert cfg.corrector.kind == "hybrid"
    return cfg


@pytest.mark.parametrize("make_config", [
    lambda: _small_fig1_hybrid(1),
    lambda: _small_fig1_hybrid(2),
    # an ancestral ladder on N(0, 1) with a beta-rule corrector
    lambda: _base_config(corrector={"kind": "simpson13", "steps": 3,
                                    "step_scale": 0.1, "step_rule": "beta"}),
], ids=["1", "2", "simpson13"])
def test_run_pc_query_totals_count_every_score_row(monkeypatch, make_config):
    # count the rows at the score function itself, apart from the records
    # the report sums; list.append is atomic, so the count is thread-safe
    from madm.config import TargetConfig

    build, rows = TargetConfig.build_oracle, []

    def counting(self, schedule):
        oracle = build(self, schedule)
        score_fn = oracle.score_fn

        def score(x, t):
            rows.append(1 if x.ndim == 1 else x.shape[0])
            return score_fn(x, t)

        oracle.score_fn = score
        return oracle

    monkeypatch.setattr(TargetConfig, "build_oracle", counting)
    report = run_pc(make_config())
    assert report.corrector_queries > 0
    assert report.total_queries == sum(rows)
    assert report.predictor_queries + report.corrector_queries == sum(rows)


def test_run_pc_deterministic_given_seed():
    cfg = _base_config(corrector={"kind": "two-coin", "steps": 2,
                                  "step_scale": 0.1, "step_rule": "beta",
                                  "bound": "lipschitz"})
    a = run_pc(cfg)
    b = run_pc(cfg)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert [l.acceptance_rate for l in a.per_level] == \
        [l.acceptance_rate for l in b.per_level]


def test_run_pc_seed_changes_output():
    a = run_pc(_base_config())
    b = run_pc(_base_config(run={"seed": 6}))
    assert not np.array_equal(a.samples, b.samples)


def test_run_pc_threads_smoke():
    cfg = _base_config(run={"chains": 50, "threads": 4})
    report = run_pc(cfg)
    assert report.samples.shape == (50, 1)
    assert report.total_queries == report.predictor_queries


def test_run_pc_threads_pool_moments_across_blocks():
    tree = {"corrector": {"kind": "ula", "steps": 40, "step_scale": 0.3,
                          "step_rule": "const"},
            "predictor": {"kind": "none"},
            "schedule": {"kind": "edm"}}
    single = run_pc(_base_config(run={"chains": 96, "threads": 1}, **tree))
    pooled = run_pc(_base_config(run={"chains": 96, "threads": 4}, **tree))
    lone, multi = single.per_level[0], pooled.per_level[0]
    # different streams, but the same estimator on the same scale
    assert multi.post_var == pytest.approx(lone.post_var, rel=0.25)
    assert abs(multi.post_mean) < 0.2


def test_run_pc_corrector_only_stationary_barker_acceptance():
    # corrector-only chains started in stationarity: the measured acceptance
    # must match the marginal Barker rate computed from the closed form
    h = 0.5
    cfg = config_from_dict({
        "target": {"kind": "gaussian", "mean": 0.0, "variance": 1.0, "dim": 1},
        "schedule": {"kind": "edm"},
        "predictor": {"kind": "none"},
        "corrector": {"kind": "two-coin", "steps": 300, "step_scale": h,
                      "step_rule": "sigma", "bound": "lipschitz"},
        "run": {"chains": 256, "seed": 7},
    })
    report = run_pc(cfg)
    level = report.per_level[0]
    rng = np.random.default_rng(123)
    x = rng.standard_normal(400_000)
    z = rng.standard_normal(400_000)
    xt = x - 0.5 * h * x + np.sqrt(h) * z
    alpha = expit((h / 8.0) * (x * x - xt * xt))
    want = float(alpha.mean())
    n_dec = 256 * 300
    se = np.sqrt(want * (1 - want) / n_dec) * 3.0 + 4.0 * alpha.std() / 632.0
    assert abs(level.acceptance_rate - want) < max(se, 0.01)


def test_run_pc_reports_per_level_fields():
    cfg = _base_config(corrector={"kind": "ula", "steps": 2,
                                  "step_scale": 0.1, "step_rule": "beta"})
    report = run_pc(cfg)
    # correctors run at every positive-noise level
    assert len(report.per_level) == 10
    for level in report.per_level[:-1]:
        assert level.acceptance_rate == 1.0
        assert level.esjd > 0
    assert report.per_level[-1].t == 0.0


def test_run_pc_summary_has_post_moments_only_where_measured():
    post = {"post_mean", "post_var", "post_var_se"}
    for steps, measured in ((2, False), (3, True)):
        # burn-in takes one step, and a variance needs two draws per chain
        report = run_pc(_base_config(corrector={
            "kind": "ula", "steps": steps, "step_scale": 0.1,
            "step_rule": "beta"}))
        rows = report.summary_dict()["per_level"]
        assert (post <= set(rows[0])) is measured
        assert not post & set(rows[-1])  # t = 0 runs no corrector
        assert set(rows[0]) - post == {
            "t", "corrector_steps", "acceptance_rate", "mean_rounds",
            "mean_queries", "esjd", "predictor_queries", "corrector_queries",
            "round_passes", "max_rounds", "capped_rows", "budget_rows"}


def test_run_pc_t_end_truncates_grid():
    cfg = _base_config(predictor={"kind": "ancestral", "steps": 10,
                                  "t_end": 0.3})
    report = run_pc(cfg)
    ts = [l.t for l in report.per_level]
    assert min(ts) == pytest.approx(0.3)
    assert len(ts) == 7


def test_run_pc_rejects_mismatched_steps():
    with pytest.raises(ConfigError):
        run_pc(_base_config(predictor={"kind": "ancestral", "steps": 7}))


def test_run_pc_diagnostics_csv_format(tmp_path):
    cfg = _base_config(corrector={"kind": "ula", "steps": 1,
                                  "step_scale": 0.1, "step_rule": "beta"})
    report = run_pc(cfg)
    path = tmp_path / "diagnostics.csv"
    report.write_diagnostics_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,acceptance_rate,mean_rounds,mean_queries"
    assert len(lines) == 1 + len(report.per_level)
    samples_path = tmp_path / "samples.csv"
    report.write_samples_csv(samples_path)
    loaded = np.loadtxt(samples_path, delimiter=",", ndmin=2)
    np.testing.assert_array_equal(loaded, report.samples)


# -- two-coin chains out of lockstep ----------------------------------------------

def _two_coin_config(**run):
    return config_from_dict({
        "target": {"kind": "gaussian", "mean": 0.0, "variance": 1.0, "dim": 1},
        "schedule": {"kind": "edm"},
        "predictor": {"kind": "none"},
        "corrector": {"kind": "two-coin", "steps": 40, "step_scale": 0.4,
                      "step_rule": "const", "bound": "lipschitz"},
        "run": {"chains": 64, "seed": 31, **run},
    })


def _without_wall_time(report):
    summary = report.summary_dict()
    summary.pop("wall_time_s")
    return summary


@pytest.mark.parametrize("threads", [1, 2])
def test_run_pc_two_coin_reruns_are_byte_identical(threads):
    cfg = _two_coin_config(threads=threads)
    a, b = run_pc(cfg), run_pc(cfg)
    assert a.samples.tobytes() == b.samples.tobytes()
    assert _without_wall_time(a) == _without_wall_time(b)


def test_run_pc_round_telemetry_merges_across_blocks():
    from madm.sampler import _run_block, run_plan

    cfg = _two_coin_config(threads=2)
    report = run_pc(cfg)
    schedule, plan = run_plan(cfg)
    blocks = [_run_block(cfg, schedule, plan,
                         cfg.target.build_oracle(schedule), 32, child)[1][0]
              for child in np.random.SeedSequence(31).spawn(2)]
    level = report.summary_dict()["per_level"][0]
    assert level["round_passes"] == sum(b.round_passes for b in blocks) > 0
    assert level["max_rounds"] == max(b.max_rounds for b in blocks) >= 1
    assert level["max_rounds"] >= level["mean_rounds"]


def test_run_pc_round_passes_are_the_round_loop_iterations(monkeypatch):
    from madm import engine

    real, iterations = engine._two_coin_rounds, []

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        iterations.append(int(out[1].max()))
        return out

    monkeypatch.setattr(engine, "_two_coin_rounds", spy)
    for kind in ("two-coin", "hybrid"):
        iterations.clear()
        cfg = _base_config(corrector={"kind": kind, "steps": 6,
                                      "step_scale": 0.5, "step_rule": "beta",
                                      "bound": "lipschitz"})
        report = run_pc(cfg)
        assert sum(ls.round_passes for ls in report.per_level) == \
            sum(iterations) > 0, kind


def test_run_pc_two_coin_error_names_level_chain_and_its_sweep():
    from madm.errors import NonterminationError

    cfg = _two_coin_config()
    cfg.corrector.max_rounds = 1
    with pytest.raises(NonterminationError) as info:
        run_pc(cfg)
    err = info.value
    assert str(err).startswith(f"corrector at level t=1, sweep {err.sweep}: ")
    assert str(err).endswith(f"(first stuck chain {err.chain})")


def test_run_pc_level_entry_score_error_names_its_level(monkeypatch):
    # the score is NaN only at t = 10/18; the predictor into that level
    # scores t = 11/18, so the first NaN is the corrector's entry score
    from madm.config import TargetConfig, apply_overrides, preset_run_config
    from madm.errors import NonFiniteError

    build = TargetConfig.build_oracle

    def nan_at_one_level(self, schedule):
        oracle = build(self, schedule)
        score_fn = oracle.score_fn
        oracle.score_fn = lambda x, t: score_fn(x, t) * (
            np.nan if t == 10 / 18 else 1.0)
        return oracle

    monkeypatch.setattr(TargetConfig, "build_oracle", nan_at_one_level)
    cfg = apply_overrides(preset_run_config("fig1-checkerboard"),
                          ["run.chains=8", "target.n_points=60",
                           "corrector.steps=2"])
    with pytest.raises(NonFiniteError) as info:
        run_pc(cfg)
    assert str(info.value) == ("corrector at level t=0.555556: non-finite "
                               "score at chain 0, coordinate 0")


# -- the predictor takes the corrector's scores -----------------------------------

_SMALL = ["run.chains=60", "target.n_points=60", "corrector.steps=3"]


def _small_preset(preset, *overrides):
    from madm.config import apply_overrides, preset_run_config

    return apply_overrides(preset_run_config(preset),
                           _SMALL + list(overrides))


@pytest.mark.parametrize("preset, overrides, reused, fresh, later", [
    ("fig1-checkerboard", [], 60, 960, 0),
    ("fig1-checkerboard", ["run.threads=2"], 60, 960, 0),
    ("fig1-checkerboard", ["predictor.kind=pf-ode-heun"], 1020, 1920, 60),
    ("spiral", [], 60, 2400, 0),
    ("fig1-checkerboard", ["corrector.kind=none", "corrector.steps=0"],
     960, 960, 60),
], ids=["euler", "euler-threads2", "heun", "ancestral", "no-corrector"])
def test_run_pc_predictor_reuses_the_correctors_scores(
        monkeypatch, preset, overrides, reused, fresh, later):
    # only the first level's predictor (and any after a level without a
    # corrector) queries the states it starts from, and Heun its Euler
    # point; the decisions and samples are those of fresh scores
    from madm import sampler

    cfg = _small_preset(preset, *overrides)
    a = run_pc(cfg)
    real = sampler._predictor_step
    with monkeypatch.context() as m:
        # reuse off: the predictor drops the scores it is handed
        m.setattr(sampler, "_predictor_step",
                  lambda *args, s=None, **kwargs: real(*args, **kwargs))
        b = run_pc(cfg)
    assert (a.predictor_queries, b.predictor_queries) == (reused, fresh)
    assert a.per_level[0].predictor_queries == b.per_level[0].predictor_queries
    assert {ls.predictor_queries for ls in a.per_level[1:]} == {later}
    for ours, theirs in zip(a.per_level, b.per_level):
        assert (ours.acceptance_rate, ours.mean_rounds,
                ours.corrector_queries) == (theirs.acceptance_rate,
                                            theirs.mean_rounds,
                                            theirs.corrector_queries)
    np.testing.assert_allclose(a.samples, b.samples, rtol=1e-12, atol=0)


def test_run_pc_reports_the_hybrid_paths_per_level():
    report = run_pc(_small_preset("fig1-checkerboard"))
    rows = report.summary_dict()["per_level"]
    capped = [row["capped_rows"] for row in rows]
    budget = [row["budget_rows"] for row in rows]
    assert capped == [ls.capped_rows for ls in report.per_level]
    assert budget == [ls.budget_rows for ls in report.per_level]
    # 60 chains x 3 steps per level; fig1's envelope is loose, so most
    # proposals skip the exact rounds
    assert all(c + b <= 180 for c, b in zip(capped, budget))
    assert sum(capped) > 0.5 * 180 * len(rows)


def test_run_pc_auto_bound_decides_every_gaussian_proposal_in_one_round():
    # auto resolves to lipschitz-sharp on an oracle that declares L, whose C
    # is 0 on a Gaussian target: no Poisson factor, one round per decision
    from madm.sampler import _bound_spec

    cfg = config_from_dict({
        "target": {"kind": "gaussian", "mean": 0.0, "variance": 1.0, "dim": 1},
        "schedule": {"kind": "edm"},
        "predictor": {"kind": "none"},
        "corrector": {"kind": "two-coin", "steps": 40, "step_scale": 0.5,
                      "step_rule": "sigma"},
        "run": {"chains": 500, "seed": 1000},
    })
    assert cfg.corrector.bound == "auto"
    oracle = cfg.target.build_oracle(cfg.schedule.build())
    assert _bound_spec(cfg, oracle).strategy == "lipschitz-sharp"
    level = run_pc(cfg).per_level[0]
    assert level.max_rounds == level.mean_rounds == 1
    assert level.corrector_queries == 500 * 41
