import numpy as np
import pytest
from scipy.special import expit

from madm.config import config_from_dict
from madm.diagnostics import order_fit
from madm.errors import ConfigError
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


def test_run_pc_query_conservation_with_corrector():
    cfg = _base_config(corrector={"kind": "simpson13", "steps": 3,
                                  "step_scale": 0.1, "step_rule": "beta"})
    report = run_pc(cfg)
    assert report.total_queries == (report.predictor_queries +
                                    report.corrector_queries)
    assert report.corrector_queries > 0


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
    from madm.sampler import _run_block

    cfg = _two_coin_config(threads=2)
    report = run_pc(cfg)
    schedule = cfg.schedule.build()
    blocks = [_run_block(cfg, schedule, cfg.target.build_oracle(schedule), 32,
                         child)[1][0].stats
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
