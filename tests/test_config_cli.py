import json

import pytest

from madm.cli import main
from madm.config import (PRESETS, apply_overrides, config_from_dict,
                         config_from_file, expand_preset, preset_run_config)
from madm.errors import ConfigError

FAST_SAMPLE_ARGS = [
    "--set", "run.chains=32",
    "--set", "target.n_points=64",
    "--set", "corrector.steps=2",
]


# -- config ---------------------------------------------------------------------

def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"targets": {"kind": "gaussian"}})


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"target": {"kind": "gaussian", "sigma": 2.0}})


def test_unknown_enum_values_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"target": {"kind": "donut"}})
    with pytest.raises(ConfigError):
        config_from_dict({"corrector": {"kind": "metropolis"}})


def test_flat_echo_roundtrip():
    cfg = config_from_dict({"run": {"chains": 11, "seed": 9}})
    flat = cfg.to_flat_dict()
    assert flat["run.chains"] == 11
    assert flat["schedule.kind"] == "vp-discrete"


def test_overrides_coerce_types():
    cfg = config_from_dict({})
    cfg = apply_overrides(cfg, ["run.chains=77", "corrector.step_scale=0.25",
                                "corrector.kind=trapezoid"])
    assert cfg.run.chains == 77
    assert cfg.corrector.step_scale == 0.25
    assert cfg.corrector.kind == "trapezoid"


def test_override_requires_section():
    cfg = config_from_dict({})
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["chains=7"])


def test_config_file_parse(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[target]\nkind = gaussian\ndim = 2\n\n"
        "[schedule]\nkind = edm\n\n"
        "[predictor]\nkind = none\n\n"
        "[corrector]\nkind = oracle-mh\nsteps = 3\nstep_rule = const\n"
        "step_scale = 0.2\n\n"
        "[run]\nchains = 16\nseed = 4\n"
    )
    cfg = config_from_file(path)
    assert cfg.target.dim == 2
    assert cfg.corrector.kind == "oracle-mh"
    assert cfg.run.chains == 16


def test_config_file_missing(tmp_path):
    with pytest.raises(ConfigError):
        config_from_file(tmp_path / "nope.ini")


def test_presets_expand_fully():
    for name in PRESETS:
        tree = expand_preset(name)
        assert "command" in tree
        if tree["command"] == "sample":
            cfg = preset_run_config(name)
            cfg.validate()


def test_preset_run_config_rejects_non_sample():
    with pytest.raises(ConfigError):
        preset_run_config("scaling")


# -- cli ------------------------------------------------------------------------

def test_cli_sample_writes_outputs(tmp_path):
    out = tmp_path / "run"
    code = main(["sample", "--preset", "gaussian-bias", "--out", str(out),
                 "--quiet", "--set", "run.chains=16",
                 "--set", "corrector.steps=20"])
    assert code == 0
    assert (out / "samples.csv").exists()
    assert (out / "diagnostics.csv").exists()
    report = json.loads((out / "report.json").read_text())
    for key in ("seed", "config", "version", "wall_time_s", "score_queries"):
        assert key in report
    assert report["config"]["run.chains"] == 16
    assert report["version"].startswith("v")


def test_cli_sample_exit_2_on_bad_config(tmp_path, capsys):
    code = main(["sample", "--preset", "gaussian-bias", "--out",
                 str(tmp_path), "--quiet", "--set", "run.chains=oops..."])
    assert code == 2
    # corrector settings that cannot run stop before the first sweep
    for bad in (["--set", "corrector.max_rounds=0"],
                ["--corrector", "hybrid", "--set", "corrector.hybrid_rounds=-1"],
                ["--corrector", "hybrid", "--set", "corrector.poisson_cap=-1"],
                ["--set", "corrector.bound_value=-1"],
                ["--set", "corrector.step_scale=nan"],
                ["--set", "corrector.step_scale=inf"]):
        capsys.readouterr()
        code = main(["sample", "--preset", "gaussian-bias", "--out",
                     str(tmp_path), "--quiet", "--set", "run.chains=8",
                     "--set", "corrector.steps=3", *bad])
        assert code == 2, bad
        assert "configuration error" in capsys.readouterr().err


def test_cli_sample_exit_3_on_numerical_error(tmp_path):
    # round cap of 1 with many chains: the two-coin loop cannot decide
    code = main(["sample", "--preset", "gaussian-bias", "--out",
                 str(tmp_path), "--quiet", "--set", "run.chains=512",
                 "--set", "corrector.steps=3",
                 "--set", "corrector.max_rounds=1"])
    assert code == 3


def test_cli_corrector_flag_overrides(tmp_path):
    out = tmp_path / "run"
    code = main(["sample", "--preset", "gaussian-bias", "--out", str(out),
                 "--quiet", "--corrector", "trapezoid",
                 "--set", "run.chains=8", "--set", "corrector.steps=4"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["corrector.kind"] == "trapezoid"


def test_cli_env_var_overrides_out(tmp_path, monkeypatch):
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("MADM_OUT", str(env_out))
    code = main(["sample", "--preset", "gaussian-bias", "--out",
                 str(tmp_path / "flag_out"), "--quiet",
                 "--set", "run.chains=8", "--set", "corrector.steps=2"])
    assert code == 0
    assert (env_out / "samples.csv").exists()
    assert not (tmp_path / "flag_out").exists()


def test_cli_verify_unknown_suite_lists_options(tmp_path, capsys):
    code = main(["verify", "nonsense", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "lemma1" in err and "ula-bias" in err


def test_cli_verify_writes_verdict(tmp_path):
    code = main(["verify", "quad-order", "--out", str(tmp_path)])
    assert code == 0
    verdict = json.loads((tmp_path / "verify_quad-order.json").read_text())
    assert verdict["pass"] is True
    assert "trapezoid_slope" in verdict
    table = (tmp_path / "verify_quad-order.csv").read_text().splitlines()
    assert table[0] == "h,simpson13,simpson38,trapezoid"
    assert len(table) == 8


def test_cli_verify_exit_1_on_failed_suite(tmp_path, monkeypatch):
    from madm import verify as verify_mod

    monkeypatch.setitem(verify_mod.SUITES, "always-red",
                        lambda seed=0: {"suite": "always-red", "pass": False})
    code = main(["verify", "always-red", "--out", str(tmp_path)])
    assert code == 1
    verdict = json.loads((tmp_path / "verify_always-red.json").read_text())
    assert verdict["pass"] is False


def test_cli_scaling_outputs(tmp_path):
    code = main(["scaling", "--grid", "1.0:2.5:16", "--dims", "10,50",
                 "--proposals", "5000", "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    curve = (tmp_path / "scaling_curve.csv").read_text().splitlines()
    assert curve[0] == "l,acceptance,efficiency"
    assert len(curve) == 17
    emp = (tmp_path / "scaling_empirical.csv").read_text().splitlines()
    assert emp[0] == "d,h,acceptance,esjd"
    assert len(emp) == 3
    meta = json.loads((tmp_path / "scaling.json").read_text())
    assert 1.0 <= meta["l_star"] <= 2.5


def test_cli_scaling_bad_grid(tmp_path):
    assert main(["scaling", "--grid", "nope", "--out", str(tmp_path)]) == 2


def test_cli_plotdata_on_run_pair(tmp_path):
    parent = tmp_path / "runs"
    for name, corrector in (("ula", "ula"), ("madm", "hybrid")):
        code = main(["sample", "--preset", "fig1-checkerboard", "--quiet",
                     "--out", str(parent / name), "--corrector", corrector,
                     "--set", "run.chains=64", "--set", "target.n_points=80",
                     "--set", "corrector.steps=2",
                     "--set", "run.reference_points=500"])
        assert code == 0
    out = tmp_path / "plot"
    code = main(["plotdata", str(parent), "--out", str(out)])
    assert code == 0
    assert (out / "true_checkerboard.csv").exists()
    assert (out / "ula_samples.csv").exists()
    assert (out / "madm_samples.csv").exists()
    lines = (out / "distances.csv").read_text().splitlines()
    assert lines[0] == "run,target,mean_distance,containment_q95"
    assert len(lines) == 3


def test_cli_plotdata_missing_reports(tmp_path):
    assert main(["plotdata", str(tmp_path), "--out", str(tmp_path)]) == 2
