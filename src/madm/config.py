"""Run configuration: dataclass sections, INI files, presets, overrides.

A run is described by five flat sections (target, schedule, predictor,
corrector, run).  Config files are ini-style ``[section]`` blocks of
``key = value`` lines; presets expand to the same dictionaries and are
echoed back fully explicit.  Unknown sections or keys are rejected.
"""

from __future__ import annotations

import configparser
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from . import engine
from .adjust_quadrature import RULES
from .errors import ConfigError
from .schedule import NoiseSchedule, SCHEDULE_KINDS
from .targets import (DATASET_NAMES, ScoreOracle, diffused_empirical_oracle,
                      gaussian_oracle, generate_dataset, quartic_oracle,
                      quartic_perturbed_oracle)

TARGET_KINDS = ("gaussian", "quartic", "quartic-perturbed") + DATASET_NAMES
PREDICTOR_KINDS = ("none", "pf-ode-euler", "pf-ode-heun", "ancestral")
CORRECTOR_NAMES = ("none", "ula", "two-coin", "simpson13", "trapezoid",
                   "simpson38", "hybrid", "oracle-mh")
STEP_RULES = ("beta", "sigma", "var", "const")
BOUND_NAMES = ("auto",) + engine.BOUND_STRATEGIES


@dataclass
class TargetConfig:
    kind: str = "gaussian"
    n_points: int = 10000
    data_seed: int = 0
    mean: float = 0.0
    variance: float = 1.0
    scale: float = 1.0
    dim: int = 1

    def validate(self):
        if self.kind not in TARGET_KINDS:
            raise ConfigError(f"unknown target kind {self.kind!r}; "
                              f"expected one of {TARGET_KINDS}")

    def build_oracle(self, schedule: NoiseSchedule) -> ScoreOracle:
        self.validate()
        if self.kind == "gaussian":
            return gaussian_oracle(np.full(self.dim, self.mean), self.variance)
        if self.kind == "quartic":
            return quartic_oracle(self.scale)
        if self.kind == "quartic-perturbed":
            return quartic_perturbed_oracle(self.scale)
        data = generate_dataset(self.kind, self.n_points, self.data_seed)
        return diffused_empirical_oracle(data, schedule, t=1.0)


@dataclass
class ScheduleConfig:
    kind: str = "vp-discrete"
    beta_min: float = 1e-4
    beta_max: float = 0.02
    T: int = 1000

    def build(self) -> NoiseSchedule:
        if self.kind not in SCHEDULE_KINDS:
            raise ConfigError(f"unknown schedule kind {self.kind!r}; "
                              f"expected one of {SCHEDULE_KINDS}")
        return NoiseSchedule(kind=self.kind, beta_min=self.beta_min,
                             beta_max=self.beta_max, T=self.T)


@dataclass
class PredictorConfig:
    kind: str = "ancestral"
    steps: int = 0     # 0 = take the schedule's ladder length
    t_end: float = 0.0  # stop the level grid here (noise floor of the run)

    def validate(self):
        if self.kind not in PREDICTOR_KINDS:
            raise ConfigError(f"unknown predictor kind {self.kind!r}; "
                              f"expected one of {PREDICTOR_KINDS}")
        if self.steps < 0:
            raise ConfigError(f"predictor steps must be >= 0, got {self.steps}")
        if not 0.0 <= self.t_end < 1.0:
            raise ConfigError(f"t_end must lie in [0, 1), got {self.t_end}")


@dataclass
class CorrectorConfig:
    kind: str = "hybrid"
    steps: int = 1
    step_scale: float = 1.0
    step_rule: str = "beta"
    hybrid_rounds: int = 10
    hybrid_rule: str = "simpson13"
    poisson_cap: float = engine.HYBRID_POISSON_CAP
    bound: str = "auto"
    bound_value: Optional[float] = None
    max_rounds: int = engine.DEFAULT_MAX_ROUNDS

    def validate(self):
        if self.kind not in CORRECTOR_NAMES:
            raise ConfigError(f"unknown corrector {self.kind!r}; "
                              f"expected one of {CORRECTOR_NAMES}")
        if self.step_rule not in STEP_RULES:
            raise ConfigError(f"unknown step rule {self.step_rule!r}; "
                              f"expected one of {STEP_RULES}")
        if self.bound not in BOUND_NAMES:
            raise ConfigError(f"unknown bound {self.bound!r}; "
                              f"expected one of {BOUND_NAMES}")
        if self.hybrid_rule not in RULES:
            raise ConfigError(f"unknown hybrid fallback rule "
                              f"{self.hybrid_rule!r}; expected one of "
                              f"{tuple(RULES)}")
        if self.steps < 0:
            raise ConfigError(f"corrector steps must be >= 0, got {self.steps}")
        if not (np.isfinite(self.step_scale) and self.step_scale > 0):
            raise ConfigError(f"step_scale must be finite and > 0, "
                              f"got {self.step_scale}")
        if self.max_rounds < 1:
            raise ConfigError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.hybrid_rounds < 0:
            raise ConfigError(
                f"hybrid_rounds must be >= 0, got {self.hybrid_rounds}")
        if not self.poisson_cap >= 0:
            raise ConfigError(
                f"poisson_cap must be >= 0, got {self.poisson_cap}")
        if self.bound_value is not None and not (
                np.isfinite(self.bound_value) and self.bound_value >= 0):
            raise ConfigError(f"bound_value must be null or finite and >= 0, "
                              f"got {self.bound_value}")


@dataclass
class RunSettings:
    chains: int = 1000
    seed: int = 0
    threads: int = 1
    burn_in_frac: float = 0.1
    reference_points: int = 10000
    reference_seed: int = 71

    def validate(self):
        if self.chains < 1:
            raise ConfigError(f"chains must be >= 1, got {self.chains}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if not 0.0 <= self.burn_in_frac < 1.0:
            raise ConfigError("burn_in_frac must lie in [0, 1)")


@dataclass
class RunConfig:
    """Everything a predictor-corrector run needs; seed determines output."""

    target: TargetConfig = field(default_factory=TargetConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    corrector: CorrectorConfig = field(default_factory=CorrectorConfig)
    run: RunSettings = field(default_factory=RunSettings)

    def validate(self):
        self.target.validate()
        self.predictor.validate()
        self.corrector.validate()
        self.run.validate()
        self.schedule.build()

    def to_flat_dict(self) -> dict:
        out = {}
        for section in fields(self):
            for key, value in asdict(getattr(self, section.name)).items():
                out[f"{section.name}.{key}"] = value
        return out


_SECTIONS = {
    "target": TargetConfig,
    "schedule": ScheduleConfig,
    "predictor": PredictorConfig,
    "corrector": CorrectorConfig,
    "run": RunSettings,
}


def _coerce(raw):
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    low = text.lower()
    if low == "null":  # "none" stays a string: it is a predictor/corrector kind
        return None
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


_FIELD_CHECKS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "Optional[float]": lambda v: v is None or (
        isinstance(v, (int, float)) and not isinstance(v, bool)),
}


def _build_section(cls, name: str, values: dict):
    spec = {f.name: f.type for f in fields(cls)}
    unknown = set(values) - set(spec)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in section [{name}]; "
            f"valid keys: {sorted(spec)}"
        )
    clean = {}
    for key, raw in values.items():
        value = _coerce(raw)
        check = _FIELD_CHECKS.get(spec[key])
        if check is not None and not check(value):
            raise ConfigError(
                f"[{name}] {key} expects {spec[key]}, got {value!r}"
            )
        if spec[key].startswith("float") and isinstance(value, int):
            value = float(value)
        clean[key] = value
    return cls(**clean)


def config_from_dict(tree: dict) -> RunConfig:
    """Build a RunConfig from {section: {key: value}} (presets, tests)."""
    unknown = set(tree) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown section(s) {sorted(unknown)}; "
                          f"valid sections: {sorted(_SECTIONS)}")
    kwargs = {name: _build_section(cls, name, tree.get(name, {}))
              for name, cls in _SECTIONS.items()}
    cfg = RunConfig(**kwargs)
    cfg.validate()
    return cfg


def config_from_file(path) -> RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    tree = {section: dict(parser.items(section))
            for section in parser.sections()}
    return config_from_dict(tree)


def apply_overrides(config: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply ``section.key=value`` strings on top of an existing config."""
    tree = {name: dict(asdict(getattr(config, name))) for name in _SECTIONS}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form "
                              "section.key=value")
        dotted, value = item.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override key {dotted!r} needs a section prefix")
        section, key = dotted.split(".", 1)
        if section not in tree:
            raise ConfigError(f"unknown section {section!r} in override {item!r}")
        tree[section][key] = value
    return config_from_dict(tree)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------
# The 2D presets follow the ancestral-sampler setup: per-level corrector step
# size h = step_scale * beta_{level+1}.  The fig1 preset deliberately uses a
# coarse ladder and an oversized corrector step: the unadjusted corrector is
# locally unstable at the sharpest noise level, which is exactly the failure
# mode the adjusted correctors remove.

PRESETS: dict[str, dict] = {
    "fig1-checkerboard": {
        "command": "sample",
        "target": {"kind": "checkerboard", "n_points": 1200, "data_seed": 7},
        "schedule": {"kind": "vp-discrete", "beta_min": 0.02,
                     "beta_max": 0.35, "T": 18},
        # coarse grid: the run stops at the first ladder level, so samples
        # keep that level's noise floor; the oversized corrector step then
        # shows the unadjusted corrector's inflated stationary law
        "predictor": {"kind": "pf-ode-euler", "steps": 18, "t_end": 0.0556},
        "corrector": {"kind": "hybrid", "steps": 16, "step_scale": 3.6,
                      "step_rule": "var", "bound": "bounded-denoiser"},
        "run": {"chains": 10000, "seed": 2024},
    },
    "spiral": {
        "command": "sample",
        "target": {"kind": "spiral", "n_points": 10000, "data_seed": 1},
        "schedule": {"kind": "vp-discrete", "beta_min": 1e-3,
                     "beta_max": 0.28, "T": 40},
        "predictor": {"kind": "ancestral", "steps": 40},
        "corrector": {"kind": "hybrid", "steps": 20, "step_scale": 0.1,
                      "step_rule": "beta", "bound": "bounded-denoiser"},
        "run": {"chains": 10000, "seed": 11},
    },
    "funnel": {
        "command": "sample",
        "target": {"kind": "funnel", "n_points": 10000, "data_seed": 2},
        "schedule": {"kind": "vp-discrete", "beta_min": 5e-3,
                     "beta_max": 0.8, "T": 10},
        "predictor": {"kind": "ancestral", "steps": 10},
        "corrector": {"kind": "hybrid", "steps": 20, "step_scale": 1.0,
                      "step_rule": "beta", "bound": "bounded-denoiser"},
        "run": {"chains": 10000, "seed": 12},
    },
    "sierpinski": {
        "command": "sample",
        "target": {"kind": "sierpinski", "n_points": 10000, "data_seed": 3},
        "schedule": {"kind": "vp-discrete", "beta_min": 2e-3,
                     "beta_max": 0.45, "T": 20},
        "predictor": {"kind": "ancestral", "steps": 20},
        "corrector": {"kind": "hybrid", "steps": 30, "step_scale": 0.01,
                      "step_rule": "beta", "bound": "bounded-denoiser"},
        "run": {"chains": 10000, "seed": 13},
    },
    "pinwheel": {
        "command": "sample",
        "target": {"kind": "pinwheel", "n_points": 10000, "data_seed": 4},
        "schedule": {"kind": "vp-discrete", "beta_min": 2e-3,
                     "beta_max": 0.45, "T": 20},
        "predictor": {"kind": "ancestral", "steps": 20},
        "corrector": {"kind": "hybrid", "steps": 30, "step_scale": 0.01,
                      "step_rule": "beta", "bound": "bounded-denoiser"},
        "run": {"chains": 10000, "seed": 14},
    },
    "gaussian-bias": {
        "command": "sample",
        "target": {"kind": "gaussian", "mean": 0.0, "variance": 1.0, "dim": 1},
        "schedule": {"kind": "edm"},
        "predictor": {"kind": "none"},
        "corrector": {"kind": "two-coin", "steps": 2000, "step_scale": 0.5,
                      "step_rule": "sigma", "bound": "lipschitz-sharp"},
        "run": {"chains": 512, "seed": 15},
    },
    "scaling": {
        "command": "scaling",
        "grid": "0.2:3.2:61",
        "dims": (10, 100, 1000),
        "proposals": 100000,
        "seed": 16,
    },
    "quad-order": {
        "command": "verify",
        "suite": "quad-order",
        "seed": 17,
    },
}


def expand_preset(name: str) -> dict:
    """Return a deep copy of the preset dictionary (fully explicit)."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; "
                          f"valid presets: {sorted(PRESETS)}")
    import copy

    return copy.deepcopy(PRESETS[name])


def preset_run_config(name: str) -> RunConfig:
    tree = expand_preset(name)
    if tree.pop("command") != "sample":
        raise ConfigError(f"preset {name!r} is not a sampling preset")
    return config_from_dict(tree)
