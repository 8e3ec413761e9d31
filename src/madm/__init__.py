"""Metropolis-adjusted Langevin correctors for score-based diffusion sampling.

The package provides exact Barker-adjusted corrector steps (a two-coin
Bernoulli factory driven by a Poisson product estimator of the density
ratio), cheap Newton-Cotes quadrature MH correctors, analytic score targets
for validation, predictor-corrector sampling loops, and the diagnostics
used to study them.
"""

__version__ = "0.1.0"

from .adjust_exact import expected_queries, expected_rounds
from .adjust_quadrature import (QuadratureRule, composite, rule_by_name,
                                simpson13, simpson38, trapezoid)
from .config import RunConfig, config_from_dict, config_from_file, preset_run_config
from .diagnostics import (barker_limit_A, containment_distance, esjd,
                          nn_distances, optimal_scaling_curve, order_fit)
from .engine import BoundSpec
from .sampler import (RunReport, ancestral_step, pf_ode_step_euler,
                      pf_ode_step_heun, run_pc)
from .schedule import NoiseSchedule, beta_schedule, marginal_params
from .targets import (Dataset2D, ScoreOracle, dataset_from_csv, dataset_to_csv,
                      diffused_empirical_oracle, gaussian_oracle,
                      generate_dataset, quartic_oracle, quartic_perturbed_oracle)

__all__ = [
    "BoundSpec", "Dataset2D", "NoiseSchedule", "QuadratureRule", "RunConfig",
    "RunReport", "ScoreOracle", "ancestral_step", "barker_limit_A",
    "beta_schedule", "composite", "config_from_dict", "config_from_file",
    "containment_distance", "dataset_from_csv", "dataset_to_csv",
    "diffused_empirical_oracle", "esjd", "expected_queries", "expected_rounds",
    "gaussian_oracle", "generate_dataset", "marginal_params", "nn_distances",
    "optimal_scaling_curve", "order_fit", "pf_ode_step_euler",
    "pf_ode_step_heun", "preset_run_config", "quartic_oracle",
    "quartic_perturbed_oracle", "rule_by_name", "run_pc", "simpson13",
    "simpson38", "trapezoid",
]
