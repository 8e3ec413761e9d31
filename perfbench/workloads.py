"""The benchmark workloads: their inputs, timed calls and checks.

A workload turns the benchmark seed into a list of jobs (one *round*).  Every
round runs the same jobs, so every round does the same work and produces the
same outputs; the runner repeats rounds until the run length is spent.  The
program only ever sees the generated config or suite arguments.  The seed
drives the sampler (``run.seed``) and the suites; the data clouds stay those
of the presets, so the target is the same on every seed.

Sizes keep the work done per round within a few percent across seeds and the
checks from failing by chance (see README.md).
"""

from __future__ import annotations

import time

import numpy as np

import checks

# jobs per round and job size, per workload and scale ("tiny" is the smoke run)
SIZES = {
    "checkerboard-hybrid": {
        # criterion 7 on one 200-chain job failed on 3 of 43 seeds (the ULA
        # tail is heavy); on the six jobs pooled it held on every seed tried
        "full": dict(jobs=6, chains=200),
        "tiny": dict(jobs=1, chains=16, n_points=120, steps=2),
    },
    # not in BENCHMARK.json: its time spread over seeds reached the 0.25
    # bound at 25 s runs, and 35 s runs of four workloads do not fit the
    # benchmark's time budget; it runs on request (README.md)
    "spiral-ancestral": {
        "full": dict(jobs=1, chains=100, n_points=500),
        "tiny": dict(jobs=1, chains=8, n_points=60, steps=2),
    },
    "gaussian-two-coin": {
        "full": dict(jobs=8, chains=500, steps=500),
        "tiny": dict(jobs=2, chains=16, steps=20),
    },
    "verify-exact": {
        # the sizes of tests/test_acceptance.py
        "full": dict(lemma1=1_000_000, configs=20, two_coin=100_000,
                     prop2=1_000_000, pairs=20, panels=10_000),
        "tiny": dict(lemma1=2_000, configs=2, two_coin=1_000,
                     prop2=100_000, pairs=2, panels=50),
    },
}

REFERENCE_POINTS = 10_000
REFERENCE_SEED = 71
SPIRAL_TOLERANCE = 0.25     # samples' mean NN distance vs the training cloud's
GAUSSIAN_STEP = 0.2         # corrector step h on N(0, 1); see README.md


def job_seeds(seed: int, count: int) -> list[int]:
    """Distinct program seeds for the jobs of one round, derived from seed."""
    return [int(s) for s in
            np.random.SeedSequence(seed).generate_state(count, dtype=np.uint32)]


# -- sampling workloads ---------------------------------------------------------

def _sampling_config(name: str, size: dict, job_seed: int):
    from madm.config import apply_overrides, preset_run_config

    preset, overrides = {
        "checkerboard-hybrid": ("fig1-checkerboard", []),
        "spiral-ancestral": ("spiral", []),
        "gaussian-two-coin": ("gaussian-bias", [
            f"corrector.step_scale={GAUSSIAN_STEP}"]),
    }[name]
    overrides = overrides + [f"run.chains={size['chains']}",
                             f"run.seed={job_seed}", "run.threads=1"]
    if "n_points" in size:
        overrides.append(f"target.n_points={size['n_points']}")
    if "steps" in size:
        overrides.append(f"corrector.steps={size['steps']}")
    return apply_overrides(preset_run_config(preset), overrides)


def _decisions(report) -> int:
    levels = sum(ls.corrector_steps for ls in report.per_level if ls.t > 0)
    return levels * report.chains


def _mixture_checks(cfg, report, t: float, rng):
    """Program score on the final samples against the direct difference, and
    the negative control: a perturbed program score must fail."""
    from madm.targets import generate_dataset

    sched = cfg.schedule
    r, sigma = checks.vp_discrete_params(t, sched.T, sched.beta_min,
                                         sched.beta_max)
    data = generate_dataset(cfg.target.kind, cfg.target.n_points,
                            cfg.target.data_seed)
    oracle = cfg.target.build_oracle(cfg.schedule.build())
    x = report.samples
    program = oracle.score(x, t)
    reference = checks.direct_mixture_score(x, data.points, r, sigma)
    perturbed = program * (1.0 + 1e-8 * rng.standard_normal(program.shape))
    return ([checks.score_check(program, reference)],
            [checks.score_check(perturbed, reference)], data)


def _nn(samples, reference, timer):
    """Program nearest-neighbour distances, cross-checked by a cKDTree."""
    from madm import diagnostics

    t0 = time.perf_counter()
    program = diagnostics.nn_distances(samples, reference)
    timer["diagnostics.nn_distances"] += time.perf_counter() - t0
    return program, checks.nn_agreement(program, checks.nn_distances(samples, reference))


def _reference(kind: str):
    from madm.targets import generate_dataset

    return generate_dataset(kind, REFERENCE_POINTS, REFERENCE_SEED).points


def check_checkerboard(cfgs, reports, seed, timer):
    from madm.config import apply_overrides
    from madm.sampler import run_pc

    rng = np.random.default_rng(seed)
    good, controls = [], []
    for cfg, rep in zip(cfgs, reports):
        ok, bad, _ = _mixture_checks(cfg, rep, rep.per_level[-1].t, rng)
        good += ok
        controls += bad
    ref = _reference("checkerboard")
    hybrid = np.concatenate([rep.samples for rep in reports])
    ula = np.concatenate([run_pc(apply_overrides(cfg, ["corrector.kind=ula"])).samples
                          for cfg in cfgs])
    d_adj, agree = _nn(hybrid, ref, timer)
    d_ula, _ = _nn(ula, ref, timer)
    good += [agree, checks.checkerboard_criterion(d_adj, d_ula)]
    controls.append(checks.checkerboard_criterion(d_ula, d_ula))
    return good, controls


def check_spiral(cfgs, reports, seed, timer):
    rng = np.random.default_rng(seed)
    ref = _reference("spiral")
    good, controls = [], []
    for cfg, rep in zip(cfgs, reports):
        t_low = 1.0 / cfg.schedule.T
        ok, bad, data = _mixture_checks(cfg, rep, t_low, rng)
        good += ok
        controls += bad
        d_samples, agree = _nn(rep.samples, ref, timer)
        d_train, _ = _nn(data.points, ref, timer)
        jitter = rep.samples + 0.1 * rng.standard_normal(rep.samples.shape)
        d_jitter, _ = _nn(jitter, ref, timer)
        good += [agree, checks.containment_check(d_samples, d_train,
                                                 SPIRAL_TOLERANCE)]
        controls.append(checks.containment_check(d_jitter, d_train,
                                                 SPIRAL_TOLERANCE))
    return good, controls


def check_gaussian(cfgs, reports, seed, timer):
    from madm.config import apply_overrides
    from madm.sampler import run_pc

    expected = checks.barker_acceptance_gaussian(GAUSSIAN_STEP)
    proposals = sum(_decisions(rep) for rep in reports)
    accepted = sum(ls.acceptance_rate * ls.corrector_steps * rep.chains
                   for rep in reports for ls in rep.per_level)
    finals = np.concatenate([rep.samples.ravel() for rep in reports])
    good = [checks.acceptance_check(accepted / proposals, proposals, expected),
            checks.unit_variance_check(finals)]
    ula = run_pc(apply_overrides(cfgs[0], ["corrector.kind=ula"]))
    controls = [checks.acceptance_check(ula.per_level[0].acceptance_rate,
                                        _decisions(ula), expected)]
    return good, controls


# -- verify-exact --------------------------------------------------------------

# two-coin-exactness draws its configurations from its seed, and the work per
# configuration grows like e^C: between seeds the round's score rows moved by
# a fifth.  It keeps the acceptance test's seed so every round does the same
# work; the other three suites take seeds derived from the benchmark seed.
TWO_COIN_SEED = 202


def verify_kwargs(size: dict, seed: int) -> dict:
    s = job_seeds(seed, 3)
    return {
        "lemma1": dict(seed=s[0], n=size["lemma1"]),
        "two-coin-exactness": dict(seed=TWO_COIN_SEED, n_configs=size["configs"],
                                   n=size["two_coin"]),
        "prop2-queries": dict(seed=s[1], n=size["prop2"], tolerance=0.02),
        "line-integral-identity": dict(seed=s[2],
                                       pairs_per_target=size["pairs"],
                                       panels=size["panels"]),
    }


def run_verify(kwargs: dict) -> dict:
    from madm import verify

    return {name: verify.SUITES[name](**kw) for name, kw in kwargs.items()}


def verify_decisions(out: dict) -> int:
    """W-coin draws of lemma1 plus the two-coin decisions of the other two."""
    tc = out["two-coin-exactness"]
    return out["lemma1"]["n"] + tc["n"] * tc["configs"] + out["prop2-queries"]["n"]


def check_verify(jobs, outputs, seed, timer):
    """The suites' numbers against closed forms; the negative controls move
    each closed form by more than its band (8 standard errors at least)."""
    # line-integral-identity draws its pairs on five targets
    pairs = 5 * jobs[0]["line-integral-identity"]["pairs_per_target"]
    v = outputs[0]
    tc_n = v["two-coin-exactness"]["n"]
    wrong = {
        "lemma1": dict(r_target=checks.FIXTURE_R + 8.0 * v["lemma1"]["stderr"]),
        "two-coin": dict(alpha_shift=8.0 * (0.25 / tc_n) ** 0.5),
        "prop2": dict(rounds_scale=1.05),
    }
    controls = [next(c for c in checks.verify_checks(v, pairs, **kw) if c[0] == name)
                for name, kw in wrong.items()]
    return checks.verify_checks(v, pairs), controls


# -- the workload table ------------------------------------------------------------

class Workload:
    """Jobs of one round, the timed call, and the checks for one workload."""

    def __init__(self, name: str, seed: int, scale: str = "full"):
        self.name = name
        self.seed = seed
        self.size = SIZES[name][scale]
        if name == "verify-exact":
            self.jobs = [verify_kwargs(self.size, seed)]
        else:
            self.jobs = [_sampling_config(name, self.size, s)
                         for s in job_seeds(seed, self.size["jobs"])]

    def warm_up(self) -> None:
        """One untimed tiny job: lazy imports and BLAS start-up happen here."""
        tiny = Workload(self.name, self.seed, "tiny")
        tiny.run(tiny.jobs[0])

    def run(self, job):
        """The timed call into the program."""
        if self.name == "verify-exact":
            return run_verify(job)
        from madm.sampler import run_pc

        return run_pc(job)

    def decisions(self, output) -> int:
        if self.name == "verify-exact":
            return verify_decisions(output)
        return _decisions(output)

    def fingerprint(self, output) -> bytes:
        """Bytes that must repeat exactly when the same job runs again."""
        if self.name == "verify-exact":
            import json

            return json.dumps(output, sort_keys=True, default=float).encode()
        return output.samples.tobytes()

    def check(self, outputs, timer):
        """(checks that must pass, negative controls that must fail)."""
        fn = {"checkerboard-hybrid": check_checkerboard,
              "spiral-ancestral": check_spiral,
              "gaussian-two-coin": check_gaussian,
              "verify-exact": check_verify}[self.name]
        done = [(j, o) for j, o in zip(self.jobs, outputs) if o is not None]
        return fn([j for j, _ in done], [o for _, o in done], self.seed, timer)

    def setup(self):
        """What a fresh process does before its first score evaluation.

        Returns perf_counter stamps after config expansion, dataset
        generation and oracle construction.
        """
        from madm import targets

        if self.name == "verify-exact":
            import madm.verify  # noqa: F401  (suite fixtures)

            t_config = t_dataset = time.perf_counter()
            targets.gaussian_oracle(0.0, 1.0)
            return t_config, t_dataset, time.perf_counter()
        cfg = _sampling_config(self.name, self.size, job_seeds(self.seed, 1)[0])
        schedule = cfg.schedule.build()
        t_config = time.perf_counter()
        if cfg.target.kind in targets.DATASET_NAMES:
            data = targets.generate_dataset(cfg.target.kind, cfg.target.n_points,
                                            cfg.target.data_seed)
            t_dataset = time.perf_counter()
            targets.diffused_empirical_oracle(data, schedule, t=1.0)
        else:
            t_dataset = time.perf_counter()
            cfg.target.build_oracle(schedule)
        return t_config, t_dataset, time.perf_counter()
