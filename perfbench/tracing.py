"""Spans and counters around the calls into each madm layer.

The program is not edited: :class:`Tracer` replaces module attributes with
wrappers for the duration of a traced run and puts the originals back
afterwards.  Each wrapped call becomes one span ``(run, span, parent, name,
start, end)`` held in memory; the runner writes them out when the run ends.
Counts are recorded in the same wrappers, so ratios are taken where the work
happens.

:class:`OracleRegistry` is the one hook that stays on in untimed and timed
runs alike: it keeps every ``ScoreOracle`` built during a round so the round's
score rows can be read from the oracles' own ``queries`` counters.  It wraps
the constructor only, never the score path.
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("targets", "schedule", "proposal", "adjust_exact",
           "adjust_quadrature", "engine", "sampler", "diagnostics", "verify")

# private functions that carry a layer boundary of their own
PRIVATE = {
    "engine": ("_two_coin_rounds", "_factor_products",
               "_quadrature_log_ratio_batch"),
    "sampler": ("_run_block", "_predictor_step"),
    "adjust_exact": ("_batch_factors",),
}

SCORE = "targets.ScoreOracle.score"

# the innermost enclosing span with one of these names says why a score row
# was evaluated
CALLERS = {
    "engine._factor_products": "two_coin",
    "engine._quadrature_log_ratio_batch": "quadrature",
    "adjust_quadrature.quadrature_log_ratio": "quadrature",
    "engine.corrector_sweep": "endpoint",
    "proposal.make_proposal": "endpoint",
    "sampler._predictor_step": "predictor",
    "sampler._run_block": "initial",
    "adjust_exact._batch_factors": "replicates",
    "adjust_exact.two_coin_replicates": "replicates",
    "adjust_exact.poisson_w_replicates": "replicates",
}
CALLER_NAMES = ("predictor", "initial", "endpoint", "two_coin", "quadrature",
                "replicates", "other")

VERIFY_SUITES = ("lemma1", "two-coin-exactness", "prop2-queries",
                 "line-integral-identity")


class OracleRegistry:
    """Every ScoreOracle constructed while installed, for query totals."""

    def __init__(self):
        self.oracles = []
        self._cls = None
        self._init = None

    def install(self):
        from madm.targets import ScoreOracle

        original = ScoreOracle.__init__
        registry = self

        @functools.wraps(original)
        def __init__(oracle, *args, **kwargs):
            original(oracle, *args, **kwargs)
            registry.oracles.append(oracle)

        self._cls, self._init = ScoreOracle, original
        ScoreOracle.__init__ = __init__

    def uninstall(self):
        if self._cls is not None:
            self._cls.__init__ = self._init
            self._cls = None

    def clear(self):
        self.oracles.clear()

    def queries(self) -> int:
        return sum(o.queries for o in self.oracles)


class Tracer:
    """Span recorder and per-layer counters for one traced run."""

    def __init__(self, registry: OracleRegistry):
        self.registry = registry
        self.spans = []
        self.stack = []
        self.run_id = 0
        self.next_id = 1
        self.counts = defaultdict(float)
        self.c_values = []
        self.sweep = None
        self.rows_by_oracle = defaultdict(int)
        self.components = {}
        self._restore = []

    # -- installation -----------------------------------------------------------

    def install(self):
        import madm  # noqa: F401

        mods = {name: sys.modules[f"madm.{name}"] for name in MODULES
                if f"madm.{name}" in sys.modules}
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(short, ()):
                    continue
                self._replace(fn, self._wrap(f"{short}.{attr}", fn))
        score_cls = mods["targets"].ScoreOracle
        original = score_cls.score
        score_cls.score = self._wrap(SCORE, original)
        self._restore.append(lambda: setattr(score_cls, "score", original))

    def _replace(self, fn, wrapper):
        """Rebind every reference to ``fn`` in madm's module namespaces and
        their dict tables (by-name imports, ``verify.SUITES``)."""
        for mod in [m for m in list(sys.modules.values())
                    if getattr(m, "__name__", "").startswith("madm")]:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, name, wrapper)
                    self._restore.append(functools.partial(setattr, mod, name, fn))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is fn:
                            value[key] = wrapper
                            self._restore.append(
                                functools.partial(value.__setitem__, key, fn))

    def uninstall(self):
        while self._restore:
            self._restore.pop()()

    # -- spans ---------------------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        sig = inspect.signature(fn)
        pre, post = HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = pre(tracer, sig, args, kwargs) if pre is not None else None
            parent = tracer.stack[-1][0] if tracer.stack else 0
            sid = tracer.next_id
            tracer.next_id += 1
            tracer.stack.append((sid, name))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.spans.append((tracer.run_id, sid, parent, name, t0, t1))
            if post is not None:
                post(tracer, sig, args, kwargs, result, ctx, t1 - t0)
            return result

        return wrapper

    def job(self, fn, *args):
        """Run one job under a root span named ``bench.job``."""
        return self._wrap("bench.job", fn)(*args)

    def caller(self) -> str:
        """Why a score row is being evaluated: the innermost known span."""
        for _, name in reversed(self.stack):
            kind = CALLERS.get(name)
            if kind is not None:
                return kind
        return "other"

    # -- results ---------------------------------------------------------------------

    def unseen_queries(self) -> list[str]:
        """Oracles whose own query count differs from the rows their score
        spans saw (empty when every score call was traced)."""
        return [f"{o.name}: queries {o.queries} vs traced rows "
                f"{self.rows_by_oracle.get(id(o), 0)}"
                for o in self.registry.oracles
                if o.queries != self.rows_by_oracle.get(id(o), 0)]

    def write(self, path) -> None:
        """All spans as gzipped CSV, one line per span, start/end in seconds."""
        import gzip

        origin = min((s[4] for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as fh:
            fh.write("run,span,parent,name,start_s,end_s\n")
            for run, sid, parent, name, t0, t1 in self.spans:
                fh.write(f"{run},{sid},{parent},{name},{t0 - origin:.9f},"
                         f"{t1 - origin:.9f}\n")

    def span_table(self, rounds: int) -> dict:
        """Per span name and round: calls, busy seconds and self seconds."""
        child = defaultdict(float)
        for _, _, parent, _, t0, t1 in self.spans:
            child[parent] += t1 - t0
        table = defaultdict(lambda: [0.0, 0.0, 0.0])
        for _, sid, _, name, t0, t1 in self.spans:
            row = table[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[sid]
        return {name: {"calls": v[0] / rounds, "busy_s": v[1] / rounds,
                       "self_s": v[2] / rounds}
                for name, v in sorted(table.items())}

    def layer_metrics(self, rounds: int) -> dict:
        """The per-layer metrics, per round, as {name: (value, unit)}."""
        spans = self.span_table(rounds)
        c = {k: v / rounds for k, v in self.counts.items()}

        def sp(name, key):
            return spans.get(name, {}).get(key, 0.0)

        def ratio(a, b):
            return a / b if b else 0.0

        busy = c.get("score.busy", 0.0)
        out = {
            "targets.score.calls": (c.get("score.calls", 0.0), "count"),
            "targets.score.rows": (c.get("score.rows", 0.0), "count"),
            "targets.score.busy_s": (busy, "s"),
            "targets.score.rows_per_s": (ratio(c.get("score.rows", 0.0), busy), "1/s"),
            "targets.score.pair_evals_per_s": (ratio(c.get("score.pairs", 0.0), busy), "1/s"),
            "targets.score.mean_rows_per_call": (
                ratio(c.get("score.rows", 0.0), c.get("score.calls", 0.0)), "count"),
        }
        for who in CALLER_NAMES:
            out[f"targets.score.rows.{who}"] = (c.get(f"score.rows.{who}", 0.0), "count")
            out[f"targets.score.busy_s.{who}"] = (c.get(f"score.busy.{who}", 0.0), "s")
        sweep, tc = "engine.corrector_sweep", "engine._two_coin_rounds"
        cvals = (np.concatenate(self.c_values) if self.c_values
                 else np.zeros(1))
        out.update({
            "engine.sweep.calls": (sp(sweep, "calls"), "count"),
            "engine.sweep.busy_s": (sp(sweep, "busy_s"), "s"),
            "engine.sweep.self_s": (sp(sweep, "self_s"), "s"),
            "engine.two_coin.rows": (c.get("two_coin.rows", 0.0), "count"),
            "engine.two_coin.busy_s": (sp(tc, "busy_s"), "s"),
            "engine.two_coin.self_s": (sp(tc, "self_s"), "s"),
            "engine.two_coin.iterations": (c.get("two_coin.iterations", 0.0), "count"),
            "engine.two_coin.max_iterations": (
                self.counts.get("two_coin.max_iterations", 0.0), "count"),
            "engine.two_coin.chain_rounds": (c.get("two_coin.chain_rounds", 0.0), "count"),
            "engine.two_coin.decisions_per_round": (
                ratio(c.get("two_coin.decided", 0.0), c.get("two_coin.chain_rounds", 0.0)), "ratio"),
            "engine.hybrid.exact_share": (
                ratio(c.get("hybrid.exact", 0.0), c.get("hybrid.proposals", 0.0)), "ratio"),
            "engine.hybrid.capped_rows": (c.get("hybrid.capped", 0.0), "count"),
            "engine.hybrid.budget_rows": (c.get("hybrid.budget", 0.0), "count"),
            "engine.quadrature.rows": (c.get("quadrature.rows", 0.0), "count"),
            "engine.quadrature.busy_s": (sp("engine._quadrature_log_ratio_batch", "busy_s"), "s"),
            "engine.bound.busy_s": (sp("engine.bound_c_batch", "busy_s"), "s"),
            "engine.bound.c_p50": (float(np.quantile(cvals, 0.5)), "nat"),
            "engine.bound.c_p90": (float(np.quantile(cvals, 0.9)), "nat"),
            "sampler.predictor.calls": (sp("sampler._predictor_step", "calls"), "count"),
            "sampler.predictor.busy_s": (sp("sampler._predictor_step", "busy_s"), "s"),
            "sampler.predictor.self_s": (sp("sampler._predictor_step", "self_s"), "s"),
            "sampler.bookkeeping_s": (
                sp("sampler.run_pc", "busy_s") - sp("sampler._predictor_step", "busy_s")
                - c.get("score.busy.initial", 0.0) - sp(sweep, "busy_s"), "s"),
            "adjust_exact.replicates.decisions": (c.get("replicates.decisions", 0.0), "count"),
            "adjust_exact.replicates.iterations": (c.get("replicates.iterations", 0.0), "count"),
            "adjust_exact.replicates.busy_s": (
                sp("adjust_exact.two_coin_replicates", "busy_s"), "s"),
            "adjust_exact.w_replicates.draws": (c.get("w_replicates.draws", 0.0), "count"),
            "adjust_exact.w_replicates.busy_s": (
                sp("adjust_exact.poisson_w_replicates", "busy_s"), "s"),
            "adjust_quadrature.log_ratio.calls": (
                sp("adjust_quadrature.quadrature_log_ratio", "calls"), "count"),
            "adjust_quadrature.log_ratio.busy_s": (
                sp("adjust_quadrature.quadrature_log_ratio", "busy_s"), "s"),
        })
        for suite in VERIFY_SUITES:
            fn = "verify.suite_" + suite.replace("-", "_")
            out[f"verify.{suite}.busy_s"] = (sp(fn, "busy_s"), "s")
        out["trace.spans"] = (len(self.spans) / rounds, "count")
        return out


# -- per-call hooks: (tracer, signature, args, kwargs[, result, ctx, seconds]) ----

def _pre_score(tr, sig, args, kwargs):
    return tr.caller()


def _post_score(tr, sig, args, kwargs, result, caller, dt):
    oracle, x = args[0], np.asarray(args[1])
    rows = 1 if x.ndim == 1 else x.shape[0]
    c = tr.counts
    c["score.calls"] += 1
    c["score.rows"] += rows
    c["score.busy"] += dt
    c["score.pairs"] += rows * tr.components.get(id(oracle), 1)
    c[f"score.rows.{caller}"] += rows
    c[f"score.busy.{caller}"] += dt
    tr.rows_by_oracle[id(oracle)] += rows


def _post_oracle(tr, sig, args, kwargs, result, ctx, dt):
    data = sig.bind(*args, **kwargs).arguments["data"]
    tr.components[id(result)] = len(data)


def _pre_sweep(tr, sig, args, kwargs):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    tr.sweep = (bound.arguments["kind"], bound.arguments["poisson_cap"])
    return tr.sweep


def _post_sweep(tr, sig, args, kwargs, result, ctx, dt):
    if ctx[0] == "hybrid":
        tr.counts["hybrid.proposals"] += np.shape(args[0])[0]
    tr.sweep = None


def _post_bound(tr, sig, args, kwargs, result, ctx, dt):
    tr.c_values.append(np.asarray(result, dtype=float))
    if tr.sweep is not None and tr.sweep[0] == "hybrid":
        tr.counts["hybrid.capped"] += int(np.sum(2.0 * result > tr.sweep[1]))


def _post_two_coin(tr, sig, args, kwargs, result, ctx, dt):
    _, rounds, _, still = result
    n = rounds.size
    c = tr.counts
    c["two_coin.rows"] += n
    if n:
        top = int(rounds.max())
        c["two_coin.iterations"] += top
        c["two_coin.max_iterations"] = max(c["two_coin.max_iterations"], top)
    c["two_coin.chain_rounds"] += int(rounds.sum())
    c["two_coin.decided"] += n - still.size
    if tr.sweep is not None and tr.sweep[0] == "hybrid":
        c["hybrid.exact"] += n - still.size
        c["hybrid.budget"] += still.size


def _post_quadrature(tr, sig, args, kwargs, result, ctx, dt):
    tr.counts["quadrature.rows"] += np.shape(result)[0]


def _post_replicates(tr, sig, args, kwargs, result, ctx, dt):
    tr.counts["replicates.decisions"] += result["rounds"].size
    tr.counts["replicates.iterations"] += int(result["rounds"].max())


def _post_w_replicates(tr, sig, args, kwargs, result, ctx, dt):
    tr.counts["w_replicates.draws"] += np.shape(result)[0]


HOOKS = {
    SCORE: (_pre_score, _post_score),
    "targets.diffused_empirical_oracle": (None, _post_oracle),
    "engine.corrector_sweep": (_pre_sweep, _post_sweep),
    "engine.bound_c_batch": (None, _post_bound),
    "engine._two_coin_rounds": (None, _post_two_coin),
    "engine._quadrature_log_ratio_batch": (None, _post_quadrature),
    "adjust_exact.two_coin_replicates": (None, _post_replicates),
    "adjust_exact.poisson_w_replicates": (None, _post_w_replicates),
}
