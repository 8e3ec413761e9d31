"""The record writer of scripts/bench_pairs.py, on canned run.py output (no
benchmark run is started)."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ENV = {"git_sha": "abc", "nproc": 2, "python": "3.11.7"}


def _proc(run_s, correct=True, returncode=0, stderr="", **metrics):
    values = {"run_s": run_s, "score_rows": 2004000.0, **metrics}
    result = {"correct": correct, "attempted": 40, "failed": 0,
              "metrics": {k: {"value": v, "unit": "-"}
                          for k, v in values.items()}}
    stdout = ("perfbench: some progress\n" + json.dumps({"environment": ENV})
              + "\n" + json.dumps(result) + "\n")
    return SimpleNamespace(stdout=stdout, stderr=stderr, returncode=returncode)


def _pair(bp, pair, parent_s, change_s, **change_kw):
    order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
    procs = {"parent": _proc(parent_s), "change": _proc(change_s, **change_kw)}
    return [bp.run_record(side, f"sha-{side}", "gaussian-two-coin", 13, pair,
                          procs[side]) for side in order]


def test_records_append_in_run_order_with_their_lines(tmp_path):
    bp = _bench_pairs()
    path = tmp_path / "BENCH_x.json"
    bp.append_runs(path, "x", _pair(bp, 0, 1.0, 0.8))
    record = bp.append_runs(path, "x", _pair(bp, 1, 1.1, 0.9))
    assert set(record) == {"description", "command", "order", "runs"}
    assert record["command"].endswith("--seconds 35 --trace 0")
    assert json.loads(path.read_text()) == record
    runs = record["runs"]
    assert [(r["pair"], r["side"]) for r in runs] == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent")]
    assert set(runs[0]) == {"side", "commit", "workload", "seed", "pair",
                            "environment", "result"}
    assert runs[0]["environment"] == ENV
    assert runs[1]["result"]["metrics"]["run_s"]["value"] == 0.8
    assert runs[1]["commit"] == "sha-change"
    assert bp.next_pair(record, "gaussian-two-coin", 13) == 2
    assert bp.next_pair(record, "verify-exact", 13) == 0


def test_summary_gives_medians_quartiles_and_wins():
    bp = _bench_pairs()
    runs = (_pair(bp, 0, 1.0, 0.8) + _pair(bp, 1, 1.2, 0.9)
            + _pair(bp, 2, 1.1, 1.3) + _pair(bp, 3, 1.3, 1.0))
    stats = bp.summary(runs)
    assert stats["pairs"] == 4 and stats["change_won"] == 3
    assert stats["parent"]["median"] == 1.15
    assert stats["change"]["median"] == 0.95
    assert (stats["parent"]["q1"], stats["parent"]["q3"]) == pytest.approx(
        (1.075, 1.225))


def test_a_failed_run_keeps_its_stderr_and_loses_its_pair():
    bp = _bench_pairs()
    runs = _pair(bp, 0, 1.0, 0.5, returncode=1, stderr="Traceback: boom")
    change = next(r for r in runs if r["side"] == "change")
    assert change["stderr"] == "Traceback: boom"
    crashed = bp.run_record("change", "sha", "gaussian-two-coin", 13, 1,
                            SimpleNamespace(stdout="", stderr="killed",
                                            returncode=-9))
    assert crashed["result"] is None and crashed["stderr"] == "killed"
    wrong = _pair(bp, 2, 1.0, 0.5, correct=False)
    stats = bp.summary(runs + [crashed] + wrong)
    assert stats["change_won"] == 0
    assert stats["change"]["runs"] == 0 and stats["parent"]["runs"] == 2


def test_end_to_end_metrics_come_from_the_benchmark_declaration():
    bp = _bench_pairs()
    names = [m["name"] for m in bp.end_to_end()]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert names == [m["name"] for m in declared]
    assert {"run_s", "setup_s", "decisions_per_s", "score_rows",
            "peak_rss_mb"} <= set(names)


METRICS = [{"name": "run_s", "better": "lower", "bound": 0.25},
           {"name": "decisions_per_s", "better": "higher", "bound": 0.25},
           {"name": "score_rows", "better": "lower", "bound": 0.1},
           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def test_bound_check_flags_the_metrics_worse_than_their_bound():
    # run_s 1.0 -> 1.3 is 30% slower (bound 25%); decisions_per_s falls 20%
    # (bound 25%); score_rows rises 5% (bound 10%); no run reports
    # peak_rss_mb; a failed change run counts for neither side
    bp = _bench_pairs()
    runs = []
    for pair, (p_s, c_s) in enumerate([(1.0, 1.3), (1.1, 1.4), (0.9, 1.2)]):
        procs = {"parent": _proc(p_s, decisions_per_s=100.0),
                 "change": _proc(c_s, decisions_per_s=80.0,
                                 score_rows=2004000.0 * 1.05)}
        runs += [bp.run_record(side, "sha", "w", 1, pair, procs[side])
                 for side in bp.SIDES]
    runs.append(bp.run_record("change", "sha", "w", 1, 3,
                              _proc(9.0, returncode=1, stderr="boom")))
    rows = {row["name"]: row for row in bp.bound_check(runs, METRICS)}
    assert (rows["run_s"]["parent"], rows["run_s"]["change"]) == (1.0, 1.3)
    assert rows["run_s"]["worse"] is True
    assert rows["decisions_per_s"]["worse"] is False
    assert rows["score_rows"]["worse"] is False
    assert rows["score_rows"]["change"] == pytest.approx(2104200.0)
    assert rows["peak_rss_mb"] == {"name": "peak_rss_mb", "parent": None,
                                   "change": None, "bound": 0.1,
                                   "worse": None}
    # a throughput drop past its bound is worse too
    fell = [bp.run_record(side, "sha", "w", 1, 0,
                          _proc(1.0, decisions_per_s=rate))
            for side, rate in zip(bp.SIDES, (100.0, 70.0))]
    assert bp.bound_check(fell, METRICS[1:2])[0]["worse"] is True


def test_main_prints_every_declared_metric_and_its_flag(tmp_path, monkeypatch,
                                                         capsys):
    # canned run.py output per checkout: the change is slower than the bound
    # allows on run_s and alike on every other metric; git is unavailable
    bp = _bench_pairs()
    monkeypatch.setattr(bp, "ROOT", tmp_path)
    canned = {"parent": dict(run_s=1.0, setup_s=0.7, decisions_per_s=2e6,
                             peak_rss_mb=69.0),
              "change": dict(run_s=1.5, setup_s=0.7, decisions_per_s=2e6,
                             peak_rss_mb=69.0)}

    def fake_run(cmd, cwd=None, **kw):
        if cmd[0] == "git":
            return SimpleNamespace(returncode=128, stdout="", stderr="")
        return _proc(**canned[Path(cwd).name])

    monkeypatch.setattr(bp.subprocess, "run", fake_run)
    assert bp.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                    "--workload", "gaussian-two-coin", "--seed", "5",
                    "--pairs", "2", "--label", "canned"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "change faster in 0 of 2 pairs" in lines
    assert ("run_s: parent 1.0, change 1.5 (bound 0.25)  WORSE than the "
            "bound") in lines
    for name in ("setup_s", "decisions_per_s", "score_rows", "peak_rss_mb"):
        line = next(l for l in lines if l.startswith(name + ":"))
        assert "WORSE" not in line
    record = json.loads((tmp_path / "BENCH_canned.json").read_text())
    assert len(record["runs"]) == 4
