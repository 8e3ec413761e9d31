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


def _proc(run_s, correct=True, returncode=0, stderr=""):
    result = {"correct": correct, "attempted": 40, "failed": 0,
              "metrics": {"run_s": {"value": run_s, "unit": "s"},
                          "score_rows": {"value": 2004000.0,
                                         "unit": "count"}}}
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
