#!/usr/bin/env python3
"""Alternate benchmark runs between two checkouts and keep them in a record.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --seed S --pairs N --label L

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds 35
--trace 0`` once in each checkout, the parent first in even pairs and the
change first in odd ones.  After every pair both runs are appended, in run
order, to ``BENCH_<L>.json`` at the root of this repository (created if
missing); pairs number on from the record's last pair for W and S.  At the
end it prints each side's run_s median and quartiles, how many pairs the
change won, and each side's median of every end-to-end metric that
``BENCHMARK.json`` declares, flagging the metrics on which the change's
median is worse than the parent's by more than the declared bound (a
fraction of the parent's median).  A run that fails is kept with its
standard error and counts as lost.  The checkouts' ``perfbench/`` and this
repository's ``BENCHMARK.json`` are only read, never written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 35
SIDES = ("parent", "change")


def command(workload: str, seed: int) -> list[str]:
    return ["python3", "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]


def commit(checkout: Path) -> str:
    """The checkout's HEAD, marked when its tree has uncommitted changes."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True)
    head = git("rev-parse", "HEAD")
    if head.returncode:
        return "unavailable (not a git checkout)"
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + (" + uncommitted changes" if dirty else "")


def parse_output(stdout: str) -> tuple[dict, dict]:
    """(environment, result) from the last two lines run.py prints."""
    env_line, result_line = stdout.strip().splitlines()[-2:]
    return json.loads(env_line)["environment"], json.loads(result_line)


def run_record(side, sha, workload, seed, pair, proc) -> dict:
    """One run's record from its finished process."""
    record = {"side": side, "commit": sha, "workload": workload,
              "seed": seed, "pair": pair}
    try:
        record["environment"], record["result"] = parse_output(proc.stdout)
    except (ValueError, KeyError):
        record.update(environment=None, result=None)
    if proc.returncode or record["result"] is None:
        record["stderr"] = proc.stderr[-4000:]
    return record


def load(path: Path, label: str) -> dict:
    if path.exists():
        return json.loads(path.read_text())
    return {
        "description": "End-to-end benchmark runs of a parent commit and of "
                       f"a change ({label}), alternating within each pair. "
                       "Each record holds the environment line and the "
                       "result line that perfbench/run.py printed.",
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {SECONDS} --trace 0",
        "order": "pairs alternate which side runs first (the parent first "
                 "in even pairs); records are in run order",
        "runs": [],
    }


def append_runs(path: Path, label: str, runs: list[dict]) -> dict:
    """Append ``runs`` to the record at ``path`` and write it back."""
    record = load(path, label)
    record["runs"].extend(runs)
    path.write_text(json.dumps(record, indent=1) + "\n")
    return record


def next_pair(record: dict, workload: str, seed: int) -> int:
    pairs = [r["pair"] for r in record["runs"]
             if (r["workload"], r["seed"]) == (workload, seed)]
    return max(pairs) + 1 if pairs else 0


def metric(run: dict, name: str):
    """The run's value of metric ``name``, or None for a failed or incorrect
    run or a metric it does not report."""
    result = run.get("result")
    if ("stderr" in run or not result or not result.get("correct")
            or result.get("failed") or name not in result["metrics"]):
        return None
    return result["metrics"][name]["value"]


def run_s(run: dict):
    """The run's run_s, or None for a failed or incorrect run."""
    return metric(run, "run_s")


def end_to_end(path: Path = ROOT / "BENCHMARK.json") -> list[dict]:
    """The end-to-end metrics the benchmark declares: name, better, bound."""
    return json.loads(path.read_text())["end_to_end"]


def bound_check(runs: list[dict], metrics: list[dict]) -> list[dict]:
    """Per declared metric: each side's median over its good runs, and
    ``worse`` when the change's median is worse than the parent's by more
    than ``bound`` times the parent's median (None when a side has none)."""
    out = []
    for m in metrics:
        med = {}
        for side in SIDES:
            values = [v for r in runs if r["side"] == side
                      for v in [metric(r, m["name"])] if v is not None]
            med[side] = statistics.median(values) if values else None
        parent, change = med["parent"], med["change"]
        worse = None
        if parent is not None and change is not None:
            gap = change - parent if m["better"] == "lower" else parent - change
            worse = gap > m["bound"] * abs(parent)
        out.append({"name": m["name"], "parent": parent, "change": change,
                    "bound": m["bound"], "worse": worse})
    return out


def summary(runs: list[dict]) -> dict:
    """Per side: run_s median and quartiles over its good runs; and the pairs
    in which the change had a good run faster than the parent's."""
    out, by_pair = {}, {}
    for side in SIDES:
        values = [v for r in runs if r["side"] == side
                  for v in [run_s(r)] if v is not None]
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        else:
            q1 = q3 = values[0] if values else None
        out[side] = {"runs": len(values), "q1": q1, "q3": q3,
                     "median": statistics.median(values) if values else None}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = run_s(r)
    out["pairs"] = len(by_pair)
    out["change_won"] = sum(
        1 for p in by_pair.values() if p.get("change") is not None
        and (p.get("parent") is None or p["change"] < p["parent"]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    path = ROOT / f"BENCH_{args.label}.json"
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    shas = {side: commit(d) for side, d in dirs.items()}
    first = next_pair(load(path, args.label), args.workload, args.seed)
    mine = []
    for pair in range(first, first + args.pairs):
        runs = []
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            proc = subprocess.run(command(args.workload, args.seed),
                                  cwd=dirs[side], capture_output=True,
                                  text=True)
            runs.append(run_record(side, shas[side], args.workload,
                                   args.seed, pair, proc))
            if "stderr" in runs[-1]:
                print(f"pair {pair} {side} failed:\n{runs[-1]['stderr']}",
                      file=sys.stderr)
            print(f"pair {pair} {side}: run_s {run_s(runs[-1])}", flush=True)
        append_runs(path, args.label, runs)
        mine += runs
    stats = summary(mine)
    for side in SIDES:
        s = stats[side]
        print(f"{side}: run_s median {s['median']} (q1 {s['q1']}, q3 {s['q3']}) "
              f"over {s['runs']} good runs")
    print(f"change faster in {stats['change_won']} of {stats['pairs']} pairs")
    for row in bound_check(mine, end_to_end()):
        flag = {True: "  WORSE than the bound", None: "  (no good runs)"}.get(
            row["worse"], "")
        print(f"{row['name']}: parent {row['parent']}, change {row['change']} "
              f"(bound {row['bound']}){flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
