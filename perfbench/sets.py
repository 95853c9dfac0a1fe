#!/usr/bin/env python3
"""Run sets of benchmark runs and report their spread.

    python3 perfbench/sets.py run A --runs 10 --first-seed 100
    python3 perfbench/sets.py run B --runs 10 --first-seed 200
    python3 perfbench/sets.py report A B

``run`` makes ``--runs`` runs of every workload (or of ``--workload``), each
with its own seed, and appends one JSON line per run to
``perfbench/results/sets/<label>.jsonl``. ``report`` prints, per set,
workload and end-to-end metric, the median, the quartiles and the spread
(quartile distance over median) as Python's ``statistics.quantiles(n=4)``
gives them, then, for two sets, the shift of the second median against the
first and whether both stay within the metric's bound. ``setup_s`` is held
only to the shift, not to the spread.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = HERE / "results" / "sets"


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_set(label, runs, first_seed, workloads, seconds):
    SETS.mkdir(parents=True, exist_ok=True)
    path = SETS / f"{label}.jsonl"
    for name in workloads:
        for seed in range(first_seed, first_seed + runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"run failed: {' '.join(cmd)}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with path.open("a") as handle:
                handle.write(json.dumps({"workload": name, "seed": seed, "result": result}) + "\n")
            print(f"{label} {name} seed {seed}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}", flush=True)


def load_set(label):
    rows = {}
    for line in (SETS / f"{label}.jsonl").read_text().splitlines():
        entry = json.loads(line)
        rows.setdefault(entry["workload"], []).append(entry["result"])
    return rows


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def report(labels):
    spec = load_spec()
    sets = [load_set(label) for label in labels]
    ok = True
    print(f"{'set':<4} {'workload':<11} {'metric':<12} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} "
          f"{'bound':>6} {'runs':>4} {'failed/attempted':>17}")
    for workload in [w["name"] for w in spec["workloads"]]:
        medians = {}
        for label, rows in zip(labels, sets):
            results = rows.get(workload, [])
            if not results:
                continue
            failed = sum(r["failed"] for r in results)
            shares = f"{failed}/{sum(r['attempted'] for r in results)}"
            all_correct = all(r["correct"] for r in results)
            ok &= all_correct and failed == 0
            for metric in spec["end_to_end"]:
                values = [r["metrics"][metric["name"]]["value"] for r in results]
                med, q1, q3, spread = summary(values)
                medians.setdefault(metric["name"], []).append(med)
                flag = "" if metric["name"] == "setup_s" or spread <= metric["bound"] else "  SPREAD OVER BOUND"
                ok &= not flag
                print(f"{label:<4} {workload:<11} {metric['name']:<12} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                      f"{spread:>7.3f} {metric['bound']:>6} {len(values):>4} {shares:>17}{flag}"
                      + ("" if all_correct else "  INCORRECT"))
        if len(labels) == 2:
            for metric in spec["end_to_end"]:
                pair = medians.get(metric["name"], [])
                if len(pair) != 2:
                    continue
                first, second = pair
                worse = (second - first) / first if metric["better"] == "lower" else (first - second) / first
                flag = "" if worse <= metric["bound"] else "  SHIFT OVER BOUND"
                ok &= not flag
                print(f"     {workload:<11} {metric['name']:<12} second median worse by {worse:+.3f} "
                      f"(bound {metric['bound']}){flag}")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="make a set of runs")
    p_run.add_argument("label")
    p_run.add_argument("--runs", type=int, default=10)
    p_run.add_argument("--first-seed", type=int, default=0)
    p_run.add_argument("--workload", action="append", help="only this workload (repeatable)")
    p_run.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    p_report = sub.add_parser("report", help="summarize one or two sets")
    p_report.add_argument("labels", nargs="+")
    args = parser.parse_args(argv)
    if args.command == "run":
        spec = load_spec()
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        run_set(args.label, args.runs, args.first_seed, workloads, args.seconds or spec["run_seconds"])
        return 0
    return 0 if report(args.labels) else 1


if __name__ == "__main__":
    sys.exit(main())
