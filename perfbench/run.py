#!/usr/bin/env python3
"""Benchmark of ellipsum: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload fold_small --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py                   # every workload, one after another

Each workload runs in fresh worker processes (``worker.py``) with every
BLAS and OpenMP pool pinned to one thread. With ``--trace 0`` a run sets the
workload up several times in separate processes (``setup_s`` is their
median), then measures it for ``--seconds`` and checks its outputs. With
``--trace 1`` one worker reports the per-layer metrics instead. The program
is imported from ``src/`` next to this directory and from nowhere else.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Raw samples and
trace spans are written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: One thread per pool: with OpenBLAS at its default thread count a d = 50
#: pair solve took 17 ms of wall time for 8 ms of CPU time; pinned, 2.2 ms.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: set-ups per measured run (odd); ``setup_s`` is their median
SETUP_SAMPLES = 5

#: a run must end within this many seconds
RUN_DEADLINE_S = 170.0


class WorkerFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(mode, args, deadline):
    """Run one worker to its end and return its JSON result."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--t0", repr(t0)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed(f"{mode} worker for {args.workload} ran past the deadline") from None
    finally:
        if proc.poll() is None:  # interrupted: take the whole process group down
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker for {args.workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, spec):
    deadline = time.monotonic() + RUN_DEADLINE_S
    if args.trace:
        result = spawn("trace", args, deadline)
        wanted = spec["per_layer"]
        values = result["per_layer"]
    else:
        # set-ups before and after the measured one, so that their median
        # spans the whole run rather than one moment of the host's load
        setups = [spawn("setup", args, deadline)["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
        result = spawn("measure", args, deadline)
        setups += [result["metrics"]["setup_s"]]
        setups += [spawn("setup", args, deadline)["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
        values = dict(result["metrics"], setup_s=statistics.median(setups))
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise WorkerFailed(f"{args.workload} did not report {', '.join(missing)}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    extra = {name: value for name, value in values.items() if name not in metrics}
    return {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}, extra


def describe(name, result, extra):
    lines = [f"{name}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}"]
    for metric, entry in result["metrics"].items():
        lines.append(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    for metric, value in extra.items():
        lines.append(f"  ({metric} = {value:.6g}: measured, not in BENCHMARK.json)")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the problem sets (default 0)")
    parser.add_argument("--seconds", type=float, default=None, help="timed phase (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 reports per-layer metrics")
    args = parser.parse_args(argv)

    if not (SRC / "ellipsum" / "__init__.py").is_file():
        print(f"perfbench: no ellipsum sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(names)}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    print("threads pinned: " + " ".join(f"{var}=1" for var in THREAD_VARS))

    results = {}
    try:
        for name in [args.workload] if args.workload else names:
            args.workload = name
            results[name], extra = run_workload(args, spec)
            print(describe(name, results[name], extra), flush=True)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[name] if len(results) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
