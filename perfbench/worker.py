"""One workload process: set up, run the timed phase, check the outputs.

Started by ``run.py`` with the BLAS and OpenMP pools pinned to one thread.
Modes:

* ``setup``: set up (import, build inputs, one warm-up pass), report
  ``setup_s`` and exit.
* ``measure``: set up, then run whole passes over the problem set until
  ``--seconds`` have passed, timing each operation on its own; then check
  the outputs of the last pass.
* ``trace``: set up, run an untraced and a traced half of ``--seconds``,
  and report per-layer metrics per operation of the traced half.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (imports numpy, which counts as set-up)

#: bare ``import ellipsum.cli`` processes timed for ``cli.import_ms``
IMPORT_SAMPLES = 5


def monotonic():
    """System-wide monotonic clock, comparable with the parent's reading."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def make_workload(name, in_process):
    if name == "fold_small":
        return workloads.FoldSmall()
    if name == "pair_large":
        return workloads.PairLarge()
    if name == "reach_tube":
        return workloads.ReachTube()
    if name == "cli_check":
        workdir = RESULTS / f"work-{os.getpid()}"
        return workloads.CliCheck(str(workdir), in_process=in_process)
    raise SystemExit(f"unknown workload {name!r}")


def import_program():
    import ellipsum

    origin = Path(ellipsum.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"ellipsum was imported from {origin}, not from {SRC}")


def run_once(op):
    """Call one operation; return (output, failed). A raised exception is a
    failed operation: it is reported on stderr and the run goes on."""
    try:
        output = op()
    except Exception:  # any error the program raises fails this operation only
        traceback.print_exc(file=sys.stderr)
        return None, True
    return output, False


def timed_passes(ops, seconds):
    """Whole passes over ``ops`` until ``seconds`` have passed.

    Returns per-operation wall times, the number of failed operations, the
    outputs of the last pass (None where an operation failed) and the
    elapsed time of the phase.
    """
    clock = time.perf_counter
    samples, failed = [], 0
    start = clock()
    while True:
        outputs = []
        for op in ops:
            t = clock()
            output, bad = run_once(op)
            samples.append(clock() - t)
            failed += bad
            outputs.append(None if bad else output)
        if clock() - start >= seconds:
            return samples, failed, outputs, clock() - start


def percentile_ms(samples, q):
    return 1e3 * statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def setup(args, in_process):
    workload = make_workload(args.workload, in_process)
    gen_start = monotonic()
    raw = workload.generate(args.seed)
    gen_s = monotonic() - gen_start
    if in_process or args.workload != "cli_check":
        import_program()
    ops = workload.build(raw)
    for op in ops:
        run_once(op)
    setup_s = monotonic() - args.t0 - gen_s
    return workload, raw, ops, setup_s


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(args):
    workload, raw, ops, setup_s = setup(args, in_process=False)
    samples, failed, outputs, elapsed = timed_passes(ops, args.seconds)
    rss = peak_rss_mb(children=args.workload == "cli_check")
    failures = workload.check(raw, outputs)
    attempted = len(samples)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": (attempted - failed) / elapsed,
        "op_p50_ms": percentile_ms(samples, 50),
        "op_p90_ms": percentile_ms(samples, 90),
        "peak_rss_mb": rss,
    }
    raw_out = {"samples_ms": [1e3 * s for s in samples], "elapsed_s": elapsed, "failures": failures}
    return {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}, raw_out


def import_ms():
    argv = [sys.executable, "-c", "import ellipsum.cli"]
    times = []
    for _ in range(IMPORT_SAMPLES):
        t = time.perf_counter()
        subprocess.run(argv, check=True, timeout=60)
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


def trace(args):
    from tracing import OP, Tracer

    workload, raw, ops, _ = setup(args, in_process=True)
    plain, _, _, _ = timed_passes(ops, 0.5 * args.seconds)
    tracer = Tracer()
    wrapped = tracer.install()
    traced_ops = [tracer.wrap(OP, op) for op in ops]
    samples, failed, outputs, _ = timed_passes(traced_ops, 0.5 * args.seconds)
    failures = workload.check(raw, outputs)
    ops_count = len(samples)
    per_op = {}
    for name, (calls, seconds) in tracer.self_times().items():
        per_op[f"{name}.calls"] = calls / ops_count
        per_op[f"{name}.self_ms"] = 1e3 * seconds / ops_count
    layer = {key: value for key, value in per_op.items() if not key.startswith(f"{OP}.")}
    layer["mvoe.root.iterations"] = tracer.root_iterations / ops_count
    layer["cli.import_ms"] = import_ms()
    layer["cli.other_ms"] = per_op[f"{OP}.self_ms"] if args.workload == "cli_check" else 0.0
    layer["trace.overhead_ms"] = percentile_ms(samples, 50) - percentile_ms(plain, 50)
    RESULTS.mkdir(exist_ok=True)
    tracer.write(
        RESULTS / f"trace-{args.workload}-seed{args.seed}-{os.getpid()}.npz",
        json.dumps({"workload": args.workload, "seed": args.seed, "wrapped": wrapped, "ops": ops_count}),
    )
    print("wrapped: " + ", ".join(wrapped), file=sys.stderr)
    result = {"correct": not failures, "attempted": ops_count, "failed": failed, "per_layer": layer}
    return result, {"wrapped": wrapped, "failures": failures, "plain_samples_ms": [1e3 * s for s in plain],
                    "traced_samples_ms": [1e3 * s for s in samples]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True, help="CLOCK_MONOTONIC reading taken just before this process was started")
    args = parser.parse_args(argv)
    try:
        if args.mode == "setup":
            result, raw_out = {"setup_s": setup(args, in_process=False)[3]}, None
        elif args.mode == "measure":
            result, raw_out = measure(args)
        else:
            result, raw_out = trace(args)
    finally:
        shutil.rmtree(RESULTS / f"work-{os.getpid()}", ignore_errors=True)
    if raw_out is not None:
        RESULTS.mkdir(exist_ok=True)
        threads = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
        raw_out.update(result=result, threads=threads)
        path = RESULTS / f"{args.mode}-{args.workload}-seed{args.seed}-{os.getpid()}.json"
        path.write_text(json.dumps(raw_out) + "\n")
        for failure in raw_out["failures"][:20]:
            print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
