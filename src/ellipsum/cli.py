"""Command-line front end.

Subcommands: ``sum`` (outer ellipsoid of a Minkowski sum), ``reach``
(forward/backward tube propagation), ``boundary`` (CSV boundary points for
plotting) and ``check`` (run the verification oracles). Inputs are JSON
problem files; each output file is written atomically (temp file + rename,
the temp file removed on failure), so a failed write leaves no partial
file. Exit codes: 0 ok, 1 check failed, 2 parse error (including invalid
flags and non-finite scenario values), 3 numeric/solver error or failed
write, 4 singular state matrix (either mode), 5 unsupported dimension.
Commands return 0 or 1 and raise otherwise; only ``main`` maps errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time

import numpy as np

from .ellipsoid import Ellipsoid
from .errors import EllipsumError, SingularMap, UnsupportedDimension
from .mvoe import METHODS, SolverOptions, mvoe_sum, q_of_beta
from .oracles import containment_check, pair_step_checks
from .reach import DEFAULT_EPS, LtiStage, propagate_backward, propagate_forward

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_SINGULAR = 4
EXIT_UNSUPPORTED_DIM = 5


class ProblemFormatError(Exception):
    """Invalid problem file (bad JSON, schema violation, inconsistent dims)."""


def _fail(message: str, code: int) -> int:
    print(f"ellipsum: {message}", file=sys.stderr)
    return code


def _write_text_atomic(path: str, text: str):
    """Write ``text`` to a temp file beside ``path`` and rename it over
    ``path``; on any failure the temp file is removed and the error re-raised."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_json_atomic(path: str, payload: dict):
    """Write ``payload`` as strict JSON: a non-finite float raises
    EllipsumError, and is never written as NaN or Infinity."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise EllipsumError(f"result has a non-finite value: {exc}") from exc
    _write_text_atomic(path, text + "\n")


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def _report_dict(report) -> dict:
    out = report.to_dict()
    out["worst_violation"] = _finite_or_none(out["worst_violation"])
    return out


def _parse_ellipsoid(obj, where: str, dim: int | None = None) -> Ellipsoid:
    try:
        ell = Ellipsoid.from_dict(obj)
    except (ValueError, TypeError, EllipsumError) as exc:
        raise ProblemFormatError(f"{where}: {exc}") from exc
    if dim is not None and ell.dim != dim:
        raise ProblemFormatError(f"{where} has dim {ell.dim}, expected {dim}")
    return ell


def _parse_options(obj, overrides: argparse.Namespace) -> SolverOptions:
    """SolverOptions from the problem file's ``options`` and the flags, which
    win; a field that neither sets keeps the SolverOptions default."""
    obj = obj or {}
    if not isinstance(obj, dict):
        raise ProblemFormatError("'options' must be an object")
    fields = {key: obj[key] for key in ("method", "tolerance", "max_iterations") if key in obj}
    flags = {"method": overrides.method, "tolerance": overrides.tol, "max_iterations": overrides.max_iter}
    fields.update((key, value) for key, value in flags.items() if value is not None)
    if "method" in fields:
        fields["method"] = str(fields["method"]).replace("-", "_")
    try:
        return SolverOptions(**fields)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"invalid solver options: {exc}") from exc


def _json_number(value, where: str, positive: bool) -> float:
    """A problem-file number: a finite JSON number, never a bool or a
    string, that is positive, or nonnegative when ``positive`` is false."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer literal beyond the float range
            number = math.inf
        if math.isfinite(number) and (number > 0.0 if positive else number >= 0.0):
            return number
    kind = "positive" if positive else "nonnegative"
    raise ProblemFormatError(f"{where} must be a {kind} finite number, got {value!r}")


def _parse_stage(obj, index: int, dim: int) -> LtiStage:
    where = f"scenario.stages[{index}]"
    if not isinstance(obj, dict):
        raise ProblemFormatError(f"{where} must be an object")
    for key in ("F", "G", "input"):
        if key not in obj:
            raise ProblemFormatError(f"{where} is missing '{key}'")
    input_set = _parse_ellipsoid(obj["input"], f"{where}.input")
    try:
        stage = LtiStage(F=np.asarray(obj["F"], dtype=float), G=np.asarray(obj["G"], dtype=float), input_set=input_set)
    except (ValueError, TypeError, EllipsumError) as exc:
        raise ProblemFormatError(f"{where}: {exc}") from exc
    if stage.n != dim:
        raise ProblemFormatError(f"{where}: F is {stage.n}x{stage.n} but problem dimension is {dim}")
    return stage


def load_problem(path: str) -> dict:
    """Parse and validate a problem file into plain Python objects."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # also bytes that are not UTF-8 and integers past the digit limit
        raise ProblemFormatError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ProblemFormatError("problem file must be a JSON object")

    if "dimension" not in raw:
        raise ProblemFormatError("problem file is missing 'dimension'")
    dim = raw["dimension"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ProblemFormatError(f"'dimension' must be an integer, got {dim!r}")
    if dim < 1:
        raise ProblemFormatError("'dimension' must be at least 1")

    ellipsoid_objs = raw.get("ellipsoids")
    if ellipsoid_objs is None and "ellipsoid" in raw:
        ellipsoid_objs = [raw["ellipsoid"]]  # result files round-trip as inputs
    ellipsoids = []
    if ellipsoid_objs is not None:
        if not isinstance(ellipsoid_objs, list):
            raise ProblemFormatError("'ellipsoids' must be a list")
        ellipsoids = [_parse_ellipsoid(obj, f"ellipsoids[{k}]", dim) for k, obj in enumerate(ellipsoid_objs)]

    scenario = None
    if raw.get("scenario") is not None:
        sobj = raw["scenario"]
        if not isinstance(sobj, dict):
            raise ProblemFormatError("'scenario' must be an object")
        mode = sobj.get("mode")
        if mode not in ("forward", "backward"):
            raise ProblemFormatError("scenario.mode must be 'forward' or 'backward'")
        anchor_key = "initial" if mode == "forward" else "terminal"
        if anchor_key not in sobj:
            raise ProblemFormatError(f"scenario is missing '{anchor_key}' for {mode} mode")
        anchor = _parse_ellipsoid(sobj[anchor_key], f"scenario.{anchor_key}", dim)
        stage_objs = sobj.get("stages", [])
        if not isinstance(stage_objs, list):
            raise ProblemFormatError("scenario.stages must be a list")
        stages = [_parse_stage(obj, k, dim) for k, obj in enumerate(stage_objs)]
        eps = _json_number(sobj.get("eps", DEFAULT_EPS), "scenario.eps", positive=False)
        scenario = {"mode": mode, "anchor": anchor, "stages": stages, "eps": eps}

    claim = None
    if raw.get("claim") is not None:
        cobj = raw["claim"]
        if not isinstance(cobj, dict) or "ellipsoid" not in cobj:
            raise ProblemFormatError("'claim' must be an object with an 'ellipsoid'")
        claimed = _parse_ellipsoid(cobj["ellipsoid"], "claim.ellipsoid", dim)
        beta = cobj.get("beta")
        if beta is not None:
            beta = _json_number(beta, "claim.beta", positive=True)
            if len(ellipsoids) != 2:
                # a claimed beta is certified as one pair step
                raise ProblemFormatError(f"claim.beta needs K = 2 ellipsoids, got K = {len(ellipsoids)}")
        claim = {"ellipsoid": claimed, "beta": beta}

    if not ellipsoids and scenario is None:
        raise ProblemFormatError("problem file needs at least one ellipsoid or a scenario")

    return {
        "dimension": dim,
        "ellipsoids": ellipsoids,
        "options_raw": raw.get("options"),
        "scenario": scenario,
        "claim": claim,
    }


def _check_oracle_flags(args):
    """Reject --directions and --seed values the oracles cannot sample with."""
    if args.directions < 1:
        raise ProblemFormatError("--directions must be at least 1")
    if args.seed < 0:
        raise ProblemFormatError("--seed must be nonnegative")


def _timed(args, label: str, fn):
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    if args.time:
        print(f"ellipsum: {label} took {elapsed:.6f} s", file=sys.stderr)
    return result


def cmd_sum(args) -> int:
    _check_oracle_flags(args)
    problem = load_problem(args.input)
    opts = _parse_options(problem["options_raw"], args)
    if not problem["ellipsoids"]:
        raise ProblemFormatError("'sum' needs at least one ellipsoid")
    result, betas = _timed(args, "sum", lambda: mvoe_sum(problem["ellipsoids"], opts))
    payload = {
        "version": "1",
        "command": "sum",
        "dimension": problem["dimension"],
        "ellipsoid": result.ellipsoid.to_dict(),
        "volume": _finite_or_none(result.volume),
        "log_volume": result.ellipsoid.log_volume(),
        "beta": result.beta,
        "betas": betas,
        "method": result.method,
        "iterations": result.iterations,
        "residual": result.residual,
    }

    code = EXIT_OK
    if args.check:
        report = containment_check(
            result.ellipsoid, problem["ellipsoids"], n_dirs=args.directions, seed=args.seed
        )
        payload["checks"] = [_report_dict(report)]
        if not report.passed:
            code = EXIT_CHECK_FAILED

    _write_json_atomic(args.output, payload)
    return code


def cmd_reach(args) -> int:
    problem = load_problem(args.input)
    opts = _parse_options(problem["options_raw"], args)
    scenario = problem["scenario"]
    if scenario is None:
        raise ProblemFormatError("'reach' needs a scenario")
    mode = scenario["mode"]
    propagate = propagate_forward if mode == "forward" else propagate_backward
    tube = _timed(args, "reach", lambda: propagate(scenario["anchor"], scenario["stages"], scenario["eps"], opts))

    payload = {
        "version": "1",
        "command": "reach",
        "mode": mode,
        "dimension": problem["dimension"],
        "eps": scenario["eps"],
        "tube": [e.to_dict() for e in tube],
        "volumes": [_finite_or_none(e.volume()) for e in tube],
        "log_volumes": [e.log_volume() for e in tube],
    }
    _write_json_atomic(args.output, payload)
    return EXIT_OK


def _boundary_rows(ell: Ellipsoid, samples: int) -> list[list[str]]:
    # fixed-point with six decimals: re-parsed points stay within 1e-5 of the
    # boundary equation at plot scales
    return [[format(x, ".6f") for x in point] for point in ell.boundary_points(samples)]


def cmd_boundary(args) -> int:
    problem = load_problem(args.input)
    if not problem["ellipsoids"]:
        raise ProblemFormatError("'boundary' needs at least one ellipsoid")
    if args.samples < 1:
        raise ProblemFormatError("--samples must be positive")

    header = [f"x{i + 1}" for i in range(problem["dimension"])]
    tables = [_boundary_rows(e, args.samples) for e in problem["ellipsoids"]]

    def render(rows, with_index):
        head = (["index"] + header) if with_index else header
        lines = [",".join(head)]
        lines += [",".join(row) for row in rows]
        return "\n".join(lines) + "\n"

    if args.indexed:
        rows = [[str(k)] + row for k, table in enumerate(tables) for row in table]
        _write_text_atomic(args.output, render(rows, with_index=True))
    elif len(tables) == 1:
        _write_text_atomic(args.output, render(tables[0], with_index=False))
    else:
        root, ext = os.path.splitext(args.output)
        for k, table in enumerate(tables):
            _write_text_atomic(f"{root}_{k}{ext or '.csv'}", render(table, with_index=False))
    return EXIT_OK


def cmd_check(args) -> int:
    _check_oracle_flags(args)
    problem = load_problem(args.input)
    opts = _parse_options(problem["options_raw"], args)
    if not problem["ellipsoids"]:
        raise ProblemFormatError("'check' needs at least one ellipsoid")
    parts = problem["ellipsoids"]
    claim = problem["claim"]

    if claim is not None:
        outer = claim["ellipsoid"]
        betas = [] if claim["beta"] is None else [claim["beta"]]
    else:
        result, betas = _timed(args, "check", lambda: mvoe_sum(parts, opts))
        outer = result.ellipsoid

    reports = [containment_check(outer, parts, n_dirs=args.directions, seed=args.seed)]
    acc = parts[0]
    for k, (nxt, beta) in enumerate(zip(parts[1:], betas), start=1):
        # an earlier step's outer ellipsoid is re-formed from its beta as the
        # fold assembles it, so its shape and factor are the fold's own
        if k < len(betas):
            step = Ellipsoid(acc.center + nxt.center, q_of_beta(acc.shape, nxt.shape, beta))
        else:
            step = outer
        reports.extend(pair_step_checks(acc.shape, nxt.shape, beta, step.log_volume()))
        acc = step

    all_passed = all(r.passed for r in reports)
    payload = {
        "version": "1",
        "command": "check",
        "dimension": problem["dimension"],
        "seed": args.seed,
        "directions": args.directions,
        "passed": all_passed,
        "reports": [_report_dict(r) for r in reports],
    }
    print(json.dumps(payload, indent=2, allow_nan=False))
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _add_solver_flags(parser):
    parser.add_argument(
        "--method",
        choices=[*METHODS, "fixed-point"],
        help=f"root-finding method (default: problem file or {SolverOptions.method!r})",
    )
    parser.add_argument("--tol", type=float, help=f"solver tolerance (default {SolverOptions.tolerance:g})")
    parser.add_argument("--max-iter", type=int, help=f"iteration cap (default {SolverOptions.max_iterations})")
    parser.add_argument("--time", action="store_true", help="print wall-clock per solve to stderr")


def _add_check_flags(parser):
    parser.add_argument("--seed", type=int, default=0, help="direction sampling seed (default 0)")
    parser.add_argument(
        "--directions", type=int, default=1000, help="number of support directions (default 1000)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellipsum",
        description="Outer ellipsoids for Minkowski sums of ellipsoids, reach tubes, and verification oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("sum", help="outer ellipsoid of the Minkowski sum of the input ellipsoids")
    p_sum.add_argument("input", help="problem JSON file")
    p_sum.add_argument("output", help="result JSON file")
    _add_solver_flags(p_sum)
    _add_check_flags(p_sum)
    p_sum.add_argument("--check", action="store_true", help="append a containment report to the result")
    p_sum.set_defaults(func=cmd_sum)

    p_reach = sub.add_parser("reach", help="propagate a reach tube for the scenario in the problem file")
    p_reach.add_argument("input", help="problem JSON file with a scenario")
    p_reach.add_argument("output", help="result JSON file")
    _add_solver_flags(p_reach)
    p_reach.set_defaults(func=cmd_reach)

    p_boundary = sub.add_parser("boundary", help="sample boundary points to CSV (dimensions 2 and 3)")
    p_boundary.add_argument("input", help="problem JSON file")
    p_boundary.add_argument("output", help="output CSV path")
    p_boundary.add_argument("--samples", type=int, default=100, help="points per ellipsoid (default 100)")
    p_boundary.add_argument(
        "--indexed",
        action="store_true",
        help="write one concatenated CSV with a leading ellipsoid-index column",
    )
    p_boundary.set_defaults(func=cmd_boundary)

    p_check = sub.add_parser("check", help="run verification oracles and print a JSON report")
    p_check.add_argument("input", help="problem JSON file (optionally with a 'claim')")
    _add_solver_flags(p_check)
    _add_check_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code. A command returns 0, or
    1 for a failed check, and raises otherwise; this is the one table from
    error to code. A failed read is already a parse error, so an OSError is
    a failed write. A bare ValueError is a bug and is not caught."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ProblemFormatError as exc:
        return _fail(str(exc), EXIT_PARSE)
    except OSError as exc:
        return _fail(f"cannot write output: {exc}", EXIT_NUMERIC)
    except SingularMap as exc:
        return _fail(f"singular state matrix: {exc}", EXIT_SINGULAR)
    except UnsupportedDimension as exc:
        return _fail(str(exc), EXIT_UNSUPPORTED_DIM)
    except EllipsumError as exc:
        return _fail(f"solver error: {exc}", EXIT_NUMERIC)


if __name__ == "__main__":
    sys.exit(main())
