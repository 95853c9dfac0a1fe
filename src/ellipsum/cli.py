"""Command-line front end.

Subcommands: ``sum`` (outer ellipsoid of a Minkowski sum), ``reach``
(forward/backward tube propagation), ``boundary`` (CSV boundary points for
plotting) and ``check`` (run the verification oracles). Inputs are JSON
problem files; results are written atomically (temp file + rename) so a
failed run never leaves a partial output. Exit codes: 0 ok, 1 check failed,
2 parse error, 3 numeric/solver error, 4 singular state matrix in backward
mode, 5 unsupported dimension.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .ellipsoid import Ellipsoid
from .errors import EllipsumError, SingularMap, UnsupportedDimension
from .mvoe import SolverOptions, generalized_spectrum, mvoe_pair, mvoe_sum
from .oracles import (
    CheckReport,
    consistency_checks,
    containment_check,
    golden_section_beta,
    stationarity_check,
)
from .reach import DEFAULT_EPS, LtiStage, propagate_backward, propagate_forward

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_SINGULAR = 4
EXIT_UNSUPPORTED_DIM = 5

#: agreement demanded between the solver's and the search oracle's
#: log-volumes, i.e. their relative volume difference to first order
VOLUME_AGREEMENT_RTOL = 1e-8


class ProblemFormatError(Exception):
    """Invalid problem file (bad JSON, schema violation, inconsistent dims)."""


def _fail(message: str, code: int) -> int:
    print(f"ellipsum: {message}", file=sys.stderr)
    return code


def _write_text_atomic(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.getpid()}.tmp")
    with open(tmp, "w") as handle:
        handle.write(text)
    os.replace(tmp, path)


def _write_json_atomic(path: str, payload: dict, code: int) -> int:
    """Write ``payload`` as strict JSON and return ``code``, or fail with
    EXIT_NUMERIC; a non-finite float is an error, never NaN or Infinity."""
    try:
        _write_text_atomic(path, json.dumps(payload, indent=2, allow_nan=False) + "\n")
    except (OSError, ValueError) as exc:
        return _fail(f"cannot write output: {exc}", EXIT_NUMERIC)
    return code


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def _parse_ellipsoid(obj, where: str, dim: int | None = None) -> Ellipsoid:
    try:
        ell = Ellipsoid.from_dict(obj)
    except (ValueError, TypeError, EllipsumError) as exc:
        raise ProblemFormatError(f"{where}: {exc}") from exc
    if dim is not None and ell.dim != dim:
        raise ProblemFormatError(f"{where} has dim {ell.dim}, expected {dim}")
    return ell


def _parse_options(obj, overrides: argparse.Namespace) -> SolverOptions:
    obj = obj or {}
    if not isinstance(obj, dict):
        raise ProblemFormatError("'options' must be an object")
    method = obj.get("method", "auto")
    tolerance = obj.get("tolerance", 1e-12)
    max_iterations = obj.get("max_iterations", 200)
    if getattr(overrides, "method", None):
        method = overrides.method
    if getattr(overrides, "tol", None) is not None:
        tolerance = overrides.tol
    if getattr(overrides, "max_iter", None) is not None:
        max_iterations = overrides.max_iter
    method = str(method).replace("-", "_")
    try:
        return SolverOptions(tolerance=float(tolerance), max_iterations=int(max_iterations), method=method)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"invalid solver options: {exc}") from exc


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
    except (ValueError, EllipsumError) as exc:
        raise ProblemFormatError(f"{where}: {exc}") from exc
    if stage.n != dim:
        raise ProblemFormatError(f"{where}: F is {stage.n}x{stage.n} but problem dimension is {dim}")
    return stage


def load_problem(path: str) -> dict:
    """Parse and validate a problem file into plain Python objects."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ProblemFormatError("problem file must be a JSON object")

    if "dimension" not in raw:
        raise ProblemFormatError("problem file is missing 'dimension'")
    try:
        dim = int(raw["dimension"])
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"'dimension' must be an integer: {exc}") from exc
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
        eps = sobj.get("eps", DEFAULT_EPS)
        try:
            eps = float(eps)
        except (TypeError, ValueError) as exc:
            raise ProblemFormatError(f"scenario.eps must be a number: {exc}") from exc
        if eps < 0.0:
            raise ProblemFormatError("scenario.eps must be nonnegative")
        scenario = {"mode": mode, "anchor": anchor, "stages": stages, "eps": eps}

    claim = None
    if raw.get("claim") is not None:
        cobj = raw["claim"]
        if not isinstance(cobj, dict) or "ellipsoid" not in cobj:
            raise ProblemFormatError("'claim' must be an object with an 'ellipsoid'")
        claimed = _parse_ellipsoid(cobj["ellipsoid"], "claim.ellipsoid", dim)
        beta = cobj.get("beta")
        if beta is not None:
            try:
                beta = float(beta)
            except (TypeError, ValueError) as exc:
                raise ProblemFormatError(f"claim.beta must be a number: {exc}") from exc
            if not (math.isfinite(beta) and beta > 0.0):
                raise ProblemFormatError("claim.beta must be a positive finite number")
        claim = {"ellipsoid": claimed, "beta": beta}

    if not ellipsoids and scenario is None:
        raise ProblemFormatError("problem file needs at least one ellipsoid or a scenario")

    return {
        "version": str(raw.get("version", "1")),
        "dimension": dim,
        "ellipsoids": ellipsoids,
        "options_raw": raw.get("options"),
        "scenario": scenario,
        "claim": claim,
    }


def _timed(args, label: str, fn):
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    if getattr(args, "time", False):
        print(f"ellipsum: {label} took {elapsed:.6f} s", file=sys.stderr)
    return result


def cmd_sum(args) -> int:
    try:
        problem = load_problem(args.input)
        opts = _parse_options(problem["options_raw"], args)
        if not problem["ellipsoids"]:
            raise ProblemFormatError("'sum' needs at least one ellipsoid")
    except ProblemFormatError as exc:
        return _fail(str(exc), EXIT_PARSE)

    try:
        result, betas = _timed(args, "sum", lambda: mvoe_sum(problem["ellipsoids"], opts))
    except EllipsumError as exc:
        return _fail(f"solver error: {exc}", EXIT_NUMERIC)

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
        payload["checks"] = [report.to_dict()]
        if not report.passed:
            code = EXIT_CHECK_FAILED

    return _write_json_atomic(args.output, payload, code)


def cmd_reach(args) -> int:
    try:
        problem = load_problem(args.input)
        opts = _parse_options(problem["options_raw"], args)
        scenario = problem["scenario"]
        if scenario is None:
            raise ProblemFormatError("'reach' needs a scenario")
    except ProblemFormatError as exc:
        return _fail(str(exc), EXIT_PARSE)

    mode = scenario["mode"]
    propagate = propagate_forward if mode == "forward" else propagate_backward
    try:
        tube = _timed(
            args, "reach", lambda: propagate(scenario["anchor"], scenario["stages"], scenario["eps"], opts)
        )
    except EllipsumError as exc:
        if mode == "backward" and isinstance(exc, SingularMap):
            return _fail(f"singular state matrix: {exc}", EXIT_SINGULAR)
        return _fail(f"solver error: {exc}", EXIT_NUMERIC)

    payload = {
        "version": "1",
        "command": "reach",
        "mode": mode,
        "dimension": problem["dimension"],
        "eps": scenario["eps"],
        "tube": [e.to_dict() for e in tube],
        "volumes": [_finite_or_none(v) for v in tube.volumes()],
        "log_volumes": [e.log_volume() for e in tube],
    }
    return _write_json_atomic(args.output, payload, EXIT_OK)


def _boundary_rows(ell: Ellipsoid, samples: int) -> list[list[str]]:
    # fixed-point with six decimals: re-parsed points stay within 1e-5 of the
    # boundary equation at plot scales
    return [[format(x, ".6f") for x in point] for point in ell.boundary_points(samples)]


def cmd_boundary(args) -> int:
    try:
        problem = load_problem(args.input)
        if not problem["ellipsoids"]:
            raise ProblemFormatError("'boundary' needs at least one ellipsoid")
    except ProblemFormatError as exc:
        return _fail(str(exc), EXIT_PARSE)

    dim = problem["dimension"]
    if dim not in (2, 3):
        return _fail(f"boundary sampling needs dimension 2 or 3, got {dim}", EXIT_UNSUPPORTED_DIM)
    if args.samples < 1:
        return _fail("--samples must be positive", EXIT_PARSE)

    header = [f"x{i + 1}" for i in range(dim)]
    try:
        tables = [_boundary_rows(e, args.samples) for e in problem["ellipsoids"]]
    except UnsupportedDimension as exc:
        return _fail(str(exc), EXIT_UNSUPPORTED_DIM)

    def render(rows, with_index):
        head = (["index"] + header) if with_index else header
        lines = [",".join(head)]
        lines += [",".join(row) for row in rows]
        return "\n".join(lines) + "\n"

    try:
        if args.indexed:
            rows = [[str(k)] + row for k, table in enumerate(tables) for row in table]
            _write_text_atomic(args.output, render(rows, with_index=True))
        elif len(tables) == 1:
            _write_text_atomic(args.output, render(tables[0], with_index=False))
        else:
            root, ext = os.path.splitext(args.output)
            for k, table in enumerate(tables):
                _write_text_atomic(f"{root}_{k}{ext or '.csv'}", render(table, with_index=False))
    except OSError as exc:
        return _fail(f"cannot write output: {exc}", EXIT_NUMERIC)
    return EXIT_OK


def _pair_step_reports(shape1, shape2, beta, log_volume) -> list:
    reports = [stationarity_check(shape1, shape2, beta)]
    lam = generalized_spectrum(shape1, shape2)
    reports.append(consistency_checks(lam, beta))
    _, oracle_log_volume = golden_section_beta(shape1, shape2, tol=1e-9)
    diff = abs(log_volume - oracle_log_volume)
    reports.append(
        CheckReport(
            name="volume_agreement",
            passed=bool(diff <= VOLUME_AGREEMENT_RTOL),
            worst_violation=float(diff - VOLUME_AGREEMENT_RTOL),
            samples=1,
            details=(
                f"solver log-volume {log_volume:.12e} vs search oracle {oracle_log_volume:.12e} "
                f"(diff {diff:.3e})"
            ),
        )
    )
    return reports


def cmd_check(args) -> int:
    try:
        problem = load_problem(args.input)
        opts = _parse_options(problem["options_raw"], args)
        if not problem["ellipsoids"]:
            raise ProblemFormatError("'check' needs at least one ellipsoid")
    except ProblemFormatError as exc:
        return _fail(str(exc), EXIT_PARSE)

    parts = problem["ellipsoids"]
    claim = problem["claim"]
    reports = []

    try:
        if claim is not None:
            outer = claim["ellipsoid"]
            reports.append(containment_check(outer, parts, n_dirs=args.directions, seed=args.seed))
            if claim["beta"] is not None and len(parts) == 2:
                reports.extend(
                    _pair_step_reports(parts[0].shape, parts[1].shape, claim["beta"], outer.log_volume())
                )
        else:
            def solve_and_check():
                acc = parts[0]
                step_reports = []
                for nxt in parts[1:]:
                    result = mvoe_pair(acc, nxt, opts)
                    step_reports.extend(
                        _pair_step_reports(acc.shape, nxt.shape, result.beta, result.ellipsoid.log_volume())
                    )
                    acc = result.ellipsoid
                return acc, step_reports

            outer, step_reports = _timed(args, "check", solve_and_check)
            reports.append(containment_check(outer, parts, n_dirs=args.directions, seed=args.seed))
            reports.extend(step_reports)
    except EllipsumError as exc:
        return _fail(f"solver error: {exc}", EXIT_NUMERIC)

    all_passed = all(r.passed for r in reports)
    payload = {
        "version": "1",
        "command": "check",
        "dimension": problem["dimension"],
        "seed": args.seed,
        "directions": args.directions,
        "passed": all_passed,
        "reports": [r.to_dict() for r in reports],
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _add_solver_flags(parser):
    parser.add_argument(
        "--method",
        choices=["auto", "bisection", "fixed-point", "fixed_point", "trace"],
        default=None,
        help="root-finding method (default: problem file or 'auto')",
    )
    parser.add_argument("--tol", type=float, default=None, help="solver tolerance (default 1e-12)")
    parser.add_argument("--max-iter", type=int, default=None, help="iteration cap (default 200)")
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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
