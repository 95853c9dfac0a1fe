"""Negative controls for the benchmark's correctness checks.

Each workload's check must accept the program's real outputs and reject the
same outputs with one beta or one shape corrupted by 1e-6 relative.

    python3 -m pytest perfbench/test_checks.py -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

CORRUPTION = 1e-6


def _scaled(factor):
    return pytest.param(factor, id=f"x{factor:+.0e}")


FACTORS = [_scaled(1.0 + CORRUPTION), _scaled(1.0 - CORRUPTION)]


def _fold_case(workload, problems):
    raw = workload.generate(seed=3)[:problems]
    outputs = [op() for op in workload.build(raw)]
    return raw, [workload.extract(out) for out in outputs]


@pytest.fixture(scope="module", params=[workloads.FoldSmall, workloads.PairLarge], ids=lambda c: c.name)
def fold_case(request):
    workload = request.param()
    return workload, *_fold_case(workload, problems=2)


def test_fold_check_accepts_program_output(fold_case):
    workload, raw, extracted = fold_case
    for (cs, qs), out in zip(raw, extracted):
        assert workloads.check_fold(cs, qs, out, workload.name) == []


@pytest.mark.parametrize("factor", FACTORS)
def test_fold_check_rejects_corrupted_beta(fold_case, factor):
    workload, raw, extracted = fold_case
    (cs, qs), out = raw[0], dict(extracted[0])
    out["betas"] = list(out["betas"])
    out["betas"][-1] *= factor
    assert any("beta" in f for f in workloads.check_fold(cs, qs, out, workload.name))


@pytest.mark.parametrize("factor", FACTORS)
def test_fold_check_rejects_corrupted_shape(fold_case, factor):
    workload, raw, extracted = fold_case
    (cs, qs), out = raw[0], dict(extracted[0])
    out["shape"] = out["shape"] * factor
    assert any("shape" in f for f in workloads.check_fold(cs, qs, out, workload.name))


@pytest.fixture(scope="module")
def reach_case():
    workload = workloads.ReachTube()
    raw = workload.generate(seed=3)[:1]
    output = workload.build(raw)[0]()
    return workload, raw, output


def test_reach_check_accepts_program_output(reach_case):
    workload, raw, output = reach_case
    assert workload.check(raw, [output]) == []


@pytest.mark.parametrize("tube_index", [0, 1], ids=["forward", "backward"])
@pytest.mark.parametrize("factor", FACTORS)
def test_reach_check_rejects_corrupted_shape(reach_case, tube_index, factor):
    workload, raw, output = reach_case
    tubes = workload.extract(output)
    center, shape = tubes[tube_index][50]
    tubes[tube_index][50] = (center, shape * factor)
    fwd, bwd = raw[0]
    if tube_index == 0:
        failures = workloads.check_tube(tubes[0], fwd["c0"], fwd["q0"], fwd["F"], fwd["G"], fwd["u_c"], fwd["u_q"],
                                        workload.eps_forward, "forward")
    else:
        f_inv = np.linalg.inv(bwd["F"])
        failures = workloads.check_tube(tubes[1], bwd["c0"], bwd["q0"], f_inv, -f_inv @ bwd["G"], bwd["u_c"],
                                        bwd["u_q"], workload.eps_backward, "backward")
    assert any("step 50" in f for f in failures)


def _cli_check(path):
    from ellipsum import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["check", str(path)])
    return code, buffer.getvalue()


@pytest.fixture(scope="module")
def claim_case(tmp_path_factory):
    from ellipsum import Ellipsoid, mvoe_pair

    cs, qs = workloads.CliCheck(None).generate(seed=3)[0]
    parts = [Ellipsoid(c, q) for c, q in zip(cs[:2], qs[:2])]
    result = mvoe_pair(*parts)
    return tmp_path_factory.mktemp("claims"), parts, result


def _write_claim(directory, parts, center, shape, beta):
    path = directory / f"claim_{len(list(directory.iterdir()))}.json"
    path.write_text(json.dumps({
        "version": "1",
        "dimension": parts[0].dim,
        "ellipsoids": [e.to_dict() for e in parts],
        "claim": {"ellipsoid": {"center": center.tolist(), "shape": shape.tolist()}, "beta": beta},
    }))
    return path


def test_cli_check_accepts_true_claim(claim_case):
    directory, parts, result = claim_case
    e = result.ellipsoid
    path = _write_claim(directory, parts, e.center, e.shape, result.beta)
    assert workloads.check_cli_output(_cli_check(path), 2, "claim") == []


@pytest.mark.parametrize("factor", FACTORS)
def test_cli_check_rejects_corrupted_beta(claim_case, factor):
    directory, parts, result = claim_case
    e = result.ellipsoid
    path = _write_claim(directory, parts, e.center, e.shape, result.beta * factor)
    assert workloads.check_cli_output(_cli_check(path), 2, "claim") != []


@pytest.mark.parametrize("factor", FACTORS)
def test_cli_check_rejects_corrupted_shape(claim_case, factor):
    directory, parts, result = claim_case
    e = result.ellipsoid
    path = _write_claim(directory, parts, e.center, e.shape * factor, result.beta)
    assert workloads.check_cli_output(_cli_check(path), 2, "claim") != []


def test_cli_check_rejects_missing_reports():
    payload = json.dumps({"passed": True, "reports": [{}] * 3})
    assert workloads.check_cli_output((0, payload), 2, "short") != []
