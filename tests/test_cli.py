import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_ellipsoid
from ellipsum import Ellipsoid, mvoe_pair, mvoe_sum
from ellipsum.cli import _parse_options, build_parser, main
from ellipsum.mvoe import METHODS, SolverOptions

SRC = str(Path(__file__).resolve().parent.parent / "src")


def write_problem(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def disk_dict(center=(0.0, 0.0), shape=((1.0, 0.0), (0.0, 1.0))):
    return {"center": list(center), "shape": [list(r) for r in shape]}


def two_disk_problem():
    return {"version": "1", "dimension": 2, "ellipsoids": [disk_dict(), disk_dict()]}


def refuse_token(token):
    raise ValueError(f"non-JSON token {token}")


def read_strict_json(path):
    """Parse a result file, refusing the non-JSON tokens NaN and Infinity."""
    return json.loads(open(path).read(), parse_constant=refuse_token)


def large_pair_problem():
    """d = 200, both shapes A A' + 200 I: sqrt(det) overflows a diagonal product."""
    rng = np.random.default_rng(7)
    dim = 200
    parts = []
    for _ in range(2):
        a = rng.normal(size=(dim, dim))
        parts.append({"center": [0.0] * dim, "shape": (a @ a.T + dim * np.eye(dim)).tolist()})
    return {"version": "1", "dimension": dim, "ellipsoids": parts}


def extreme_claim_problem(beta):
    """Two disks with the solver's outer ellipsoid claimed at ``beta``."""
    disk = Ellipsoid(np.zeros(2), np.eye(2))
    outer = mvoe_pair(disk, disk).ellipsoid
    return {
        "version": "1",
        "dimension": 2,
        "ellipsoids": [disk.to_dict(), disk.to_dict()],
        "claim": {"ellipsoid": outer.to_dict(), "beta": beta},
    }


def huge_ball_dict(dim=20, radius_sq=1e40):
    return {"center": [0.0] * dim, "shape": (radius_sq * np.eye(dim)).tolist()}


def scalar_reach_problem(mode="forward", steps=2, eps=0.0):
    stage = {
        "F": [[0.5]],
        "G": [[1.0]],
        "input": {"center": [0.0], "shape": [[1.0]]},
    }
    scenario = {"mode": mode, "stages": [stage] * steps, "eps": eps}
    scenario["initial" if mode == "forward" else "terminal"] = {"center": [0.0], "shape": [[1.0]]}
    return {"version": "1", "dimension": 1, "scenario": scenario}


class TestSum:
    def test_two_unit_disks(self, tmp_path):
        inp = write_problem(tmp_path / "p.json", two_disk_problem())
        out = str(tmp_path / "r.json")
        assert main(["sum", inp, out]) == 0
        result = json.loads(open(out).read())
        assert abs(result["volume"] - 4.0 * math.pi) < 1e-10
        assert np.allclose(result["ellipsoid"]["shape"], [[4.0, 0.0], [0.0, 4.0]], atol=1e-12)
        assert result["method"] == "newton"
        assert len(result["betas"]) == 1

    def test_check_flag_appends_passing_report(self, tmp_path):
        rng = np.random.default_rng(110)
        parts = [random_ellipsoid(rng, 2).to_dict() for _ in range(4)]
        problem = {"version": "1", "dimension": 2, "ellipsoids": parts}
        inp = write_problem(tmp_path / "p.json", problem)
        out = str(tmp_path / "r.json")
        assert main(["sum", inp, out, "--check", "--seed", "3"]) == 0
        result = json.loads(open(out).read())
        assert result["checks"][0]["name"] == "containment"
        assert result["checks"][0]["passed"] is True

    def test_malformed_json_exits_2_without_output(self, tmp_path):
        inp = tmp_path / "bad.json"
        inp.write_text("{not json")
        out = tmp_path / "r.json"
        assert main(["sum", str(inp), str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "content",
        [b'{"dimension": 1' + b"0" * 5000 + b"}", b'{"dimension": "\xff"}'],
        ids=["long-integer", "not-utf8"],
    )
    def test_unreadable_json_exits_2(self, tmp_path, capsys, content):
        inp = tmp_path / "bad.json"
        inp.write_bytes(content)
        assert main(["sum", str(inp), str(tmp_path / "r.json")]) == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path):
        assert main(["sum", str(tmp_path / "absent.json"), str(tmp_path / "r.json")]) == 2

    def test_inconsistent_dimension_exits_2(self, tmp_path):
        problem = {"version": "1", "dimension": 3, "ellipsoids": [disk_dict()]}
        inp = write_problem(tmp_path / "p.json", problem)
        assert main(["sum", inp, str(tmp_path / "r.json")]) == 2

    def test_non_pd_shape_exits_2(self, tmp_path):
        bad = {"version": "1", "dimension": 2, "ellipsoids": [disk_dict(shape=((1.0, 0.0), (0.0, -1.0)))]}
        inp = write_problem(tmp_path / "p.json", bad)
        assert main(["sum", inp, str(tmp_path / "r.json")]) == 2

    def test_nonfinite_center_exits_2_without_output(self, tmp_path):
        problem = {"version": "1", "dimension": 2, "ellipsoids": [disk_dict(center=(math.nan, 0.0))]}
        inp = write_problem(tmp_path / "p.json", problem)
        out = tmp_path / "r.json"
        assert main(["sum", inp, str(out)]) == 2
        assert not out.exists()

    def test_single_input_round_trips_exactly(self, tmp_path):
        rng = np.random.default_rng(111)
        e = random_ellipsoid(rng, 3)
        problem = {"version": "1", "dimension": 3, "ellipsoids": [e.to_dict()]}
        inp = write_problem(tmp_path / "p.json", problem)
        out1 = str(tmp_path / "r1.json")
        assert main(["sum", inp, out1]) == 0
        # the result file itself is a valid problem file for K = 1
        out2 = str(tmp_path / "r2.json")
        assert main(["sum", out1, out2]) == 0
        first = json.loads(open(out1).read())["ellipsoid"]
        second = json.loads(open(out2).read())["ellipsoid"]
        assert first == second

    def test_method_flag_trace(self, tmp_path):
        inp = write_problem(tmp_path / "p.json", two_disk_problem())
        out = str(tmp_path / "r.json")
        assert main(["sum", inp, out, "--method", "trace"]) == 0
        assert json.loads(open(out).read())["method"] == "trace"

    def test_method_flag_fixed_point_spelling(self, tmp_path):
        inp = write_problem(tmp_path / "p.json", two_disk_problem())
        out = str(tmp_path / "r.json")
        assert main(["sum", inp, out, "--method", "fixed-point"]) == 0
        assert json.loads(open(out).read())["method"] == "fixed_point"


    def test_large_pair_writes_finite_log_volume(self, tmp_path):
        problem = large_pair_problem()
        inp = write_problem(tmp_path / "p.json", problem)
        out = str(tmp_path / "r.json")
        assert main(["sum", inp, out]) == 0
        result = read_strict_json(out)
        shape = np.array(result["ellipsoid"]["shape"])
        _, logdet = np.linalg.slogdet(shape)
        expected = 100.0 * math.log(math.pi) - math.lgamma(101.0) + 0.5 * logdet
        assert abs(result["log_volume"] - expected) <= 1e-10 * abs(expected)
        assert abs(result["volume"] - math.exp(expected)) <= 1e-9 * math.exp(expected)

    def test_overflowing_volume_is_null(self, tmp_path):
        problem = {"version": "1", "dimension": 20, "ellipsoids": [huge_ball_dict(), huge_ball_dict()]}
        inp = write_problem(tmp_path / "p.json", problem)
        out = str(tmp_path / "r.json")
        assert main(["sum", inp, out]) == 0
        result = read_strict_json(out)
        assert result["volume"] is None
        # the sum is the ball of squared radius 4e40
        expected = 10.0 * math.log(math.pi) - math.lgamma(11.0) + 10.0 * math.log(4e40)
        assert abs(result["log_volume"] - expected) <= 1e-12 * expected

    def test_failed_write_leaves_no_temp_file(self, tmp_path, capsys):
        # the result path is a directory, so the rename fails
        inp = write_problem(tmp_path / "p.json", two_disk_problem())
        (tmp_path / "r.json").mkdir()
        assert main(["sum", inp, str(tmp_path / "r.json")]) == 3
        assert "cannot write output" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["p.json", "r.json"]


class TestReach:
    def test_documented_scalar_tube(self, tmp_path):
        inp = write_problem(tmp_path / "p.json", scalar_reach_problem())
        out = str(tmp_path / "r.json")
        assert main(["reach", inp, out]) == 0
        result = json.loads(open(out).read())
        radii = [math.sqrt(e["shape"][0][0]) for e in result["tube"]]
        assert np.allclose(radii, [1.0, 1.5, 1.75], rtol=0.0, atol=1e-13)

    def test_empty_stages(self, tmp_path):
        problem = scalar_reach_problem(steps=0)
        inp = write_problem(tmp_path / "p.json", problem)
        out = str(tmp_path / "r.json")
        assert main(["reach", inp, out]) == 0
        result = json.loads(open(out).read())
        assert len(result["tube"]) == 1
        assert result["tube"][0]["shape"][0][0] == 1.0

    def test_backward_scalar(self, tmp_path):
        problem = scalar_reach_problem(mode="backward", steps=1)
        problem["scenario"]["terminal"] = {"center": [0.0], "shape": [[2.25]]}
        inp = write_problem(tmp_path / "p.json", problem)
        out = str(tmp_path / "r.json")
        assert main(["reach", inp, out]) == 0
        result = json.loads(open(out).read())
        assert abs(result["tube"][1]["shape"][0][0] - 25.0) < 1e-12

    def test_backward_singular_f_exits_4(self, tmp_path):
        problem = scalar_reach_problem(mode="backward", steps=1)
        problem["scenario"]["stages"][0]["F"] = [[0.0]]
        inp = write_problem(tmp_path / "p.json", problem)
        assert main(["reach", inp, str(tmp_path / "r.json")]) == 4

    def test_forward_singular_f_exits_4_without_output(self, tmp_path, capsys):
        stage = {"F": [[1.0, 0.0], [1.0, 0.0]], "G": np.eye(2).tolist(), "input": disk_dict()}
        scenario = {"mode": "forward", "initial": disk_dict(), "stages": [stage]}
        inp = write_problem(tmp_path / "p.json", {"version": "1", "dimension": 2, "scenario": scenario})
        out = tmp_path / "r.json"
        assert main(["reach", inp, str(out)]) == 4
        assert capsys.readouterr().err == (
            "ellipsum: singular state matrix: state matrix F is singular: Singular matrix\n"
        )
        assert not out.exists()
        assert os.listdir(tmp_path) == ["p.json"]

    @pytest.mark.parametrize("key", ["F", "G"])
    def test_stage_map_that_is_an_object_exits_2(self, tmp_path, capsys, key):
        problem = scalar_reach_problem(steps=1)
        problem["scenario"]["stages"][0][key] = {"a": 1}
        inp = write_problem(tmp_path / "p.json", problem)
        assert main(["reach", inp, str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ellipsum: scenario.stages[0]: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", ["forward", "backward"])
    def test_rank_deficient_input_image_names_eps(self, tmp_path, capsys, mode):
        # a tall G with eps = 0 leaves the input image singular
        stage = {"F": (0.5 * np.eye(2)).tolist(), "G": [[1.0], [0.0]], "input": {"center": [0.0], "shape": [[1.0]]}}
        scenario = {"mode": mode, "stages": [stage], "eps": 0.0}
        scenario["initial" if mode == "forward" else "terminal"] = disk_dict()
        inp = write_problem(tmp_path / "p.json", {"version": "1", "dimension": 2, "scenario": scenario})
        assert main(["reach", inp, str(tmp_path / "r.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("ellipsum: solver error: input image N U N' ")
        assert "(pivot 1) at eps = 0.0" in err and "fewer columns than rows needs eps > 0" in err

    @pytest.mark.parametrize(
        "mode, key, value",
        [
            ("forward", "eps", math.nan),
            ("forward", "eps", math.inf),
            ("forward", "G", [[math.inf]]),
            ("forward", "F", [[math.nan]]),
            ("backward", "F", [[math.nan]]),
            ("forward", "eps", True),
            ("forward", "eps", "1e-9"),
        ],
    )
    def test_nonfinite_scenario_value_exits_2(self, tmp_path, capsys, mode, key, value):
        problem = scalar_reach_problem(mode=mode, steps=1)
        if key == "eps":
            problem["scenario"]["eps"] = value
        else:
            problem["scenario"]["stages"][0][key] = value
        inp = write_problem(tmp_path / "p.json", problem)
        assert main(["reach", inp, str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "finite" in err
        assert "Traceback" not in err
        if key == "eps":
            assert "scenario.eps" in err

    @pytest.mark.parametrize(
        "mode, G, input_set",
        [
            ("forward", [[1e200]], {"center": [0.0], "shape": [[1e200]]}),
            ("forward", [[1e200]], {"center": [1e200], "shape": [[1e-300]]}),
            ("backward", [[1e160, 0.0], [0.0, 1.0]], disk_dict()),
        ],
        ids=["forward-shape", "forward-center", "backward-shape"],
    )
    def test_overflowing_input_image_exits_3(self, tmp_path, capsys, mode, G, input_set):
        dim = len(G)
        stage = {"F": (0.5 * np.eye(dim)).tolist(), "G": G, "input": input_set}
        anchor = {"center": [0.0] * dim, "shape": np.eye(dim).tolist()}
        scenario = {"mode": mode, "stages": [stage], "eps": 1e-9}
        scenario["initial" if mode == "forward" else "terminal"] = anchor
        inp = write_problem(tmp_path / "p.json", {"version": "1", "dimension": dim, "scenario": scenario})
        assert main(["reach", inp, str(tmp_path / "r.json")]) == 3
        err = capsys.readouterr().err
        assert "(overflow)" in err
        assert "Traceback" not in err

    def test_missing_scenario_exits_2(self, tmp_path):
        inp = write_problem(tmp_path / "p.json", two_disk_problem())
        assert main(["reach", inp, str(tmp_path / "r.json")]) == 2

    def test_overflowing_volumes_are_null(self, tmp_path):
        stage = {"F": np.eye(20).tolist(), "G": np.eye(20).tolist(), "input": huge_ball_dict()}
        scenario = {"mode": "forward", "initial": huge_ball_dict(), "stages": [stage], "eps": 0.0}
        inp = write_problem(tmp_path / "p.json", {"version": "1", "dimension": 20, "scenario": scenario})
        out = str(tmp_path / "r.json")
        assert main(["reach", inp, out]) == 0
        result = read_strict_json(out)
        assert result["volumes"] == [None, None]
        ball = 10.0 * math.log(math.pi) - math.lgamma(11.0)
        expected = [ball + 10.0 * math.log(1e40), ball + 10.0 * math.log(4e40)]
        assert np.allclose(result["log_volumes"], expected, rtol=1e-12, atol=0.0)


class TestBoundary:
    def test_unit_disk_four_samples(self, tmp_path):
        problem = {"version": "1", "dimension": 2, "ellipsoids": [disk_dict()]}
        inp = write_problem(tmp_path / "p.json", problem)
        out = tmp_path / "b.csv"
        assert main(["boundary", inp, str(out), "--samples", "4"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x1,x2"
        assert len(lines) == 5
        points = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        expected = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        assert np.allclose(points, expected, atol=1e-6)

    def test_unsupported_dimension_exits_5(self, tmp_path):
        e = random_ellipsoid(np.random.default_rng(112), 5)
        problem = {"version": "1", "dimension": 5, "ellipsoids": [e.to_dict()]}
        inp = write_problem(tmp_path / "p.json", problem)
        assert main(["boundary", inp, str(tmp_path / "b.csv")]) == 5

    def test_formatted_points_still_near_boundary(self, tmp_path):
        rng = np.random.default_rng(113)
        e = random_ellipsoid(rng, 2, log_lo=-0.5, log_hi=0.5)
        problem = {"version": "1", "dimension": 2, "ellipsoids": [e.to_dict()]}
        inp = write_problem(tmp_path / "p.json", problem)
        out = tmp_path / "b.csv"
        assert main(["boundary", inp, str(out), "--samples", "64"]) == 0
        lines = out.read_text().strip().splitlines()[1:]
        inv = np.linalg.inv(e.shape)
        for line in lines:
            x = np.array([float(v) for v in line.split(",")])
            residual = (x - e.center) @ inv @ (x - e.center)
            assert abs(residual - 1.0) < 1e-5

    def test_multiple_ellipsoids_one_file_each(self, tmp_path):
        problem = {"version": "1", "dimension": 2, "ellipsoids": [disk_dict(), disk_dict(center=(1.0, 1.0))]}
        inp = write_problem(tmp_path / "p.json", problem)
        out = tmp_path / "b.csv"
        assert main(["boundary", inp, str(out), "--samples", "4"]) == 0
        assert (tmp_path / "b_0.csv").exists()
        assert (tmp_path / "b_1.csv").exists()
        assert not out.exists()

    def test_indexed_single_file(self, tmp_path):
        problem = {"version": "1", "dimension": 2, "ellipsoids": [disk_dict(), disk_dict()]}
        inp = write_problem(tmp_path / "p.json", problem)
        out = tmp_path / "b.csv"
        assert main(["boundary", inp, str(out), "--samples", "4", "--indexed"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,x1,x2"
        assert len(lines) == 9
        assert {line.split(",")[0] for line in lines[1:]} == {"0", "1"}

    def test_failed_write_leaves_no_temp_file(self, tmp_path, capsys):
        # the output path is a directory, so the rename fails
        inp = write_problem(tmp_path / "p.json", {"version": "1", "dimension": 2, "ellipsoids": [disk_dict()]})
        (tmp_path / "b.csv").mkdir()
        assert main(["boundary", inp, str(tmp_path / "b.csv"), "--samples", "4"]) == 3
        assert "cannot write output" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["b.csv", "p.json"]


class TestCheck:
    def test_solver_output_passes(self, tmp_path, capsys):
        rng = np.random.default_rng(114)
        parts = [random_ellipsoid(rng, 2).to_dict() for _ in range(2)]
        problem = {"version": "1", "dimension": 2, "ellipsoids": parts}
        inp = write_problem(tmp_path / "p.json", problem)
        assert main(["check", inp, "--seed", "5", "--directions", "400"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        names = [r["name"] for r in report["reports"]]
        assert names == ["containment", "stationarity", "consistency", "volume_agreement"]

    def test_shrunk_claim_fails(self, tmp_path, capsys):
        disk = Ellipsoid(np.zeros(2), np.eye(2))
        outer = mvoe_pair(disk, disk).ellipsoid
        shrunk = Ellipsoid(outer.center, 0.99 * outer.shape)
        problem = {
            "version": "1",
            "dimension": 2,
            "ellipsoids": [disk.to_dict(), disk.to_dict()],
            "claim": {"ellipsoid": shrunk.to_dict()},
        }
        inp = write_problem(tmp_path / "p.json", problem)
        assert main(["check", inp]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False

    def test_claim_with_beta_runs_full_battery(self, tmp_path, capsys):
        rng = np.random.default_rng(115)
        e1, e2 = random_ellipsoid(rng, 3), random_ellipsoid(rng, 3)
        result = mvoe_pair(e1, e2)
        problem = {
            "version": "1",
            "dimension": 3,
            "ellipsoids": [e1.to_dict(), e2.to_dict()],
            "claim": {"ellipsoid": result.ellipsoid.to_dict(), "beta": result.beta},
        }
        inp = write_problem(tmp_path / "p.json", problem)
        assert main(["check", inp]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in report["reports"]] == [
            "containment",
            "stationarity",
            "consistency",
            "volume_agreement",
        ]

    def test_extreme_scale_pair_passes(self, tmp_path, capsys):
        # beta = 9.1e-9 and supports near 1e8: an absolute containment slack
        # and a search grid clamped to [1e-6, 1e6] both failed this answer
        big = disk_dict(shape=((1e16, 0.0), (0.0, 3e16)))
        problem = {"version": "1", "dimension": 2, "ellipsoids": [disk_dict(shape=((1.0, 0.0), (0.0, 2.0))), big]}
        inp = write_problem(tmp_path / "p.json", problem)
        assert main(["check", inp]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(r["passed"] for r in report["reports"])

    @pytest.mark.parametrize("beta", [math.nan, math.inf, "abc", True, "0.5"])
    def test_invalid_claim_beta_exits_2(self, tmp_path, capsys, beta):
        disk = Ellipsoid(np.zeros(2), np.eye(2))
        outer = mvoe_pair(disk, disk).ellipsoid
        problem = {
            "version": "1",
            "dimension": 2,
            "ellipsoids": [disk.to_dict(), disk.to_dict()],
            "claim": {"ellipsoid": outer.to_dict(), "beta": beta},
        }
        inp = write_problem(tmp_path / "p.json", problem)
        assert main(["check", inp]) == 2
        assert "claim.beta" in capsys.readouterr().err

    def test_claim_beta_with_three_ellipsoids_exits_2(self, tmp_path, capsys):
        # a claimed beta certifies one pair step; with K = 3 it was ignored
        problem = extreme_claim_problem(1.0)
        problem["ellipsoids"].append(disk_dict())
        inp = write_problem(tmp_path / "p.json", problem)
        assert main(["check", inp]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "claim.beta" in captured.err and "K = 3" in captured.err

    def test_one_spectrum_per_solve_and_per_certificate(self, tmp_path, capsys, monkeypatch):
        # K = 4: three pair solves, one solver spectrum each, and three
        # certificates, one oracle whitening each
        from ellipsum import mvoe, oracles

        calls = []

        def counting(module, name):
            original = getattr(module, name)

            def counted(*args):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(module, name, counted)

        counting(mvoe, "_whitened_spectrum")
        counting(oracles, "_whiten")
        rng = np.random.default_rng(117)
        parts = [random_ellipsoid(rng, 3).to_dict() for _ in range(4)]
        inp = write_problem(tmp_path / "p.json", {"version": "1", "dimension": 3, "ellipsoids": parts})
        assert main(["check", inp]) == 0
        assert len(json.loads(capsys.readouterr().out)["reports"]) == 1 + 3 * 3
        assert sorted(calls) == ["_whiten"] * 3 + ["_whitened_spectrum"] * 3

    def test_certifies_the_fold_that_sum_writes(self, tmp_path, capsys, monkeypatch):
        # check folds with mvoe_sum, as sum does, and re-forms each earlier
        # step from its beta: every certified beta and log-volume is the
        # fold's own, bit for bit, where a fold of fresh pair solves differs
        # in the last bits
        from ellipsum import cli, mvoe

        certified = []
        certify = cli.pair_step_checks

        def recording(q1, q2, beta, log_volume):
            certified.append((beta, log_volume))
            return certify(q1, q2, beta, log_volume)

        monkeypatch.setattr(cli, "pair_step_checks", recording)
        rng = np.random.default_rng(0)
        parts = [random_ellipsoid(rng, 3).to_dict() for _ in range(4)]
        inp = write_problem(tmp_path / "p.json", {"version": "1", "dimension": 3, "ellipsoids": parts})
        assert main(["check", inp]) == 0
        capsys.readouterr()
        summands = [Ellipsoid.from_dict(part) for part in parts]
        result, betas = mvoe_sum(summands)
        assert [beta for beta, _ in certified] == betas
        assert certified[-1][1] == result.ellipsoid.log_volume()
        steps = [(None, *e._parts) for e in summands[1:]]
        with np.errstate(all="ignore"):
            chain = mvoe._chain(summands[0]._parts, steps, SolverOptions())
            log_volumes = [Ellipsoid._trusted(step[0]).log_volume() for step in chain]
        assert [log_volume for _, log_volume in certified] == log_volumes

    def test_extreme_claim_beta_fails_with_strict_json(self, tmp_path, capsys):
        # the closed forms at this beta leave the float range, so the two
        # checks fail without being evaluated, and without a RuntimeWarning
        inp = write_problem(tmp_path / "p.json", extreme_claim_problem(1e300))
        assert main(["check", inp]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        report = json.loads(captured.out, parse_constant=refuse_token)
        assert report["passed"] is False
        by_name = {r["name"]: r for r in report["reports"]}
        assert by_name["containment"]["passed"] is True
        for name in ("stationarity", "consistency"):
            assert by_name[name]["passed"] is False
            assert by_name[name]["worst_violation"] is None

    @pytest.mark.parametrize("beta", [1e300, 1e160, 5e-324])
    def test_extreme_claim_beta_leaves_stderr_empty(self, tmp_path, beta):
        inp = write_problem(tmp_path / "p.json", extreme_claim_problem(beta))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run(
            [sys.executable, "-m", "ellipsum.cli", "check", inp], capture_output=True, text=True, env=env
        )
        assert run.returncode == 1
        assert run.stderr == ""
        report = json.loads(run.stdout, parse_constant=refuse_token)
        assert report["passed"] is False

    def test_large_pair_passes(self, tmp_path, capsys):
        inp = write_problem(tmp_path / "p.json", large_pair_problem())
        assert main(["check", inp, "--directions", "200"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(r["passed"] for r in report["reports"])

    def test_byte_identical_output_for_same_seed(self, tmp_path, capsys):
        rng = np.random.default_rng(116)
        parts = [random_ellipsoid(rng, 2).to_dict() for _ in range(3)]
        problem = {"version": "1", "dimension": 2, "ellipsoids": parts}
        inp = write_problem(tmp_path / "p.json", problem)
        assert main(["check", inp, "--seed", "21"]) == 0
        first = capsys.readouterr().out
        assert main(["check", inp, "--seed", "21"]) == 0
        second = capsys.readouterr().out
        assert first == second


@pytest.mark.parametrize("flag", [["--directions", "0"], ["--directions", "-3"], ["--seed", "-1"]])
@pytest.mark.parametrize("command", [["check"], ["sum", "--check"]], ids=["check", "sum"])
def test_invalid_oracle_flag_exits_2(tmp_path, capsys, command, flag):
    inp = write_problem(tmp_path / "p.json", two_disk_problem())
    name, *extra = command
    outputs = [str(tmp_path / "r.json")] if name == "sum" else []
    assert main([name, inp, *outputs, *extra, *flag]) == 2
    err = capsys.readouterr().err
    assert flag[0] in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tol", ["inf", "nan"])
@pytest.mark.parametrize("command", ["sum", "check"])
def test_nonfinite_tolerance_exits_2(tmp_path, capsys, command, tol):
    shapes = [((1.0, 0.0), (0.0, 2.0)), ((3.0, 0.0), (0.0, 50.0))]
    problem = {"version": "1", "dimension": 2, "ellipsoids": [disk_dict(shape=q) for q in shapes]}
    inp = write_problem(tmp_path / "p.json", problem)
    out = tmp_path / "r.json"
    outputs = [str(out)] if command == "sum" else []
    assert main([command, inp, *outputs, "--tol", tol]) == 2
    err = capsys.readouterr().err
    assert "tolerance must be positive and finite" in err
    assert not out.exists()


@pytest.mark.parametrize("cap", [2.9, 3.0, True, "5"])
@pytest.mark.parametrize("command", ["sum", "check"])
def test_noninteger_max_iterations_exits_2(tmp_path, capsys, command, cap):
    # a cap that is not an integer is a parse error; int() would turn 2.9
    # into a cap of 2 and stop the solver early (exit 3)
    shapes = [((1.0, 0.0), (0.0, 2.0)), ((3.0, 0.0), (0.0, 50.0))]
    problem = {
        "version": "1",
        "dimension": 2,
        "ellipsoids": [disk_dict(shape=q) for q in shapes],
        "options": {"max_iterations": cap},
    }
    inp = write_problem(tmp_path / "p.json", problem)
    out = tmp_path / "r.json"
    outputs = [str(out)] if command == "sum" else []
    assert main([command, inp, *outputs]) == 2
    assert "max_iterations must be an integer" in capsys.readouterr().err
    assert not out.exists()


def typed_number_problem(dimension=2, options=None, dim=2):
    """The problem of the options tests above, with its numbers replaced;
    ``dim`` = 1 swaps in a unit interval for its two ellipses."""
    shapes = [((1.0, 0.0), (0.0, 2.0)), ((3.0, 0.0), (0.0, 50.0))]
    ellipsoids = [disk_dict(shape=q) for q in shapes] if dim == 2 else [{"center": [0.0], "shape": [[1.0]]}]
    problem = {"version": "1", "dimension": dimension, "ellipsoids": ellipsoids}
    if options is not None:
        problem["options"] = options
    return problem


@pytest.mark.parametrize("dimension, dim", [(2.9, 2), (2.0, 2), ("2", 2), (True, 2), (1.5, 1)])
@pytest.mark.parametrize("command", ["sum", "check"])
def test_nonintegral_dimension_exits_2(tmp_path, capsys, command, dimension, dim):
    # int() would read 2.9 and "2" as 2, 1.5 as 1 and true as 1
    inp = write_problem(tmp_path / "p.json", typed_number_problem(dimension=dimension, dim=dim))
    out = tmp_path / "r.json"
    outputs = [str(out)] if command == "sum" else []
    assert main([command, inp, *outputs]) == 2
    assert "'dimension' must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tolerance", [True, "1e-3"])
@pytest.mark.parametrize("command", ["sum", "check"])
def test_nonnumeric_tolerance_exits_2(tmp_path, capsys, command, tolerance):
    # float() would read true as a tolerance of 1.0, which stops sum after
    # one iteration at beta 0.388296 instead of 0.386152
    inp = write_problem(tmp_path / "p.json", typed_number_problem(options={"tolerance": tolerance}))
    out = tmp_path / "r.json"
    outputs = [str(out)] if command == "sum" else []
    assert main([command, inp, *outputs]) == 2
    assert "tolerance must be a number" in capsys.readouterr().err
    assert not out.exists()


def test_integer_tolerance_is_a_number(tmp_path):
    inp = write_problem(tmp_path / "p.json", typed_number_problem(options={"tolerance": 1}))
    assert main(["sum", inp, str(tmp_path / "r.json")]) == 0


class TestTimeFlag:
    def test_time_prints_to_stderr(self, tmp_path, capsys):
        inp = write_problem(tmp_path / "p.json", two_disk_problem())
        out = str(tmp_path / "r.json")
        assert main(["sum", inp, out, "--time"]) == 0
        captured = capsys.readouterr()
        assert "took" in captured.err

    def test_check_times_once_and_still_reports(self, tmp_path, capsys):
        inp = write_problem(tmp_path / "p.json", two_disk_problem())
        assert main(["check", inp, "--time"]) == 0
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ellipsum: check took ")
        assert json.loads(captured.out)["passed"] is True


def overflow_sum_problem():
    # two valid disks of squared radius 5e307: Q(1) = 2e308 I overflows
    return {"version": "1", "dimension": 2, "ellipsoids": [disk_dict(shape=5e307 * np.eye(2))] * 2}


def huge_disks_problem():
    # 1e308 I is a valid shape, near the top of the float range
    return {"version": "1", "dimension": 2, "ellipsoids": [disk_dict(shape=1e308 * np.eye(2))] * 2}


def overflow_reach_problem():
    # F = 1e100 I: the mapped shape overflows within four forward stages
    stage = {"F": (1e100 * np.eye(2)).tolist(), "G": np.eye(2).tolist(), "input": disk_dict()}
    scenario = {"mode": "forward", "initial": disk_dict(), "stages": [stage] * 4, "eps": 0.0}
    return {"version": "1", "dimension": 2, "scenario": scenario}


@pytest.mark.parametrize(
    "command, problem",
    [("sum", overflow_sum_problem()), ("sum", huge_disks_problem()), ("reach", overflow_reach_problem())],
    ids=["sum", "sum_of_huge_disks", "reach"],
)
def test_overflow_prints_only_the_solver_error(tmp_path, command, problem):
    # in a fresh process numpy's RuntimeWarnings would print to stderr
    # ahead of the typed error's one line
    inp = write_problem(tmp_path / "p.json", problem)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-m", "ellipsum.cli", command, inp, str(tmp_path / "r.json")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert run.returncode == 3
    assert run.stderr == "ellipsum: solver error: shape matrix has non-finite entries (overflow)\n"


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("command", ["sum", "reach", "check"])
def test_method_choices_are_the_solver_methods(command):
    # the flag's choices come from mvoe.METHODS, plus the hyphenated spelling
    (action,) = [a for a in _subparsers(build_parser())[command]._actions if a.dest == "method"]
    assert set(action.choices) == set(METHODS) | {"fixed-point"}


def test_unset_options_are_the_solver_defaults():
    flags = argparse.Namespace(method=None, tol=None, max_iter=None)
    assert _parse_options(None, flags) == SolverOptions()


def run_command(command, inp, tmp_path, *flags):
    """main() on ``inp``, with an output path for the commands that write one."""
    outputs = [] if command == "check" else [str(tmp_path / ("b.csv" if command == "boundary" else "r.json"))]
    return main([command, inp, *outputs, *flags])


def scenario_with(**changes):
    """The scalar forward scenario problem with keys of its scenario replaced
    (a value of None deletes the key)."""
    problem = scalar_reach_problem(steps=1)
    for key, value in changes.items():
        if value is None:
            del problem["scenario"][key]
        else:
            problem["scenario"][key] = value
    return problem


def stage_without(key):
    stage = dict(scalar_reach_problem(steps=1)["scenario"]["stages"][0])
    del stage[key]
    return stage


PLANAR_STAGE = {"F": np.eye(2).tolist(), "G": [[1.0], [0.0]], "input": {"center": [0.0], "shape": [[1.0]]}}


SCHEMA_ERRORS = {
    "options-not-object": ("sum", {**two_disk_problem(), "options": [1]}, [], "'options' must be an object"),
    "eps-beyond-float-range": ("reach", scenario_with(eps=10**400), [], "scenario.eps must be a nonnegative"),
    "stage-not-object": ("reach", scenario_with(stages=[1]), [], "scenario.stages[0] must be an object"),
    "stage-missing-input": ("reach", scenario_with(stages=[stage_without("input")]), [], "is missing 'input'"),
    "stage-dimension": ("reach", scenario_with(stages=[PLANAR_STAGE]), [], "F is 2x2 but problem dimension is 1"),
    "problem-not-object": ("sum", [two_disk_problem()], [], "problem file must be a JSON object"),
    "dimension-missing": ("sum", {"ellipsoids": [disk_dict()]}, [], "missing 'dimension'"),
    "dimension-zero": ("sum", {**two_disk_problem(), "dimension": 0}, [], "'dimension' must be at least 1"),
    "ellipsoids-not-list": ("sum", {"dimension": 2, "ellipsoids": disk_dict()}, [], "'ellipsoids' must be a list"),
    "scenario-not-object": ("reach", {"dimension": 1, "scenario": [1]}, [], "'scenario' must be an object"),
    "scenario-mode": ("reach", scenario_with(mode="sideways"), [], "scenario.mode must be"),
    "scenario-anchor": ("reach", scenario_with(initial=None), [], "missing 'initial' for forward mode"),
    "stages-not-list": ("reach", scenario_with(stages={}), [], "scenario.stages must be a list"),
    "claim-without-ellipsoid": ("check", {**two_disk_problem(), "claim": {"beta": 1.0}}, [], "'claim' must be"),
    "nothing-to-solve": ("sum", {"dimension": 2}, [], "needs at least one ellipsoid or a scenario"),
    "sum-without-ellipsoids": ("sum", scalar_reach_problem(), [], "'sum' needs at least one ellipsoid"),
    "boundary-without-ellipsoids": ("boundary", scalar_reach_problem(), [], "'boundary' needs at least one"),
    "check-without-ellipsoids": ("check", scalar_reach_problem(), [], "'check' needs at least one ellipsoid"),
    "no-samples": ("boundary", two_disk_problem(), ["--samples", "0"], "--samples must be positive"),
    # --samples is checked before the dimension, which sampling checks
    "no-samples-in-1-d": ("boundary", typed_number_problem(dimension=1, dim=1), ["--samples", "0"], "--samples"),
}


@pytest.mark.parametrize("command, problem, flags, field", SCHEMA_ERRORS.values(), ids=SCHEMA_ERRORS)
def test_schema_error_exits_2_naming_the_field(tmp_path, capsys, command, problem, flags, field):
    inp = write_problem(tmp_path / "p.json", problem)
    assert run_command(command, inp, tmp_path, *flags) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("ellipsum: ") and field in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert os.listdir(tmp_path) == ["p.json"]


class TestExitCodes:
    """One test per row of the README's exit-code table, run through main."""

    def test_0_success(self, tmp_path, capsys):
        inp = write_problem(tmp_path / "p.json", two_disk_problem())
        assert main(["sum", inp, str(tmp_path / "r.json")]) == 0
        assert capsys.readouterr().err == ""

    def test_1_check_failed(self, tmp_path, monkeypatch):
        # sum --check on an answer shrunk below the true sum: the report
        # fails, and the result is still written with it
        from ellipsum import cli

        def shrunk_sum(ellipsoids, opts):
            result, betas = mvoe_sum(ellipsoids, opts)
            small = Ellipsoid(result.ellipsoid.center, 0.9 * result.ellipsoid.shape)
            return dataclasses.replace(result, ellipsoid=small, volume=small.volume()), betas

        monkeypatch.setattr(cli, "mvoe_sum", shrunk_sum)
        inp = write_problem(tmp_path / "p.json", two_disk_problem())
        out = str(tmp_path / "r.json")
        assert main(["sum", inp, out, "--check"]) == 1
        assert read_strict_json(out)["checks"][0]["passed"] is False

    def test_2_parse_error(self, tmp_path, capsys):
        inp = write_problem(tmp_path / "p.json", {"ellipsoids": [disk_dict()]})
        assert main(["sum", inp, str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == "ellipsum: problem file is missing 'dimension'\n"

    def test_3_solver_error(self, tmp_path, capsys):
        inp = write_problem(tmp_path / "p.json", overflow_sum_problem())
        assert main(["sum", inp, str(tmp_path / "r.json")]) == 3
        assert capsys.readouterr().err == "ellipsum: solver error: shape matrix has non-finite entries (overflow)\n"

    def test_3_nonfinite_result_is_not_written(self, tmp_path, capsys, monkeypatch):
        # strict JSON refuses NaN: a typed error, exit 3, and no file
        from ellipsum import cli

        def nan_residual_sum(ellipsoids, opts):
            result, betas = mvoe_sum(ellipsoids, opts)
            return dataclasses.replace(result, residual=math.nan), betas

        monkeypatch.setattr(cli, "mvoe_sum", nan_residual_sum)
        inp = write_problem(tmp_path / "p.json", two_disk_problem())
        assert main(["sum", inp, str(tmp_path / "r.json")]) == 3
        assert capsys.readouterr().err.startswith("ellipsum: solver error: result has a non-finite value: ")
        assert os.listdir(tmp_path) == ["p.json"]

    @pytest.mark.parametrize("mode", ["forward", "backward"])
    def test_4_singular_state_matrix(self, tmp_path, capsys, mode):
        stage = {"F": [[1.0, 0.0], [1.0, 0.0]], "G": np.eye(2).tolist(), "input": disk_dict()}
        scenario = {"mode": mode, "stages": [stage]}
        scenario["initial" if mode == "forward" else "terminal"] = disk_dict()
        inp = write_problem(tmp_path / "p.json", {"version": "1", "dimension": 2, "scenario": scenario})
        assert main(["reach", inp, str(tmp_path / "r.json")]) == 4
        assert capsys.readouterr().err.startswith("ellipsum: singular state matrix: ")
        assert os.listdir(tmp_path) == ["p.json"]

    def test_5_unsupported_dimension(self, tmp_path, capsys):
        problem = {"version": "1", "dimension": 1, "ellipsoids": [{"center": [0.0], "shape": [[1.0]]}]}
        inp = write_problem(tmp_path / "p.json", problem)
        assert main(["boundary", inp, str(tmp_path / "b.csv")]) == 5
        assert capsys.readouterr().err == "ellipsum: boundary sampling needs dim 2 or 3, got 1\n"

    @pytest.mark.parametrize("command", ["sum", "check"])
    def test_5_bisection_outside_the_plane(self, tmp_path, capsys, command):
        ball = {"center": [0.0, 0.0, 0.0], "shape": np.eye(3).tolist()}
        inp = write_problem(tmp_path / "p.json", {"version": "1", "dimension": 3, "ellipsoids": [ball, ball]})
        argv = [command, inp] + ([str(tmp_path / "r.json")] if command == "sum" else [])
        assert main(argv + ["--method", "bisection"]) == 5
        assert capsys.readouterr() == ("", "ellipsum: bisection bracket needs d = 2, got d = 3\n")
        assert os.listdir(tmp_path) == ["p.json"]

    def test_bare_value_error_is_not_an_exit_code(self, tmp_path, monkeypatch):
        # a ValueError that no parser turned into a typed error is a bug
        from ellipsum import cli

        def broken(ellipsoids, opts):
            raise ValueError("bug")

        monkeypatch.setattr(cli, "mvoe_sum", broken)
        inp = write_problem(tmp_path / "p.json", two_disk_problem())
        with pytest.raises(ValueError, match="bug"):
            main(["sum", inp, str(tmp_path / "r.json")])
