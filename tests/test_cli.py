import json
import math
import os

import numpy as np
import pytest

from conftest import random_ellipsoid
from ellipsum import Ellipsoid, mvoe_pair
from ellipsum.cli import main


def write_problem(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def disk_dict(center=(0.0, 0.0), shape=((1.0, 0.0), (0.0, 1.0))):
    return {"center": list(center), "shape": [list(r) for r in shape]}


def two_disk_problem():
    return {"version": "1", "dimension": 2, "ellipsoids": [disk_dict(), disk_dict()]}


def read_strict_json(path):
    """Parse a result file, refusing the non-JSON tokens NaN and Infinity."""

    def refuse(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(open(path).read(), parse_constant=refuse)


def large_pair_problem():
    """d = 200, both shapes A A' + 200 I: sqrt(det) overflows a diagonal product."""
    rng = np.random.default_rng(7)
    dim = 200
    parts = []
    for _ in range(2):
        a = rng.normal(size=(dim, dim))
        parts.append({"center": [0.0] * dim, "shape": (a @ a.T + dim * np.eye(dim)).tolist()})
    return {"version": "1", "dimension": dim, "ellipsoids": parts}


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

    @pytest.mark.parametrize("beta", [math.nan, math.inf, "abc"])
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


class TestTimeFlag:
    def test_time_prints_to_stderr(self, tmp_path, capsys):
        inp = write_problem(tmp_path / "p.json", two_disk_problem())
        out = str(tmp_path / "r.json")
        assert main(["sum", inp, out, "--time"]) == 0
        captured = capsys.readouterr()
        assert "took" in captured.err
