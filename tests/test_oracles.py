import math

import numpy as np
import pytest

from conftest import random_ellipsoid, spd_matrix
from ellipsum import (
    Ellipsoid,
    SolverOptions,
    consistency_checks,
    containment_check,
    generalized_spectrum,
    golden_section_beta,
    mvoe_pair,
    solve_beta_bisection,
    solve_beta_fixed_point,
)
from ellipsum.oracles import logdet_derivative, logdet_derivative_fd, sample_directions


class TestGoldenSection:
    def test_equal_unit_disks(self):
        beta, log_volume = golden_section_beta(np.eye(2), np.eye(2), 1e-9)
        assert abs(beta - 1.0) < 1e-6
        assert abs(math.exp(log_volume) - 4.0 * math.pi) < 1e-9

    def test_matches_bisection_2d(self):
        # the minimizer location from pure function comparisons is only
        # reliable down to ~sqrt(eps), so the beta agreement is checked at a
        # tol above that floor; the volume agreement is flat at the optimum
        # and holds at full tightness
        rng = np.random.default_rng(80)
        for _ in range(10):
            q1, q2 = spd_matrix(rng, 2), spd_matrix(rng, 2)
            beta_gs, _ = golden_section_beta(q1, q2, 1e-6)
            beta_bis, _ = solve_beta_bisection(generalized_spectrum(q1, q2))
            assert abs(beta_gs - beta_bis) < 1e-5
            _, log_volume_gs = golden_section_beta(q1, q2, 1e-9)
            e1 = Ellipsoid(np.zeros(2), q1)
            e2 = Ellipsoid(np.zeros(2), q2)
            log_volume_solver = mvoe_pair(e1, e2).ellipsoid.log_volume()
            assert abs(log_volume_solver - log_volume_gs) < 1e-8

    def test_matches_fixed_point_volume_6d(self):
        rng = np.random.default_rng(81)
        for _ in range(5):
            e1, e2 = random_ellipsoid(rng, 6), random_ellipsoid(rng, 6)
            result = mvoe_pair(e1, e2)
            _, log_volume = golden_section_beta(e1.shape, e2.shape, 1e-9)
            assert abs(result.ellipsoid.log_volume() - log_volume) < 1e-8

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            golden_section_beta(np.eye(2), np.eye(2), 0.0)


class TestContainment:
    def test_solver_output_passes(self):
        rng = np.random.default_rng(82)
        parts = [random_ellipsoid(rng, 3) for _ in range(2)]
        outer = mvoe_pair(parts[0], parts[1]).ellipsoid
        report = containment_check(outer, parts, n_dirs=500, seed=3)
        assert report.passed
        assert report.samples == 500

    def test_shrunk_outer_fails(self):
        disk = Ellipsoid(np.zeros(2), np.eye(2))
        outer = mvoe_pair(disk, disk).ellipsoid
        shrunk = Ellipsoid(outer.center, 0.99 * outer.shape)
        report = containment_check(shrunk, [disk, disk], n_dirs=200, seed=0)
        assert not report.passed
        assert report.worst_violation > 0.0

    def test_single_part_equal_to_outer(self):
        rng = np.random.default_rng(83)
        e = random_ellipsoid(rng, 4)
        report = containment_check(e, [e], n_dirs=300, seed=1)
        assert report.passed
        # worst violation is the slack-shifted value; raw violation is ~0
        assert abs(report.worst_violation + 1e-9) < 1e-12

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(84)
        parts = [random_ellipsoid(rng, 2) for _ in range(3)]
        outer = mvoe_pair(parts[0], parts[1]).ellipsoid
        report_a = containment_check(outer, parts[:2], n_dirs=100, seed=11)
        report_b = containment_check(outer, parts[:2], n_dirs=100, seed=11)
        assert report_a == report_b

    def test_directions_are_unit_and_reproducible(self):
        u1 = sample_directions(4, 50, seed=9)
        u2 = sample_directions(4, 50, seed=9)
        assert np.array_equal(u1, u2)
        assert np.allclose(np.linalg.norm(u1, axis=1), 1.0, atol=1e-12)


class TestStationarity:
    def test_equal_disks_at_root(self):
        from ellipsum import stationarity_check

        report = stationarity_check(np.eye(2), np.eye(2), 1.0)
        assert report.passed

    def test_random_pair_at_solver_root(self):
        from ellipsum import stationarity_check

        rng = np.random.default_rng(85)
        for dim in (2, 5):
            q1, q2 = spd_matrix(rng, dim), spd_matrix(rng, dim)
            lam = generalized_spectrum(q1, q2)
            beta, _ = solve_beta_fixed_point(lam, 1.0)
            report = stationarity_check(q1, q2, beta)
            assert report.passed, report.details

    def test_solver_roots_pass_at_wide_shape_scales(self):
        # shape eigenvalues over six decades put the finite difference's
        # roundoff near 1e-7, far above its true value at the root
        from ellipsum import stationarity_check

        failed = []
        for seed in range(40):
            rng = np.random.default_rng(seed)
            parts = [random_ellipsoid(rng, 3, log_lo=-3.0, log_hi=3.0) for _ in range(4)]
            acc = parts[0]
            for nxt in parts[1:]:
                result = mvoe_pair(acc, nxt)
                report = stationarity_check(acc.shape, nxt.shape, result.beta)
                if not report.passed:
                    failed.append((seed, report.details))
                acc = result.ellipsoid
        assert not failed

    def test_off_root_fails_but_routes_agree(self):
        from ellipsum import stationarity_check

        rng = np.random.default_rng(86)
        q1, q2 = spd_matrix(rng, 3), spd_matrix(rng, 3)
        lam = generalized_spectrum(q1, q2)
        beta, _ = solve_beta_fixed_point(lam, 1.0)
        report = stationarity_check(q1, q2, 2.0 * beta)
        assert not report.passed
        closed = logdet_derivative(q1, q2, 2.0 * beta)
        fd = logdet_derivative_fd(q1, q2, 2.0 * beta)
        assert abs(closed - fd) <= 1e-4 * max(abs(closed), abs(fd))

    def test_derivative_routes_agree_away_from_root(self):
        rng = np.random.default_rng(87)
        for dim in (2, 4, 6):
            q1, q2 = spd_matrix(rng, dim), spd_matrix(rng, dim)
            for beta in 10.0 ** rng.uniform(-2, 2, 5):
                closed = logdet_derivative(q1, q2, float(beta))
                fd = logdet_derivative_fd(q1, q2, float(beta))
                assert abs(closed - fd) <= 1e-4 * max(abs(closed), abs(fd), 1e-8)


class TestConsistency:
    def test_equal_unit_spectrum(self):
        report = consistency_checks(np.ones(6), 1.0)
        assert report.passed
        # lhs = d/2 and rhs = d/2 exactly
        assert report.worst_violation <= 0.0

    def test_lambda_1_4_at_root(self):
        lam = np.array([1.0, 4.0])
        beta, _ = solve_beta_fixed_point(lam, 1.0)
        report = consistency_checks(lam, beta)
        assert report.passed

    def test_curvature_positive_everywhere_tested(self):
        rng = np.random.default_rng(88)
        for dim in (2, 3, 8):
            lam = 10.0 ** rng.uniform(-3, 3, dim)
            beta, _ = solve_beta_fixed_point(lam, 1.0)
            report = consistency_checks(lam, beta)
            assert report.passed, report.details

    def test_json_round_trip(self):
        report = consistency_checks(np.ones(3), 1.0)
        data = report.to_dict()
        assert set(data) == {"name", "passed", "worst_violation", "samples", "details"}
