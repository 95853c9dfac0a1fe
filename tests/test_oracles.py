import itertools
import math
import warnings

import numpy as np
import pytest

from conftest import random_ellipsoid, spd_matrix, stationarity_report
from ellipsum import (
    DimensionMismatch,
    Ellipsoid,
    NonPositiveBeta,
    SolverOptions,
    consistency_checks,
    containment_check,
    generalized_spectrum,
    golden_section_beta,
    mvoe_pair,
    pair_step_checks,
    q_of_beta,
    solve_beta_bisection,
    solve_beta_fixed_point,
)
from ellipsum import oracles
from ellipsum.mvoe import _newton
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

    def test_finds_minimizer_far_outside_unit_scale(self):
        # the spectral bracket of diag(1, 2) against 1e16 diag(1, 3) is
        # [5.8e-9, 1e-8]: the search works in log beta over it at any scale.
        # log det Q(beta) varies by only ~1e-8 across it, so roundoff blurs
        # the minimizer's location, but not the minimum
        q1, q2 = np.diag([1.0, 2.0]), 1e16 * np.diag([1.0, 3.0])
        beta_gs, log_volume = golden_section_beta(q1, q2, 1e-9)
        result = mvoe_pair(Ellipsoid(np.zeros(2), q1), Ellipsoid(np.zeros(2), q2))
        assert 3e16 ** -0.5 <= beta_gs <= 1e-8
        assert abs(beta_gs - result.beta) <= 1e-2 * result.beta
        assert abs(log_volume - result.ellipsoid.log_volume()) < 1e-8

    def test_proportional_ill_conditioned_shapes(self):
        # Q2 = c Q1 has a one-point spectral bracket at beta = c^{-1/2};
        # the search still runs, over the widened bracket
        rng = np.random.default_rng(90)
        frame, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        q1 = (frame * np.logspace(-4, 4, 4)) @ frame.T
        q1 = 0.5 * (q1 + q1.T)
        beta_gs, log_volume = golden_section_beta(q1, 4.0 * q1, 1e-9)
        assert abs(beta_gs - 0.5) < 1e-2
        # Q(1/2) = 9 Q1
        expected = Ellipsoid(np.zeros(4), 9.0 * q1).log_volume()
        assert abs(log_volume - expected) < 1e-8

    def test_inaccurate_spectrum_does_not_pin_the_search(self, monkeypatch):
        # the bracket comes from a computed spectrum; one 50 % off moves a
        # one-point bracket by 0.2 in log beta, and the search must still
        # find the true minimizer at beta = 1/2
        whiten = oracles._whiten

        def inaccurate(factor, q2):
            w, lam = whiten(factor, q2)
            return w, [1.5 * value for value in lam]

        monkeypatch.setattr(oracles, "_whiten", inaccurate)
        q1 = np.diag([1.0, 3.0])
        beta_gs, _ = golden_section_beta(q1, 4.0 * q1, 1e-9)
        assert abs(beta_gs - 0.5) < 1e-3

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

    def test_rejects_no_directions(self):
        disk = Ellipsoid(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="n_dirs must be at least 1"):
            containment_check(disk, [disk], n_dirs=0)

    def test_dimension_mismatch_is_named_before_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("directions sampled")

        monkeypatch.setattr(oracles, "sample_directions", refuse)
        outer = Ellipsoid(np.zeros(3), np.eye(3))
        with pytest.raises(DimensionMismatch, match="dim 2, the outer ellipsoid has dim 3"):
            containment_check(outer, [outer, Ellipsoid(np.zeros(2), np.eye(2))])

    def test_single_part_equal_to_outer(self):
        rng = np.random.default_rng(83)
        e = random_ellipsoid(rng, 4)
        report = containment_check(e, [e], n_dirs=300, seed=1)
        assert report.passed
        # worst violation is the slack-shifted value; raw violation is ~0
        assert abs(report.worst_violation + 1e-9) < 1e-12

    @pytest.mark.parametrize("scale", [1.0, 1e8, 1e16])
    def test_slack_follows_support_magnitude(self, scale):
        # a solver answer passes at every scale; shrinking it by 1e-6
        # relative fails at every scale (below unit supports the slack keeps
        # its absolute floor of 1e-9). The shrunk support falls below the
        # sum's only within about 1e-3 rad of the cone where the outer touches
        # it, a band that 500 directions hit for 3 of 10 seeds; 20000 hit it
        # for all 10
        rng = np.random.default_rng(89)
        parts = [Ellipsoid(math.sqrt(scale) * rng.normal(size=3), scale * spd_matrix(rng, 3)) for _ in range(2)]
        outer = mvoe_pair(parts[0], parts[1]).ellipsoid
        assert containment_check(outer, parts, n_dirs=20_000, seed=4).passed
        shrunk = Ellipsoid(outer.center, (1.0 - 1e-6) * outer.shape)
        report = containment_check(shrunk, parts, n_dirs=20_000, seed=4)
        assert not report.passed
        assert report.worst_violation > 0.0

    def test_worst_violation_stays_absolute(self):
        # supports near 1e8 round to violations of 1.5e-8 on the correct
        # answer: it passes on its roundoff slack (8.7e-7), while
        # worst_violation is still the raw violation minus 1e-9. Only some
        # directions near the touching points round upward; seed 1 with
        # 20000 directions samples one
        parts = [Ellipsoid(np.zeros(2), np.diag([1.0, 2.0])), Ellipsoid(np.zeros(2), 1e16 * np.diag([1.0, 3.0]))]
        outer = mvoe_pair(parts[0], parts[1]).ellipsoid
        report = containment_check(outer, parts, n_dirs=20_000, seed=1)
        assert report.passed
        assert 1e-9 < report.worst_violation + 1e-9 < 1e-7

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
        assert u1.shape == (50, 4)
        assert np.array_equal(u1, u2)
        assert not np.array_equal(u1, sample_directions(4, 50, seed=10))
        assert np.allclose(np.linalg.norm(u1, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3, 6])
    def test_directions_are_uniform_on_the_sphere(self, dim):
        # a uniform unit vector has mean 0 and second moment I/d; each
        # sample entry has variance at most 1, so 4/sqrt(n) is 4 sigma
        n = 20_000
        u = sample_directions(dim, n, seed=3)
        assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)
        assert np.abs(u.mean(axis=0)).max() <= 4.0 / math.sqrt(n)
        assert np.abs(u.T @ u / n - np.eye(dim) / dim).max() <= 4.0 / math.sqrt(n)

    def test_zero_draws_are_redrawn(self, monkeypatch):
        # random() == 0 gives Box-Muller radius 0, so the first row is zero
        class Stream:
            def __init__(self, seed):
                self.draws = iter([0.0, 0.3, 0.0, 0.7, 0.5, 0.125, 0.25, 0.5])

            def random(self):
                return next(self.draws)

        monkeypatch.setattr(oracles.random, "Random", Stream)
        u = sample_directions(2, 1, seed=0)
        assert np.isfinite(u).all()
        assert abs(float(np.linalg.norm(u)) - 1.0) <= 1e-15


class TestStationarity:
    def test_equal_disks_at_root(self):
        report = stationarity_report(np.eye(2), np.eye(2), 1.0)
        assert report.passed

    def test_random_pair_at_solver_root(self):
        rng = np.random.default_rng(85)
        for dim in (2, 5):
            q1, q2 = spd_matrix(rng, dim), spd_matrix(rng, dim)
            lam = generalized_spectrum(q1, q2)
            beta, _ = solve_beta_fixed_point(lam, 1.0)
            report = stationarity_report(q1, q2, beta)
            assert report.passed, report.details

    def test_solver_roots_pass_at_wide_shape_scales(self):
        # shape eigenvalues over six decades put the finite difference's
        # roundoff near 1e-7, far above its true value at the root
        failed = []
        for seed in range(40):
            rng = np.random.default_rng(seed)
            parts = [random_ellipsoid(rng, 3, log_lo=-3.0, log_hi=3.0) for _ in range(4)]
            acc = parts[0]
            for nxt in parts[1:]:
                result = mvoe_pair(acc, nxt)
                report = stationarity_report(acc.shape, nxt.shape, result.beta)
                if not report.passed:
                    failed.append((seed, report.details))
                acc = result.ellipsoid
        assert not failed

    def test_check_passes_at_solver_roots_across_twenty_four_decades(self):
        # what `check` runs, on 300 folds (d = 2..8, K = 2..4) of shapes
        # s O diag(10^U(-3, 3)) O', s = 10^U(-12, 12): the closed form's
        # rounding in d/dbeta grows like 1/beta, so with the (closed,
        # spectral) floor at 1e-8 in d/dbeta rather than in log beta,
        # stationarity failed at 22 steps of 21 folds, all with beta < 0.1
        rng = np.random.default_rng(7)

        def shape(d):
            frame, _ = np.linalg.qr(rng.normal(size=(d, d)))
            m = (frame * 10.0 ** rng.uniform(-3.0, 3.0, d)) @ frame.T
            return 10.0 ** rng.uniform(-12.0, 12.0) * (0.5 * (m + m.T))

        failed = []
        for _ in range(300):
            d, k = int(rng.integers(2, 9)), int(rng.integers(2, 5))
            parts = [Ellipsoid(rng.normal(size=d), shape(d)) for _ in range(k)]
            acc, reports = parts[0], []
            for nxt in parts[1:]:
                result = mvoe_pair(acc, nxt)
                reports += pair_step_checks(acc.shape, nxt.shape, result.beta, result.ellipsoid.log_volume())
                acc = result.ellipsoid
            reports.append(containment_check(acc, parts, n_dirs=1000, seed=0))
            failed += [r.details for r in reports if not r.passed]
        assert failed == []

    @pytest.mark.parametrize("beta", [1e7, 1e100])
    def test_far_above_root_fails(self, beta):
        # the root is 1; d/dbeta decays like d/beta, so only the derivative in
        # log beta (about -2 here) tells these betas from a root
        report = stationarity_report(np.eye(2), np.eye(2), beta)
        assert not report.passed
        assert report.worst_violation > 1.0

    def test_solver_roots_pass_at_shape_scales(self):
        rng = np.random.default_rng(89)
        for scale1, scale2 in itertools.product(10.0 ** np.arange(-6, 7, 3), repeat=2):
            for dim in (2, 5):
                q1, q2 = scale1 * spd_matrix(rng, dim), scale2 * spd_matrix(rng, dim)
                beta, _ = _newton(generalized_spectrum(q1, q2).tolist(), SolverOptions())
                report = stationarity_report(q1, q2, beta)
                assert report.passed, (scale1, scale2, report.details)

    def test_off_root_fails_but_routes_agree(self):
        rng = np.random.default_rng(86)
        q1, q2 = spd_matrix(rng, 3), spd_matrix(rng, 3)
        lam = generalized_spectrum(q1, q2)
        beta, _ = solve_beta_fixed_point(lam, 1.0)
        report = stationarity_report(q1, q2, 2.0 * beta)
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

    def test_closed_form_is_right_at_the_steps_that_fail_stationarity(self):
        # the verdict sweep: 300 problems from default_rng(7), d = 2..8 and
        # K = 2..6 summands, each shape s O diag(10^U(-3, 3)) O' with
        # s = 10^U(-6, 6) and O from the QR of a Gaussian matrix. The first
        # pair steps of problems 97, 186 and 251 (generalized spectra up to
        # 5.4e10, 4.9e11 and 8.9e12) fail stationarity. The closed-form leg
        # is not at fault: against a 60-digit derivative at the solver's
        # beta it errs by at most 0.79 eps cond(Q(beta)) / beta there; the
        # solver's beta is off the root by up to 4.8e-7 (relative), through
        # its Gram-form spectrum
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(7)

        def shape(d):
            frame, _ = np.linalg.qr(rng.normal(size=(d, d)))
            scale = 10.0 ** rng.uniform(-6.0, 6.0)
            return scale * (frame @ np.diag(10.0 ** rng.uniform(-3.0, 3.0, d))) @ frame.T

        steps = {}
        for problem in range(252):
            d, k = int(rng.integers(2, 9)), int(rng.integers(2, 7))
            parts = []
            for _ in range(k):
                q = shape(d)  # drawn before its center
                parts.append(Ellipsoid(rng.normal(size=d), q))
            if problem in (97, 186, 251):
                steps[problem] = (parts[0].shape, parts[1].shape, mvoe_pair(parts[0], parts[1]).beta)
        assert [q1.shape[0] for q1, _, _ in steps.values()] == [8, 5, 6]
        for problem, (q1, q2, beta) in steps.items():
            with mpmath.workdps(60):
                a, b, exact_beta = mpmath.matrix(q1.tolist()), mpmath.matrix(q2.tolist()), mpmath.mpf(beta)
                q = (1 + 1 / exact_beta) * a + (1 + exact_beta) * b
                x = mpmath.inverse(q) * (b - a / exact_beta**2)
                exact = float(mpmath.fsum(x[i, i] for i in range(q1.shape[0])))
            bound = 16.0 * np.finfo(float).eps * np.linalg.cond(q_of_beta(q1, q2, beta)) / beta
            assert abs(logdet_derivative(q1, q2, beta) - exact) <= bound, problem


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

    def test_fails_the_root_of_a_wrong_solver_spectrum(self, monkeypatch):
        # the oracles whiten by their own route: a solver spectrum 50 % off
        # gives a beta off the root by a factor sqrt(1.5), which consistency
        # fails, and leaves the oracles' spectrum as it was
        from ellipsum import mvoe

        rng = np.random.default_rng(89)
        e1, e2 = random_ellipsoid(rng, 3), random_ellipsoid(rng, 3)
        lam = generalized_spectrum(e1.shape, e2.shape)
        whitened_spectrum = mvoe._whitened_spectrum
        monkeypatch.setattr(mvoe, "_whitened_spectrum", lambda *args: [1.5 * v for v in whitened_spectrum(*args)])
        result = mvoe_pair(e1, e2)
        reports = pair_step_checks(e1.shape, e2.shape, result.beta, result.ellipsoid.log_volume())
        failed = [report.name for report in reports if not report.passed]
        assert failed == ["stationarity", "consistency", "volume_agreement"]
        assert np.array_equal(generalized_spectrum(e1.shape, e2.shape), lam)

    def test_json_round_trip(self):
        report = consistency_checks(np.ones(3), 1.0)
        data = report.to_dict()
        assert set(data) == {"name", "passed", "worst_violation", "samples", "details"}


# each oracle that takes a beta, called with that beta
BETA_ORACLES = {
    "logdet_derivative": lambda beta: logdet_derivative(np.eye(2), 2.0 * np.eye(2), beta),
    "consistency_checks": lambda beta: consistency_checks([1.0, 2.0], beta),
    "pair_step_checks": lambda beta: pair_step_checks(np.eye(2), 2.0 * np.eye(2), beta, 0.0),
}


# spectra that are not positive and finite
BAD_SPECTRA = {"negative": [-1.0, 2.0], "zero": [0.0, 2.0], "nan": [math.nan, 1.0]}


@pytest.mark.parametrize("name", sorted(BAD_SPECTRA))
def test_consistency_checks_reject_a_spectrum_that_is_not_positive_and_finite(name):
    # the spectrum rule of optimality_residual and logdet_curvature, raised
    # before the identity divides by 1 + beta l
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="spectrum must be"):
            consistency_checks(BAD_SPECTRA[name], 1.0)
    assert caught == []


@pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, True], ids=["zero", "negative", "nan", "bool"])
@pytest.mark.parametrize("name", sorted(BETA_ORACLES))
def test_oracles_reject_a_beta_that_is_not_positive_and_finite(name, beta):
    # the one beta rule of q_of_beta and the spectrum helpers, raised before
    # any arithmetic on beta can warn or divide by zero
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonPositiveBeta):
            BETA_ORACLES[name](beta)
    assert caught == []
