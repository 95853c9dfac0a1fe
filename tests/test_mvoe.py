import math
import warnings

import numpy as np
import pytest

import ellipsum
from conftest import random_ellipsoid, spd_matrix, support, unit_ball_volume
from ellipsum import (
    DimensionMismatch,
    DimensionNotTwo,
    Ellipsoid,
    EllipsumError,
    EmptyInput,
    InvalidWeights,
    MaxIterationsExceeded,
    NonPositiveBeta,
    NotPositiveDefinite,
    SolverOptions,
    bracket_beta_2d,
    generalized_spectrum,
    golden_section_beta,
    logdet_curvature,
    mvoe_pair,
    mvoe_sum,
    optimality_polynomial,
    optimality_residual,
    pair_step_checks,
    q_of_alpha,
    q_of_beta,
    q_of_direction,
    solve_beta_bisection,
    solve_beta_fixed_point,
    unit_direction,
)
from ellipsum import linalg, mvoe
from ellipsum.mvoe import _fixed_point_map, _newton, _trace_ratio
from ellipsum.oracles import logdet_derivative, logdet_derivative_fd


def planar_cubic(l1, l2, beta):
    return 2 * l1 * l2 * beta**3 + (l1 + l2) * beta**2 - (l1 + l2) * beta - 2.0


def cubic_root_oracle(l1, l2, tol=1e-14):
    """Plain sign-change bisection on a fixed huge interval, independent of
    the package's bracketing."""
    lo, hi = 1e-9, 1e9
    assert planar_cubic(l1, l2, lo) < 0 < planar_cubic(l1, l2, hi)
    while hi - lo > tol * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if planar_cubic(l1, l2, mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# frozen via cubic_root_oracle(1.0, 4.0); the cubic is 8 b^3 + 5 b^2 - 5 b - 2
ROOT_LAMBDA_1_4 = 0.7215002340823453

# (spectrum, beta, error) that the scalar spectrum helpers must reject
INVALID_SCALAR_INPUTS = [
    ([1.0, 2.0], math.nan, NonPositiveBeta),
    ([1.0, 2.0], math.inf, NonPositiveBeta),
    ([1.0, math.nan], 1.0, ValueError),
    ([1.0, -1.0], 1.0, ValueError),
    ([], 1.0, ValueError),
]


def test_frozen_root_matches_oracle():
    assert abs(cubic_root_oracle(1.0, 4.0) - ROOT_LAMBDA_1_4) < 1e-12


class TestParameterizations:
    def test_q_of_beta_equal_disks(self):
        assert np.allclose(q_of_beta(np.eye(2), np.eye(2), 1.0), 4.0 * np.eye(2), atol=0)

    def test_q_of_beta_substitution(self):
        out = q_of_beta(np.eye(2), 4.0 * np.eye(2), 0.5)
        assert np.allclose(out, 9.0 * np.eye(2), atol=0)

    def test_q_of_beta_rejects_bad_beta(self):
        for beta in (0.0, -1.0, math.nan, math.inf, None, "0.5"):
            with pytest.raises(NonPositiveBeta):
                q_of_beta(np.eye(2), np.eye(2), beta)

    def test_q_of_beta_takes_a_numpy_float(self):
        eye = np.eye(2)
        assert np.array_equal(q_of_beta(eye, eye, np.float32(0.5)), q_of_beta(eye, eye, 0.5))

    def test_q_of_direction_equal_disks(self):
        out = q_of_direction([np.eye(2), np.eye(2)], [1.0, 0.0])
        assert np.allclose(out, 4.0 * np.eye(2), atol=0)

    def test_q_of_direction_rejects_no_shapes(self):
        with pytest.raises(EmptyInput):
            q_of_direction([], [1.0, 0.0])

    def test_q_of_direction_touching_identity(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            shapes = [spd_matrix(rng, 3) for _ in range(3)]
            u = unit_direction(rng.normal(size=3))
            q = q_of_direction(shapes, u)
            lhs = math.sqrt(u @ q @ u)
            rhs = sum(math.sqrt(u @ s @ u) for s in shapes)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)

    def test_direction_beta_equivalence(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            q1, q2 = spd_matrix(rng, 4), spd_matrix(rng, 4)
            u = unit_direction(rng.normal(size=4))
            beta = math.sqrt((u @ q1 @ u) / (u @ q2 @ u))
            a = q_of_direction([q1, q2], u)
            b = q_of_beta(q1, q2, beta)
            assert np.allclose(a, b, rtol=1e-12, atol=1e-12 * np.max(np.abs(a)))

    def test_q_of_alpha_trivial(self):
        out = q_of_alpha([np.eye(2), np.eye(2)], [0.5, 0.5])
        assert np.allclose(out, 4.0 * np.eye(2), atol=0)
        out = q_of_alpha([np.eye(2)] * 3, [1 / 3] * 3)
        assert np.allclose(out, 9.0 * np.eye(2), atol=1e-12)

    def test_alpha_beta_equivalence(self):
        rng = np.random.default_rng(63)
        q1, q2 = spd_matrix(rng, 3), spd_matrix(rng, 3)
        for a1 in (0.2, 0.5, 0.9):
            left = q_of_alpha([q1, q2], [a1, 1.0 - a1])
            right = q_of_beta(q1, q2, a1 / (1.0 - a1))
            assert np.allclose(left, right, rtol=1e-12, atol=1e-12 * np.max(np.abs(left)))

    def test_q_of_alpha_rejects_bad_weights(self):
        with pytest.raises(InvalidWeights):
            q_of_alpha([np.eye(2), np.eye(2)], [0.5, 0.6])
        with pytest.raises(InvalidWeights):
            q_of_alpha([np.eye(2), np.eye(2)], [1.2, -0.2])
        with pytest.raises(InvalidWeights):
            q_of_alpha([np.eye(2)], [0.5, 0.5])

    @pytest.mark.parametrize("weights", [[math.nan, math.nan], [math.nan, 1.0], [0.5, math.inf]])
    def test_q_of_alpha_rejects_nonfinite_weights(self, weights):
        # every comparison with NaN is false, so a NaN passes both a sign
        # test and a sum test that ask what is wrong instead of what is right
        with pytest.raises(InvalidWeights, match="finite"):
            q_of_alpha([np.eye(2), np.eye(2)], weights)

    @pytest.mark.parametrize(
        "shapes, direction",
        [
            ([np.eye(2), np.eye(3)], [1.0, 0.0]),
            ([np.eye(3), np.eye(3)], [1.0, 0.0]),
            ([np.ones((2, 3)), np.eye(2)], [1.0, 0.0]),
            ([np.ones(2)], [1.0, 0.0]),
        ],
        ids=["unequal", "not-the-direction's-size", "not-square", "vector"],
    )
    def test_q_of_direction_rejects_mismatched_shapes(self, shapes, direction):
        with pytest.raises(DimensionMismatch):
            q_of_direction(shapes, direction)

    @pytest.mark.parametrize(
        "bad, error, match",
        [
            (np.zeros((2, 2)), NotPositiveDefinite, "is not positive definite"),
            (-np.eye(2), NotPositiveDefinite, "is not positive definite"),
            (np.full((2, 2), math.nan), ValueError, "has non-finite entries"),
            (1e308 * np.ones((2, 2)), NotPositiveDefinite, "is not positive definite"),
            (np.array([[1.7e308, 1.6e308], [1.6e308, 1.7e308]]), ValueError, "has support"),
        ],
        ids=["zero", "negative", "nan", "overflow", "support-overflow"],
    )
    def test_q_of_direction_rejects_a_support_that_is_not_positive_and_finite(self, bad, error, match):
        # l'Q_k l divides the shape; a zero, negative or overflowing support
        # raises, naming k, before any division can warn or return NaN. A
        # NaN, a semidefinite or an indefinite shape fails the input check
        # first; the last shape is positive definite, its support overflows
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(error, match=f"shape matrix 1 {match}"):
                q_of_direction([np.eye(2), bad], [1.0, 1.0])
        assert caught == []

    def test_q_of_direction_reports_an_overflowing_result(self):
        # both supports are finite, the assembled shape is not
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(EllipsumError, match=r"non-finite entries \(overflow\)"):
                q_of_direction([1e308 * np.eye(2)] * 2, [1.0, 0.0])
        assert caught == []

    def test_q_of_direction_checks_emptiness_first(self):
        with pytest.raises(EmptyInput):
            q_of_direction([], [0.0, 0.0])

    @pytest.mark.parametrize(
        "shapes", [[np.eye(2), np.eye(3)], [np.ones((2, 3)), np.ones((2, 3))], [np.ones(2), np.ones(2)]]
    )
    def test_q_of_alpha_rejects_mismatched_shapes(self, shapes):
        with pytest.raises(DimensionMismatch):
            q_of_alpha(shapes, [0.5, 0.5])

    def test_containment_of_all_parameterizations(self):
        # sqrt(u'Q(.)u) >= sum_k sqrt(u'Q_k u) for any parameter choice
        rng = np.random.default_rng(64)
        shapes = [spd_matrix(rng, 3) for _ in range(3)]
        dirs = rng.normal(size=(200, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        candidates = [
            q_of_direction(shapes, rng.normal(size=3)),
            q_of_alpha(shapes, [0.2, 0.3, 0.5]),
            q_of_beta(shapes[0], shapes[1], 0.37),
        ]
        part_sets = [shapes, shapes, shapes[:2]]
        for q, parts in zip(candidates, part_sets):
            for u in dirs:
                outer = math.sqrt(u @ q @ u)
                inner = sum(math.sqrt(u @ s @ u) for s in parts)
                assert outer >= inner - 1e-9


#: every public function that takes raw shape matrices, called with the
#: pair (Q1, Q2)
RAW_SHAPE_ENTRY_POINTS = {
    "q_of_beta": lambda q1, q2: q_of_beta(q1, q2, 1.0),
    "generalized_spectrum": generalized_spectrum,
    "q_of_direction": lambda q1, q2: q_of_direction([q1, q2], [1.0, 0.0]),
    "q_of_alpha": lambda q1, q2: q_of_alpha([q1, q2], [0.5, 0.5]),
    "golden_section_beta": lambda q1, q2: golden_section_beta(q1, q2, 1e-6),
    "pair_step_checks": lambda q1, q2: pair_step_checks(q1, q2, 1.0, 0.0),
    "logdet_derivative": lambda q1, q2: logdet_derivative(q1, q2, 1.0),
    "logdet_derivative_fd": lambda q1, q2: logdet_derivative_fd(q1, q2, 1.0),
}

#: (shape, error) that the one input check rejects beside a 2x2 identity
BAD_RAW_SHAPES = {
    "nan": (np.array([[math.nan, 0.0], [0.0, 1.0]]), ValueError),
    "inf": (np.array([[math.inf, 0.0], [0.0, 1.0]]), ValueError),
    "non-square": (np.ones((2, 3)), DimensionMismatch),
    "mismatched": (np.eye(3), DimensionMismatch),
    "asymmetric": (np.array([[1.0, 5.0], [0.0, 1.0]]), ValueError),
    # m - m' overflows; the check takes the asymmetry on halves
    "asymmetric-huge": (np.array([[1.0, 1e308], [-1e308, 1.0]]), ValueError),
    "indefinite": (-np.eye(2), NotPositiveDefinite),
    "singular": (np.zeros((2, 2)), NotPositiveDefinite),
}


@pytest.mark.parametrize("position", [0, 1])
@pytest.mark.parametrize("bad", sorted(BAD_RAW_SHAPES))
@pytest.mark.parametrize("name", sorted(RAW_SHAPE_ENTRY_POINTS))
def test_raw_shapes_are_checked_by_one_rule(name, bad, position):
    # one input check for raw shape matrices: each entry point raises the
    # same typed error, naming the operand, before any arithmetic can warn,
    # return NaN or report a pivot
    shape, error = BAD_RAW_SHAPES[bad]
    pair = [np.eye(2), np.eye(2)]
    pair[position] = shape
    # a size mismatch is named on the shape that differs from the first
    named = "[01]" if bad == "mismatched" else position
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(error, match=f"shape matrix {named} "):
            RAW_SHAPE_ENTRY_POINTS[name](*pair)
    assert caught == []


class TestGeneralizedSpectrum:
    def test_identity_reference(self):
        lam = generalized_spectrum(np.eye(2), np.diag([2.0, 0.5]))
        assert np.allclose(lam, [0.5, 2.0], atol=1e-14)

    def test_diagonal_ratio(self):
        lam = generalized_spectrum(np.diag([1.0, 4.0]), np.diag([2.0, 2.0]))
        assert np.allclose(lam, [0.5, 2.0], atol=1e-14)

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_product_matches_det_ratio(self, dim):
        rng = np.random.default_rng(700 + dim)
        q1, q2 = spd_matrix(rng, dim), spd_matrix(rng, dim)
        lam = generalized_spectrum(q1, q2)
        assert np.all(lam > 0.0)
        ratio = np.linalg.det(q2) / np.linalg.det(q1)
        assert abs(np.prod(lam) - ratio) / abs(ratio) < 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            generalized_spectrum(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("log_range, bound", [(1.0, 1e-12), (2.0, 1e-9)])
    def test_matches_scipy_no_worse_than_full_inverse_and_eigh(self, log_range, bound):
        # the pair step's values-only spectrum on a triangular inverse, the
        # same whitening by np.linalg.inv and eigh, and the oracles'
        # generalized_spectrum, read against scipy's generalized symmetric
        # eigensolver. Each route whitens by the factor L1
        # (cond(L1) = sqrt(cond(Q1))) with an error of about
        # d eps cond(L1) ||W|| and then solves the symmetric W stably, so by
        # Weyl's theorem every eigenvalue is off by at most about
        # d eps sqrt(cond(Q1)) lambda_max; the kernel and the oracles are
        # held to that bound, which the inv + eigh route also meets. The
        # ratio of the routes' sampled errors is not a bound: it moves with
        # the BLAS summation order, i.e. with the thread count.
        sl = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(760)
        eps = np.finfo(float).eps
        worst = worst_scaled = worst_reference_scaled = worst_oracle_scaled = 0.0
        for dim in (40, 100, 200):
            q1 = spd_matrix(rng, dim, -log_range, log_range)
            q2 = spd_matrix(rng, dim, -log_range, log_range)
            expected = sl.eigh(q2, q1, eigvals_only=True)
            s_inv = np.linalg.inv(np.linalg.cholesky(q1))
            w = s_inv @ q2 @ s_inv.T
            reference = np.linalg.eigh(0.5 * (w + w.T))[0]
            with np.errstate(all="ignore"):
                lam = np.array(mvoe._whitened_spectrum(linalg._cholesky(q1), linalg._cholesky(q2)))
            oracle = generalized_spectrum(q1, q2)
            roundoff = dim * eps * math.sqrt(np.linalg.cond(q1)) * expected[-1]
            worst = max(worst, np.max(np.abs(lam - expected) / expected))
            worst_scaled = max(worst_scaled, np.max(np.abs(lam - expected)) / roundoff)
            worst_reference_scaled = max(worst_reference_scaled, np.max(np.abs(reference - expected)) / roundoff)
            worst_oracle_scaled = max(worst_oracle_scaled, np.max(np.abs(oracle - expected)) / roundoff)
        assert worst <= bound
        assert max(worst_scaled, worst_reference_scaled, worst_oracle_scaled) <= 1.0


    @pytest.mark.parametrize("dim", [1, 2, 6, 40])
    def test_is_the_pair_step_route(self, dim):
        # the scipy comparison above reads the pair step's own spectrum only
        # while the kernel it calls is the pair step's: the betas agree bit
        # for bit
        rng = np.random.default_rng(770 + dim)
        for _ in range(10):
            e1 = random_ellipsoid(rng, dim, log_lo=-3.0, log_hi=3.0)
            e2 = random_ellipsoid(rng, dim, log_lo=-3.0, log_hi=3.0)
            lam = mvoe._whitened_spectrum(e1.factor, e2.factor)
            assert mvoe_pair(e1, e2).beta == _newton(lam, SolverOptions())[0]


class TestOptimalityResidual:
    def test_equal_unit_spectrum(self):
        assert optimality_residual(np.ones(4), 1.0) == 0.0

    def test_equal_spectrum_inverse_sqrt(self):
        lam = np.full(5, 2.3)
        assert abs(optimality_residual(lam, 1.0 / math.sqrt(2.3))) < 1e-14

    def test_lambda_1_4(self):
        lam = np.array([1.0, 4.0])
        assert abs(optimality_residual(lam, 0.7215)) < 1e-2
        assert abs(optimality_residual(lam, ROOT_LAMBDA_1_4)) < 1e-12

    @pytest.mark.parametrize("lam, beta, error", INVALID_SCALAR_INPUTS)
    def test_rejects_invalid_input(self, lam, beta, error):
        with pytest.raises(error):
            optimality_residual(np.array(lam), beta)


class TestLogdetCurvature:
    @pytest.mark.parametrize("lam, beta, error", INVALID_SCALAR_INPUTS)
    def test_rejects_invalid_input(self, lam, beta, error):
        with pytest.raises(error):
            logdet_curvature(np.array(lam), beta)


class TestOptimalityPolynomial:
    def test_equal_unit_pair(self):
        poly = optimality_polynomial([1.0, 1.0])
        assert np.allclose(poly.coeffs, [2.0, 2.0, -2.0, -2.0], atol=0)
        assert abs(poly(1.0)) < 1e-15

    def test_lambda_1_4_matches_reference_cubic(self):
        # reference cubic 8 b^3 + 5 b^2 - 5 b - 2 equals the stored
        # normalized coefficients scaled by lambda1*lambda2 = 4
        poly = optimality_polynomial([1.0, 4.0])
        assert np.allclose(4.0 * poly.coeffs, [8.0, 5.0, -5.0, -2.0], atol=1e-14)

    def test_single_sign_change_for_equal_triple(self):
        poly = optimality_polynomial([1.0, 1.0, 1.0])
        signs = [s for s in np.sign(poly.coeffs) if s != 0]
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert changes == 1

    def test_structure_fields(self):
        lam = np.array([0.5, 2.0, 7.0])
        poly = optimality_polynomial(lam)
        assert len(poly.coeffs) == len(lam) + 2
        assert poly.coeffs[0] == 3.0
        assert np.all(poly.esp[1:] > 0.0)
        assert len(poly.mu) == len(lam) - 1

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_matches_product_form_evaluation(self, dim):
        # independent evaluation of sum_i (b^2 - 1/l_i) prod_{j!=i} (b + 1/l_j)
        rng = np.random.default_rng(800 + dim)
        lam = 10.0 ** rng.uniform(-2, 2, dim)
        poly = optimality_polynomial(lam)
        x = 1.0 / lam
        for beta in (0.1, 0.9, 3.7):
            direct = sum(
                (beta**2 - x[i]) * np.prod([beta + x[j] for j in range(dim) if j != i])
                for i in range(dim)
            )
            assert abs(poly(beta) - direct) < 1e-10 * max(1.0, abs(direct))

    def test_root_of_polynomial_is_solver_root(self):
        lam = np.array([1.0, 4.0])
        poly = optimality_polynomial(lam)
        assert abs(poly(ROOT_LAMBDA_1_4)) < 1e-12


class TestBracket:
    def test_equal_unit_pair(self):
        lo, hi = bracket_beta_2d(1.0, 1.0)
        assert abs(lo - 1.0 / 3.0) < 1e-15
        assert abs(hi - 2.0) < 1e-15
        assert lo < 1.0 < hi

    def test_sign_conditions(self):
        lo, hi = bracket_beta_2d(1.0, 4.0)
        assert planar_cubic(1.0, 4.0, lo) < 0 < planar_cubic(1.0, 4.0, hi)

    def test_random_brackets_contain_root(self):
        rng = np.random.default_rng(65)
        for _ in range(300):
            l1, l2 = 10.0 ** rng.uniform(-3, 3, 2)
            lo, hi = bracket_beta_2d(l1, l2)
            root = cubic_root_oracle(l1, l2)
            assert lo < root < hi

    @pytest.mark.parametrize("pair", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, -math.inf)])
    def test_rejects_nonfinite_eigenvalues(self, pair):
        with pytest.raises(ValueError, match="positive and finite"):
            bracket_beta_2d(*pair)


class TestBisection:
    def test_equal_unit_pair(self):
        beta, _ = solve_beta_bisection(np.array([1.0, 1.0]))
        assert abs(beta - 1.0) < 1e-12

    def test_equal_pair_closed_form(self):
        beta, _ = solve_beta_bisection(np.array([4.0, 4.0]))
        assert abs(beta - 0.5) < 1e-12

    def test_agrees_with_fixed_point(self):
        lam = np.array([1.0, 4.0])
        b_bis, _ = solve_beta_bisection(lam)
        b_fp, _ = solve_beta_fixed_point(lam, 1.0)
        assert abs(b_bis - ROOT_LAMBDA_1_4) < 1e-3
        assert abs(b_bis - b_fp) < 1e-8

    def test_rejects_other_dims(self):
        with pytest.raises(DimensionNotTwo):
            solve_beta_bisection(np.array([1.0, 2.0, 3.0]))

    def test_relative_width_at_large_scale(self):
        # an absolute width of 1e-12 would stop near 9.128994e-9
        lam = generalized_spectrum(np.diag([1.0, 2.0]), 1e16 * np.diag([1.0, 3.0]))
        b_bis, _ = solve_beta_bisection(lam)
        b_fp, _ = solve_beta_fixed_point(lam, 1.0)
        assert abs(b_fp - 9.128709e-9) < 1e-6 * b_fp
        assert abs(b_bis - b_fp) <= 1e-10 * b_fp

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_spectrum(self, bad):
        # a NaN or inf entry makes the cubic NaN at every point of the bracket
        with pytest.raises(ValueError, match="positive finite"):
            solve_beta_bisection(np.array([bad, 4.0]))

    @pytest.mark.parametrize(
        "lam", [[1e-160, 1e160], [1e308, 1.0], [1e150, 1e150], [1e-300, 1e-300], [1e150, 3e150]]
    )
    def test_matches_newton_at_any_scale(self, lam):
        # products such as l1 l2 or (l1 + l2)^2 leave the float range here
        b_bis, _ = solve_beta_bisection(np.array(lam))
        b_newton, _ = _newton(list(lam), SolverOptions())
        assert abs(b_bis - b_newton) <= SolverOptions().tolerance * b_newton

    def test_iteration_cap(self):
        with pytest.raises(MaxIterationsExceeded) as info:
            solve_beta_bisection(np.array([1.0, 4.0]), SolverOptions(max_iterations=1))
        assert info.value.iterations == 1
        assert info.value.last_beta > 0.0


def mp_root(values):
    """The root to 50 digits, by a bracketing solver on the same residual."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        lam = [mpmath.mpf(v) for v in values]

        def residual(b):
            return mpmath.fsum((1 - b * b * v) / (1 + b * v) for v in lam)

        lo, hi = 1 / mpmath.sqrt(max(lam)), 1 / mpmath.sqrt(min(lam))
        return lo if lo == hi else mpmath.findroot(residual, (lo, hi), solver="anderson")


class TestNewton:
    def test_matches_fifty_digit_root(self):
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(77)
        worst, most = 0.0, 0
        for k in range(400):
            lam = 10.0 ** rng.uniform(-12.0, 12.0, 1 + k % 20)
            beta, iterations = _newton(list(lam), SolverOptions())
            worst = max(worst, float(abs(beta - mp_root(lam)) / beta))
            most = max(most, iterations)
        assert worst <= 1e-12
        # 7 at most over 5000 such spectra (test_iterations_on_wide_spectra)
        assert most <= 20

    def test_iterations_on_wide_spectra(self):
        # the log-ratio residual has a slope in [-2, -1] at any scale, so
        # Newton converges in few steps even across 24 decades
        rng = np.random.default_rng(77)
        most = 0
        for k in range(5000):
            lam = 10.0 ** rng.uniform(-12.0, 12.0, 1 + k % 20)
            most = max(most, _newton(list(lam), SolverOptions())[1])
        assert most <= 8

    def test_frozen_root(self):
        beta, _ = _newton([1.0, 4.0], SolverOptions())
        assert abs(beta - ROOT_LAMBDA_1_4) < 1e-15

    @pytest.mark.parametrize("lam", [[4.0], [0.25] * 3, [1e-12] * 20])
    def test_collapsed_bracket_is_exact(self, lam):
        beta, iterations = _newton(list(lam), SolverOptions())
        assert beta == 1.0 / math.sqrt(lam[0])
        assert iterations == 0

    def test_agrees_with_reference_methods(self):
        rng = np.random.default_rng(78)
        for dim in (2, 3, 7):
            lam = np.sort(10.0 ** rng.uniform(-3, 3, dim))
            beta, _ = _newton(list(lam), SolverOptions())
            assert abs(beta - solve_beta_fixed_point(lam, 1.0)[0]) <= 1e-11 * beta
            if dim == 2:
                assert abs(beta - solve_beta_bisection(lam)[0]) <= 1e-11 * beta

    def test_iteration_cap(self):
        with pytest.raises(MaxIterationsExceeded) as info:
            _newton([1.0, 4.0], SolverOptions(max_iterations=1))
        assert info.value.iterations == 1
        assert info.value.last_beta > 0.0


class TestFixedPoint:
    def test_map_is_constant_for_equal_spectrum(self):
        assert _fixed_point_map(np.ones(6), 123.0) == 1.0

    @pytest.mark.parametrize("lam, beta, error", INVALID_SCALAR_INPUTS)
    def test_map_rejects_invalid_input(self, lam, beta, error):
        # the map is private; the fixed-point solver checks the spectrum
        # and the start it iterates the map on
        with pytest.raises(error):
            solve_beta_fixed_point(np.array(lam), beta)

    def test_map_value_lambda_1_4(self):
        val = _fixed_point_map(np.array([1.0, 4.0]), 1.0)
        assert abs(val - math.sqrt(0.7 / 1.3)) < 1e-15
        assert abs(val - 0.73380) < 5e-6

    def test_fixed_point_residual_at_root(self):
        lam = np.array([1.0, 4.0])
        beta, _ = solve_beta_fixed_point(lam, 1.0)
        assert abs(_fixed_point_map(lam, beta) - beta) < 1e-12

    def test_one_step_from_far_start(self):
        beta, iterations = solve_beta_fixed_point(np.ones(3), 1000.0)
        assert beta == 1.0
        assert iterations <= 2

    def test_one_dimension_exact(self):
        beta, iterations = solve_beta_fixed_point(np.array([4.0]), 17.0)
        assert beta == 0.5
        assert iterations <= 2

    def test_multistart_agreement(self):
        lam = np.array([1.0, 4.0])
        limits = [solve_beta_fixed_point(lam, b0)[0] for b0 in (1e-3, 1.0, 1e3)]
        assert max(limits) - min(limits) < 1e-9
        assert abs(limits[0] - ROOT_LAMBDA_1_4) < 1e-9

    def test_iteration_cap(self):
        opts = SolverOptions(max_iterations=1)
        with pytest.raises(MaxIterationsExceeded) as info:
            solve_beta_fixed_point(np.array([1.0, 4.0]), 1e3, opts)
        assert info.value.last_beta > 0.0
        assert info.value.iterations == 1

    def test_rejects_nonpositive_start(self):
        for beta0 in (0.0, math.nan, math.inf):
            with pytest.raises(NonPositiveBeta):
                solve_beta_fixed_point(np.array([1.0, 2.0]), beta0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_spectrum(self, bad):
        # the map never settles on a NaN or inf entry
        with pytest.raises(ValueError, match="positive finite"):
            solve_beta_fixed_point(np.array([1.0, bad]), 1.0)


class TestTraceOptimal:
    def test_equal_shapes(self):
        q = spd_matrix(np.random.default_rng(66), 3)
        assert abs(_trace_ratio(q, q) - 1.0) < 1e-15

    def test_substitution(self):
        assert abs(_trace_ratio(np.diag([4.0, 1.0]), np.eye(2)) - math.sqrt(2.5)) < 1e-15

    def test_minimizes_trace_on_grid(self):
        rng = np.random.default_rng(67)
        q1, q2 = spd_matrix(rng, 4), spd_matrix(rng, 4)
        star = _trace_ratio(q1, q2)
        best = np.trace(q_of_beta(q1, q2, star))
        for beta in np.logspace(-3, 3, 500):
            assert best <= np.trace(q_of_beta(q1, q2, beta)) + 1e-9 * abs(best)


class TestMvoePair:
    def test_two_unit_disks(self):
        e = Ellipsoid(np.zeros(2), np.eye(2))
        result = mvoe_pair(e, e)
        assert np.allclose(result.ellipsoid.shape, 4.0 * np.eye(2), atol=1e-12)
        assert abs(result.volume - 4.0 * math.pi) < 1e-12
        assert abs(result.beta - 1.0) < 1e-10
        assert result.method == "newton"

    def test_one_dimensional_intervals_exact(self):
        e1 = Ellipsoid([0.0], [[1.0]])
        e2 = Ellipsoid([0.0], [[4.0]])
        result = mvoe_pair(e1, e2)
        assert result.ellipsoid.shape[0, 0] == 9.0
        assert result.method == "newton"

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_volume_matches_search_oracle(self, dim):
        rng = np.random.default_rng(900 + dim)
        for _ in range(10):
            e1, e2 = random_ellipsoid(rng, dim), random_ellipsoid(rng, dim)
            result = mvoe_pair(e1, e2)
            _, oracle_log_volume = golden_section_beta(e1.shape, e2.shape, 1e-9)
            assert abs(result.ellipsoid.log_volume() - oracle_log_volume) < 1e-8

    def test_methods_agree_in_2d(self):
        rng = np.random.default_rng(68)
        e1, e2 = random_ellipsoid(rng, 2), random_ellipsoid(rng, 2)
        b = mvoe_pair(e1, e2, SolverOptions(method="bisection"))
        f = mvoe_pair(e1, e2, SolverOptions(method="fixed_point"))
        assert abs(b.beta - f.beta) < 1e-8
        assert abs(b.volume - f.volume) / b.volume < 1e-10

    def test_trace_method_still_contains(self):
        rng = np.random.default_rng(69)
        e1, e2 = random_ellipsoid(rng, 4), random_ellipsoid(rng, 4)
        result = mvoe_pair(e1, e2, SolverOptions(method="trace"))
        trace_best = _trace_ratio(e1.shape, e2.shape)
        assert result.beta == trace_best
        assert result.iterations == 0
        volume_best = mvoe_pair(e1, e2).volume
        assert result.volume >= volume_best - 1e-9 * volume_best

    def test_center_is_exact_sum(self):
        rng = np.random.default_rng(70)
        e1, e2 = random_ellipsoid(rng, 3), random_ellipsoid(rng, 3)
        result = mvoe_pair(e1, e2)
        assert np.array_equal(result.ellipsoid.center, e1.center + e2.center)

    def test_scaling_law(self):
        rng = np.random.default_rng(71)
        e1, e2 = random_ellipsoid(rng, 3), random_ellipsoid(rng, 3)
        c = 5.5
        scaled1 = Ellipsoid(e1.center, c * e1.shape)
        scaled2 = Ellipsoid(e2.center, c * e2.shape)
        base = mvoe_pair(e1, e2)
        scaled = mvoe_pair(scaled1, scaled2)
        assert abs(scaled.beta - base.beta) < 1e-9 * max(1.0, base.beta)
        assert np.allclose(scaled.ellipsoid.shape, c * base.ellipsoid.shape, rtol=1e-9, atol=1e-9)

    def test_root_identity_and_curvature(self):
        rng = np.random.default_rng(72)
        for dim in (2, 4, 7):
            e1, e2 = random_ellipsoid(rng, dim), random_ellipsoid(rng, dim)
            result = mvoe_pair(e1, e2)
            lam = generalized_spectrum(e1.shape, e2.shape)
            lhs = float(np.sum(lam / (1.0 + result.beta * lam)))
            rhs = dim / (result.beta * (result.beta + 1.0))
            assert abs(lhs - rhs) / rhs < 1e-8
            assert logdet_curvature(lam, result.beta) > 0.0
            assert result.residual < 1e-8

    def test_residual_reported(self):
        rng = np.random.default_rng(73)
        e1, e2 = random_ellipsoid(rng, 2), random_ellipsoid(rng, 2)
        result = mvoe_pair(e1, e2)
        lam = generalized_spectrum(e1.shape, e2.shape)
        assert result.residual == abs(optimality_residual(lam, result.beta))

    def test_overflowing_output_is_reported_as_overflow(self):
        # the inputs factor, but Q(1) = 2e308 I does not fit a double
        e = Ellipsoid(np.zeros(2), 5e307 * np.eye(2))
        with pytest.raises(EllipsumError, match="overflow") as info:
            mvoe_pair(e, e)
        assert not isinstance(info.value, NotPositiveDefinite)

    def test_unresolvable_spectrum_names_its_cause(self):
        # draw 8 of a scale sweep: d = 8, cond(Q1) = 1.3e11, cond(Q2) = 2.0e9,
        # and a spectrum of Q1^{-1} Q2 from 9.5e11 to 2.1e29 (scipy); the
        # Gram form's smallest eigenvalue rounds below zero
        rng = np.random.default_rng(10)
        for _ in range(9):
            d = int(rng.integers(2, 9))
            shapes = []
            for _ in range(2):
                q, r = np.linalg.qr(rng.normal(size=(d, d)))
                frame = q * np.sign(np.diag(r))
                scale = 10.0 ** rng.uniform(-12.0, 12.0)
                shapes.append(scale * (frame * 10.0 ** rng.uniform(-6.0, 6.0, d)) @ frame.T)
        e1, e2 = (Ellipsoid(np.zeros(d), q) for q in shapes)
        with pytest.raises(NotPositiveDefinite, match="whitened spectrum") as info:
            mvoe_pair(e1, e2)
        message = str(info.value)
        assert "smallest eigenvalue rounded to" in message and "<= 0" in message
        smallest = float(message.split("rounded to ")[1].split(" ")[0])
        largest = float(message.split("(largest ")[1].rstrip(")"))
        assert smallest <= 0.0
        assert 1e29 < largest < 1e30

    def test_overflowing_center_is_rejected(self):
        # both inputs are valid, but q1 + q2 = 2e308 does not fit a double
        e = Ellipsoid([1e308, 0.0], np.eye(2))
        with pytest.raises(EllipsumError, match="center has non-finite entries"):
            mvoe_pair(e, e)
        with pytest.raises(EllipsumError, match="center has non-finite entries"):
            mvoe_sum([e, e])

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mvoe_pair(Ellipsoid(np.zeros(2), np.eye(2)), Ellipsoid(np.zeros(3), np.eye(3)))


class TestReportedResidual:
    @pytest.mark.parametrize("method", ["auto", "bisection", "fixed_point", "trace"])
    def test_matches_numpy_residual_at_returned_beta(self, method):
        # the solve reports |r(beta)| from its own scalar loop; it must agree
        # with the public numpy evaluation, over the solve's own spectrum, at
        # the beta it returns
        rng = np.random.default_rng(1230)
        opts = SolverOptions(method=method)
        worst = 0.0
        for _ in range(500):
            dim = 2 if method == "bisection" else int(rng.integers(1, 11))
            e1 = random_ellipsoid(rng, dim, log_lo=-3.0, log_hi=3.0)
            e2 = random_ellipsoid(rng, dim, log_lo=-3.0, log_hi=3.0)
            result = mvoe_pair(e1, e2, opts)
            expected = abs(optimality_residual(mvoe._whitened_spectrum(e1.factor, e2.factor), result.beta))
            worst = max(worst, abs(result.residual - expected) / (1.0 + expected))
        assert worst <= 1e-12


class TestMvoeSum:
    def test_single_input_returned_unchanged(self):
        e = Ellipsoid([1.0, 2.0], np.diag([2.0, 3.0]))
        result, betas = mvoe_sum([e])
        assert result.ellipsoid is e
        assert betas == []
        assert result.iterations == 0
        assert result.residual == 0.0

    def test_three_unit_disks(self):
        disk = Ellipsoid(np.zeros(2), np.eye(2))
        result, betas = mvoe_sum([disk, disk, disk])
        assert np.allclose(result.ellipsoid.shape, 9.0 * np.eye(2), atol=1e-10)
        assert abs(result.volume - 9.0 * math.pi) < 1e-10
        assert len(betas) == 2

    def test_pairwise_equivalence_for_two(self):
        rng = np.random.default_rng(74)
        e1, e2 = random_ellipsoid(rng, 3), random_ellipsoid(rng, 3)
        direct = mvoe_pair(e1, e2)
        folded, betas = mvoe_sum([e1, e2])
        assert betas == [direct.beta]
        assert np.array_equal(folded.ellipsoid.shape, direct.ellipsoid.shape)

    def test_four_random_ellipses_contain_support_sum(self):
        rng = np.random.default_rng(75)
        parts = [random_ellipsoid(rng, 2) for _ in range(4)]
        result, betas = mvoe_sum(parts)
        assert len(betas) == 3
        dirs = rng.normal(size=(500, 2))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        for u in dirs:
            total = sum(support(p, u) for p in parts)
            assert support(result.ellipsoid, u) >= total - 1e-9

    def test_center_is_exact_sum(self):
        rng = np.random.default_rng(76)
        parts = [random_ellipsoid(rng, 3) for _ in range(4)]
        result, _ = mvoe_sum(parts)
        expected = parts[0].center + parts[1].center + parts[2].center + parts[3].center
        assert np.array_equal(result.ellipsoid.center, expected)

    def test_fold_matches_chained_pair_solves(self):
        rng = np.random.default_rng(77)
        parts = [random_ellipsoid(rng, 4, log_lo=-3.0, log_hi=3.0) for _ in range(6)]
        result, betas = mvoe_sum(parts)
        acc, chained = parts[0], []
        for nxt in parts[1:]:
            step = mvoe_pair(acc, nxt)
            chained.append(step.beta)
            acc = step.ellipsoid
        assert betas == chained
        assert np.array_equal(result.ellipsoid.shape, acc.shape)
        assert np.array_equal(result.ellipsoid.factor, acc.factor)
        assert result.ellipsoid.log_volume() == acc.log_volume()
        assert (result.iterations, result.residual) == (step.iterations, step.residual)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            mvoe_sum([])

    def test_mixed_dims(self):
        with pytest.raises(DimensionMismatch):
            mvoe_sum([Ellipsoid(np.zeros(2), np.eye(2)), Ellipsoid(np.zeros(3), np.eye(3))])


class TestTrustedOutputs:
    """mvoe_pair builds its output from the shape it assembles, its Cholesky
    factor and the spectrum it already has, without validating it again."""

    @pytest.mark.parametrize("dim", [2, 6, 20])
    def test_long_fold_keeps_factor_log_volume_and_beta(self, dim):
        # each output whitens the next step, so its factor, taken afresh from
        # each step's Q(beta), and the log-volume read from that factor must
        # keep matching the shape over a long fold
        rng = np.random.default_rng(1200 + dim)
        log_ball = math.log(unit_ball_volume(dim))
        acc = random_ellipsoid(rng, dim, log_lo=-3.0, log_hi=3.0)
        worst_factor = worst_log_volume = worst_beta = 0.0
        for _ in range(1000):
            nxt = random_ellipsoid(rng, dim, log_lo=-3.0, log_hi=3.0)
            result = mvoe_pair(acc, nxt)
            refactorized = mvoe_pair(Ellipsoid(acc.center, acc.shape), nxt)
            out = result.ellipsoid
            s = out.factor
            worst_factor = max(worst_factor, np.linalg.norm(s @ s.T - out.shape) / np.linalg.norm(out.shape))
            _, logdet = np.linalg.slogdet(out.shape)
            expected = log_ball + 0.5 * logdet
            worst_log_volume = max(worst_log_volume, abs(out.log_volume() - expected) / max(1.0, abs(expected)))
            worst_beta = max(worst_beta, abs(result.beta - refactorized.beta) / refactorized.beta)
            acc = out
        assert worst_factor <= 1e-10
        assert worst_log_volume <= 1e-10
        assert worst_beta <= 1e-10

    def test_scale_sweep_log_volume_is_that_of_the_stored_shape(self):
        # folds of shapes s O diag(10^U(-3, 3)) O', s = 10^U(-12, 12): each
        # step's log-volume must be that of the shape it stores, to 50
        # digits, and must agree with the golden-section oracle of `check`.
        # Read from the factor it is within 1.5e-11 of the reference on this
        # sweep at seeds 0-8; a log-det summed over the spectrum instead
        # misses it by up to 3.4e-7 and fails `volume_agreement` (tolerance
        # 1e-8) on 4 to 13 of the about 400 steps at each seed.
        mpmath = pytest.importorskip("mpmath")

        def shape(d):
            frame, _ = np.linalg.qr(rng.normal(size=(d, d)))
            m = (frame * 10.0 ** rng.uniform(-3.0, 3.0, d)) @ frame.T
            return 10.0 ** rng.uniform(-12.0, 12.0) * (0.5 * (m + m.T))

        def mp_log_volume(q):
            d = q.shape[0]
            with mpmath.workdps(50):
                half_logdet = mpmath.log(mpmath.det(mpmath.matrix(q.tolist()))) / 2
                return float(d * mpmath.log(mpmath.pi) / 2 - mpmath.loggamma(d / 2 + 1) + half_logdet)

        rng = np.random.default_rng(7)
        worst, disagreements, steps = 0.0, [], 0
        for _ in range(200):
            d, k = int(rng.integers(2, 9)), int(rng.integers(2, 5))
            acc = Ellipsoid(rng.normal(size=d), shape(d))
            for _ in range(k - 1):
                nxt = Ellipsoid(rng.normal(size=d), shape(d))
                result = mvoe_pair(acc, nxt)
                log_volume = result.ellipsoid.log_volume()
                worst = max(worst, abs(log_volume - mp_log_volume(result.ellipsoid.shape)))
                # the other reports of `check` are asserted on this sweep,
                # extended to 300 folds, in test_oracles.py
                reports = pair_step_checks(acc.shape, nxt.shape, result.beta, log_volume)
                disagreements += [r.details for r in reports if r.name == "volume_agreement" and not r.passed]
                steps += 1
                acc = result.ellipsoid
        assert steps > 350
        assert worst <= 1e-10
        assert disagreements == []

    @pytest.mark.parametrize("dim", [2, 6])
    def test_membership_agrees_with_cholesky(self, dim):
        rng = np.random.default_rng(1210 + dim)
        result, _ = mvoe_sum([random_ellipsoid(rng, dim, log_lo=-3.0, log_hi=3.0) for _ in range(8)])
        out = result.ellipsoid
        lower = np.linalg.cholesky(out.shape)
        assert np.linalg.norm(out.factor - lower) <= 1e-12 * np.linalg.norm(lower)
        for radius in (0.5, 1.0 - 1e-6, 1.0 + 1e-6, 2.0):
            for _ in range(50):
                x = out.center + radius * (lower @ unit_direction(rng.normal(size=dim)))
                # membership through the stored factor; every sampled
                # radius is at least 1e-6 off the boundary
                z = np.linalg.solve(out.factor, x - out.center)
                assert bool(z @ z <= 1.0) == (radius < 1.0)

    def test_outputs_are_not_validated_again(self, monkeypatch):
        rng = np.random.default_rng(1220)
        parts = [random_ellipsoid(rng, 3) for _ in range(4)]
        calls = []
        # the pair step factors through the kernel, inside its own errstate
        for name in ("_cholesky", "symmetrize"):
            real = getattr(linalg, name)
            monkeypatch.setattr(linalg, name, lambda m, real=real, name=name: calls.append(name) or real(m))
        mvoe_sum(parts)
        # one Cholesky per pair step, on Q(beta); nothing is symmetrized
        assert calls == ["_cholesky"] * (len(parts) - 1)

    def test_trusted_constructor_is_not_exported(self):
        assert "_trusted" not in ellipsum.__all__
        assert not any(name.startswith("_") for name in ellipsum.__all__)


class TestSolverOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(tolerance=0.0)
        with pytest.raises(ValueError):
            SolverOptions(max_iterations=0)
        with pytest.raises(ValueError):
            SolverOptions(method="newton")
        for tolerance in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                SolverOptions(tolerance=tolerance)
        for tolerance in (True, "1e-3", None):
            with pytest.raises(ValueError, match="tolerance must be a number"):
                SolverOptions(tolerance=tolerance)
        for cap in (2.5, 3.0, "3", True):
            with pytest.raises(ValueError, match="an integer"):
                SolverOptions(max_iterations=cap)
        assert SolverOptions(max_iterations=np.int64(3)).max_iterations == 3
