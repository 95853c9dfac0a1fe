"""Property-based tests for the package invariants."""

import math

import numpy as np
from hypothesis import example, given, strategies as st

from conftest import random_ellipsoid, spd_matrix, support
from ellipsum import (
    Ellipsoid,
    affine_image,
    generalized_spectrum,
    mvoe_pair,
    optimality_polynomial,
    q_of_alpha,
    q_of_beta,
    q_of_direction,
    solve_beta_bisection,
    solve_beta_fixed_point,
    unit_direction,
)
from ellipsum import linalg

dims = st.integers(min_value=1, max_value=6)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
betas = st.floats(min_value=1e-3, max_value=1e3)


@given(dims, seeds)
def test_cholesky_reconstructs(dim, seed):
    m = spd_matrix(np.random.default_rng(seed), dim)
    with np.errstate(all="ignore"):
        L = linalg._cholesky(m)
    assert np.linalg.norm(L @ L.T - m) <= 1e-12 * np.linalg.norm(m)


@given(dims, seeds)
def test_eigendecomposition_invariants(dim, seed):
    # the package's eigenvalues rebuild m in numpy's eigenbasis
    m = spd_matrix(np.random.default_rng(seed), dim)
    with np.errstate(all="ignore"):
        values = linalg._sym_eigvals(m)
    vectors = np.linalg.eigh(m)[1]
    assert np.linalg.norm((vectors * values) @ vectors.T - m) <= 1e-10 * np.linalg.norm(m)


@given(dims, seeds)
def test_det_consistency(dim, seed):
    m = spd_matrix(np.random.default_rng(seed), dim)
    with np.errstate(all="ignore"):
        det = float(np.prod(np.diagonal(linalg._cholesky(m)))) ** 2
    prod = float(np.prod(np.linalg.eigh(m)[0]))
    assert abs(det - prod) <= 1e-10 * abs(prod)


@given(dims, seeds)
def test_support_dominates_center_projection(dim, seed):
    rng = np.random.default_rng(seed)
    e = random_ellipsoid(rng, dim)
    u = unit_direction(rng.normal(size=dim))
    assert support(e, u) > float(u @ e.center)


@given(st.integers(min_value=2, max_value=5), seeds)
@example(dim=2, seed=233)  # cond(f) = 2.6e4: relative error 1.6e-8
def test_affine_volume_scaling(dim, seed):
    rng = np.random.default_rng(seed)
    e = random_ellipsoid(rng, dim, log_lo=-1.0, log_hi=1.0)
    f = rng.normal(size=(dim, dim)) + 2.0 * np.eye(dim)
    det = abs(np.linalg.det(f))
    if det < 1e-6:
        return
    image = affine_image(e, f)
    # the image's log-det comes from factoring F Q F', whose condition number
    # is at most cond(f)^2 cond(Q), and loses about eps times that; det(f)
    # from LU loses about eps * cond(f)
    cond_f = np.linalg.cond(f)
    tol = 1e-9 + 16.0 * np.finfo(float).eps * (cond_f**2 * np.linalg.cond(e.shape) + cond_f)
    assert abs(image.volume() - det * e.volume()) <= tol * det * e.volume()


@given(st.integers(min_value=1, max_value=6), seeds, betas)
def test_beta_family_contains_sum_in_every_direction(dim, seed, beta):
    rng = np.random.default_rng(seed)
    q1, q2 = spd_matrix(rng, dim), spd_matrix(rng, dim)
    q = q_of_beta(q1, q2, beta)
    for u in rng.normal(size=(20, dim)):
        outer = math.sqrt(u @ q @ u)
        inner = math.sqrt(u @ q1 @ u) + math.sqrt(u @ q2 @ u)
        assert outer >= inner - 1e-9 * max(1.0, inner)


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=4), seeds)
def test_direction_family_touches_at_its_direction(dim, count, seed):
    rng = np.random.default_rng(seed)
    shapes = [spd_matrix(rng, dim) for _ in range(count)]
    u = unit_direction(rng.normal(size=dim))
    q = q_of_direction(shapes, u)
    lhs = math.sqrt(u @ q @ u)
    rhs = sum(math.sqrt(u @ s @ u) for s in shapes)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


@given(st.integers(min_value=1, max_value=6), seeds)
def test_parameterization_equivalences(dim, seed):
    rng = np.random.default_rng(seed)
    q1, q2 = spd_matrix(rng, dim), spd_matrix(rng, dim)
    u = unit_direction(rng.normal(size=dim))
    beta = math.sqrt((u @ q1 @ u) / (u @ q2 @ u))
    direct = q_of_direction([q1, q2], u)
    via_beta = q_of_beta(q1, q2, beta)
    scale = np.max(np.abs(direct))
    assert np.allclose(direct, via_beta, rtol=1e-12, atol=1e-12 * scale)
    alpha1 = float(rng.uniform(0.05, 0.95))
    via_alpha = q_of_alpha([q1, q2], [alpha1, 1.0 - alpha1])
    via_beta2 = q_of_beta(q1, q2, alpha1 / (1.0 - alpha1))
    scale2 = np.max(np.abs(via_alpha))
    assert np.allclose(via_alpha, via_beta2, rtol=1e-12, atol=1e-12 * scale2)


@given(st.integers(min_value=1, max_value=10), seeds)
def test_optimality_polynomial_single_sign_change(dim, seed):
    rng = np.random.default_rng(seed)
    lam = 10.0 ** rng.uniform(-3, 3, dim)
    poly = optimality_polynomial(lam)
    signs = [s for s in np.sign(poly.coeffs) if s != 0]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert changes == 1
    assert poly.coeffs[0] == float(dim)
    # the polynomial is negative below the root and positive above it
    beta, _ = solve_beta_fixed_point(lam, 1.0)
    assert poly(0.5 * beta) < 0.0 < poly(2.0 * beta)


@given(seeds)
def test_bisection_and_fixed_point_agree_2d(seed):
    rng = np.random.default_rng(seed)
    lam = np.sort(10.0 ** rng.uniform(-3, 3, 2))
    b_bis, _ = solve_beta_bisection(lam)
    b_fp, _ = solve_beta_fixed_point(lam, 1.0)
    assert abs(b_bis - b_fp) < 1e-8


@given(st.floats(min_value=1e-3, max_value=1e3), st.integers(min_value=1, max_value=10))
def test_equal_spectrum_closed_form(lam_value, dim):
    lam = np.full(dim, lam_value)
    beta, _ = solve_beta_fixed_point(lam, 1.0)
    assert abs(beta - 1.0 / math.sqrt(lam_value)) <= 1e-12 * max(1.0, beta)


@given(st.integers(min_value=1, max_value=5), seeds, st.floats(min_value=1e-2, max_value=1e2))
def test_mvoe_scaling_law(dim, seed, scale):
    rng = np.random.default_rng(seed)
    e1 = random_ellipsoid(rng, dim, log_lo=-1.0, log_hi=1.0)
    e2 = random_ellipsoid(rng, dim, log_lo=-1.0, log_hi=1.0)
    lam_base = generalized_spectrum(e1.shape, e2.shape)
    lam_scaled = generalized_spectrum(scale * e1.shape, scale * e2.shape)
    assert np.allclose(lam_base, lam_scaled, rtol=1e-9, atol=1e-12)
    base = mvoe_pair(e1, e2)
    scaled = mvoe_pair(Ellipsoid(e1.center, scale * e1.shape), Ellipsoid(e2.center, scale * e2.shape))
    assert abs(scaled.beta - base.beta) <= 1e-8 * max(1.0, base.beta)
    assert np.allclose(scaled.ellipsoid.shape, scale * base.ellipsoid.shape, rtol=1e-8, atol=1e-10)


scales = st.floats(min_value=-12.0, max_value=12.0).map(lambda e: 10.0**e)


def volume_beta(q1, q2) -> float:
    origin = np.zeros(q1.shape[0])
    return mvoe_pair(Ellipsoid(origin, q1), Ellipsoid(origin, q2)).beta


@given(st.integers(min_value=1, max_value=6), seeds, scales)
def test_beta_invariant_under_joint_scaling(dim, seed, c):
    rng = np.random.default_rng(seed)
    q1, q2 = spd_matrix(rng, dim), spd_matrix(rng, dim)
    beta = volume_beta(q1, q2)
    assert abs(volume_beta(c * q1, c * q2) - beta) <= 1e-9 * beta


@given(st.integers(min_value=1, max_value=6), seeds, scales)
def test_beta_under_scaling_of_second_shape(dim, seed, c):
    # beta/sqrt(c) holds exactly only for proportional shapes; in general
    # sqrt(c) beta(Q1, c Q2) stays in the bracket of the unscaled spectrum
    # and beta(Q1, c Q2) does not increase with c
    rng = np.random.default_rng(seed)
    q1, q2 = spd_matrix(rng, dim), spd_matrix(rng, dim)
    lam = generalized_spectrum(q1, q2)
    beta, scaled = volume_beta(q1, q2), volume_beta(q1, c * q2)
    assert lam[-1] ** -0.5 * (1.0 - 1e-9) <= math.sqrt(c) * scaled <= lam[0] ** -0.5 * (1.0 + 1e-9)
    assert (scaled - beta) * (c - 1.0) <= 1e-9 * max(scaled, beta) * abs(c - 1.0)
    proportional = volume_beta(q1, c * q1)
    assert abs(proportional - 1.0 / math.sqrt(c)) <= 1e-9 * proportional


@given(st.integers(min_value=1, max_value=6), seeds, scales)
def test_beta_inverts_under_swap(dim, seed, c):
    rng = np.random.default_rng(seed)
    q1, q2 = spd_matrix(rng, dim), c * spd_matrix(rng, dim)
    beta = volume_beta(q1, q2)
    assert abs(volume_beta(q2, q1) - 1.0 / beta) <= 1e-9 / beta


@given(st.integers(min_value=1, max_value=6), seeds)
def test_beta_invariant_under_congruence(dim, seed):
    rng = np.random.default_rng(seed)
    q1, q2 = spd_matrix(rng, dim), spd_matrix(rng, dim)
    t = rng.normal(size=(dim, dim)) + 3.0 * np.eye(dim)
    if np.linalg.cond(t) > 1e3:
        return
    p1 = t @ q1 @ t.T
    # whitening by the Cholesky factor of Q1 loses about eps * cond(Q1) of
    # the spectrum, on either side of the comparison
    tol = 1e-9 + 16.0 * np.finfo(float).eps * (np.linalg.cond(q1) + np.linalg.cond(p1))
    beta = volume_beta(q1, q2)
    assert abs(volume_beta(p1, t @ q2 @ t.T) - beta) <= tol * beta


@given(st.integers(min_value=2, max_value=3), seeds)
def test_boundary_points_residual(dim, seed):
    e = random_ellipsoid(np.random.default_rng(seed), dim)
    inv = np.linalg.inv(e.shape)
    for x in e.boundary_points(7):
        assert abs((x - e.center) @ inv @ (x - e.center) - 1.0) < 1e-9
