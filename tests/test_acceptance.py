"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line (run with `pytest -s`
to see them on passing runs). Criterion 6 is split into its two clauses:
the single-sign-change clause holds and passes; the mu-monotonicity clause
is mathematically false in general and the test records that honestly, see
README "Known issues".
"""

import math
import time

import numpy as np
import pytest

from conftest import spd_matrix
from ellipsum import (
    Ellipsoid,
    SolverOptions,
    containment_check,
    generalized_spectrum,
    golden_section_beta,
    logdet_curvature,
    mvoe_pair,
    mvoe_sum,
    optimality_polynomial,
    optimality_residual,
    q_of_direction,
    solve_beta_bisection,
    solve_beta_fixed_point,
    unit_ball_volume,
    unit_direction,
)
from ellipsum.oracles import logdet_derivative, logdet_derivative_fd
from ellipsum.reach import LtiStage, propagate_forward

SUITE_SEED = 20250801
PAIRS_PER_DIM = 100
DIMS = range(2, 11)


def _report(num, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {status} {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def suite():
    """Fixed-seed random pair suite shared by criteria 1, 3, 4, 7, 8."""
    rng = np.random.default_rng(SUITE_SEED)
    records = []
    start = time.perf_counter()
    for dim in DIMS:
        for _ in range(PAIRS_PER_DIM):
            q1 = spd_matrix(rng, dim, log_lo=-2.0, log_hi=2.0)
            q2 = spd_matrix(rng, dim, log_lo=-2.0, log_hi=2.0)
            e1 = Ellipsoid(rng.normal(size=dim), q1)
            e2 = Ellipsoid(rng.normal(size=dim), q2)
            auto = mvoe_pair(e1, e2)
            trace = mvoe_pair(e1, e2, SolverOptions(method="trace"))
            _, gs_log_volume = golden_section_beta(q1, q2, tol=1e-9)
            records.append(
                {
                    "dim": dim,
                    "e1": e1,
                    "e2": e2,
                    "lam": generalized_spectrum(q1, q2),
                    "auto": auto,
                    "trace": trace,
                    "gs_volume": math.exp(gs_log_volume),
                }
            )
    elapsed = time.perf_counter() - start
    return {"records": records, "elapsed": elapsed, "rng_state_seed": SUITE_SEED}


@pytest.fixture(scope="module")
def planar_spectra():
    rng = np.random.default_rng(SUITE_SEED + 1)
    return [np.sort(10.0 ** rng.uniform(-3.0, 3.0, 2)) for _ in range(1000)]


def test_criterion_1_solver_oracle_volume_agreement(suite):
    worst = 0.0
    for rec in suite["records"]:
        rel = abs(rec["auto"].volume - rec["gs_volume"]) / rec["gs_volume"]
        worst = max(worst, rel)
    ok = worst <= 1e-8
    _report(
        1,
        ok,
        f"solver vs search-oracle volume, {len(suite['records'])} pairs over d=2..10: "
        f"worst rel diff {worst:.3e} (tol 1e-8); suite build {suite['elapsed']:.2f} s",
    )


def test_criterion_2_planar_root_agreement_and_brackets(planar_spectra):
    from ellipsum import bracket_beta_2d

    worst_gap = 0.0
    brackets_ok = True
    for lam in planar_spectra:
        b_bis, _ = solve_beta_bisection(lam)
        b_fp, _ = solve_beta_fixed_point(lam, 1.0)
        worst_gap = max(worst_gap, abs(b_bis - b_fp))
        lo, hi = bracket_beta_2d(lam[0], lam[1])
        if not (lo < b_bis < hi and lo < b_fp < hi):
            brackets_ok = False
    ok = worst_gap <= 1e-8 and brackets_ok
    _report(
        2,
        ok,
        f"bisection vs fixed point on 1000 planar spectra: worst |diff| {worst_gap:.3e} "
        f"(tol 1e-8), brackets strict: {brackets_ok}",
    )


def test_criterion_3_root_certificates(suite, planar_spectra):
    worst_residual = 0.0
    worst_identity = 0.0
    curvature_ok = True

    def inspect(lam, beta):
        nonlocal worst_residual, worst_identity, curvature_ok
        worst_residual = max(worst_residual, abs(optimality_residual(lam, beta)))
        d = len(lam)
        lhs = float(np.sum(lam / (1.0 + beta * lam)))
        rhs = d / (beta * (beta + 1.0))
        worst_identity = max(worst_identity, abs(lhs - rhs) / abs(rhs))
        if not logdet_curvature(lam, beta) > 0.0:
            curvature_ok = False

    for rec in suite["records"]:
        inspect(rec["lam"], rec["auto"].beta)
    for lam in planar_spectra:
        inspect(lam, solve_beta_fixed_point(lam, 1.0)[0])
        inspect(lam, solve_beta_bisection(lam)[0])

    ok = worst_residual < 1e-8 and worst_identity <= 1e-8 and curvature_ok
    _report(
        3,
        ok,
        f"at every returned root: worst |residual| {worst_residual:.3e} (tol 1e-8), "
        f"worst identity rel err {worst_identity:.3e} (tol 1e-8), curvature > 0: {curvature_ok}",
    )


def test_criterion_4_containment_and_tightness(suite):
    worst_violation = -math.inf
    for k, rec in enumerate(suite["records"]):
        parts = [rec["e1"], rec["e2"]]
        for result in (rec["auto"], rec["trace"]):
            report = containment_check(result.ellipsoid, parts, n_dirs=1000, seed=k)
            worst_violation = max(worst_violation, report.worst_violation + 1e-9)
    # K = 4 folded sums, both methods, same guarantee
    rng = np.random.default_rng(SUITE_SEED + 2)
    for k in range(50):
        parts = [Ellipsoid(rng.normal(size=2), spd_matrix(rng, 2)) for _ in range(4)]
        for method in ("auto", "trace"):
            result, _ = mvoe_sum(parts, SolverOptions(method=method))
            report = containment_check(result.ellipsoid, parts, n_dirs=1000, seed=1000 + k)
            worst_violation = max(worst_violation, report.worst_violation + 1e-9)
    containment_ok = worst_violation <= 1e-9

    worst_touch = 0.0
    rng = np.random.default_rng(SUITE_SEED + 3)
    for rec in suite["records"][:300]:
        u = unit_direction(rng.normal(size=rec["dim"]))
        q = q_of_direction([rec["e1"].shape, rec["e2"].shape], u)
        lhs = math.sqrt(u @ q @ u)
        rhs = math.sqrt(u @ rec["e1"].shape @ u) + math.sqrt(u @ rec["e2"].shape @ u)
        worst_touch = max(worst_touch, abs(lhs - rhs) / max(1.0, rhs))
    tight_ok = worst_touch <= 1e-12

    _report(
        4,
        containment_ok and tight_ok,
        f"support containment worst violation {worst_violation:.3e} (slack 1e-9); "
        f"touching-direction equality worst {worst_touch:.3e} (tol 1e-12)",
    )


def test_criterion_5_exact_closed_forms():
    problems = []
    # two unit balls in every dimension: shape 4I, volume 4^{d/2} vol(B_1^d)
    ball_ok = True
    for dim in range(1, 7):
        ball = Ellipsoid(np.zeros(dim), np.eye(dim))
        result = mvoe_pair(ball, ball)
        shape_err = np.max(np.abs(result.ellipsoid.shape - 4.0 * np.eye(dim)))
        vol_expected = 4.0 ** (dim / 2.0) * unit_ball_volume(dim)
        vol_err = abs(result.volume - vol_expected) / vol_expected
        if shape_err > 1e-12 * 4.0 or vol_err > 1e-12:
            ball_ok = False
        problems.append(f"d={dim}: shape err {shape_err:.1e}, vol rel err {vol_err:.1e}")

    # equal spectra: beta = 1/sqrt(lambda)
    rng = np.random.default_rng(SUITE_SEED + 4)
    equal_ok = True
    for dim in (1, 3, 6, 10):
        lam_value = float(10.0 ** rng.uniform(-3, 3))
        beta, _ = solve_beta_fixed_point(np.full(dim, lam_value), 1.0)
        if abs(beta - 1.0 / math.sqrt(lam_value)) > 1e-12 * max(1.0, beta):
            equal_ok = False

    # 1-D Minkowski sums are exact
    one_d = mvoe_pair(Ellipsoid([0.0], [[1.0]]), Ellipsoid([0.0], [[4.0]]))
    sum_ok = one_d.ellipsoid.shape[0, 0] == 9.0

    # documented scalar reach tube, radii [1, 1.5, 1.75] to machine precision
    stage = LtiStage(F=[[0.5]], G=[[1.0]], input_set=Ellipsoid([0.0], [[1.0]]))
    tube = propagate_forward(Ellipsoid([0.0], [[1.0]]), [stage, stage], eps=0.0)
    radii = np.sqrt([e.shape[0, 0] for e in tube])
    reach_ok = bool(np.allclose(radii, [1.0, 1.5, 1.75], rtol=0.0, atol=1e-13))

    ok = ball_ok and equal_ok and sum_ok and reach_ok
    _report(
        5,
        ok,
        f"unit-ball pairs exact: {ball_ok}; equal-spectrum closed form: {equal_ok}; "
        f"1-D sum exact: {sum_ok}; reach radii {radii.tolist()} exact: {reach_ok}",
    )


def _structural_spectra():
    rng = np.random.default_rng(SUITE_SEED + 5)
    spectra = []
    for k in range(1000):
        dim = 3 + (k % 8)  # cycles d = 3..10
        spectra.append(10.0 ** rng.uniform(-3.0, 3.0, dim))
    return spectra


def test_criterion_6_single_sign_change():
    bad = 0
    for lam in _structural_spectra():
        poly = optimality_polynomial(lam)
        signs = [s for s in np.sign(poly.coeffs) if s != 0]
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        if changes != 1:
            bad += 1
    _report(
        "6 (sign-change clause)",
        bad == 0,
        f"exactly one coefficient sign change on 1000 random spectra, d=3..10: {1000 - bad}/1000",
    )


def test_criterion_6_mu_monotonicity():
    # The clause as stated: mu_r strictly increasing and positive. This is
    # not a theorem; interior mu_r change sign once the reciprocal spectrum
    # is small (first counterexample below is typically lambda with values
    # above 1). Kept faithful and red; see README "Known issues" for the
    # analysis and for the sign-change clause that does hold.
    violations = 0
    first = None
    spectra = _structural_spectra()
    for lam in spectra:
        mu = optimality_polynomial(lam).mu
        if not (np.all(mu > 0.0) and np.all(np.diff(mu) > 0.0)):
            violations += 1
            if first is None:
                first = lam
    ok = violations == 0
    detail = f"strictly increasing positive mu on 1000 random spectra: {1000 - violations}/1000"
    if first is not None:
        detail += f"; first counterexample lambda={np.round(first, 4).tolist()}"
    _report("6 (mu-monotonicity clause)", ok, detail)


def test_criterion_7_fixed_point_robustness(suite, planar_spectra):
    worst_spread = 0.0
    worst_iterations = 0
    spectra = [rec["lam"] for rec in suite["records"]] + planar_spectra
    for lam in spectra:
        limits = []
        for beta0 in (1e-3, 1.0, 1e3):
            beta, iterations = solve_beta_fixed_point(lam, beta0)  # cap 200 enforced inside
            limits.append(beta)
            worst_iterations = max(worst_iterations, iterations)
        worst_spread = max(worst_spread, max(limits) - min(limits))
    ok = worst_spread <= 1e-9 and worst_iterations <= 200
    _report(
        7,
        ok,
        f"multi-start fixed point on {len(spectra)} spectra: worst limit spread "
        f"{worst_spread:.3e} (tol 1e-9), max iterations {worst_iterations} (cap 200)",
    )


def test_criterion_8_derivative_correctness(suite):
    rng = np.random.default_rng(SUITE_SEED + 6)
    worst = 0.0
    for rec in suite["records"]:
        q1, q2 = rec["e1"].shape, rec["e2"].shape
        for beta in 10.0 ** rng.uniform(-2.0, 2.0, 10):
            closed = logdet_derivative(q1, q2, float(beta))
            fd = logdet_derivative_fd(q1, q2, float(beta))
            gap = abs(closed - fd) / max(abs(closed), abs(fd), 1e-8)
            worst = max(worst, gap)
    ok = worst <= 1e-4
    _report(
        8,
        ok,
        f"closed-form vs finite-difference log-volume derivative at 10 random "
        f"betas per pair: worst rel gap {worst:.3e} (tol 1e-4)",
    )


def test_criterion_9_performance_sanity():
    rng = np.random.default_rng(SUITE_SEED + 7)
    e1 = Ellipsoid(rng.normal(size=10), spd_matrix(rng, 10))
    e2 = Ellipsoid(rng.normal(size=10), spd_matrix(rng, 10))
    mvoe_pair(e1, e2)  # warm up
    samples = []
    for _ in range(51):
        start = time.perf_counter()
        mvoe_pair(e1, e2)
        samples.append(time.perf_counter() - start)
    pair_median = float(np.median(samples))

    parts = [Ellipsoid(rng.normal(size=2), spd_matrix(rng, 2)) for _ in range(8)]
    mvoe_sum(parts)
    samples = []
    for _ in range(51):
        start = time.perf_counter()
        mvoe_sum(parts)
        samples.append(time.perf_counter() - start)
    sum_median = float(np.median(samples))

    ok = pair_median < 1e-3 and sum_median < 1e-3
    _report(
        9,
        ok,
        f"median pair solve d=10: {pair_median * 1e3:.3f} ms; median K=8 d=2 sum: "
        f"{sum_median * 1e3:.3f} ms (both must be under 1 ms)",
    )
