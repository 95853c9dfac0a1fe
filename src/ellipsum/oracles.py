"""Independent brute-force verification oracles.

These deliberately avoid the solver machinery: the volume oracle minimizes
log det Q(beta) by direct one-dimensional search (valid because the target
has a single stationary point, which is a minimum), containment is tested by
sampling support functions, and the derivative checks triangulate a closed
form, a finite difference and the spectral sum against each other. Used by
the test suite and by the ``check`` CLI command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ellipsoid import Ellipsoid, unit_ball_volume
from .mvoe import generalized_spectrum, logdet_curvature, optimality_residual, q_of_beta

#: support-function slack for containment checks
CONTAINMENT_TOL = 1e-9

#: relative agreement required between derivative routes
DERIVATIVE_RTOL = 1e-4

#: magnitude below which a derivative counts as vanishing (root claim)
STATIONARY_TOL = 1e-6

#: central-difference step, relative to beta
FD_REL_STEP = 1e-6

#: multiple of the finite difference's roundoff estimate eps * cond(Q(beta)) / h
#: that comparisons against it forgive; at solver roots |closed - fd| stayed
#: below 4.4 times the estimate over 1700 pair steps at d = 2..12 with shape
#: eigenvalues 10^U(-4.5, 4.5) and narrower
FD_ROUNDOFF_FACTOR = 16.0

#: relative tolerance for the root-identity check
IDENTITY_RTOL = 1e-8

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 200
_GRID_LO, _GRID_HI = 1e-6, 1e6


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one oracle check.

    ``worst_violation`` is the signed maximum constraint violation; values
    at or below zero mean the check passed.
    """

    name: str
    passed: bool
    worst_violation: float
    samples: int
    details: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "worst_violation": self.worst_violation,
            "samples": self.samples,
            "details": self.details,
        }


def _logdet_q(Q1: np.ndarray, Q2: np.ndarray, beta: float) -> float:
    """log det Q(beta) via numpy's slogdet, independent of the package's
    own factorizations; +inf when the combination is numerically indefinite."""
    sign, value = np.linalg.slogdet(q_of_beta(Q1, Q2, beta))
    return value if sign > 0.0 else math.inf


def golden_section_beta(Q1, Q2, tol: float) -> tuple[float, float]:
    """Locate the volume-minimizing beta by direct scalar search.

    A coarse log-spaced grid over [1e-6, 1e6] finds the minimizing cell;
    golden-section refinement inside the bracketing cell narrows it to width
    ``tol``. Returns the minimizer and the volume of the corresponding outer
    ellipsoid.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    a = np.asarray(Q1, dtype=float)
    b = np.asarray(Q2, dtype=float)
    grid = np.logspace(math.log10(_GRID_LO), math.log10(_GRID_HI), _GRID_POINTS)
    values = [_logdet_q(a, b, g) for g in grid]
    i = int(np.argmin(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, _GRID_POINTS - 1)]

    h = hi - lo
    c = hi - _GOLDEN * h
    d = lo + _GOLDEN * h
    fc = _logdet_q(a, b, c)
    fd = _logdet_q(a, b, d)
    while h > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            h = hi - lo
            c = hi - _GOLDEN * h
            fc = _logdet_q(a, b, c)
        else:
            lo, c, fc = c, d, fd
            h = hi - lo
            d = lo + _GOLDEN * h
            fd = _logdet_q(a, b, d)
    beta_star = 0.5 * (lo + hi)
    dim = a.shape[0]
    volume = unit_ball_volume(dim) * math.exp(0.5 * _logdet_q(a, b, beta_star))
    return beta_star, volume


def sample_directions(dim: int, n_dirs: int, seed: int) -> np.ndarray:
    """Deterministic unit directions, uniform on the sphere, rows of shape
    (n_dirs, dim). Gaussian draws normalized to unit length."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n_dirs, dim))
    norms = np.linalg.norm(u, axis=1)
    while np.any(norms == 0.0):  # essentially impossible, but stay total
        redraw = norms == 0.0
        u[redraw] = rng.normal(size=(int(np.sum(redraw)), dim))
        norms = np.linalg.norm(u, axis=1)
    return u / norms[:, None]


def _support_batch(ell: Ellipsoid, dirs: np.ndarray) -> np.ndarray:
    quad = np.einsum("ij,jk,ik->i", dirs, ell.shape, dirs)
    return dirs @ ell.center + np.sqrt(np.maximum(quad, 0.0))


def containment_check(outer: Ellipsoid, parts, n_dirs: int = 1000, seed: int = 0) -> CheckReport:
    """Verify that ``outer`` contains the Minkowski sum of ``parts``.

    Support functions are additive under Minkowski sums, so containment is
    equivalent to support(outer, u) >= sum_k support(part_k, u) for every
    direction u; this samples ``n_dirs`` pseudo-random unit directions
    (deterministic in ``seed``) and reports the worst violation against a
    slack of CONTAINMENT_TOL.
    """
    parts = list(parts)
    if n_dirs < 1:
        raise ValueError("n_dirs must be at least 1")
    dirs = sample_directions(outer.dim, n_dirs, seed)
    total = np.zeros(n_dirs)
    for part in parts:
        total += _support_batch(part, dirs)
    violation = total - _support_batch(outer, dirs)
    worst = float(np.max(violation)) if n_dirs else 0.0
    passed = worst <= CONTAINMENT_TOL
    return CheckReport(
        name="containment",
        passed=bool(passed),
        worst_violation=worst - CONTAINMENT_TOL,
        samples=n_dirs,
        details=f"max support violation {worst:.3e} over {n_dirs} directions, slack {CONTAINMENT_TOL:.0e}",
    )


def logdet_derivative(Q1, Q2, beta: float) -> float:
    """Closed-form d/dbeta log det Q(beta) via whitened solves:

    -1/(beta (1+beta)) * trace((I + beta R)^{-1} (I - beta^2 R)),
    R = Q1^{-1} Q2, evaluated on the symmetric whitened form of R.
    """
    a = np.asarray(Q1, dtype=float)
    b = np.asarray(Q2, dtype=float)
    L = np.linalg.cholesky(a)
    x = np.linalg.solve(L, b)
    w = np.linalg.solve(L, x.T).T
    w = 0.5 * (w + w.T)
    eye = np.eye(a.shape[0])
    inner = np.linalg.solve(eye + beta * w, eye - beta * beta * w)
    return -float(np.trace(inner)) / (beta * (1.0 + beta))


def logdet_derivative_fd(Q1, Q2, beta: float, rel_step: float = FD_REL_STEP) -> float:
    """Central finite difference of log det Q(beta) with step rel_step * beta."""
    a = np.asarray(Q1, dtype=float)
    b = np.asarray(Q2, dtype=float)
    h = rel_step * beta
    return (_logdet_q(a, b, beta + h) - _logdet_q(a, b, beta - h)) / (2.0 * h)


def stationarity_check(Q1, Q2, beta: float) -> CheckReport:
    """Triangulate three evaluations of d/dbeta log det Q(beta) at ``beta``.

    (a) the closed form via whitened solves, (b) a central finite
    difference, (c) the spectral sum scaled by -1/(beta (1+beta)). The check
    passes when the three agree pairwise within DERIVATIVE_RTOL and all three
    are below STATIONARY_TOL in magnitude, i.e. ``beta`` really is a
    stationary point. Agreement has an absolute floor for values near zero:
    1e-8, raised for the two comparisons with (b) to FD_ROUNDOFF_FACTOR
    times its roundoff, eps * cond(Q(beta)) / h with step h. The magnitude
    test forgives (b) the same roundoff floor.
    """
    a = np.asarray(Q1, dtype=float)
    b = np.asarray(Q2, dtype=float)
    closed = logdet_derivative(a, b, beta)
    fd = logdet_derivative_fd(a, b, beta)
    lam = generalized_spectrum(a, b)
    spectral = -optimality_residual(lam, beta) / (beta * (1.0 + beta))

    atol = 1e-8
    fd_roundoff = np.finfo(float).eps * np.linalg.cond(q_of_beta(a, b, beta)) / (FD_REL_STEP * beta)
    fd_atol = max(atol, FD_ROUNDOFF_FACTOR * fd_roundoff)
    triples = [(closed, fd, fd_atol), (closed, spectral, atol), (fd, spectral, fd_atol)]
    agree_excess = max(
        abs(x - y) - (DERIVATIVE_RTOL * max(abs(x), abs(y)) + floor) for x, y, floor in triples
    )
    magnitude_excess = max(abs(closed), abs(spectral), abs(fd) - fd_atol) - STATIONARY_TOL
    worst = max(agree_excess, magnitude_excess)
    return CheckReport(
        name="stationarity",
        passed=bool(worst <= 0.0),
        worst_violation=float(worst),
        samples=3,
        details=(
            f"closed {closed:.6e}, finite-diff {fd:.6e}, spectral {spectral:.6e} at beta {beta:.12g}"
        ),
    )


def consistency_checks(lam, beta_plus: float) -> CheckReport:
    """Identities that must hold at a converged root.

    The optimality equation rearranges to sum_i l_i/(1 + beta l_i) =
    d / (beta (beta + 1)); this asserts that identity to IDENTITY_RTOL
    relative, plus strict positivity of the log-volume curvature at the
    root.
    """
    values = np.asarray(lam, dtype=float).reshape(-1)
    d = values.shape[0]
    lhs = float(np.sum(values / (1.0 + beta_plus * values)))
    rhs = d / (beta_plus * (beta_plus + 1.0))
    rel = abs(lhs - rhs) / abs(rhs)
    curvature = logdet_curvature(values, beta_plus)
    worst = max(rel - IDENTITY_RTOL, -curvature)
    return CheckReport(
        name="consistency",
        passed=bool(worst <= 0.0),
        worst_violation=float(worst),
        samples=d,
        details=(
            f"identity lhs {lhs:.12e} vs rhs {rhs:.12e} (rel {rel:.3e}), curvature {curvature:.6e}"
        ),
    )
