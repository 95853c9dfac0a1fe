"""Brute-force verification oracles, independent of the solver's arithmetic.

The oracles whiten a pair by their own route, ``_whiten`` (W = L1^{-1} Q2
L1^{-T} by ``np.linalg`` solves). Every leg that needs the spectrum of
Q1^{-1} Q2 reads that W: the closed-form and spectral derivatives of log
det Q(beta), the consistency identity and the bracket of the golden-section
search on numpy's ``slogdet``. ``pair_step_checks`` certifies one pair step
on one whitening; ``check`` runs it on each pair step and
``containment_check``, on sampled support functions, on its output. Each
oracle that takes a beta raises NonPositiveBeta unless it is positive and
finite, and each that takes shape matrices checks and factors them once,
by ``mvoe._shapes``, not again inside the search or a check.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass

import numpy as np

from .ellipsoid import Ellipsoid, _log_unit_ball_volume
from .errors import DimensionMismatch
from .linalg import _sym_eigvals
from .mvoe import _positive_beta, _q_of_beta, _shapes, _spectrum
from .mvoe import logdet_curvature, optimality_residual

#: absolute support-function slack for containment checks; a report's
#: ``worst_violation`` is the largest violation minus this
CONTAINMENT_TOL = 1e-9

#: containment passes where each violation is at most
#: max(CONTAINMENT_TOL, CONTAINMENT_ROUNDOFF_FACTOR * d * eps * m), m the
#: summed support magnitudes sum_k (|u'c_k| + sqrt(u'Q_k u)) in direction u: a
#: support value is a length-d dot product plus the root of a quadratic form,
#: so its rounding grows like d * eps * m, and at solver outputs the largest
#: violation stayed below 0.91 eps * max(1, m) over 300 problems (d = 2..8,
#: shape scales 10^U(-12, 12))
CONTAINMENT_ROUNDOFF_FACTOR = 16.0

#: relative agreement required between derivative routes
DERIVATIVE_RTOL = 1e-4

#: magnitude below which beta times a derivative, i.e. the derivative in
#: log beta, counts as vanishing (root claim); scale-free, unlike d/dbeta,
#: which decays like d/beta far above the root
STATIONARY_TOL = 1e-6

#: central-difference step, relative to beta
FD_REL_STEP = 1e-6

#: multiple of the finite difference's roundoff estimate
#: eps * (cond(Q(beta)) + sum_i |log s_i|) / h (s: singular values of Q(beta);
#: the sum is the rounding of d logarithms) that comparisons against it
#: forgive; at solver roots |closed - fd| stayed below 3.2 times the estimate
#: over 1340 pair steps at d = 2..12 (eigenvalues 10^U(-4.5, 4.5)) and 50..200
FD_ROUNDOFF_FACTOR = 16.0

#: relative tolerance for the root-identity check
IDENTITY_RTOL = 1e-8

#: agreement demanded between the solver's and the search oracle's
#: log-volumes, i.e. their relative volume difference to first order
VOLUME_AGREEMENT_RTOL = 1e-8

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

_FLOAT_MAX = float(np.finfo(float).max)

# widening of the spectral bracket on each side, in log beta: a computed
# spectrum is off by up to about d eps sqrt(cond(Q1)) lambda_max, so an
# inaccurate one must not exclude the true minimizer; log det Q(beta) has a
# single minimum in log beta, so any interval holding it is valid
_BRACKET_PAD = 1.0


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one oracle check.

    ``worst_violation`` is the signed maximum constraint violation; values
    at or below zero mean the check passed (containment also passes above
    zero where its scale-relative slack is larger; ``passed`` decides).
    """

    name: str
    passed: bool
    worst_violation: float
    samples: int
    details: str

    def to_dict(self) -> dict:
        return asdict(self)


def _logdet_q(Q1: np.ndarray, Q2: np.ndarray, beta: float) -> float:
    """log det Q(beta) via numpy's slogdet, independent of the package's
    own factorizations, unchecked; +inf when it is numerically indefinite."""
    sign, value = np.linalg.slogdet(_q_of_beta(Q1, Q2, beta))
    return value if sign > 0.0 else math.inf


def _whiten(factor: np.ndarray, q2: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """The oracles' whitening of a pair: the exactly symmetric W = L1^{-1} Q2
    L1^{-T}, L1 = ``factor`` the lower Cholesky factor of Q1, by two
    ``np.linalg.solve`` calls against Q2 itself, and its eigenvalues."""
    with np.errstate(all="ignore"):
        x = np.linalg.solve(factor, q2)
        w = np.linalg.solve(factor, x.T).T
        w = 0.5 * (w + w.T)
        return w, _sym_eigvals(w)


def generalized_spectrum(Q1, Q2) -> np.ndarray:
    """Positive eigenvalues of Q1^{-1} Q2, ascending: the oracles' spectrum,
    that of the whitened W = L1^{-1} Q2 L1^{-T}, Q1 = L1 L1', which keeps the
    eigenproblem symmetric (Golub & Van Loan, Matrix Computations, 8.7)."""
    (_, factor), (b, _) = _shapes((Q1, Q2))
    return np.array(_whiten(factor, b)[1])


def golden_section_beta(Q1, Q2, tol: float) -> tuple[float, float]:
    """Locate the volume-minimizing beta by direct scalar search.

    Golden-section search in t = log beta over the spectral bracket
    [-1/2 log l_max, -1/2 log l_min] of the generalized eigenvalues l of
    Q1^{-1} Q2, which holds the minimizer at any scale, widened by 1 on each
    side so that an inaccurate spectrum cannot exclude it, until the bracket
    is at most ``tol`` wide in log beta (``tol`` relative to beta). Returns the
    minimizer and the log-volume of the corresponding outer ellipsoid, which
    stays finite where the volume overflows.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    (a, factor), (b, _) = _shapes((Q1, Q2))
    return _golden_section(a, b, _whiten(factor, b)[1], tol)


def _golden_section(a: np.ndarray, b: np.ndarray, lam: list[float], tol: float) -> tuple[float, float]:
    """The search of ``golden_section_beta`` on the spectrum ``lam`` of
    a^{-1} b; ``tol`` is positive."""
    lo = -0.5 * math.log(lam[-1]) - _BRACKET_PAD
    hi = -0.5 * math.log(lam[0]) + _BRACKET_PAD

    def f(t):
        return _logdet_q(a, b, math.exp(t))

    h = hi - lo
    c = hi - _GOLDEN * h
    d = lo + _GOLDEN * h
    fc, fd = f(c), f(d)
    while h > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            h = hi - lo
            c = hi - _GOLDEN * h
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            h = hi - lo
            d = lo + _GOLDEN * h
            fd = f(d)
    beta_star = math.exp(0.5 * (lo + hi))
    return beta_star, _log_unit_ball_volume(a.shape[0]) + 0.5 * _logdet_q(a, b, beta_star)


def _gaussians(uniform, count: int) -> np.ndarray:
    """``count`` standard normal draws by the Box-Muller transform: each pair
    of uniform draws gives the two independent normals r cos(2 pi u2) and
    r sin(2 pi u2), r = sqrt(-2 log u1), with u1 = 1 - uniform() in (0, 1]
    so the logarithm is finite."""
    pairs = (count + 1) // 2
    u = np.array([uniform() for _ in range(2 * pairs)]).reshape(pairs, 2)
    radius = np.sqrt(-2.0 * np.log(1.0 - u[:, 0]))
    angle = 2.0 * math.pi * u[:, 1]
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:count]


def sample_directions(dim: int, n_dirs: int, seed: int) -> np.ndarray:
    """Deterministic unit directions, uniform on the sphere, rows of shape
    (n_dirs, dim). Gaussian draws normalized to unit length.

    The draws come from ``random.Random(seed)``, whose stream Python keeps
    stable across releases (numpy promises no stable streams), and it needs
    no ``numpy.random`` import.
    """
    uniform = random.Random(seed).random
    u = _gaussians(uniform, n_dirs * dim).reshape(n_dirs, dim)
    norms = np.linalg.norm(u, axis=1)
    while np.any(norms == 0.0):  # essentially impossible, but stay total
        redraw = norms == 0.0
        u[redraw] = _gaussians(uniform, int(np.sum(redraw)) * dim).reshape(-1, dim)
        norms = np.linalg.norm(u, axis=1)
    return u / norms[:, None]


def _support_terms(ell: Ellipsoid, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per direction u, the two terms of the support function: u'c and sqrt(u'Qu)."""
    quad = np.einsum("ij,jk,ik->i", dirs, ell.shape, dirs)
    return dirs @ ell.center, np.sqrt(np.maximum(quad, 0.0))


def containment_check(outer: Ellipsoid, parts, n_dirs: int = 1000, seed: int = 0) -> CheckReport:
    """Verify that ``outer`` contains the Minkowski sum of ``parts``.

    Support functions are additive under Minkowski sums, so containment is
    equivalent to support(outer, u) >= sum_k support(part_k, u) for every
    direction u; this samples ``n_dirs`` pseudo-random unit directions
    (deterministic in ``seed``). ``worst_violation`` is the largest violation
    minus CONTAINMENT_TOL. The check passes when every violation is within
    its direction's slack, max(CONTAINMENT_TOL, CONTAINMENT_ROUNDOFF_FACTOR *
    d * eps * m) with m = sum_k (|u'c_k| + sqrt(u'Q_k u)), which grows with
    the supports compared; so at large scale a report can pass with
    ``worst_violation`` above zero. Parts of another dimension than
    ``outer`` raise DimensionMismatch.
    """
    parts = list(parts)
    if n_dirs < 1:
        raise ValueError("n_dirs must be at least 1")
    for k, part in enumerate(parts):
        if part.dim != outer.dim:
            raise DimensionMismatch(f"part {k} has dim {part.dim}, the outer ellipsoid has dim {outer.dim}")
    dirs = sample_directions(outer.dim, n_dirs, seed)
    total = np.zeros(n_dirs)
    magnitude = np.zeros(n_dirs)
    for part in parts:
        offset, radius = _support_terms(part, dirs)
        total += offset + radius
        magnitude += np.abs(offset) + radius
    offset, radius = _support_terms(outer, dirs)
    violation = total - (offset + radius)
    roundoff = CONTAINMENT_ROUNDOFF_FACTOR * outer.dim * np.finfo(float).eps
    slack = np.maximum(roundoff * magnitude, CONTAINMENT_TOL)
    tightest = int(np.argmax(violation - slack))
    worst = float(np.max(violation))
    return CheckReport(
        name="containment",
        passed=bool(violation[tightest] <= slack[tightest]),
        worst_violation=worst - CONTAINMENT_TOL,
        samples=n_dirs,
        details=(
            f"max support violation {worst:.3e} over {n_dirs} directions, slack {CONTAINMENT_TOL:.0e}; "
            f"nearest its slack: {float(violation[tightest]):.3e} against {float(slack[tightest]):.3e}"
        ),
    )


def _beyond_float_range(lam: np.ndarray, beta: float, scale: float = 0.0) -> bool:
    """Whether the closed forms at ``beta`` could overflow: with B = max(beta,
    1/beta) and L = max(1, l_max), each term they form is at most
    4 d (B L)^2 and each entry of Q(beta) at most 4 B ``scale``, the largest
    shape entry. Python floats overflow to inf here without a warning."""
    big = max(beta, 1.0 / beta)
    top = big * float(np.max(lam, initial=1.0))
    return not (4.0 * len(lam) * top * top < _FLOAT_MAX and 4.0 * big * scale < _FLOAT_MAX)


def _not_evaluated(name: str, samples: int, beta: float) -> CheckReport:
    details = f"not evaluated: the closed forms at beta {beta:.12g} leave the float range"
    return CheckReport(name=name, passed=False, worst_violation=math.inf, samples=samples, details=details)


def logdet_derivative(Q1, Q2, beta: float) -> float:
    """Closed-form d/dbeta log det Q(beta) via whitened solves:

    -1/(beta (1+beta)) * trace((I + beta R)^{-1} (I - beta^2 R)),
    R = Q1^{-1} Q2, evaluated on its symmetric whitened form W of ``_whiten``.
    """
    beta = _positive_beta(beta)
    (_, factor), (b, _) = _shapes((Q1, Q2))
    return _logdet_derivative(_whiten(factor, b)[0], beta)


def _logdet_derivative(w: np.ndarray, beta: float) -> float:
    eye = np.eye(w.shape[0])
    inner = np.linalg.solve(eye + beta * w, eye - beta * beta * w)
    return -float(np.trace(inner)) / (beta * (1.0 + beta))


def logdet_derivative_fd(Q1, Q2, beta: float) -> float:
    """Central finite difference of log det Q(beta) with step FD_REL_STEP * beta."""
    beta = _positive_beta(beta)
    (a, _), (b, _) = _shapes((Q1, Q2))
    return _logdet_derivative_fd(a, b, beta)


def _logdet_derivative_fd(a: np.ndarray, b: np.ndarray, beta: float) -> float:
    h = FD_REL_STEP * beta
    return (_logdet_q(a, b, beta + h) - _logdet_q(a, b, beta - h)) / (2.0 * h)


def _stationarity(a: np.ndarray, b: np.ndarray, w: np.ndarray, lam: list[float], beta: float) -> CheckReport:
    """Triangulate three evaluations of d/dbeta log det Q(beta) at ``beta``:

    (a) the closed form on ``w``, the whitened b of ``_whiten``, (b) a
    central finite difference, (c) the sum over ``lam``, the eigenvalues of
    ``w``, scaled by -1/(beta (1+beta)); none reads the solver's spectrum.
    The check passes when the three agree pairwise within DERIVATIVE_RTOL
    and all three, times ``beta``, are below STATIONARY_TOL in magnitude,
    i.e. ``beta`` really is a stationary point. That product is the
    derivative in log beta, -r(beta)/(1 + beta) with r the optimality
    residual; it is scale-free and bounded by d, where d/dbeta itself decays
    like d/beta far above the root. Agreement has a floor for values near
    zero. Between (a) and (c) it is 1e-8 / beta, i.e. 1e-8 on the derivative
    in log beta: both are formed from quantities whose rounding is
    scale-free in log beta, so their difference in d/dbeta scales like
    1/beta. For the two comparisons with (b) it is 1e-8, raised to
    FD_ROUNDOFF_FACTOR times the roundoff of (b), eps * (cond(Q(beta)) +
    sum_i |log s_i|) / h with step h and s the singular values of Q(beta).
    The magnitude test forgives (b) the same roundoff floor. A ``beta`` at
    which these forms could overflow fails with an infinite violation and is
    not evaluated.
    """
    if _beyond_float_range(lam, beta, max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))):
        return _not_evaluated("stationarity", 3, beta)
    closed = _logdet_derivative(w, beta)
    fd = _logdet_derivative_fd(a, b, beta)
    spectral = -optimality_residual(lam, beta) / (beta * (1.0 + beta))

    atol = 1e-8
    s = np.linalg.svd(_q_of_beta(a, b, beta), compute_uv=False)
    logdet_error = s[0] / s[-1] + float(np.sum(np.abs(np.log(s))))
    fd_roundoff = np.finfo(float).eps * logdet_error / (FD_REL_STEP * beta)
    fd_atol = max(atol, FD_ROUNDOFF_FACTOR * fd_roundoff)
    triples = [(closed, fd, fd_atol), (closed, spectral, atol / beta), (fd, spectral, fd_atol)]
    agree_excess = max(
        abs(x - y) - (DERIVATIVE_RTOL * max(abs(x), abs(y)) + floor) for x, y, floor in triples
    )
    magnitude_excess = beta * max(abs(closed), abs(spectral), abs(fd) - fd_atol) - STATIONARY_TOL
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
    root. A ``beta_plus`` at which these forms could overflow fails with an
    infinite violation and is not evaluated. ``lam`` must be a nonempty,
    positive and finite spectrum, or ValueError is raised, as by
    ``optimality_residual``.
    """
    beta_plus = _positive_beta(beta_plus)
    values = _spectrum(lam)
    d = values.shape[0]
    if _beyond_float_range(values, beta_plus):
        return _not_evaluated("consistency", d, beta_plus)
    lhs = float(np.sum(values / (1.0 + beta_plus * values)))
    rhs = d / (beta_plus * (beta_plus + 1.0))
    # rhs underflows to 0 at an extreme beta, which then fails the identity
    rel = abs(lhs - rhs) / rhs if rhs > 0.0 else math.inf
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


def pair_step_checks(Q1, Q2, beta: float, log_volume: float) -> list[CheckReport]:
    """The certificate of one pair step: Q1 and Q2 are its operands' shapes,
    ``beta`` its parameter and ``log_volume`` that of its outer ellipsoid.

    Returns the ``stationarity`` and ``consistency`` reports at ``beta`` and
    a ``volume_agreement`` report, which passes when ``log_volume`` is within
    VOLUME_AGREEMENT_RTOL of the golden-section oracle's (tolerance 1e-9 in
    log beta). The three share one whitening of the pair, by ``_whiten``.
    """
    beta = _positive_beta(beta)
    (a, factor), (b, _) = _shapes((Q1, Q2))
    w, lam = _whiten(factor, b)
    reports = [_stationarity(a, b, w, lam, beta), consistency_checks(lam, beta)]
    _, oracle_log_volume = _golden_section(a, b, lam, 1e-9)
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
