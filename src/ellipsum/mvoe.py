"""Minimum-volume outer ellipsoids for Minkowski sums of ellipsoids.

The Minkowski sum of two ellipsoids E(q1, Q1) and E(q2, Q2) is contained in
every member of the one-parameter family

    E(q1 + q2, Q(beta)),   Q(beta) = (1 + 1/beta) Q1 + (1 + beta) Q2,  beta > 0,

and the minimum-volume member is characterized by a scalar equation in beta
whose coefficients are the generalized eigenvalues lambda of Q1^{-1} Q2:

    sum_i (1 - beta^2 lambda_i) / (1 + beta lambda_i) = 0.

This equation has exactly one positive root, and it lies in
[lambda_max^{-1/2}, lambda_min^{-1/2}] because every term decreases in beta.
The default solver is a safeguarded Newton iteration in log beta on that
bracket, one code path for every dimension. The paper's two iterations stay
available as reference methods: a bracketed bisection specialized to
dimension 2, and a fixed-point iteration that works in any dimension. A
closed form exists when minimizing the trace instead of the volume. Sums of
more than two ellipsoids are handled by a pairwise left fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .ellipsoid import Ellipsoid, unit_direction
from .errors import (
    DimensionMismatch,
    DimensionNotTwo,
    EmptyInput,
    InvalidWeights,
    MaxIterationsExceeded,
    NonPositiveBeta,
    NotPositiveDefinite,
)

METHODS = ("auto", "bisection", "fixed_point", "trace")

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and method selection for the beta solvers.

    ``tolerance`` is the authoritative stopping criterion: the step in log
    beta for Newton, the interval width relative to beta for bisection, and
    the step size relative to max(1, beta) for the fixed point. The optimality
    residual is reported but not used to stop. ``max_iterations`` caps the
    iterations of every method; reaching it raises MaxIterationsExceeded.
    ``method`` "auto" runs the Newton solver in every dimension, and results
    report it as "newton".
    """

    tolerance: float = 1e-12
    max_iterations: int = 200
    method: str = "auto"

    def __post_init__(self):
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")


@dataclass(frozen=True, eq=False)
class MvoeResult:
    """Outcome of one minimum-volume outer-ellipsoid computation."""

    beta: float
    ellipsoid: Ellipsoid
    volume: float
    method: str
    iterations: int
    residual: float


@dataclass(frozen=True, eq=False)
class OptimalityPolynomial:
    """Expanded form of the degree d+1 optimality polynomial.

    ``coeffs`` has length d+2, descending degree:

        [d, mu_1, ..., mu_{d-1}, -(d-1) e_{d-1}, -d e_d]

    where e_r is the r-th elementary symmetric polynomial in the reciprocals
    1/lambda_i (``esp`` stores e_0..e_d) and mu_r = (d-r) e_r - (r-1) e_{r-1}.
    The leading coefficient equals the dimension, mu_1 = (d-1) e_1 > 0, the
    last two coefficients are negative, and the full sequence always has
    exactly one sign change, which is what makes the positive root unique.
    The interior mu_r are not sign-definite in general: their signs flip at
    the index where e_r / e_{r-1} drops below (r-1)/(d-r).
    """

    coeffs: np.ndarray
    esp: np.ndarray
    mu: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __call__(self, beta: float) -> float:
        return float(np.polyval(self.coeffs, beta))


def _check_pair(Q1, Q2) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(Q1, dtype=float)
    b = np.asarray(Q2, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"shape matrices must be square and equal-sized, got {a.shape} and {b.shape}")
    return a, b


def q_of_beta(Q1, Q2, beta: float) -> np.ndarray:
    """Outer shape matrix (1 + 1/beta) Q1 + (1 + beta) Q2 for beta > 0."""
    a, b = _check_pair(Q1, Q2)
    if not (isinstance(beta, (int, float)) and math.isfinite(beta)) or beta <= 0.0:
        raise NonPositiveBeta(f"beta must be a positive finite scalar, got {beta!r}")
    return (1.0 + 1.0 / beta) * a + (1.0 + beta) * b


def q_of_direction(shapes, direction) -> np.ndarray:
    """Direction-parameterized outer shape for K summands.

    Returns (sum_k sqrt(l'Q_k l)) * sum_k Q_k / sqrt(l'Q_k l) for the unit
    vector l. The resulting ellipsoid touches the Minkowski sum in the
    parameterizing direction: sqrt(l'Q(l)l) equals sum_k sqrt(l'Q_k l)
    exactly.
    """
    mats = [np.asarray(q, dtype=float) for q in shapes]
    if not mats:
        raise EmptyInput("need at least one shape matrix")
    u = unit_direction(direction)
    roots = [math.sqrt(u @ q @ u) for q in mats]
    return sum(roots) * sum(q / r for q, r in zip(mats, roots))

def q_of_alpha(shapes, alpha) -> np.ndarray:
    """Weight-parameterized outer shape sum_k Q_k / alpha_k.

    The weights must be strictly positive and sum to one.
    """
    mats = [np.asarray(q, dtype=float) for q in shapes]
    w = np.asarray(alpha, dtype=float).reshape(-1)
    if len(mats) != w.shape[0]:
        raise InvalidWeights(f"{len(mats)} shapes but {w.shape[0]} weights")
    if np.any(w <= 0.0) or abs(float(np.sum(w)) - 1.0) > _WEIGHT_SUM_TOL:
        raise InvalidWeights("weights must be strictly positive and sum to 1")
    return sum(q / a for q, a in zip(mats, w))


def _whitened_eig(factor: np.ndarray, Q2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (l, V) of S^{-1} Q2 S^{-T}, S a square root of Q1; l is the
    spectrum of Q1^{-1} Q2."""
    s_inv = np.linalg.inv(factor)
    w = s_inv @ Q2 @ s_inv.T
    values, vectors = linalg.sym_eig(0.5 * (w + w.T))
    if values[0] <= 0.0:
        raise NotPositiveDefinite(0, "second shape matrix is not positive definite")
    return values, vectors


def generalized_spectrum(Q1, Q2) -> np.ndarray:
    """Positive eigenvalues of Q1^{-1} Q2, ascending.

    Computed from the symmetric whitened matrix L^{-1} Q2 L^{-T} with
    Q1 = L L', which has the same spectrum and keeps the eigenproblem
    symmetric and well conditioned.
    """
    a, b = _check_pair(Q1, Q2)
    return _whitened_eig(linalg.cholesky(a), b)[0]


def optimality_residual(lam, beta: float) -> float:
    """Left side of the optimality equation, sum_i (1 - beta^2 l_i)/(1 + beta l_i).

    Zero exactly at the volume-optimal parameter.
    """
    values = np.asarray(lam, dtype=float).reshape(-1)
    if beta <= 0.0:
        raise NonPositiveBeta(f"beta must be positive, got {beta!r}")
    return float(np.sum((1.0 - beta * beta * values) / (1.0 + beta * values)))


def logdet_curvature(lam, beta: float) -> float:
    """Second derivative of log det Q(beta) along the spectrum.

    Equals 1/(beta (1+beta)) * sum_i (beta^2 l_i^2 + (1+2 beta) l_i) /
    (1 + beta l_i)^2, which is strictly positive for positive beta and
    spectrum, so the unique stationary point is a minimum.
    """
    values = np.asarray(lam, dtype=float).reshape(-1)
    if beta <= 0.0:
        raise NonPositiveBeta(f"beta must be positive, got {beta!r}")
    terms = (beta * beta * values**2 + (1.0 + 2.0 * beta) * values) / (1.0 + beta * values) ** 2
    return float(np.sum(terms) / (beta * (1.0 + beta)))


def _elementary_symmetric(x: np.ndarray) -> np.ndarray:
    """e_0..e_n of the entries of x, by multiplying out prod (t + x_i)."""
    e = np.array([1.0])
    for xi in x:
        e = np.concatenate([e, [0.0]]) + xi * np.concatenate([[0.0], e])
    return e


def optimality_polynomial(lam) -> OptimalityPolynomial:
    """Build the expanded optimality polynomial for a positive spectrum.

    The elementary symmetric polynomials of the reciprocal eigenvalues are
    accumulated by multiplying out the product one factor at a time, which
    only ever adds positive terms and is therefore stable.
    """
    values = np.asarray(lam, dtype=float).reshape(-1)
    if values.shape[0] < 1 or np.any(values <= 0.0):
        raise ValueError("spectrum must be a nonempty array of positive values")
    d = values.shape[0]
    e = _elementary_symmetric(1.0 / values)
    mu = np.array([(d - r) * e[r] - (r - 1) * e[r - 1] for r in range(1, d)])
    coeffs = np.concatenate([[float(d)], mu, [-(d - 1) * e[d - 1], -d * e[d]]])
    return OptimalityPolynomial(coeffs=coeffs, esp=e, mu=mu)


def bracket_beta_2d(lambda1: float, lambda2: float) -> tuple[float, float]:
    """Bracket for the positive root of the planar cubic.

    The lower bound is the abscissa of the cubic's local minimum (the cubic
    is negative and decreasing at 0, so the root lies right of it); the
    upper bound is the positive zero of the parabola obtained by dropping
    either eigenvalue, whichever is smaller.
    """
    if lambda1 <= 0.0 or lambda2 <= 0.0:
        raise ValueError("eigenvalues must be positive")
    s = lambda1 + lambda2
    p = lambda1 * lambda2
    lo = (math.sqrt(s * (s + 6.0 * p)) - s) / (6.0 * p)
    hi = min(
        (lambda1 + math.sqrt(lambda1 * (lambda1 + 8.0))) / (2.0 * lambda1),
        (lambda2 + math.sqrt(lambda2 * (lambda2 + 8.0))) / (2.0 * lambda2),
    )
    return lo, hi


def _planar_cubic(lambda1: float, lambda2: float, beta: float) -> float:
    """2 l1 l2 b^3 + (l1 + l2) b^2 - (l1 + l2) b - 2, evaluated by Horner."""
    s = lambda1 + lambda2
    return ((2.0 * lambda1 * lambda2 * beta + s) * beta - s) * beta - 2.0


def solve_beta_bisection(lam, opts: SolverOptions | None = None) -> tuple[float, int]:
    """Bisect the planar cubic on its bracket until the interval width is
    below ``opts.tolerance`` relative to its upper end.

    Only defined for two-dimensional spectra; raises DimensionNotTwo
    otherwise. Returns the midpoint of the final interval and the number of
    cubic evaluations spent; raises MaxIterationsExceeded when
    ``opts.max_iterations`` evaluations do not narrow the interval enough.
    """
    opts = opts or SolverOptions()
    values = np.asarray(lam, dtype=float).reshape(-1)
    if values.shape[0] != 2:
        raise DimensionNotTwo(f"bisection bracket needs d = 2, got d = {values.shape[0]}")
    l1, l2 = float(values[0]), float(values[1])
    lo, hi = bracket_beta_2d(l1, l2)
    f_lo = _planar_cubic(l1, l2, lo)
    iterations = 0
    while hi - lo >= opts.tolerance * hi:
        if iterations == opts.max_iterations:
            raise MaxIterationsExceeded(last_beta=0.5 * (lo + hi), iterations=iterations)
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # interval has collapsed to adjacent floats
            break
        f_mid = _planar_cubic(l1, l2, mid)
        iterations += 1
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi), iterations


def solve_beta_newton(lam, opts: SolverOptions | None = None) -> tuple[float, int]:
    """Safeguarded Newton iteration for the root, in t = log beta.

    The bracket [-1/2 log lambda_max, -1/2 log lambda_min] holds the root in
    any dimension. Each evaluation of the residual r shrinks it by the sign
    of r; a Newton step that leaves it is replaced by its midpoint. Stops
    when the step in t, i.e. the relative change of beta, is at most
    ``opts.tolerance``; raises MaxIterationsExceeded at
    ``opts.max_iterations``. A collapsed bracket (d = 1 or equal
    eigenvalues) returns lambda^{-1/2} after 0 iterations. Returns beta and
    the number of residual evaluations.
    """
    opts = opts or SolverOptions()
    values = np.asarray(lam, dtype=float).reshape(-1).tolist()
    if not values or min(values) <= 0.0:
        raise ValueError("spectrum must be a nonempty array of positive values")
    l_min, l_max = min(values), max(values)
    if l_min == l_max:
        return 1.0 / math.sqrt(l_min), 0
    lo, hi = -0.5 * math.log(l_max), -0.5 * math.log(l_min)
    t = 0.5 * (lo + hi)
    for iteration in range(1, opts.max_iterations + 1):
        beta = math.exp(t)
        r = 0.0
        slope = 0.0  # -dr/dbeta = sum l (1 + 2 beta + beta^2 l) / (1 + beta l)^2
        for value in values:
            scaled = beta * value
            inv = 1.0 / (1.0 + scaled)
            r += (1.0 - beta * scaled) * inv
            slope += value * (1.0 + 2.0 * beta + beta * scaled) * inv * inv
        if r == 0.0:
            return beta, iteration
        if r > 0.0:
            lo = t
        else:
            hi = t
        t_next = t + r / (beta * slope)
        # inclusive: a converged step may land on the end it was taken from
        if not lo <= t_next <= hi:
            t_next = 0.5 * (lo + hi)
        if abs(t_next - t) <= opts.tolerance:
            return math.exp(t_next), iteration
        t = t_next
    raise MaxIterationsExceeded(last_beta=math.exp(t), iterations=opts.max_iterations)


def fixed_point_map(lam, beta: float) -> float:
    """One application of the root-finding map

    g(beta) = sqrt( sum_i 1/(1 + beta l_i) / sum_i l_i/(1 + beta l_i) ).

    Rearranges the optimality equation so its root is the unique fixed
    point; g maps the positive axis into itself.
    """
    values = np.asarray(lam, dtype=float).reshape(-1)
    if beta <= 0.0:
        raise NonPositiveBeta(f"beta must be positive, got {beta!r}")
    denom = 1.0 + beta * values
    return math.sqrt(float(np.sum(1.0 / denom)) / float(np.sum(values / denom)))


def solve_beta_fixed_point(lam, beta0: float, opts: SolverOptions | None = None) -> tuple[float, int]:
    """Iterate the fixed-point map from ``beta0`` until the step is small.

    Stops when |beta_{n+1} - beta_n| < tolerance * max(1, beta_n); the
    iteration converges from any positive start, so hitting the cap signals
    a tolerance too tight for the conditioning (MaxIterationsExceeded
    carries the last iterate). Works in any dimension d >= 1.
    """
    opts = opts or SolverOptions()
    values = np.asarray(lam, dtype=float).reshape(-1)
    if np.any(values <= 0.0):
        raise ValueError("spectrum must be positive")
    if beta0 <= 0.0:
        raise NonPositiveBeta(f"starting beta must be positive, got {beta0!r}")
    beta = float(beta0)
    for iteration in range(1, opts.max_iterations + 1):
        beta_next = fixed_point_map(values, beta)
        if abs(beta_next - beta) < opts.tolerance * max(1.0, beta):
            return beta_next, iteration
        beta = beta_next
    raise MaxIterationsExceeded(last_beta=beta, iterations=opts.max_iterations)


def beta_trace_optimal(Q1, Q2) -> float:
    """Closed-form parameter minimizing trace(Q(beta)): sqrt(tr Q1 / tr Q2).

    Minimizing the trace means minimizing the sum of squared semi-axis
    lengths; it is also a cheap warm start for the volume solvers.
    """
    a, b = _check_pair(Q1, Q2)
    return math.sqrt(float(np.trace(a)) / float(np.trace(b)))


def _resolve_method(method: str) -> str:
    return "newton" if method == "auto" else method


def mvoe_pair(e1: Ellipsoid, e2: Ellipsoid, opts: SolverOptions | None = None) -> MvoeResult:
    """Minimum-volume outer ellipsoid of the Minkowski sum of two ellipsoids,
    within the one-parameter outer family.

    The center is exactly q1 + q2. The shape is Q(beta+) where beta+ comes
    from the selected method: safeguarded Newton (the default), bracketed
    bisection (d = 2 only), the fixed-point iteration warm-started at the
    trace-optimal parameter, or the trace closed form itself (cheap,
    suboptimal in volume, still a guaranteed outer bound).
    The output is SPD by construction and is not validated again.
    """
    opts = opts or SolverOptions()
    if e1.dim != e2.dim:
        raise DimensionMismatch(f"operands have dims {e1.dim} and {e2.dim}")
    q1, q2 = e1.shape, e2.shape
    lam, vectors = _whitened_eig(e1.factor, q2)
    method = _resolve_method(opts.method)
    if method == "newton":
        beta, iterations = solve_beta_newton(lam, opts)
    elif method == "bisection":
        beta, iterations = solve_beta_bisection(lam, opts)
    elif method == "fixed_point":
        beta, iterations = solve_beta_fixed_point(lam, beta_trace_optimal(q1, q2), opts)
    elif method == "trace":
        beta, iterations = beta_trace_optimal(q1, q2), 0
    else:
        raise ValueError(f"unknown method {method!r}")
    # Q1 = S S' and S^{-1} Q2 S^{-T} = V diag(l) V' give Q(beta) = (S V G^{1/2})(S V G^{1/2})'
    # and log det Q(beta) = log det Q1 + sum log g, with G = diag(g)
    g = (1.0 + 1.0 / beta) + (1.0 + beta) * lam
    out = Ellipsoid._trusted(
        center=e1.center + e2.center,
        shape=q_of_beta(q1, q2, beta),
        factor=(e1.factor @ vectors) * np.sqrt(g),
        half_logdet=e1._half_logdet + 0.5 * float(np.sum(np.log(g))),
    )
    return MvoeResult(
        beta=beta,
        ellipsoid=out,
        volume=out.volume(),
        method=method,
        iterations=iterations,
        residual=abs(optimality_residual(lam, beta)),
    )


def mvoe_sum(ellipsoids, opts: SolverOptions | None = None) -> tuple[MvoeResult, list[float]]:
    """Outer ellipsoid of the Minkowski sum of K ellipsoids by a left fold.

    Folds in input order: acc <- mvoe_pair(acc, E_k). The fold order is
    significant for the quality of the K > 2 approximation and is kept as
    given. Returns the final pair result together with every intermediate
    beta (empty for K = 1, where the input is returned unchanged with a
    neutral result record).
    """
    opts = opts or SolverOptions()
    items = list(ellipsoids)
    if not items:
        raise EmptyInput("need at least one ellipsoid")
    dims = {e.dim for e in items}
    if len(dims) != 1:
        raise DimensionMismatch(f"mixed dimensions in input: {sorted(dims)}")
    if len(items) == 1:
        only = items[0]
        result = MvoeResult(
            beta=1.0,
            ellipsoid=only,
            volume=only.volume(),
            method=_resolve_method(opts.method),
            iterations=0,
            residual=0.0,
        )
        return result, []
    betas: list[float] = []
    acc = items[0]
    result = None
    for nxt in items[1:]:
        result = mvoe_pair(acc, nxt, opts)
        betas.append(result.beta)
        acc = result.ellipsoid
    return result, betas
