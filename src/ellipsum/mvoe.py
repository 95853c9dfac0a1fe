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
more than two ellipsoids are handled by a pairwise left fold. The solver
takes the spectrum by its own whitening, ``_whitened_spectrum``, and the
oracles by theirs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .ellipsoid import Ellipsoid, _gram, unit_direction
from .errors import (
    DimensionMismatch,
    DimensionNotTwo,
    EllipsumError,
    EmptyInput,
    InvalidWeights,
    MaxIterationsExceeded,
    NonPositiveBeta,
)

#: each settable method and the name that its results report
METHODS = {"auto": "newton", "bisection": "bisection", "fixed_point": "fixed_point", "trace": "trace"}

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and method selection for the beta solvers.

    ``tolerance`` is the authoritative stopping criterion: the step in log
    beta for Newton, the interval width relative to beta for bisection, and
    the step size relative to max(1, beta) for the fixed point. The optimality
    residual is reported but not used to stop. The tolerance must be a
    positive and finite number, not a bool. ``max_iterations``, an integer
    of at least 1, caps the iterations of every method; reaching it raises
    MaxIterationsExceeded. ``method`` is a key of ``METHODS``, which maps it
    to the name results report: "auto" runs the Newton solver in every
    dimension and reports "newton".
    """

    tolerance: float = 1e-12
    max_iterations: int = 200
    method: str = "auto"

    def __post_init__(self):
        if isinstance(self.tolerance, bool) or not isinstance(self.tolerance, numbers.Real):
            raise ValueError("tolerance must be a number")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        cap = self.max_iterations
        if isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap < 1:
            raise ValueError("max_iterations must be an integer of at least 1")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {tuple(METHODS)}, got {self.method!r}")


_DEFAULT_OPTIONS = SolverOptions()


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
    mu: np.ndarray

    def __call__(self, beta: float) -> float:
        return float(np.polyval(self.coeffs, beta))


def _shapes(mats, size: int | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """The raw shape matrices ``mats`` as float arrays, each with its lower
    Cholesky factor, by the one input rule of every public function that
    takes them: DimensionMismatch unless each is ``size`` x ``size`` (default:
    the first one's rows), then, naming the matrix, the ValueError of
    ``linalg._check_symmetric`` and the NotPositiveDefinite of its factoring.
    Nothing is averaged: accepted input keeps its bits."""
    out = [np.asarray(q, dtype=float) for q in mats]
    if size is None:
        size = out[0].shape[0] if out[0].ndim else 0
    for k, q in enumerate(out):
        if q.shape != (size, size):
            raise DimensionMismatch(f"shape matrix {k} has shape {q.shape}, expected ({size}, {size})")
        linalg._check_symmetric(q, f"shape matrix {k}")
    with np.errstate(all="ignore"):
        return [(q, linalg._cholesky(q, f"shape matrix {k}")) for k, q in enumerate(out)]


def _spectrum(lam) -> np.ndarray:
    """``lam`` as a flat float array, or ValueError unless it is a nonempty,
    finite and positive spectrum: the one input check of the public root
    solvers and of ``optimality_polynomial``."""
    values = np.asarray(lam, dtype=float).reshape(-1)
    if values.shape[0] < 1 or not (linalg._finite(values) and (values > 0.0).all()):
        raise ValueError("spectrum must be a nonempty array of positive finite values")
    return values


def _positive_beta(beta) -> float:
    """``beta`` as a float, or NonPositiveBeta unless it is positive and
    finite: the one beta check of ``q_of_beta``, the scalar spectrum
    helpers, ``solve_beta_fixed_point``'s start and the oracles. A beta
    that is not a real number (None, a string, a bool) raises it too."""
    try:
        valid = not isinstance(beta, bool) and math.isfinite(beta) and beta > 0.0
    except TypeError:
        valid = False
    if not valid:
        raise NonPositiveBeta(f"beta must be positive and finite, got {beta!r}")
    return float(beta)


def q_of_beta(Q1, Q2, beta: float) -> np.ndarray:
    """Outer shape matrix (1 + 1/beta) Q1 + (1 + beta) Q2 for beta > 0."""
    (a, _), (b, _) = _shapes((Q1, Q2))
    return _q_of_beta(a, b, _positive_beta(beta))


def _q_of_beta(a: np.ndarray, b: np.ndarray, beta: float) -> np.ndarray:
    """Q(beta), unchecked: the one expression that ``q_of_beta``, each step
    of ``_chain`` and the oracles evaluate, so a shape re-formed from a
    step's beta is bit for bit the step's own."""
    return (1.0 + 1.0 / beta) * a + (1.0 + beta) * b


def q_of_direction(shapes, direction) -> np.ndarray:
    """Direction-parameterized outer shape for K summands.

    Returns (sum_k sqrt(l'Q_k l)) * sum_k Q_k / sqrt(l'Q_k l) for the unit
    vector l. The resulting ellipsoid touches the Minkowski sum in the
    parameterizing direction: sqrt(l'Q(l)l) equals sum_k sqrt(l'Q_k l)
    exactly. No shapes raise EmptyInput, a support l'Q_k l that is not
    positive and finite ValueError naming k, and a result that overflows
    ``linalg._check_overflow``'s EllipsumError.
    """
    shapes = list(shapes)
    if not shapes:
        raise EmptyInput("need at least one shape matrix")
    u = unit_direction(direction)
    mats = [q for q, _ in _shapes(shapes, u.shape[0])]
    with np.errstate(all="ignore"):
        supports = [float(u @ q @ u) for q in mats]
        roots = []
        for k, support in enumerate(supports):
            if not 0.0 < support < math.inf:
                raise ValueError(f"shape matrix {k} has support l'Q l = {support:.3e}, not positive and finite")
            roots.append(math.sqrt(support))
        out = sum(roots) * sum(q / r for q, r in zip(mats, roots))
    linalg._check_overflow(out)
    return out


def q_of_alpha(shapes, alpha) -> np.ndarray:
    """Weight-parameterized outer shape sum_k Q_k / alpha_k.

    The weights must be positive, finite and sum to one (InvalidWeights); a
    result that overflows raises ``linalg._check_overflow``'s EllipsumError.
    """
    shapes = list(shapes)
    w = np.asarray(alpha, dtype=float).reshape(-1)
    if len(shapes) != w.shape[0]:
        raise InvalidWeights(f"{len(shapes)} shapes but {w.shape[0]} weights")
    if not (linalg._finite(w) and (w > 0.0).all()) or abs(float(np.sum(w)) - 1.0) > _WEIGHT_SUM_TOL:
        raise InvalidWeights("weights must be positive, finite and sum to 1")
    with np.errstate(all="ignore"):
        out = sum(q / a for (q, _), a in zip(_shapes(shapes), w))
    linalg._check_overflow(out)
    return out


def _whitened_spectrum(factor: np.ndarray, pulled: np.ndarray) -> list[float]:
    """Eigenvalues, ascending and as Python floats, of the exactly symmetric
    Gram matrix X X' of the solution X of L X = P, L the lower Cholesky
    factor of Q1 and P P' = Q2: the spectrum of Q1^{-1} Q2, positive in
    exact arithmetic. X comes from the blocked triangular solve, so no
    inverse larger than a diagonal block is formed, and no eigenvectors
    are. Runs inside the caller's np.errstate(all="ignore").
    """
    return linalg._sym_eigvals(_gram(linalg._lower_solve(factor, pulled)))


def optimality_residual(lam, beta: float) -> float:
    """Left side of the optimality equation, sum_i (1 - beta^2 l_i)/(1 + beta l_i).

    Zero exactly at the volume-optimal parameter.
    """
    values = _spectrum(lam)
    beta = _positive_beta(beta)
    return float(np.sum((1.0 - beta * beta * values) / (1.0 + beta * values)))


def logdet_curvature(lam, beta: float) -> float:
    """Second derivative of log det Q(beta) along the spectrum.

    Equals 1/(beta (1+beta)) * sum_i (beta^2 l_i^2 + (1+2 beta) l_i) /
    (1 + beta l_i)^2, which is strictly positive for positive beta and
    spectrum, so the unique stationary point is a minimum.
    """
    values = _spectrum(lam)
    beta = _positive_beta(beta)
    terms = (beta * beta * values**2 + (1.0 + 2.0 * beta) * values) / (1.0 + beta * values) ** 2
    return float(np.sum(terms) / (beta * (1.0 + beta)))


def optimality_polynomial(lam) -> OptimalityPolynomial:
    """Build the expanded optimality polynomial for a positive spectrum.

    The elementary symmetric polynomials of the reciprocal eigenvalues are
    the coefficients of prod_i (t + 1/lambda_i), which ``np.poly`` multiplies
    out one factor at a time; that only ever adds positive terms and is
    therefore stable.
    """
    values = _spectrum(lam)
    d = values.shape[0]
    e = np.poly(-1.0 / values)
    mu = np.array([(d - r) * e[r] - (r - 1) * e[r - 1] for r in range(1, d)])
    coeffs = np.concatenate([[float(d)], mu, [-(d - 1) * e[d - 1], -d * e[d]]])
    return OptimalityPolynomial(coeffs=coeffs, esp=e, mu=mu)


def bracket_beta_2d(lambda1: float, lambda2: float) -> tuple[float, float]:
    """Bracket for the positive root of the planar cubic.

    The lower bound is the abscissa of the cubic's local minimum (the cubic
    is negative and decreasing at 0, so the root lies right of it); the
    upper bound is the positive zero of the parabola obtained by dropping
    either eigenvalue, whichever is smaller. Both are taken in rationalized
    form through h = 1/(1/l1 + 1/l2), so no product of eigenvalues is
    formed; only within a factor of 8 of the ends of the float range do they
    fall back to the valid but loose bounds 0 and inf.
    """
    if not (0.0 < lambda1 < math.inf and 0.0 < lambda2 < math.inf):
        raise ValueError("eigenvalues must be positive and finite")
    h = 1.0 / (1.0 / lambda1 + 1.0 / lambda2)
    lo = 1.0 / (1.0 + math.sqrt(1.0 + 6.0 * h))
    hi = min(0.5 * (1.0 + math.sqrt(1.0 + 8.0 / lam)) for lam in (lambda1, lambda2))
    return lo, hi


def _planar_cubic_sign(lambda1: float, lambda2: float, beta: float) -> float:
    """The planar cubic 2 l1 l2 b^3 + s b^2 - s b - 2 divided by s b^2, with
    s = l1 + l2 and h = l1 l2 / s: 2 h b + 1 - (1 + 2/(s b))/b. It has the
    cubic's sign, and no term overflows for any positive spectrum and any
    beta in the spectral bracket."""
    h = 1.0 / (1.0 / lambda1 + 1.0 / lambda2)
    return 2.0 * h * beta + 1.0 - (1.0 + 2.0 / ((lambda1 + lambda2) * beta)) / beta


def solve_beta_bisection(lam, opts: SolverOptions | None = None) -> tuple[float, int]:
    """Bisect the planar cubic on its bracket until the interval width is
    below ``opts.tolerance`` relative to its upper end.

    Only defined for two-dimensional spectra; raises DimensionNotTwo
    otherwise. Returns the midpoint of the final interval and the number of
    cubic evaluations spent; raises MaxIterationsExceeded when
    ``opts.max_iterations`` evaluations do not narrow the interval enough.
    """
    opts = opts or _DEFAULT_OPTIONS
    values = _spectrum(lam)
    if values.shape[0] != 2:
        raise DimensionNotTwo(f"bisection bracket needs d = 2, got d = {values.shape[0]}")
    l1, l2 = float(values[0]), float(values[1])
    lo, hi = bracket_beta_2d(l1, l2)
    # the spectral bracket of the module docstring keeps the interval narrow
    # where the planar bounds are loose, e.g. near 1 for two large eigenvalues
    lo = max(lo, 1.0 / math.sqrt(max(l1, l2)))
    hi = min(hi, 1.0 / math.sqrt(min(l1, l2)))
    f_lo = _planar_cubic_sign(l1, l2, lo)
    iterations = 0
    while hi - lo >= opts.tolerance * hi:
        if iterations == opts.max_iterations:
            raise MaxIterationsExceeded(last_beta=0.5 * (lo + hi), iterations=iterations)
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # interval has collapsed to adjacent floats
            break
        f_mid = _planar_cubic_sign(l1, l2, mid)
        iterations += 1
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi), iterations


def _newton(values: list[float], opts: SolverOptions, start: float | None = None) -> tuple[float, int]:
    """Safeguarded Newton iteration for the root, in t = log beta.

    Newton runs on the log-ratio residual k(t) = log A - log B - t, with
    A = sum_i 1/(1 + beta l_i) and B = sum_i beta l_i/(1 + beta l_i). As
    A - beta B = r(beta), the optimality residual, k has the sign and the
    root of r. Its slope is k'(t) = -1 - D (1/A + 1/B) with
    D = sum_i beta l_i/(1 + beta l_i)^2, and since D <= A B / d (Chebyshev's
    sum inequality; A + B = d), k' lies in [-2, -1]: k is nearly linear in t
    at any scale. The bracket [-1/2 log lambda_max, -1/2 log lambda_min]
    holds the root in any dimension. The iteration starts at ``start``, a
    beta such as the previous step's in a chain of pair steps, when its log
    lies strictly inside the bracket, and at the bracket's midpoint
    otherwise. Each evaluation of k shrinks the bracket by the sign of k; a
    Newton step that leaves it is replaced by its midpoint.
    Stops when the step in t, i.e. the relative change of beta, is at most
    ``opts.tolerance``; raises MaxIterationsExceeded at
    ``opts.max_iterations``. A collapsed bracket (d = 1 or equal
    eigenvalues) returns lambda^{-1/2} after 0 iterations. Returns beta and
    the number of residual evaluations. ``values`` is a positive finite
    spectrum as Python floats; nothing checks it.
    """
    l_min, l_max = min(values), max(values)
    if l_min == l_max:
        return 1.0 / math.sqrt(l_min), 0
    lo, hi = -0.5 * math.log(l_max), -0.5 * math.log(l_min)
    t = 0.5 * (lo + hi)
    if start is not None:
        t_start = math.log(start)
        if lo < t_start < hi:
            t = t_start
    for iteration in range(1, opts.max_iterations + 1):
        beta = math.exp(t)
        a = b = d = 0.0  # A, B and D above
        for value in values:
            scaled = beta * value
            inv = 1.0 / (1.0 + scaled)
            term = scaled * inv
            a += inv
            b += term
            d += term * inv
        k = math.log(a / b) - t
        if k == 0.0:
            return beta, iteration
        if k > 0.0:
            lo = t
        else:
            hi = t
        t_next = t + k / (1.0 + d * (1.0 / a + 1.0 / b))
        # inclusive: a converged step may land on the end it was taken from
        if not lo <= t_next <= hi:
            t_next = 0.5 * (lo + hi)
        if abs(t_next - t) <= opts.tolerance:
            return math.exp(t_next), iteration
        t = t_next
    raise MaxIterationsExceeded(last_beta=math.exp(t), iterations=opts.max_iterations)


def _fixed_point_map(values: np.ndarray, beta: float) -> float:
    """One application of the root-finding map

    g(beta) = sqrt( sum_i 1/(1 + beta l_i) / sum_i l_i/(1 + beta l_i) ).

    Rearranges the optimality equation so its root is the unique fixed
    point; g maps the positive axis into itself.
    """
    denom = 1.0 + beta * values
    return math.sqrt(float(np.sum(1.0 / denom)) / float(np.sum(values / denom)))


def solve_beta_fixed_point(lam, beta0: float, opts: SolverOptions | None = None) -> tuple[float, int]:
    """Iterate the fixed-point map from ``beta0`` until the step is small.

    Stops when |beta_{n+1} - beta_n| < tolerance * max(1, beta_n); the
    iteration converges from any positive start, so hitting the cap signals
    a tolerance too tight for the conditioning (MaxIterationsExceeded
    carries the last iterate). Works in any dimension d >= 1.
    """
    opts = opts or _DEFAULT_OPTIONS
    values = _spectrum(lam)
    beta = _positive_beta(beta0)
    for iteration in range(1, opts.max_iterations + 1):
        beta_next = _fixed_point_map(values, beta)
        if abs(beta_next - beta) < opts.tolerance * max(1.0, beta):
            return beta_next, iteration
        beta = beta_next
    raise MaxIterationsExceeded(last_beta=beta, iterations=opts.max_iterations)


def _trace_ratio(a: np.ndarray, b: np.ndarray) -> float:
    """sqrt(tr a / tr b), the parameter minimizing trace(Q(beta)), that is,
    the sum of squared semi-axis lengths: the ``trace`` step's beta and the
    ``fixed_point`` step's start. Unchecked; both shapes are positive definite."""
    return math.sqrt(float(np.trace(a)) / float(np.trace(b)))


def _chain(parts, steps, opts: SolverOptions):
    """Pair steps in sequence, each on the previous step's output: yields,
    per step, the outer ellipsoid's parts (center, SPD shape, its lower
    Cholesky factor), beta, the iteration count and the spectrum as Python
    floats, from which ``_result`` sums the residual of a reported step.
    ``parts`` are the first operand's; computed parts are not validated.

    A step is (m, center2, shape2, pulled). With m None it sums the carried
    set E(c, Q = L L') with E(center2, shape2), and ``pulled`` is shape2's
    lower factor: a fold of K summands is K - 1 such steps. With a map
    m it first carries the set to E(m c, m Q m'), the shape formed as the
    Gram matrix of m L and never factored, and ``pulled`` is a factor of
    m^{-1} shape2 m^{-T}: (m Q m')^{-1} shape2 and Q^{-1} m^{-1} shape2
    m^{-T} are similar, so the spectrum is taken against L, in the
    pre-image coordinates of m. A reach tube is one mapped step per stage.
    Only the spectrum is computed, never eigenvectors; the one Cholesky
    factorization of a step is that of Q(beta). ``opts.method`` is a key of
    ``METHODS``; Newton starts from the previous step's beta.

    Runs inside the caller's np.errstate(all="ignore"), entered once per
    fold of ``mvoe_sum`` and per tube, so a LAPACK failure or an overflow
    surfaces only as the typed error its check raises. A mapped shape that
    overflowed makes the spectrum fail; that raises the same EllipsumError
    as an overflowed Q(beta).
    """
    center, shape, factor = parts
    beta = None
    for m, center2, shape2, pulled in steps:
        if m is not None:
            center = np.dot(m, center)
            shape = _gram(np.dot(m, factor))
        try:
            values = _whitened_spectrum(factor, pulled)
        except EllipsumError:
            linalg._check_overflow(shape)
            raise
        if opts.method == "auto":
            beta, iterations = _newton(values, opts, beta)
        elif opts.method == "bisection":
            beta, iterations = solve_beta_bisection(values, opts)
        elif opts.method == "fixed_point":
            beta, iterations = solve_beta_fixed_point(values, _trace_ratio(shape, shape2), opts)
        else:  # "trace"
            beta, iterations = _trace_ratio(shape, shape2), 0
        center = center + center2
        shape = _q_of_beta(shape, shape2, beta)
        factor = linalg._cholesky(shape)
        yield (center, shape, factor), beta, iterations, values


def _result(ellipsoid: Ellipsoid, beta: float, iterations: int, values, opts: SolverOptions) -> MvoeResult:
    """The record of a reported pair step, the one place an MvoeResult is
    built: |optimality residual| is summed over the spectrum ``values``
    (Python floats) here, once per result, not on every step."""
    residual = 0.0
    for value in values:
        scaled = beta * value
        residual += (1.0 - beta * scaled) / (1.0 + scaled)
    return MvoeResult(
        beta=beta,
        ellipsoid=ellipsoid,
        volume=ellipsoid.volume(),
        method=METHODS[opts.method],
        iterations=iterations,
        residual=abs(residual),
    )


def mvoe_pair(e1: Ellipsoid, e2: Ellipsoid, opts: SolverOptions | None = None) -> MvoeResult:
    """Minimum-volume outer ellipsoid of the Minkowski sum of two ellipsoids,
    within the one-parameter outer family.

    The center is exactly q1 + q2. The shape is Q(beta+) where beta+ comes
    from the selected method: safeguarded Newton (the default), bracketed
    bisection (d = 2 only), the fixed-point iteration warm-started at the
    trace-optimal parameter, or the trace closed form itself (cheap,
    suboptimal in volume, still a guaranteed outer bound).
    The output is SPD by construction and is not validated again. It is
    the one-step fold ``mvoe_sum((e1, e2), opts)[0]``.
    """
    return mvoe_sum((e1, e2), opts)[0]


def mvoe_sum(ellipsoids, opts: SolverOptions | None = None) -> tuple[MvoeResult, list[float]]:
    """Outer ellipsoid of the Minkowski sum of K ellipsoids by a left fold.

    Folds in input order: acc <- mvoe_pair(acc, E_k), with the intermediate
    outer ellipsoids carried as parts and only the final one built, all
    inside one np.errstate. The fold order is significant for the quality
    of the K > 2 approximation and is kept as given. Returns the final pair
    result together with every intermediate beta (empty for K = 1, where the
    input is returned unchanged with a neutral result record).
    """
    opts = opts or _DEFAULT_OPTIONS
    items = list(ellipsoids)
    if not items:
        raise EmptyInput("need at least one ellipsoid")
    dims = {e.dim for e in items}
    if len(dims) != 1:
        raise DimensionMismatch(f"mixed dimensions in input: {sorted(dims)}")
    if len(items) == 1:
        return _result(items[0], 1.0, 0, [], opts), []
    steps = [(None, *e._parts) for e in items[1:]]
    betas: list[float] = []
    with np.errstate(all="ignore"):
        for parts, beta, iterations, values in _chain(items[0]._parts, steps, opts):
            betas.append(beta)
    return _result(Ellipsoid._trusted(parts), beta, iterations, values, opts), betas
