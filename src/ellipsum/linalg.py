"""The package's one failure rule for arrays, and its LAPACK kernels: a
Cholesky factor, a blocked lower-triangular solve, symmetric eigenvalues,
an LU solve and singular values.

A raw shape matrix is checked once, by ``_check_symmetric``, which
``symmetrize`` and ``mvoe._shapes`` run; a computed array is tested by
``_finite``, the one finiteness predicate; a computed shape is factored by
``_cholesky``, the one checked factorization, and a failure on one that
overflowed is reported by ``_check_overflow``, which ``_cholesky`` and the
pair step's spectrum call. The kernels call the gufuncs
that ``np.linalg`` wraps, from ``numpy.linalg._umath_linalg``:
``cholesky_lo``, ``inv``, ``eigvalsh_lo`` and ``svd`` ("d->d") and
``solve`` ("dd->d"), skipping the wrappers' array wrapping, type resolution
and per-call ``np.errstate``, which at d = 2 cost several times the LAPACK
call. A failing gufunc fills its output with NaN and raises the invalid
flag; ``_cholesky`` and ``_sym_eigvals`` turn that NaN into typed errors,
the callers of the others check it. The flag is silenced by one
``np.errstate(all="ignore")`` per unit of work, held by the caller:
``mvoe_sum``, a reach tube, ``affine_image``, ``Ellipsoid`` construction
and ``generalized_spectrum``. So no call leaks a ``RuntimeWarning``, and the
caller's ``np.geterr()`` is restored on return and on raise. ``symmetrize``
is the one public function. ``_umath_linalg`` is private numpy API, imported
here only; its names and signatures are those ``np.linalg`` has called since
numpy 1.22, and tests/test_linalg.py pins them to the wrappers.
"""

import math

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import EllipsumError, NoConvergence, NotPositiveDefinite

SYMMETRY_RTOL = 1e-9

#: largest diagonal block that ``_lower_solve`` inverts in one LAPACK call;
#: up to this size the solve is one inverse and one product
_INVERSE_BLOCK = 32


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite, without ``ndarray.all``'s Python layer."""
    return np.logical_and.reduce(np.isfinite(a), axis=None)


def _check_symmetric(m: np.ndarray, name: str = "matrix") -> None:
    """ValueError, naming ``name``, unless the float array ``m`` is square,
    at least 1x1, finite and asymmetric by at most SYMMETRY_RTOL times its
    largest entry (or 1); taken on halves, the asymmetry cannot overflow."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError(f"{name} dimension must be at least 1")
    if not _finite(m):
        raise ValueError(f"{name} has non-finite entries")
    scale = np.max(np.abs(m))
    gap = 2.0 * float(np.max(np.abs(0.5 * m - 0.5 * m.T)))
    if gap > SYMMETRY_RTOL * max(scale, 1.0):
        raise ValueError(f"{name} is not symmetric (asymmetry {gap:.3e}, scale {scale:.3e})")


def symmetrize(matrix) -> np.ndarray:
    """Validate a square matrix by ``_check_symmetric`` and average away the
    roundoff asymmetry it accepts: halves first, so that no finite entry
    overflows, into an exactly symmetric matrix."""
    m = np.array(matrix, dtype=float)
    _check_symmetric(m)
    return 0.5 * m + 0.5 * m.T


def _failing_pivot(m: np.ndarray) -> int:
    """Index of the first pivot at which the factorization of ``m`` breaks
    down: the first k whose leading (k+1)x(k+1) block has no factor, found by
    bisection, as every leading block of a matrix with a factor has one too.
    Only called after the whole of ``m`` failed."""
    good, bad = 0, m.shape[0]  # leading block sizes known to factor / to fail
    while bad - good > 1:
        size = (good + bad) // 2
        if _finite(_umath_linalg.cholesky_lo(m[:size, :size], signature="d->d")):
            good = size
        else:
            bad = size
    return bad - 1


def _check_overflow(shape: np.ndarray) -> None:
    """EllipsumError unless the computed ``shape`` is finite: the one
    translation of a failure on a shape that overflowed."""
    if not _finite(shape):
        raise EllipsumError("shape matrix has non-finite entries (overflow)")


def _cholesky(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L with L @ L.T == m, of a float64 array, read
    from its lower triangle. Where LAPACK fails, an ``m`` that is not finite
    (an overflow) raises ``_check_overflow``'s EllipsumError, any other
    NotPositiveDefinite."""
    lower = _umath_linalg.cholesky_lo(m, signature="d->d")
    if _finite(lower):
        return lower
    _check_overflow(m)
    raise NotPositiveDefinite(_failing_pivot(m))


def _lower_solve(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """X with L X = B, for a nonsingular lower-triangular L and a B of as
    many rows; X is exactly lower-triangular when B is.

    Forward substitution by 2x2 blocks: with L = [[L11, 0], [L21, L22]],
    X_top = L11^-1 B_top and X_bot = L22^-1 (B_bot - L21 X_top), so the
    work is matrix products, as in the blocked triangular routines of LAPACK
    (Du Croz & Higham, 1992; Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, ch. 14). Diagonal blocks of at most _INVERSE_BLOCK
    rows are inverted through their transpose and applied by one product:
    LU with partial pivoting never swaps rows of an upper-triangular matrix,
    so that inverse is plain back substitution and stays exactly triangular.
    Only the lower triangle of L may be nonzero; nothing checks it. A
    singular L gives non-finite entries, not an error. The products are
    ``np.dot``, which gives the ``@`` operator's bits with less call
    overhead at small sizes (1.8 against 0.7 µs at d = 6, one BLAS thread).
    """
    n = lower.shape[0]
    if n <= _INVERSE_BLOCK:
        return np.dot(_umath_linalg.inv(lower.T, signature="d->d").T, rhs)
    k = n // 2
    top = _lower_solve(lower[:k, :k], rhs[:k])
    return np.concatenate((top, _lower_solve(lower[k:, k:], rhs[k:] - np.dot(lower[k:, :k], top))))


def _sym_eigvals(m: np.ndarray) -> list[float]:
    """Eigenvalues of a symmetric float64 array, ascending, as Python
    floats, without eigenvectors.

    Backed by LAPACK's symmetric eigensolver; only the lower triangle is
    read. Non-finite input, a LAPACK failure and non-finite output each
    raise NoConvergence. The output is checked on the list, which the
    root solver reads anyway.
    """
    # the eigensolver returns finite values for some non-finite input
    if not _finite(m):
        raise NoConvergence("symmetric eigensolver met non-finite values")
    values = _umath_linalg.eigvalsh_lo(m, signature="d->d").tolist()
    # a LAPACK failure fills the output with NaN
    if not all(map(math.isfinite, values)):
        raise NoConvergence("symmetric eigensolver failed or met non-finite values")
    return values


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """X with A X = B, for a square float64 A and a B of as many rows, by
    LAPACK's LU solve with partial pivoting. A singular A fills X with NaN;
    an X that overflowed has other non-finite entries. Neither raises: the
    caller checks X."""
    return _umath_linalg.solve(a, b, signature="dd->d")


def _singular_values(a: np.ndarray) -> list[float]:
    """Singular values of a float64 matrix, descending, as Python floats,
    without singular vectors. A LAPACK failure makes them NaN, which the
    caller's comparisons reject."""
    return _umath_linalg.svd(a, signature="d->d").tolist()
