"""Input symmetrization and the package's LAPACK kernels: a Cholesky
factor, a blocked lower-triangular solve, symmetric eigenvalues, an LU
solve and singular values.

The kernels call the gufuncs that ``np.linalg`` itself wraps, from
``numpy.linalg._umath_linalg``: ``cholesky_lo``, ``inv``, ``eigvalsh_lo``
and ``svd``, each with signature "d->d", and ``solve``, "dd->d". That skips
the wrappers' array wrapping, type resolution and per-call ``np.errstate``,
which at d = 2 cost several times the LAPACK call. A gufunc that fails fills
its output with NaN and raises the floating-point invalid flag. Each output
is checked and that NaN turned into the package's typed errors: by
``_cholesky`` and ``_sym_eigvals`` themselves, by the caller of the others.
The pair step calls the first three; reach's stage derivation calls the LU
solve and the singular values. The flag is silenced by one
``np.errstate(all="ignore")`` per unit of work, held by the caller:
``mvoe_sum``, a reach tube, ``affine_image``, ``Ellipsoid`` construction
and ``generalized_spectrum`` each call the kernels inside their own single
errstate. So no call leaks a ``RuntimeWarning``, and the caller's
``np.geterr()`` is restored on return and on raise. The kernels are
private: ``symmetrize`` is this module's one public function.

``_umath_linalg`` is private numpy API and is imported in this module only.
These names and signatures are the ones ``np.linalg`` has called since
numpy 1.22; tests/test_linalg.py pins their behaviour against the
``np.linalg`` wrappers. Everything works on dense float64 numpy arrays.
A finiteness check on an array is one ``np.logical_and.reduce`` over
``np.isfinite``, which skips the Python layer of ``ndarray.all``.
"""

import math

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NoConvergence, NotPositiveDefinite

SYMMETRY_RTOL = 1e-9

#: largest diagonal block that ``_lower_solve`` inverts in one LAPACK call;
#: up to this size the solve is one inverse and one product
_INVERSE_BLOCK = 32


def symmetrize(matrix) -> np.ndarray:
    """Validate and symmetrize a square matrix.

    Asymmetry up to SYMMETRY_RTOL (relative to the largest entry) is treated as
    I/O roundoff and averaged away; anything larger is rejected as genuinely
    wrong input. The average halves before it adds, so it cannot overflow
    where the entries themselves are finite, and it is exactly symmetric.
    """
    m = np.array(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    scale = np.max(np.abs(m))
    gap = np.max(np.abs(m - m.T))
    if gap > SYMMETRY_RTOL * max(scale, 1.0):
        raise ValueError(f"matrix is not symmetric (asymmetry {gap:.3e}, scale {scale:.3e})")
    return 0.5 * m + 0.5 * m.T


def _lapack_cholesky(m: np.ndarray) -> np.ndarray | None:
    """LAPACK's lower factor of ``m``, or None when it fails (a NaN output)
    or is not finite."""
    lower = _umath_linalg.cholesky_lo(m, signature="d->d")
    return lower if np.logical_and.reduce(np.isfinite(lower), axis=None) else None


def _failing_pivot(m: np.ndarray) -> int:
    """Index of the first pivot at which the factorization of ``m`` breaks down.

    That is the first k whose leading (k+1)x(k+1) block has no factor. A
    block that has one implies every smaller leading block has one, so the
    search bisects over k. Only called after the whole of ``m`` failed.
    """
    good, bad = 0, m.shape[0]  # leading block sizes known to factor / to fail
    while bad - good > 1:
        size = (good + bad) // 2
        if _lapack_cholesky(m[:size, :size]) is None:
            bad = size
        else:
            good = size
    return bad - 1


def _cholesky(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L with L @ L.T == m, of a float64 array.

    Raises NotPositiveDefinite (with the failing pivot index) when ``m`` is
    not positive definite. Only the lower triangle of ``m`` is read.
    """
    lower = _lapack_cholesky(m)
    if lower is None:
        raise NotPositiveDefinite(_failing_pivot(m))
    return lower


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
    if not np.logical_and.reduce(np.isfinite(m), axis=None):
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
