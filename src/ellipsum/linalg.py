"""Thin wrappers over numpy's LAPACK routines for symmetric matrices.

Each wrapper checks its output and turns LAPACK failures into the package's
typed errors. Everything works on dense float64 numpy arrays.
"""

from typing import NamedTuple

import numpy as np

from .errors import NoConvergence, NotPositiveDefinite

SYMMETRY_RTOL = 1e-9


class EigenDecomposition(NamedTuple):
    """Spectral decomposition M = vectors @ diag(values) @ vectors.T."""

    values: np.ndarray  # ascending
    vectors: np.ndarray  # orthogonal, columns are eigenvectors


def symmetrize(matrix, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Validate and symmetrize a square matrix.

    Asymmetry up to ``rtol`` (relative to the largest entry) is treated as
    I/O roundoff and averaged away; anything larger is rejected as genuinely
    wrong input.
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
    if gap > rtol * max(scale, 1.0):
        raise ValueError(f"matrix is not symmetric (asymmetry {gap:.3e}, scale {scale:.3e})")
    return 0.5 * (m + m.T)


def _lapack_cholesky(m: np.ndarray) -> np.ndarray | None:
    """LAPACK's lower factor of ``m``, or None when it fails or is not finite."""
    try:
        lower = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None
    return lower if np.all(np.isfinite(lower)) else None


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


def cholesky(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L with L @ L.T == matrix.

    Raises NotPositiveDefinite (with the failing pivot index) when the input
    is not positive definite. Only the lower triangle of the input is read.
    """
    m = np.asarray(matrix, dtype=float)
    lower = _lapack_cholesky(m)
    if lower is None:
        raise NotPositiveDefinite(_failing_pivot(m))
    return lower


def sym_eig(matrix: np.ndarray) -> EigenDecomposition:
    """Full spectral decomposition of a symmetric matrix, eigenvalues ascending.

    Deterministic for identical input. Backed by LAPACK's symmetric
    eigensolver, which is exact enough for the small dimensions used here.
    """
    m = np.asarray(matrix, dtype=float)
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"symmetric eigensolver failed: {exc}") from exc
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(vectors))):
        raise NoConvergence("symmetric eigensolver produced non-finite output")
    return EigenDecomposition(values=values, vectors=vectors)
