import math

import numpy as np
import pytest

from conftest import spd_matrix
from ellipsum import NoConvergence, NotPositiveDefinite
from ellipsum.linalg import cholesky, lower_inverse, sym_eigvals, symmetrize


class TestSymmetrize:
    def test_averages_roundoff_asymmetry(self):
        m = np.array([[2.0, 1.0 + 1e-12], [1.0, 3.0]])
        out = symmetrize(m)
        assert np.array_equal(out, out.T)
        assert abs(out[0, 1] - (1.0 + 5e-13)) < 1e-15

    def test_rejects_gross_asymmetry(self):
        with pytest.raises(ValueError, match="not symmetric"):
            symmetrize(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            symmetrize(np.ones((2, 3)))
        with pytest.raises(ValueError):
            symmetrize(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        assert np.allclose(cholesky(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=0)

    def test_hand_factor(self):
        # L = [[2, 0], [1, sqrt(2)]] reproduces [[4, 2], [2, 3]] by L L'
        L = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        assert np.allclose(L, expected, atol=1e-15)
        assert np.allclose(L @ L.T, [[4.0, 2.0], [2.0, 3.0]], atol=1e-15)

    @pytest.mark.parametrize("dim", range(1, 11))
    def test_reconstructs_random_spd(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(20):
            m = spd_matrix(rng, dim)
            L = cholesky(m)
            err = np.linalg.norm(L @ L.T - m) / np.linalg.norm(m)
            assert err < 1e-12
            assert np.all(np.diagonal(L) > 0.0)

    def test_rejects_indefinite_with_pivot(self):
        with pytest.raises(NotPositiveDefinite) as info:
            cholesky(np.diag([1.0, -1.0]))
        assert info.value.pivot == 1
        with pytest.raises(NotPositiveDefinite) as info:
            cholesky(np.zeros((3, 3)))
        assert info.value.pivot == 0
        # singular only after a positive definite leading 1x1 block
        with pytest.raises(NotPositiveDefinite) as info:
            cholesky(np.array([[4.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        assert info.value.pivot == 1
        with pytest.raises(NotPositiveDefinite) as info:
            cholesky(np.diag([1.0, 1.0, -1.0]))
        assert info.value.pivot == 2


class TestSymEig:
    """The package's only eigensolver is values-only: ``sym_eigvals``."""

    def test_identity(self):
        assert np.allclose(sym_eigvals(np.eye(3)), [1.0, 1.0, 1.0], atol=0)

    def test_diagonal_sorted_ascending(self):
        assert np.allclose(sym_eigvals(np.diag([2.0, 0.5])), [0.5, 2.0], atol=0)

    def test_known_2x2(self):
        assert np.allclose(sym_eigvals(np.array([[2.0, 1.0], [1.0, 2.0]])), [1.0, 3.0], atol=1e-14)

    @pytest.mark.parametrize("dim", range(1, 11))
    def test_reconstruction_and_orthogonality(self, dim):
        # the values rebuild m in numpy's orthonormal eigenbasis
        rng = np.random.default_rng(200 + dim)
        for _ in range(10):
            m = spd_matrix(rng, dim)
            values, vectors = sym_eigvals(m), np.linalg.eigh(m)[1]
            recon = (vectors * values) @ vectors.T
            assert np.linalg.norm(recon - m) / np.linalg.norm(m) < 1e-10
            assert np.all(np.diff(values) >= 0.0)

    def test_deterministic(self):
        m = spd_matrix(np.random.default_rng(7), 5)
        assert np.array_equal(sym_eigvals(m), sym_eigvals(m))

    def test_noconvergence_is_raised_for_unusable_input(self):
        with pytest.raises(NoConvergence):
            sym_eigvals(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestSymEigvals:
    @pytest.mark.parametrize("dim", [1, 2, 5, 40])
    def test_matches_full_decomposition(self, dim):
        m = spd_matrix(np.random.default_rng(330 + dim), dim)
        assert np.allclose(sym_eigvals(m), np.linalg.eigh(m)[0], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_input_raises(self, bad):
        # numpy's eigvalsh returns finite values for a NaN entry
        with pytest.raises(NoConvergence):
            sym_eigvals(np.array([[bad, 0.0], [0.0, 1.0]]))


def lower_triangular(rng: np.random.Generator, dim: int, cond: float) -> np.ndarray:
    """Lower-triangular matrix with 2-norm condition number ``cond``: the
    transposed R of the QR factorization of a matrix with singular values
    spread log-evenly over [1, cond]."""
    left, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    right, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    sigma = np.logspace(0.0, math.log10(cond), dim) if dim > 1 else np.array([cond])
    return np.linalg.qr((left * sigma) @ right.T)[1].T


class TestLowerInverse:
    """The blocked triangular inverse crosses its block size (32) at 33 and
    recurses twice at 64 and three times at 199 and 200."""

    SIZES = [1, 2, 31, 32, 33, 64, 199, 200]
    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("dim", SIZES)
    def test_matches_numpy_inverse(self, dim):
        lower = cholesky(spd_matrix(np.random.default_rng(340 + dim), dim))
        out = lower_inverse(lower)
        expected = np.linalg.inv(lower)
        bound = dim * self.EPS * np.linalg.cond(lower)
        assert np.linalg.norm(out - expected) <= bound * np.linalg.norm(expected)

    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e8])
    @pytest.mark.parametrize("dim", SIZES)
    def test_residual_within_roundoff_bound(self, dim, cond):
        # a backward-stable triangular inverse has ||X L - I|| of order
        # d eps cond(L); measured at most 0.16 times that on these sizes
        lower = lower_triangular(np.random.default_rng(350 + dim), dim, cond)
        out = lower_inverse(lower)
        residual = np.linalg.norm(out @ lower - np.eye(dim), 2)
        assert residual <= dim * self.EPS * np.linalg.cond(lower)

    @pytest.mark.parametrize("dim", SIZES)
    def test_result_is_exactly_lower_triangular(self, dim):
        out = lower_inverse(lower_triangular(np.random.default_rng(360 + dim), dim, 1e8))
        assert out.shape == (dim, dim)
        assert not np.any(np.triu(out, 1))
        assert np.all(np.diagonal(out) != 0.0)


def det_cofactor(m: np.ndarray) -> float:
    """Cofactor-expansion determinant, the independent oracle for small dims."""
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * m[0, j] * det_cofactor(minor)
    return total


def det_from_factor(m: np.ndarray) -> float:
    """det m read off its Cholesky factor, as Ellipsoid.volume reads sqrt(det Q)."""
    return float(np.prod(np.diagonal(cholesky(m)))) ** 2


class TestDeterminant:
    def test_identity(self):
        assert det_from_factor(np.eye(2)) == 1.0

    def test_diagonal_factor(self):
        assert det_from_factor(np.diag([4.0, 9.0])) == 36.0

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_cofactor_oracle(self, dim):
        rng = np.random.default_rng(300 + dim)
        for _ in range(20):
            m = spd_matrix(rng, dim, log_lo=-1.0, log_hi=1.0)
            det = det_from_factor(m)
            oracle = det_cofactor(m)
            assert abs(det - oracle) / abs(oracle) < 1e-10

    @pytest.mark.parametrize("dim", range(1, 11))
    def test_matches_eigenvalue_product(self, dim):
        rng = np.random.default_rng(400 + dim)
        for _ in range(10):
            m = spd_matrix(rng, dim)
            det = det_from_factor(m)
            prod = float(np.prod(np.linalg.eigh(m)[0]))
            assert abs(det - prod) / abs(prod) < 1e-10
