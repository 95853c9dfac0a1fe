import math

import numpy as np
import pytest

from conftest import spd_matrix
from ellipsum import NoConvergence, NotPositiveDefinite
from ellipsum.linalg import cholesky, sym_eig, symmetrize


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
    def test_identity(self):
        values, _ = sym_eig(np.eye(3))
        assert np.allclose(values, [1.0, 1.0, 1.0], atol=0)

    def test_diagonal_sorted_ascending(self):
        values, _ = sym_eig(np.diag([2.0, 0.5]))
        assert np.allclose(values, [0.5, 2.0], atol=0)

    def test_known_2x2(self):
        values, _ = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(values, [1.0, 3.0], atol=1e-14)

    @pytest.mark.parametrize("dim", range(1, 11))
    def test_reconstruction_and_orthogonality(self, dim):
        rng = np.random.default_rng(200 + dim)
        for _ in range(10):
            m = spd_matrix(rng, dim)
            values, vectors = sym_eig(m)
            recon = (vectors * values) @ vectors.T
            assert np.linalg.norm(recon - m) / np.linalg.norm(m) < 1e-10
            assert np.linalg.norm(vectors.T @ vectors - np.eye(dim)) < 1e-12
            assert np.all(np.diff(values) >= 0.0)

    def test_deterministic(self):
        m = spd_matrix(np.random.default_rng(7), 5)
        first = sym_eig(m)
        second = sym_eig(m)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_noconvergence_is_raised_for_unusable_input(self):
        with pytest.raises((NoConvergence, ValueError)):
            sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


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
            prod = float(np.prod(sym_eig(m)[0]))
            assert abs(det - prod) / abs(prod) < 1e-10
