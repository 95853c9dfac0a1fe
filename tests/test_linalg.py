import math

import numpy as np
import pytest

from conftest import one_step, random_ellipsoid, spd_matrix, tall_stage
from ellipsum import EllipsumError, Ellipsoid, LtiStage, NoConvergence, NotPositiveDefinite, SingularMap
from ellipsum import mvoe_pair, mvoe_sum
from ellipsum import propagate_backward, propagate_forward
from ellipsum import linalg
from ellipsum.linalg import symmetrize


# the kernels run inside the single errstate their callers hold
def cholesky(matrix):
    with np.errstate(all="ignore"):
        return linalg._cholesky(np.asarray(matrix, dtype=float))


def sym_eigvals(matrix):
    with np.errstate(all="ignore"):
        return linalg._sym_eigvals(np.asarray(matrix, dtype=float))


def lower_solve(lower, rhs):
    with np.errstate(all="ignore"):
        return linalg._lower_solve(lower, rhs)


class TestSymmetrize:
    def test_averages_roundoff_asymmetry(self):
        m = np.array([[2.0, 1.0 + 1e-12], [1.0, 3.0]])
        out = symmetrize(m)
        assert np.array_equal(out, out.T)
        assert abs(out[0, 1] - (1.0 + 5e-13)) < 1e-15

    def test_rejects_gross_asymmetry(self):
        with pytest.raises(ValueError, match="not symmetric"):
            symmetrize(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_huge_entries_do_not_overflow(self):
        # halving before adding keeps 1e308 finite, where m + m' overflows
        huge = 1e308 * np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]])
        out = symmetrize(huge)
        assert np.isfinite(out).all() and np.array_equal(out, out.T)
        assert abs(out[1, 0] / 1e308 - (0.5 + 5e-13)) < 1e-15

    def test_symmetric_input_keeps_its_bits(self):
        m = spd_matrix(np.random.default_rng(30), 5)
        for scale in (1e-300, 1.0, 1e300):
            assert np.array_equal(symmetrize(scale * m), scale * m)

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
    """The package's only eigensolver is values-only: ``_sym_eigvals``."""

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
    """The blocked triangular solve L X = B, whose solution for B = I is the
    inverse of L. It crosses its block size (32) at 33 and recurses twice at
    64 and three times at 199 and 200."""

    SIZES = [1, 2, 31, 32, 33, 64, 199, 200]
    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("dim", SIZES)
    def test_matches_numpy_inverse(self, dim):
        lower = cholesky(spd_matrix(np.random.default_rng(340 + dim), dim))
        out = lower_solve(lower, np.eye(dim))
        expected = np.linalg.inv(lower)
        bound = dim * self.EPS * np.linalg.cond(lower)
        assert np.linalg.norm(out - expected) <= bound * np.linalg.norm(expected)

    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e8])
    @pytest.mark.parametrize("dim", SIZES)
    def test_residual_within_roundoff_bound(self, dim, cond):
        # a backward-stable triangular solve has ||L X - B|| of order
        # d eps ||L|| ||X||; measured at most 0.012 times that on these
        # sizes (the residual's own rounding included)
        rng = np.random.default_rng(350 + dim)
        lower, rhs = lower_triangular(rng, dim, cond), lower_triangular(rng, dim, 1e4)
        out = lower_solve(lower, rhs)
        residual = np.linalg.norm(lower @ out - rhs, 2)
        assert residual <= dim * self.EPS * np.linalg.norm(lower, 2) * np.linalg.norm(out, 2)

    @pytest.mark.parametrize("dim", SIZES)
    def test_result_is_exactly_lower_triangular(self, dim):
        rng = np.random.default_rng(360 + dim)
        out = lower_solve(lower_triangular(rng, dim, 1e8), lower_triangular(rng, dim, 1e4))
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


def blocked_solve_reference(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``_lower_solve``'s block recursion on ``np.linalg.inv``, the wrapper
    over the LAPACK routine the kernel calls directly."""
    n = lower.shape[0]
    if n <= linalg._INVERSE_BLOCK:
        return np.linalg.inv(lower.T).T @ rhs
    k = n // 2
    top = blocked_solve_reference(lower[:k, :k], rhs[:k])
    return np.vstack([top, blocked_solve_reference(lower[k:, k:], rhs[k:] - lower[k:, :k] @ top)])


def reference_pivot(m: np.ndarray) -> int:
    """First k whose leading (k+1)x(k+1) block ``np.linalg.cholesky`` cannot
    factor, searched linearly."""
    for k in range(m.shape[0]):
        try:
            lower = np.linalg.cholesky(m[: k + 1, : k + 1])
        except np.linalg.LinAlgError:
            return k
        if not np.isfinite(lower).all():
            return k
    raise AssertionError("matrix factors")


#: (name, call) for failures that the kernels and the public entry points
#: turn into typed errors
FAILURES = [
    ("cholesky-indefinite", lambda: cholesky(np.diag([1.0, 1.0, -1.0]))),
    ("cholesky-nan", lambda: cholesky(np.array([[1.0, 0.0], [np.nan, 1.0]]))),
    ("sym_eigvals-nan", lambda: sym_eigvals(np.array([[np.nan, 0.0], [0.0, 1.0]]))),
    ("sym_eigvals-overflow", lambda: sym_eigvals(np.full((2, 2), 1.7e308))),
    ("ellipsoid-indefinite", lambda: Ellipsoid(np.zeros(2), np.diag([1.0, -1.0]))),
    ("pair-overflow", lambda: mvoe_pair(*[Ellipsoid(np.zeros(2), 5e307 * np.eye(2))] * 2)),
]


class TestGufuncKernels:
    """The kernels call numpy's LAPACK gufuncs (private numpy API) without
    the ``np.linalg`` wrappers: same routines on the same arrays, so the
    same bits, and the wrappers' error handling is rebuilt on one errstate,
    held by the caller."""

    DIMS = [1, 2, 6, 33, 200]

    @pytest.mark.parametrize("dim", DIMS)
    def test_cholesky_is_bitwise_numpy(self, dim):
        m = spd_matrix(np.random.default_rng(500 + dim), dim)
        with np.errstate(all="ignore"):
            assert np.array_equal(linalg._cholesky(m), np.linalg.cholesky(m))

    @pytest.mark.parametrize("dim", DIMS)
    def test_sym_eigvals_is_bitwise_numpy(self, dim):
        m = spd_matrix(np.random.default_rng(510 + dim), dim)
        with np.errstate(all="ignore"):
            assert np.array_equal(linalg._sym_eigvals(m), np.linalg.eigvalsh(m))

    @pytest.mark.parametrize("dim", DIMS)
    def test_lower_inverse_is_bitwise_numpy(self, dim):
        # the solve's diagonal-block inverses and products, for B = I (the
        # inverse) and for B a Cholesky factor (the pair step's whitening)
        rng = np.random.default_rng(520 + dim)
        lower = np.linalg.cholesky(spd_matrix(rng, dim))
        for rhs in (np.eye(dim), np.linalg.cholesky(spd_matrix(rng, dim))):
            with np.errstate(all="ignore"):
                assert np.array_equal(linalg._lower_solve(lower, rhs), blocked_solve_reference(lower, rhs))

    @pytest.mark.parametrize("dim", [1, 2, 6, 50])
    def test_solve_and_singular_values_are_bitwise_numpy(self, dim):
        rng = np.random.default_rng(525 + dim)
        a, b = rng.normal(size=(dim, dim)), rng.normal(size=(dim, dim))
        with np.errstate(all="ignore"):
            assert np.array_equal(linalg._solve(a, b), np.linalg.solve(a, b))
            values = linalg._singular_values(a)
        assert values == np.linalg.svd(a, compute_uv=False).tolist()
        assert all(type(value) is float for value in values)

    @pytest.mark.parametrize("dim", [1, 2, 6, 33])
    def test_pivot_matches_numpy(self, dim):
        rng = np.random.default_rng(530 + dim)
        for _ in range(10):
            m = spd_matrix(rng, dim)
            k = int(rng.integers(0, dim))
            m[k, k] = -abs(m[k, k])  # no factor for the leading (k+1) block
            with pytest.raises(NotPositiveDefinite) as info:
                cholesky(m)
            assert info.value.pivot == reference_pivot(m)

    def test_nonfinite_output_of_sym_eigvals_raises(self):
        # finite input whose largest eigenvalue, 3.4e308, overflows
        with pytest.raises(NoConvergence, match="failed or met non-finite values"):
            sym_eigvals(np.full((2, 2), 1.7e308))

    def test_stage_inverse_that_overflows_raises_without_warning(self):
        # the backward tube holds the one errstate: outside any, the
        # overflowing F^{-1} = 1e309 I raises the typed error, no
        # RuntimeWarning (an error under pytest), and np.geterr() is kept
        before = np.geterr()
        stage = LtiStage(F=1e-309 * np.eye(3), G=np.eye(3), input_set=Ellipsoid(np.zeros(3), np.eye(3)))
        with pytest.raises(SingularMap, match=r"numerically singular: F\^\{-1\} times the right side overflows"):
            one_step(propagate_backward, Ellipsoid(np.zeros(3), np.eye(3)), stage, eps=0.0)
        assert np.geterr() == before

    def test_failed_svd_fails_the_condition_probe(self, monkeypatch):
        # a LAPACK failure fills the singular values with NaN; the probe's
        # comparisons reject them
        stage = LtiStage(F=np.eye(2), G=np.eye(2), input_set=Ellipsoid(np.zeros(2), np.eye(2)))
        monkeypatch.setattr(linalg, "_singular_values", lambda a: [math.nan, math.nan])
        with pytest.raises(SingularMap, match="numerically singular"):
            one_step(propagate_backward, Ellipsoid(np.zeros(2), np.eye(2)), stage, eps=0.0)

    def test_singular_lower_inverse_is_nonfinite_without_warning(self):
        # pytest turns RuntimeWarning into an error, so a leak out of the
        # errstate fails here
        for dim in (2, 40):
            lower = np.tril(np.ones((dim, dim)))
            lower[dim - 1, dim - 1] = 0.0
            with np.errstate(all="ignore"):
                assert not np.isfinite(linalg._lower_solve(lower, np.eye(dim))).all()

    @pytest.mark.parametrize("name, call", FAILURES, ids=[name for name, _ in FAILURES])
    def test_failures_raise_typed_errors_under_raise(self, name, call):
        with np.errstate(all="raise"):
            with pytest.raises(EllipsumError):
                call()

    @pytest.mark.parametrize("name, call", FAILURES, ids=[name for name, _ in FAILURES])
    def test_errstate_is_restored_after_raise(self, name, call):
        with np.errstate(over="raise", invalid="warn", divide="print", under="ignore"):
            before = np.geterr()
            with pytest.raises(EllipsumError):
                call()
            assert np.geterr() == before

    def test_errstate_is_restored_after_success(self):
        m = spd_matrix(np.random.default_rng(540), 4)
        with np.errstate(over="raise", invalid="warn", divide="print", under="ignore"):
            before = np.geterr()
            cholesky(m)
            lower_solve(np.linalg.cholesky(m), np.eye(4))
            sym_eigvals(m)
            Ellipsoid(np.zeros(4), m)
            mvoe_sum([Ellipsoid(np.zeros(4), m)] * 3)
            assert np.geterr() == before

    def test_fold_enters_one_errstate_per_fold_and_no_wrapper(self, monkeypatch):
        rng = np.random.default_rng(550)
        parts = [random_ellipsoid(rng, 2) for _ in range(8)]
        entered = []
        real_errstate = np.errstate

        def counting(**kwargs):
            entered.append(kwargs)
            return real_errstate(**kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg wrapper called")

        monkeypatch.setattr(np, "errstate", counting)
        for name in ("cholesky", "inv", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        result, betas = mvoe_sum(parts)
        assert len(betas) == len(parts) - 1
        assert entered == [{"all": "ignore"}]

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_tube_enters_one_errstate_per_tube_and_no_wrapper(self, monkeypatch, backward):
        rng = np.random.default_rng(551)
        low, high = (1.1, 2.0) if backward else (0.5, 0.9)
        stages = [tall_stage(rng, 4, 2, low, high) for _ in range(3)] * 10
        x0 = random_ellipsoid(rng, 4)
        entered = []
        real_errstate = np.errstate

        def counting(**kwargs):
            entered.append(kwargs)
            return real_errstate(**kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg wrapper called")

        monkeypatch.setattr(np, "errstate", counting)
        for name in ("cholesky", "inv", "eigvalsh", "solve", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        tube = (propagate_backward if backward else propagate_forward)(x0, stages, eps=1e-9)
        assert len(tube) == len(stages) + 1
        assert entered == [{"all": "ignore"}]
