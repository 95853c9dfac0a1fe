import math

import numpy as np
import pytest

from conftest import random_ellipsoid, spd_matrix, support, unit_ball_volume
from ellipsum import (
    DimensionMismatch,
    Ellipsoid,
    EllipsumError,
    NotPositiveDefinite,
    SingularMap,
    UnsupportedDimension,
    affine_image,
    unit_direction,
)
from ellipsum.ellipsoid import _lift


def unit_disk():
    return Ellipsoid(np.zeros(2), np.eye(2))


class TestConstruction:
    def test_rejects_asymmetric_shape(self):
        with pytest.raises(ValueError, match="not symmetric"):
            Ellipsoid(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite_shape(self):
        with pytest.raises(NotPositiveDefinite):
            Ellipsoid(np.zeros(2), np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_center(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            Ellipsoid([bad, 0.0], np.eye(2))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Ellipsoid(np.zeros(3), np.eye(2))

    def test_accepts_huge_entries(self):
        e = Ellipsoid([0.0, 0.0], 1e308 * np.eye(2))
        assert np.array_equal(e.shape, 1e308 * np.eye(2))
        assert abs(e.log_volume() - (math.log(math.pi) + math.log(1e308))) < 1e-12

    def test_immutability(self):
        e = unit_disk()
        with pytest.raises(Exception):
            e.center = np.ones(2)
        with pytest.raises(ValueError):
            e.shape[0, 0] = 5.0


class TestVolume:
    def test_unit_disk(self):
        assert abs(unit_disk().volume() - math.pi) < 1e-15

    def test_unit_ball(self):
        e = Ellipsoid(np.zeros(3), np.eye(3))
        assert abs(e.volume() - 4.0 * math.pi / 3.0) < 1e-14

    def test_axis_aligned(self):
        e = Ellipsoid(np.zeros(2), np.diag([4.0, 1.0]))
        assert abs(e.volume() - 2.0 * math.pi) < 1e-14


class TestSupport:
    def test_unit_ball_any_direction(self):
        e = Ellipsoid(np.zeros(4), np.eye(4))
        u = unit_direction([1.0, -2.0, 0.5, 3.0])
        assert abs(support(e, u) - 1.0) < 1e-15

    def test_shifted(self):
        e = Ellipsoid([3.0, 0.0], np.eye(2))
        assert abs(support(e, [1.0, 0.0]) - 4.0) < 1e-15

    def test_axis_aligned(self):
        e = Ellipsoid(np.zeros(2), np.diag([4.0, 1.0]))
        assert abs(support(e, [1.0, 0.0]) - 2.0) < 1e-15

    def test_positive_homogeneity_and_lower_bound(self):
        rng = np.random.default_rng(44)
        e = random_ellipsoid(rng, 3)
        u = rng.normal(size=3)
        assert abs(support(e, 2.5 * u) - 2.5 * support(e, u)) < 1e-10 * max(1.0, abs(support(e, u)))
        assert support(e, u) > float(u @ e.center)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            unit_direction(np.zeros(3))


class TestAffineImage:
    def test_scaling(self):
        image = affine_image(unit_disk(), 2.0 * np.eye(2))
        assert np.allclose(image.shape, 4.0 * np.eye(2), atol=0)

    def test_support_function_identity(self):
        # support(F.E, u) = ||F'u|| support(E, F'u/||F'u||)
        rng = np.random.default_rng(46)
        for _ in range(20):
            e = random_ellipsoid(rng, 3)
            f = rng.normal(size=(3, 3))
            image = affine_image(e, f)
            u = rng.normal(size=3)
            pulled = f.T @ u
            expected = np.linalg.norm(pulled) * support(e, unit_direction(pulled))
            assert abs(support(image, u) - expected) < 1e-10 * max(1.0, abs(expected))

    def test_volume_scales_with_det(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            e = random_ellipsoid(rng, 3, log_lo=-1.0, log_hi=1.0)
            f = rng.normal(size=(3, 3))
            if abs(np.linalg.det(f)) < 1e-3:
                continue
            image = affine_image(e, f)
            expected = abs(np.linalg.det(f)) * e.volume()
            assert abs(image.volume() - expected) / expected < 1e-9

    def test_singular_map_rejected(self):
        with pytest.raises(SingularMap):
            affine_image(unit_disk(), np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_overflowing_center_rejected(self):
        with pytest.raises(EllipsumError, match="center has non-finite entries"):
            affine_image(Ellipsoid([1e200, 0.0], np.eye(2)), 1e110 * np.eye(2))

    @pytest.mark.parametrize("matrix", [np.eye(3), np.ones(2), np.ones((2, 2, 2))], ids=["columns", "1-d", "3-d"])
    def test_dimension_mismatch_rejected(self, matrix):
        with pytest.raises(DimensionMismatch, match="incompatible with dim 2"):
            affine_image(unit_disk(), matrix)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_map_rejected(self, bad):
        with pytest.raises(ValueError, match="map has non-finite entries"):
            affine_image(unit_disk(), np.array([[1.0, 0.0], [0.0, bad]]))

    def test_factor_and_log_volume_match_shape(self):
        rng = np.random.default_rng(48)
        e = random_ellipsoid(rng, 4)
        image = affine_image(e, rng.normal(size=(3, 4)))
        assert np.allclose(image.factor @ image.factor.T, image.shape, rtol=1e-12, atol=0)
        _, logdet = np.linalg.slogdet(image.shape)
        assert abs(image.log_volume() - (math.log(unit_ball_volume(3)) + 0.5 * logdet)) < 1e-10


class TestLiftDegenerate:
    """The one lift, which propagation reaches through ``eps``."""

    def test_zero_matrix(self):
        out = _lift(np.zeros((2, 2)), 1e-9)
        assert np.allclose(out, 1e-9 * np.eye(2), atol=0)

    def test_rank_deficient_formula(self):
        # trace 1, d = 2: trace_scale = max(0.5, 1) = 1, so eps itself is added
        out = _lift(np.diag([1.0, 0.0]), 1e-6)
        assert np.allclose(out, np.diag([1.0 + 1e-6, 1e-6]), atol=0)

    def test_spd_volume_barely_changes(self):
        rng = np.random.default_rng(48)
        e = random_ellipsoid(rng, 3, log_lo=-1.0, log_hi=1.0)
        lifted = Ellipsoid(e.center, _lift(e.shape, 1e-9))
        assert abs(lifted.volume() - e.volume()) / e.volume() < 1e-6

    def test_eps_zero_is_identity(self):
        m = spd_matrix(np.random.default_rng(3), 4)
        assert np.array_equal(_lift(m, 0.0), m)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            _lift(np.eye(2), -1e-9)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_nonfinite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="finite"):
            _lift(np.eye(1), eps)


class TestBoundaryPoints:
    def test_unit_disk_cardinal_points(self):
        pts = unit_disk().boundary_points(4)
        expected = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        assert np.allclose(pts, expected, atol=1e-12)

    def test_shifted_disk(self):
        pts = Ellipsoid([1.0, 0.0], np.eye(2)).boundary_points(4)
        expected = np.array([[2.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, -1.0]])
        assert np.allclose(pts, expected, atol=1e-12)

    def test_diagonal_shape_semi_axes(self):
        # the factor of a diagonal shape is its symmetric square root
        pts = Ellipsoid([0.0, 0.0], np.diag([4.0, 9.0])).boundary_points(4)
        expected = np.array([[2.0, 0.0], [0.0, 3.0], [-2.0, 0.0], [0.0, -3.0]])
        assert np.allclose(pts, expected, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_points_satisfy_boundary_equation(self, dim):
        rng = np.random.default_rng(600 + dim)
        e = random_ellipsoid(rng, dim)
        inv = np.linalg.inv(e.shape)
        for x in e.boundary_points(9):
            r = (x - e.center) @ inv @ (x - e.center)
            assert abs(r - 1.0) < 1e-9

    def test_boundary_points_are_contained(self):
        rng = np.random.default_rng(49)
        e = random_ellipsoid(rng, 2, log_lo=-1.0, log_hi=1.0)
        for x in e.boundary_points(32):
            z = np.linalg.solve(e.factor, x - e.center)
            assert z @ z <= 1.0 + 1e-12

    def test_unsupported_dimensions(self):
        for dim in (1, 5):
            e = Ellipsoid(np.zeros(dim), np.eye(dim))
            with pytest.raises(UnsupportedDimension):
                e.boundary_points(4)

    def test_rejects_no_samples(self):
        with pytest.raises(ValueError, match="samples must be positive"):
            unit_disk().boundary_points(0)


class TestJsonShape:
    def test_round_trip(self):
        rng = np.random.default_rng(50)
        e = random_ellipsoid(rng, 3)
        back = Ellipsoid.from_dict(e.to_dict())
        assert np.array_equal(back.center, e.center)
        assert np.array_equal(back.shape, e.shape)

    def test_asymmetric_shape_rejected(self):
        with pytest.raises(ValueError):
            Ellipsoid.from_dict({"center": [0.0, 0.0], "shape": [[1.0, 0.5], [0.0, 1.0]]})

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError):
            Ellipsoid.from_dict({"center": [0.0]})
