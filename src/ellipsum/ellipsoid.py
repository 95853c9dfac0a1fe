"""Ellipsoid value type and geometric queries.

An ellipsoid is the set {x : (x - q)' Q^{-1} (x - q) <= 1} with center q and
symmetric positive definite shape matrix Q. Volume, support function,
membership, affine images and boundary sampling for plots live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NotPositiveDefinite, SingularMap, UnsupportedDimension

#: absolute slack on the quadratic-form residual for membership tests,
#: forgiving of roundoff on exact boundary points
MEMBERSHIP_TOL = 1e-12


def unit_ball_volume(dim: int) -> float:
    """Volume of the Euclidean unit ball in ``dim`` dimensions."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def _log_unit_ball_volume(dim: int) -> float:
    return 0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim + 1.0)


def unit_direction(vector) -> np.ndarray:
    """Normalize a direction vector to unit Euclidean length.

    The zero vector is rejected.
    """
    u = np.asarray(vector, dtype=float).reshape(-1)
    norm = float(np.linalg.norm(u))
    if norm == 0.0 or not math.isfinite(norm):
        raise ValueError("direction must be a nonzero finite vector")
    return u / norm


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Ellipsoid:
    """Ellipsoid with center ``center`` and SPD shape matrix ``shape``.

    The center must be finite. The shape matrix is symmetrized on
    construction (rejecting genuinely asymmetric input) and checked for
    positive definiteness via Cholesky. Solver outputs, SPD by construction,
    skip these checks through ``_trusted``.
    Instances are immutable; the stored arrays are read-only.
    """

    center: np.ndarray
    shape: np.ndarray

    def __post_init__(self):
        center = np.array(self.center, dtype=float).reshape(-1)
        if not np.all(np.isfinite(center)):
            raise ValueError("center has non-finite entries")
        shape = linalg.symmetrize(self.shape)
        if center.shape[0] != shape.shape[0]:
            raise DimensionMismatch(
                f"center has dim {center.shape[0]}, shape matrix is {shape.shape[0]}x{shape.shape[0]}"
            )
        chol = linalg.cholesky(shape)  # raises NotPositiveDefinite for invalid shapes
        self._store(center, shape, chol, float(np.sum(np.log(np.diagonal(chol)))))

    @classmethod
    def _trusted(cls, center, shape, factor, half_logdet: float) -> Ellipsoid:
        """Store an SPD-by-construction ``shape`` with a square root ``factor``
        (shape = factor @ factor.T) and 1/2 log det shape, without checks."""
        out = object.__new__(cls)
        out._store(center, shape, factor, half_logdet)
        return out

    def _store(self, center, shape, factor, half_logdet):
        object.__setattr__(self, "center", _freeze(center))
        object.__setattr__(self, "shape", _freeze(shape))
        object.__setattr__(self, "_factor", _freeze(factor))
        object.__setattr__(self, "_half_logdet", half_logdet)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def factor(self) -> np.ndarray:
        """A square root S of the shape matrix, Q = S S' (not always triangular)."""
        return self._factor

    def log_volume(self) -> float:
        """log of pi^(d/2) / Gamma(d/2 + 1) * sqrt(det Q); finite at any d."""
        return _log_unit_ball_volume(self.dim) + self._half_logdet

    def volume(self) -> float:
        """exp(log_volume()), or inf where that overflows."""
        try:
            return math.exp(self.log_volume())
        except OverflowError:
            return math.inf

    def support(self, direction) -> float:
        """Support function value u'q + sqrt(u'Qu).

        Positively homogeneous in ``direction``; pass a unit vector to get
        the distance of the supporting hyperplane from the origin.
        """
        u = np.asarray(direction, dtype=float).reshape(-1)
        return float(u @ self.center + math.sqrt(max(u @ self.shape @ u, 0.0)))

    def contains_point(self, point) -> bool:
        """Membership test with absolute slack MEMBERSHIP_TOL on the residual."""
        x = np.asarray(point, dtype=float).reshape(-1)
        if x.shape[0] != self.dim:
            raise DimensionMismatch(f"point has dim {x.shape[0]}, ellipsoid has dim {self.dim}")
        z = np.linalg.solve(self._factor, x - self.center)
        return float(z @ z) <= 1.0 + MEMBERSHIP_TOL

    def sqrt_shape(self) -> np.ndarray:
        """Symmetric square root of the shape matrix, via eigendecomposition."""
        values, vectors = linalg.sym_eig(self.shape)
        return (vectors * np.sqrt(np.maximum(values, 0.0))) @ vectors.T

    def boundary_points(self, samples: int) -> np.ndarray:
        """Points on the boundary, as rows of an array.

        In 2-D, ``samples`` equally spaced angles on the unit circle are
        mapped through x = Q^{1/2} v + q. In 3-D a latitude-longitude grid
        with ``samples`` rows and columns is used. Other dimensions raise
        UnsupportedDimension.
        """
        if samples < 1:
            raise ValueError("samples must be positive")
        if self.dim == 2:
            angles = 2.0 * math.pi * np.arange(samples) / samples
            v = np.stack([np.cos(angles), np.sin(angles)], axis=0)
        elif self.dim == 3:
            lat = np.linspace(0.0, math.pi, samples)
            lon = 2.0 * math.pi * np.arange(samples) / samples
            th, ph = np.meshgrid(lat, lon, indexing="ij")
            v = np.stack(
                [
                    (np.sin(th) * np.cos(ph)).ravel(),
                    (np.sin(th) * np.sin(ph)).ravel(),
                    np.cos(th).ravel(),
                ],
                axis=0,
            )
        else:
            raise UnsupportedDimension(f"boundary sampling needs dim 2 or 3, got {self.dim}")
        return (self.sqrt_shape() @ v).T + self.center

    def to_dict(self) -> dict:
        """JSON-ready representation: {"center": [...], "shape": [[...], ...]}."""
        return {"center": self.center.tolist(), "shape": self.shape.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> Ellipsoid:
        try:
            center = data["center"]
            shape = data["shape"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"ellipsoid object needs 'center' and 'shape': {exc}") from exc
        return cls(center=np.asarray(center, dtype=float), shape=np.asarray(shape, dtype=float))

    def __repr__(self):
        return f"Ellipsoid(center={self.center.tolist()}, shape={self.shape.tolist()})"


def affine_image(ell: Ellipsoid, matrix) -> Ellipsoid:
    """Image of an ellipsoid under x -> F x: E(Fq, F Q F'), validated."""
    f = np.asarray(matrix, dtype=float)
    if f.ndim != 2 or f.shape[1] != ell.dim:
        raise DimensionMismatch(f"map shape {f.shape} incompatible with dim {ell.dim}")
    new_shape = f @ ell.shape @ f.T
    try:
        return Ellipsoid(center=f @ ell.center, shape=0.5 * (new_shape + new_shape.T))
    except NotPositiveDefinite as exc:
        raise SingularMap(f"image shape matrix is not positive definite: {exc}") from exc


def lift_degenerate(shape_psd, eps: float) -> np.ndarray:
    """Regularize a PSD matrix to a PD one: Q + eps * max(trace(Q)/d, 1) * I.

    With eps = 0 this is the identity, so well-posed inputs pass through
    untouched; rank-deficient shapes (e.g. from tall input maps) need a
    small positive eps.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    q = linalg.symmetrize(shape_psd)
    d = q.shape[0]
    trace_scale = max(float(np.trace(q)) / d, 1.0)
    return q + (eps * trace_scale) * np.eye(d)
