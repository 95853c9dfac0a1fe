"""Ellipsoid value type and geometric queries.

An ellipsoid is the set {x : (x - q)' Q^{-1} (x - q) <= 1} with center q and
symmetric positive definite shape matrix Q. Volume, affine images and
boundary sampling for plots live here; support functions, which only the
oracles sample, live in ``oracles``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, EllipsumError, NotPositiveDefinite, SingularMap, UnsupportedDimension


def _log_unit_ball_volume(dim: int) -> float:
    return 0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim + 1.0)


#: smallest norm whose square is a normal double; below it the plain norm loses bits
_NORM_FLOOR = math.sqrt(np.finfo(float).tiny)


def unit_direction(vector) -> np.ndarray:
    """Normalize a direction vector to unit Euclidean length. A norm below
    ``_NORM_FLOOR`` (whose square is subnormal or 0) or one that overflows
    is taken again on the vector divided by its largest magnitude. The zero
    vector and non-finite vectors are rejected."""
    u = np.asarray(vector, dtype=float).reshape(-1)
    with np.errstate(all="ignore"):
        norm = float(np.linalg.norm(u))
        if not _NORM_FLOOR <= norm < math.inf:
            u = u / np.max(np.abs(u), initial=0.0)
            norm = float(np.linalg.norm(u))
    if not 0.0 < norm < math.inf:
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
    positive definiteness via Cholesky. Every instance keeps ``_parts``, the
    tuple (center, shape, lower Cholesky factor); the log-volume is read
    from that factor. Computed ellipsoids travel as such tuples and become
    instances only through ``_trusted``. Instances are immutable; the stored
    arrays are read-only.
    """

    center: np.ndarray
    shape: np.ndarray

    def __post_init__(self):
        center = np.array(self.center, dtype=float).reshape(-1)
        if not linalg._finite(center):
            raise ValueError("center has non-finite entries")
        with np.errstate(all="ignore"):
            shape = linalg.symmetrize(self.shape)
            if center.shape[0] != shape.shape[0]:
                raise DimensionMismatch(
                    f"center has dim {center.shape[0]}, shape matrix is {shape.shape[0]}x{shape.shape[0]}"
                )
            chol = linalg._cholesky(shape)  # raises NotPositiveDefinite for invalid shapes
        self._store((center, shape, chol))

    @classmethod
    def _trusted(cls, parts) -> Ellipsoid:
        """The ellipsoid of computed ``parts`` (center, shape, factor), whose
        shape is SPD by construction and factored by ``linalg._cholesky``. Only
        the center is checked: an overflow in forming it raises EllipsumError."""
        if not linalg._finite(parts[0]):
            raise EllipsumError("center has non-finite entries (overflow)")
        out = object.__new__(cls)
        out._store(parts)
        return out

    def _store(self, parts):
        # the arrays are frozen in place, and the frozen dataclass's fields
        # are set through the instance dict, as object.__setattr__ would
        center, shape, factor = parts
        center.flags.writeable = False
        shape.flags.writeable = False
        factor.flags.writeable = False
        vars(self).update(center=center, shape=shape, _parts=parts)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def factor(self) -> np.ndarray:
        """The lower Cholesky factor L of the shape matrix, Q = L L'."""
        return self._parts[2]

    def log_volume(self) -> float:
        """log of pi^(d/2) / Gamma(d/2 + 1) * sqrt(det Q), with 1/2 log det Q
        read from the stored factor; finite at any d."""
        return _log_unit_ball_volume(self.dim) + _half_logdet(self.factor)

    def volume(self) -> float:
        """exp(log_volume()), or inf where that overflows."""
        try:
            return math.exp(self.log_volume())
        except OverflowError:
            return math.inf

    def boundary_points(self, samples: int) -> np.ndarray:
        """Points on the boundary, as rows of an array.

        In 2-D, ``samples`` equally spaced angles on the unit circle are
        mapped through x = L v + q, L the stored Cholesky factor: any L with
        L L' = Q maps the unit sphere onto the boundary. In 3-D a
        latitude-longitude grid with ``samples`` rows and columns is used.
        Other dimensions raise UnsupportedDimension.
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
        return (self.factor @ v).T + self.center

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


def _half_logdet(factor: np.ndarray) -> float:
    """1/2 log det of L L' from its lower Cholesky factor L."""
    return math.fsum(map(math.log, np.diagonal(factor).tolist()))


def _gram(n: np.ndarray) -> np.ndarray:
    """N N', exactly symmetric: ``np.dot`` evaluates a product with its own
    transpose as a SYRK and mirrors one triangle, with the same bits as the
    ``@`` operator and, at d = 6, about a third less call overhead. N
    arrives as a temporary, so it is freed before the caller factors the
    result; held through the Cholesky in ``affine_image``, a d = 200 N cost
    about 270 minor page faults per call on a 2-CPU Linux VM, and none when
    freed first."""
    return np.dot(n, n.T)


def affine_image(ell: Ellipsoid, matrix) -> Ellipsoid:
    """Image of an ellipsoid under x -> F x: E(Fq, F Q F'), factored once.

    F Q F' is formed as the Gram matrix of F L, L the factor of Q, which is
    exactly symmetric, and it is not validated further. Raises ValueError
    for a non-finite F, SingularMap when F Q F' is not positive definite
    and EllipsumError when the image overflows.
    """
    f = np.asarray(matrix, dtype=float)
    if f.ndim != 2 or f.shape[1] != ell.dim:
        raise DimensionMismatch(f"map shape {f.shape} incompatible with dim {ell.dim}")
    if not linalg._finite(f):
        raise ValueError("map has non-finite entries")
    center, _, factor = ell._parts
    with np.errstate(all="ignore"):
        shape = _gram(f @ factor)
        try:
            lower = linalg._cholesky(shape)
        except NotPositiveDefinite as exc:
            raise SingularMap(f"image shape matrix is not positive definite: {exc}") from exc
        parts = (f @ center, shape, lower)
    return Ellipsoid._trusted(parts)


def _lift(q: np.ndarray, eps: float) -> np.ndarray:
    """Regularize a symmetric PSD ``q``, which is not validated, to a PD
    matrix: q + eps * max(trace(q)/d, 1) * I. With eps = 0 this is the
    identity; rank-deficient shapes (e.g. from tall input maps) need a small
    positive eps. An eps that is negative or not finite raises ValueError."""
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError("eps must be nonnegative and finite")
    d = q.shape[0]
    trace_scale = max(float(np.trace(q)) / d, 1.0)
    return q + (eps * trace_scale) * np.eye(d)
