"""Exception types raised across the package."""


class EllipsumError(Exception):
    """Base class for all errors raised by ellipsum."""


class NotPositiveDefinite(EllipsumError):
    """A matrix expected to be symmetric positive definite is not.

    Carries the index of the Cholesky pivot that failed.
    """

    def __init__(self, pivot: int, message: str | None = None):
        self.pivot = pivot
        super().__init__(message or f"matrix is not positive definite (pivot {pivot})")


class NoConvergence(EllipsumError):
    """An iterative routine hit its iteration cap without converging, or the
    symmetric eigensolver failed or met non-finite values."""


class MaxIterationsExceeded(NoConvergence):
    """A beta solver (Newton, bisection or the fixed point) did not meet its
    stopping criterion within ``max_iterations``.

    Carries the last iterate so callers can inspect or restart.
    """

    def __init__(self, last_beta: float, iterations: int):
        self.last_beta = last_beta
        self.iterations = iterations
        super().__init__(
            f"no convergence after {iterations} iterations (last beta {last_beta!r})"
        )


class SingularMap(EllipsumError):
    """A linear map required to be invertible is singular or numerically so."""


class UnsupportedDimension(EllipsumError):
    """Operation only defined for a restricted set of dimensions."""


class DimensionMismatch(EllipsumError):
    """Operands have incompatible dimensions."""


class DimensionNotTwo(DimensionMismatch, UnsupportedDimension):
    """The bracketed bisection solver only handles two-dimensional spectra."""


class NonPositiveBeta(EllipsumError):
    """The scalar family parameter must be strictly positive."""


class InvalidWeights(EllipsumError):
    """Convex weights must be strictly positive and sum to one."""


class EmptyInput(EllipsumError):
    """An operation over a collection received no elements."""
