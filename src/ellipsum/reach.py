"""Discrete-time LTI reach-set propagation with outer-ellipsoid steps.

One step of the forward recursion maps the current state set through the
dynamics x+ = F x + G u and replaces the Minkowski sum of the two resulting
ellipsoids by its minimum-volume outer approximation:

    X_{t+1} is contained in  MVOE( F X_t  (+)  G U_t ).

The backward recursion mirrors this with the maps F^{-1} and -F^{-1} G.
Rank-deficient input images G Q G' (tall G) are regularized to
G Q G' + eps max(tr(G Q G')/n, 1) I, the package's one lift, reached only
through ``eps``; pass eps = 0 for well-posed inputs to keep steps exact.

A tube, of either direction, is one chain of mapped pair steps
(``mvoe._chain``) under one np.errstate: each step maps the state through
M = F forward or F^{-1} backward and takes the spectrum in the pre-image
coordinates of M, against a factor of M^{-1} Q_in M^{-T} for the stage's
input image Q_in, so the mapped state is never factored. Only the tube
entries become ``Ellipsoid``s, through ``Ellipsoid._trusted``, which
rejects a center that overflowed. ``F`` and ``G`` are validated once per
stage, and each stage keeps one chain step per direction and eps, derived
on ``linalg``'s LAPACK kernels inside the tube's errstate, the only one
this module enters; so both directions need an invertible F, and F^{-1} is
formed only inside a backward step. A tube is a tuple of ellipsoids; one
step is the tube over one stage, ``propagate_forward(x, [stage])[1]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .ellipsoid import Ellipsoid, _factored, _freeze, _gram, _lift
from .errors import DimensionMismatch, NotPositiveDefinite, SingularMap
from .mvoe import _DEFAULT_OPTIONS, SolverOptions, _chain

#: default regularization for degenerate input images
DEFAULT_EPS = 1e-9

#: largest cond_2(F) of a backward stage: eps^{-1/2}, about 6.7e7. Past it
#: cond(F'F) = cond(F)^2 exceeds 1/eps, so F'F has no reliable Cholesky
#: factor, and the mapped state F^{-1} Q F^{-T} of a backward step, whose
#: condition number is cond(F)^2 for a round Q, is not resolved either.
_MAX_INVERSE_COND = float(np.finfo(float).eps) ** -0.5


@dataclass(frozen=True, eq=False)
class LtiStage:
    """One time step of x+ = F x + G u with input set u in ``input_set``.

    ``F`` and ``G`` are stored as read-only copies, so what propagation
    derives from them, one chain step per direction and eps (the lifted
    input image, its pulled-back factor and, backward, F^{-1}), is computed
    on first use and kept with the stage: a tube that repeats one stage
    pays for it once.
    """

    F: np.ndarray
    G: np.ndarray
    input_set: Ellipsoid
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        f = np.array(self.F, dtype=float)
        g = np.array(self.G, dtype=float)
        if f.ndim != 2 or f.shape[0] != f.shape[1]:
            raise DimensionMismatch(f"F must be square, got shape {f.shape}")
        if g.ndim != 2 or g.shape[0] != f.shape[0]:
            raise DimensionMismatch(f"G shape {g.shape} incompatible with F shape {f.shape}")
        for name, matrix in (("F", f), ("G", g)):
            if not np.isfinite(matrix).all():
                raise ValueError(f"{name} has non-finite entries")
        if self.input_set.dim != g.shape[1]:
            raise DimensionMismatch(
                f"input set has dim {self.input_set.dim}, G has {g.shape[1]} columns"
            )
        object.__setattr__(self, "F", _freeze(f))
        object.__setattr__(self, "G", _freeze(g))

    @property
    def n(self) -> int:
        return self.F.shape[0]

    def _chain_step(self, eps: float, backward: bool):
        """This stage's step of ``mvoe._chain``: (M, the input image's center
        and shape, M^{-1} L_in), M = F forward and F^{-1} backward, kept per
        direction and eps. The input image is that of the input set under
        N = G, or N = -F^{-1} G backward; its shape, the Gram matrix of N L_U
        with L_U the input set's factor, is exactly symmetric and is lifted
        and factored once into L_in. Forward, M^{-1} L_in is one LU solve
        with F, and F^{-1} is never formed; backward it is F L_in, and
        F^{-1}, the solve of F against I after the probe cond_2(F) <=
        eps_machine^{-1/2}, is computed once per step and kept only in it.
        Both solves run on ``linalg._solve`` and raise SingularMap for a
        singular F. An eps that is negative or not finite raises ValueError,
        an overflowed shape EllipsumError and an input image that is not
        positive definite, as with a tall G at eps = 0, NotPositiveDefinite
        naming it and eps. Runs inside the tube's np.errstate(all="ignore")
        and enters none of its own."""
        key = (backward, eps)
        if key not in self._derived:
            inverse = _inverse_or_raise(self.F) if backward else None
            mapping = -inverse @ self.G if backward else self.G
            center, _, factor = self.input_set._parts
            shape = _lift(_gram(mapping @ factor), eps)
            try:
                lower = _factored(shape)
            except NotPositiveDefinite as exc:
                raise NotPositiveDefinite(
                    exc.pivot,
                    f"input image N U N' (N = {'-F^{-1} G' if backward else 'G'}) is not positive definite "
                    f"(pivot {exc.pivot}) at eps = {eps!r}; an input map with fewer columns than rows "
                    "needs eps > 0",
                ) from exc
            m, pulled = (inverse, self.F @ lower) if backward else (self.F, _solve_or_raise(self.F, lower))
            self._derived[key] = (m, mapping @ center, shape, pulled)
        return self._derived[key]


def _inverse_or_raise(f: np.ndarray) -> np.ndarray:
    sigma = linalg._singular_values(f)
    largest, smallest = sigma[0], sigma[-1]
    if not (smallest > 0.0 and largest <= _MAX_INVERSE_COND * smallest):
        cond = largest / smallest if smallest > 0.0 else math.inf
        raise SingularMap(
            f"state matrix is numerically singular (cond(F) {cond:.3e} > {_MAX_INVERSE_COND:.1e})"
        )
    return _solve_or_raise(f, np.eye(f.shape[0]))


def _solve_or_raise(f: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """F^{-1} rhs; SingularMap when F is singular or the product overflows."""
    out = linalg._solve(f, rhs)
    if not np.logical_and.reduce(np.isfinite(out), axis=None):
        if np.isnan(out).all():  # LAPACK's failure fill
            raise SingularMap("state matrix F is singular: Singular matrix")
        raise SingularMap("state matrix F is numerically singular: F^{-1} times the right side overflows")
    return out


def _propagate(
    x: Ellipsoid, stages, backward: bool, eps: float, opts: SolverOptions | None
) -> tuple[Ellipsoid, ...]:
    def steps():
        for stage in stages:
            if stage.n != x.dim:
                raise DimensionMismatch(f"set has dim {x.dim}, stage expects {stage.n}")
            yield stage._chain_step(eps, backward)

    tube = [x]
    with np.errstate(all="ignore"):
        for step in _chain(x._parts, steps(), opts or _DEFAULT_OPTIONS):
            tube.append(Ellipsoid._trusted(step[0]))
    return tuple(tube)


def propagate_forward(
    x0: Ellipsoid, stages, eps: float = DEFAULT_EPS, opts: SolverOptions | None = None
) -> tuple[Ellipsoid, ...]:
    """Forward tube from the initial set: entry k + 1 is the outer
    ellipsoid of F X_k (+) G U_k for stage k = (F, G, U_k).

    Returns a tuple of len(stages) + 1 ellipsoids whose first entry is
    ``x0``. A singular F raises SingularMap, an overflow EllipsumError.
    """
    return _propagate(x0, stages, False, eps, opts)


def propagate_backward(
    x1: Ellipsoid, stages, eps: float = DEFAULT_EPS, opts: SolverOptions | None = None
) -> tuple[Ellipsoid, ...]:
    """Backward tube from the terminal set, walking the stages in reverse:
    each entry is the outer ellipsoid of F^{-1} X (+) (-F^{-1} G) U of the
    one before. Returns a tuple whose entry 0 is the terminal set;
    increasing indices move backward in time. Requires a well-conditioned
    F: cond_2(F) above eps_machine^{-1/2}, read from F's singular values
    once per stage, raises SingularMap."""
    return _propagate(x1, reversed(list(stages)), True, eps, opts)
