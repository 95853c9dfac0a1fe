"""Discrete-time LTI reach-set propagation with outer-ellipsoid steps.

One step of the forward recursion maps the current state set through the
dynamics x+ = F x + G u and replaces the Minkowski sum of the two resulting
ellipsoids by its minimum-volume outer approximation:

    X_{t+1} is contained in  MVOE( F X_t  (+)  G U_t ).

The backward recursion mirrors this with the maps F^{-1} and -F^{-1} G.
Rank-deficient input images G Q G' (tall G) are regularized through
``lift_degenerate``; pass eps = 0 for well-posed inputs to keep steps exact.

Each step maps the state's parts once, q = M Q M' with M = F forward or
the stage's F^{-1} backward, and factors q once by Cholesky. The mapped
state stays a parts tuple that goes straight into the pair step; only the
tube entry becomes an ``Ellipsoid``, through ``Ellipsoid._trusted``, which
rejects a center that overflowed. ``F``, ``G`` and the input images are
validated once per stage. Each step factors its mapped state afresh instead
of carrying an inverse factor from the previous step, which would drift
from the shape it stands for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .ellipsoid import Ellipsoid, _freeze, _image_parts, lift_degenerate
from .errors import DimensionMismatch, NotPositiveDefinite, SingularMap
from .mvoe import SolverOptions, _pair_parts

#: default regularization for degenerate input images
DEFAULT_EPS = 1e-9

_INVERSE_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class LtiStage:
    """One time step of x+ = F x + G u with input set u in ``input_set``.

    ``F`` and ``G`` are stored as read-only copies, so what propagation
    derives from them (F^{-1} and the lifted input images) is computed on
    first use and kept with the stage: a tube that repeats one stage pays
    for it once.
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

    def inverse(self) -> np.ndarray:
        """F^{-1}, read-only; raises SingularMap when F is numerically singular."""
        if "inverse" not in self._derived:
            self._derived["inverse"] = _freeze(_inverse_or_raise(self.F))
        return self._derived["inverse"]

    def input_image(self, eps: float, backward: bool = False) -> Ellipsoid:
        """Lifted image of the input set under G, or under -F^{-1} G backward."""
        key = ("backward" if backward else "forward", eps)
        if key not in self._derived:
            mapping = -self.inverse() @ self.G if backward else self.G
            u = self.input_set
            shape = lift_degenerate(mapping @ u.shape @ mapping.T, eps)
            self._derived[key] = Ellipsoid(center=mapping @ u.center, shape=shape)
        return self._derived[key]


@dataclass(frozen=True, eq=False)
class ReachTube:
    """Ellipsoids along a horizon; index 0 is the initial (forward mode) or
    terminal (backward mode) set."""

    stages: tuple[Ellipsoid, ...]

    def __post_init__(self):
        stages = tuple(self.stages)
        if not stages:
            raise ValueError("a reach tube needs at least one stage")
        dims = {e.dim for e in stages}
        if len(dims) != 1:
            raise DimensionMismatch(f"mixed dimensions in tube: {sorted(dims)}")
        object.__setattr__(self, "stages", stages)

    def __len__(self):
        return len(self.stages)

    def __iter__(self):
        return iter(self.stages)

    def __getitem__(self, index):
        return self.stages[index]

    def volumes(self) -> list[float]:
        return [e.volume() for e in self.stages]


def step_forward(
    state: Ellipsoid, stage: LtiStage, eps: float = DEFAULT_EPS, opts: SolverOptions | None = None
) -> Ellipsoid:
    """One forward step: outer ellipsoid of F.state (+) G.input_set.

    F Q F' is symmetrized and factored once and is not validated again; a
    singular image raises SingularMap. The pair step factors the output.
    """
    if state.dim != stage.n:
        raise DimensionMismatch(f"state has dim {state.dim}, stage expects {stage.n}")
    mapped = _image_parts(state._parts, stage.F)
    return Ellipsoid._trusted(_pair_parts(mapped, stage.input_image(eps), opts)[0])


def propagate_forward(
    x0: Ellipsoid, stages, eps: float = DEFAULT_EPS, opts: SolverOptions | None = None
) -> ReachTube:
    """Iterate ``step_forward`` from the initial set over all stages.

    Returns a tube of length len(stages) + 1 whose first entry is ``x0``.
    """
    tube = [x0]
    for stage in stages:
        tube.append(step_forward(tube[-1], stage, eps, opts))
    return ReachTube(stages=tuple(tube))


def _inverse_or_raise(f: np.ndarray) -> np.ndarray:
    # conditioning probe: the Gram matrix of a numerically singular F loses
    # positive definiteness in floating point
    try:
        linalg.cholesky(f.T @ f)
    except NotPositiveDefinite as exc:
        raise SingularMap("state matrix is numerically singular (Gram Cholesky failed)") from exc
    eye = np.eye(f.shape[0])
    try:
        inv = np.linalg.solve(f, eye)
    except np.linalg.LinAlgError as exc:
        raise SingularMap(f"state matrix is singular: {exc}") from exc
    residual = float(np.max(np.abs(f @ inv - eye)))
    if not residual < _INVERSE_RESIDUAL_TOL:
        raise SingularMap(f"state matrix is numerically singular (inverse residual {residual:.3e})")
    return inv


def step_backward(
    terminal: Ellipsoid, stage: LtiStage, eps: float = DEFAULT_EPS, opts: SolverOptions | None = None
) -> Ellipsoid:
    """One backward step: outer ellipsoid of F^{-1}.terminal (+) (-F^{-1}G).input_set.

    Requires a nonsingular F; near-singularity is detected through the
    explicit inverse residual, once per stage. F^{-1} Q F^{-T} is symmetrized
    and factored once and is not validated again. The pair step factors the
    output.
    """
    if terminal.dim != stage.n:
        raise DimensionMismatch(f"terminal set has dim {terminal.dim}, stage expects {stage.n}")
    mapped = _image_parts(terminal._parts, stage.inverse())
    return Ellipsoid._trusted(_pair_parts(mapped, stage.input_image(eps, backward=True), opts)[0])


def propagate_backward(
    x1: Ellipsoid, stages, eps: float = DEFAULT_EPS, opts: SolverOptions | None = None
) -> ReachTube:
    """Iterate ``step_backward`` from the terminal set, walking the stages in
    reverse. Index 0 of the result is the terminal set; increasing indices
    move backward in time."""
    tube = [x1]
    for stage in reversed(list(stages)):
        tube.append(step_backward(tube[-1], stage, eps, opts))
    return ReachTube(stages=tuple(tube))
