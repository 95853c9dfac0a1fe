"""Every construction route stores the lower Cholesky factor of its shape; the
pair step works from the spectrum alone and boundary sampling from the factor,
neither with eigenvectors.

The whitening of the next pair step solves with the stored factor by the
blocked ``linalg._lower_solve``, which ignores the upper triangle and so is
only correct on triangular input; the invariant is checked on every route
that builds an ellipsoid.
"""

import numpy as np
import pytest

from conftest import one_step, random_ellipsoid, spd_matrix, tall_stage
from ellipsum import (
    Ellipsoid,
    LtiStage,
    SolverOptions,
    affine_image,
    mvoe_pair,
    mvoe_sum,
    propagate_backward,
    propagate_forward,
)

DIMS = [1, 2, 6, 40]  # 40 crosses the block size of the triangular solve


def stage(rng, dim: int, low: float, high: float) -> LtiStage:
    """F with singular values in [low, high], a square G and a random input set."""
    frame, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return LtiStage(F=frame * rng.uniform(low, high, dim), G=np.eye(dim), input_set=random_ellipsoid(rng, dim))


def routes(dim: int):
    rng = np.random.default_rng(1400 + dim)
    e1, e2, e3 = (random_ellipsoid(rng, dim, log_lo=-3.0, log_hi=3.0) for _ in range(3))
    forward, backward = stage(rng, dim, 0.5, 0.9), stage(rng, dim, 1.1, 2.0)
    frame, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return {
        "Ellipsoid": Ellipsoid(rng.normal(size=dim), spd_matrix(rng, dim, -3.0, 3.0)),
        "mvoe_pair": mvoe_pair(e1, e2).ellipsoid,
        "mvoe_pair_trace": mvoe_pair(e1, e2, SolverOptions(method="trace")).ellipsoid,
        "mvoe_sum": mvoe_sum([e1, e2, e3])[0].ellipsoid,
        "step_forward": one_step(propagate_forward, e1, forward, eps=0.0),
        "step_backward": one_step(propagate_backward, e1, backward, eps=0.0),
        "affine_image": affine_image(e1, frame * rng.uniform(0.1, 10.0, dim)),
    }


@pytest.mark.parametrize("route", list(routes(1)))
@pytest.mark.parametrize("dim", DIMS)
def test_factor_is_lower_cholesky_factor(dim, route):
    out = routes(dim)[route]
    factor = out.factor
    assert not np.any(np.triu(factor, 1))
    assert np.all(np.diagonal(factor) > 0.0)
    assert np.linalg.norm(factor @ factor.T - out.shape) <= 1e-12 * np.linalg.norm(out.shape)


@pytest.mark.parametrize("dim", DIMS)
def test_computed_shapes_are_exactly_symmetric(dim):
    # no computed shape is averaged with its transpose: symmetry rests on
    # each being a Gram product N N' or a sum of symmetric terms
    rng = np.random.default_rng(1450 + dim)
    x0 = random_ellipsoid(rng, dim)
    shapes = [routes(dim)[route].shape for route in ("mvoe_pair", "mvoe_sum", "affine_image")]
    m = max(1, dim // 3)  # columns of the tall G
    # a tall G's image is singular and needs the lift, eps > 0
    for eps, forward, backward in (
        (0.0, stage(rng, dim, 0.5, 0.9), stage(rng, dim, 1.1, 2.0)),
        (1e-9, stage(rng, dim, 0.5, 0.9), stage(rng, dim, 1.1, 2.0)),
        (1e-9, tall_stage(rng, dim, m, 0.5, 0.9), tall_stage(rng, dim, m, 1.1, 2.0)),
    ):
        shapes += [e.shape for e in propagate_forward(x0, [forward] * 5, eps=eps)]
        shapes += [e.shape for e in propagate_backward(x0, [backward] * 5, eps=eps)]
    assert all(np.array_equal(s, s.T) for s in shapes)


class TestNoEigenvectors:
    @pytest.fixture
    def eigenvector_calls(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append("eigh") or eigh(*a, **k))
        return calls

    @pytest.mark.parametrize("method", ["auto", "fixed_point", "trace"])
    @pytest.mark.parametrize("dim", [2, 40])
    def test_solvers(self, eigenvector_calls, dim, method):
        rng = np.random.default_rng(1420 + dim)
        parts = [random_ellipsoid(rng, dim) for _ in range(4)]
        opts = SolverOptions(method=method)
        mvoe_pair(parts[0], parts[1], opts)
        mvoe_sum(parts, opts)
        assert eigenvector_calls == []

    def test_bisection(self, eigenvector_calls):
        rng = np.random.default_rng(1430)
        parts = [random_ellipsoid(rng, 2) for _ in range(4)]
        mvoe_sum(parts, SolverOptions(method="bisection"))
        assert eigenvector_calls == []

    @pytest.mark.parametrize("dim", [2, 40])
    def test_reach_tubes(self, eigenvector_calls, dim):
        rng = np.random.default_rng(1440 + dim)
        x0 = random_ellipsoid(rng, dim)
        propagate_forward(x0, [stage(rng, dim, 0.5, 0.9)] * 5, eps=0.0)
        propagate_backward(x0, [stage(rng, dim, 1.1, 2.0)] * 5, eps=0.0)
        assert eigenvector_calls == []

    @pytest.mark.parametrize("dim", [2, 3])
    def test_boundary_points(self, eigenvector_calls, dim):
        e = random_ellipsoid(np.random.default_rng(1460 + dim), dim)
        e.boundary_points(9)
        assert eigenvector_calls == []
