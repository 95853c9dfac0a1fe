import math

import numpy as np
from hypothesis import HealthCheck, settings

from ellipsum import CheckReport, Ellipsoid, LtiStage, pair_step_checks
from ellipsum.oracles import _support_terms

settings.register_profile(
    "ellipsum",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ellipsum")


def unit_ball_volume(dim: int) -> float:
    """Volume of the Euclidean unit ball in ``dim`` dimensions, in closed form."""
    return math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)


def spd_matrix(rng: np.random.Generator, dim: int, log_lo: float = -2.0, log_hi: float = 2.0) -> np.ndarray:
    """Random SPD matrix with log-uniform eigenvalues and a random orthogonal frame."""
    eigs = 10.0 ** rng.uniform(log_lo, log_hi, dim)
    frame, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    m = (frame * eigs) @ frame.T
    return 0.5 * (m + m.T)


def support(ell: Ellipsoid, direction) -> float:
    """Support function u'c + sqrt(u'Qu) of ``ell`` in one direction, from
    the terms the containment oracle sums."""
    offset, radius = _support_terms(ell, np.asarray(direction, dtype=float).reshape(1, -1))
    return float(offset[0] + radius[0])


def random_ellipsoid(rng: np.random.Generator, dim: int, log_lo: float = -2.0, log_hi: float = 2.0) -> Ellipsoid:
    return Ellipsoid(center=rng.normal(size=dim), shape=spd_matrix(rng, dim, log_lo, log_hi))


def tall_stage(rng: np.random.Generator, n: int, m: int, low: float, high: float) -> LtiStage:
    """F with singular values in [low, high] and a tall random G."""
    frame, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return LtiStage(
        F=frame * rng.uniform(low, high, n),
        G=rng.normal(size=(n, m)) / np.sqrt(n),
        input_set=random_ellipsoid(rng, m),
    )


def one_step(propagate, x: Ellipsoid, stage: LtiStage, **kw) -> Ellipsoid:
    """One reach step: the entry after ``x`` of ``propagate``'s tube over ``stage``."""
    return propagate(x, [stage], **kw)[1]


def stationarity_report(Q1, Q2, beta: float) -> CheckReport:
    """The stationarity report of one pair step at ``beta``: the first of
    ``pair_step_checks``, whose other reports this ignores."""
    return pair_step_checks(Q1, Q2, beta, 0.0)[0]
