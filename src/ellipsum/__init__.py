"""Tight outer ellipsoids for Minkowski sums of ellipsoids.

The public surface: the ``Ellipsoid`` value type, the one-parameter outer
family and its volume-optimal member (``mvoe_pair`` / ``mvoe_sum``),
discrete-time reach-tube propagation built on the pairwise step, and
brute-force verification oracles.
"""

from .ellipsoid import Ellipsoid, affine_image, unit_direction
from .errors import (
    DimensionMismatch,
    DimensionNotTwo,
    EllipsumError,
    EmptyInput,
    InvalidWeights,
    MaxIterationsExceeded,
    NoConvergence,
    NonPositiveBeta,
    NotPositiveDefinite,
    SingularMap,
    UnsupportedDimension,
)
from .mvoe import (
    MvoeResult,
    OptimalityPolynomial,
    SolverOptions,
    bracket_beta_2d,
    generalized_spectrum,
    logdet_curvature,
    mvoe_pair,
    mvoe_sum,
    optimality_polynomial,
    optimality_residual,
    q_of_alpha,
    q_of_beta,
    q_of_direction,
    solve_beta_bisection,
    solve_beta_fixed_point,
)
from .oracles import (
    CheckReport,
    consistency_checks,
    containment_check,
    golden_section_beta,
    pair_step_checks,
)
from .reach import LtiStage, propagate_backward, propagate_forward

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "DimensionMismatch",
    "DimensionNotTwo",
    "Ellipsoid",
    "EllipsumError",
    "EmptyInput",
    "InvalidWeights",
    "LtiStage",
    "MaxIterationsExceeded",
    "MvoeResult",
    "NoConvergence",
    "NonPositiveBeta",
    "NotPositiveDefinite",
    "OptimalityPolynomial",
    "SingularMap",
    "SolverOptions",
    "UnsupportedDimension",
    "affine_image",
    "bracket_beta_2d",
    "consistency_checks",
    "containment_check",
    "generalized_spectrum",
    "golden_section_beta",
    "logdet_curvature",
    "mvoe_pair",
    "mvoe_sum",
    "optimality_polynomial",
    "optimality_residual",
    "pair_step_checks",
    "propagate_backward",
    "propagate_forward",
    "q_of_alpha",
    "q_of_beta",
    "q_of_direction",
    "solve_beta_bisection",
    "solve_beta_fixed_point",
    "unit_direction",
]
