"""Control substrate: state-space models, discretization, MPC, RLS.

Implements the control theory the paper relies on — ZOH digitization
(eqs. 21–25), the condensed constrained MPC of Sec. IV-C, the Kalman
rank test of the "workload loop controllability condition", the
stability checks of Sec. IV-E, and the RLS estimator behind the
workload predictor.
"""

from .controllability import (
    controllability_matrix,
    is_controllable,
    is_observable,
    observability_matrix,
    uncontrollable_modes,
)
from .discretize import c2d, euler_matrices, tustin_matrices, zoh_matrices
from .horizon import (
    HorizonMatrices,
    build_horizon,
    move_selector,
)
from .matexp import expm, expm_pade
from .mpc import InputConstraintSet, ModelPredictiveController, MPCSolution
from .reference import (
    clamp_reference,
    constant_reference,
    first_order_approach,
    integrate_rates,
    integrate_rates_batch,
    ramp_reference,
)
from .rls import BatchRecursiveLeastSquares, RecursiveLeastSquares
from .stability import (
    estimate_contraction,
    is_schur_stable,
    spectral_radius,
    unconstrained_closed_loop,
)
from .statespace import ContinuousStateSpace, DiscreteStateSpace
from .tuning import TuningResult, tune_r_weight

__all__ = [
    "ContinuousStateSpace",
    "DiscreteStateSpace",
    "c2d",
    "zoh_matrices",
    "euler_matrices",
    "tustin_matrices",
    "expm",
    "expm_pade",
    "controllability_matrix",
    "is_controllable",
    "observability_matrix",
    "is_observable",
    "uncontrollable_modes",
    "HorizonMatrices",
    "build_horizon",
    "move_selector",
    "ModelPredictiveController",
    "MPCSolution",
    "InputConstraintSet",
    "RecursiveLeastSquares",
    "BatchRecursiveLeastSquares",
    "constant_reference",
    "ramp_reference",
    "clamp_reference",
    "integrate_rates",
    "integrate_rates_batch",
    "first_order_approach",
    "spectral_radius",
    "is_schur_stable",
    "unconstrained_closed_loop",
    "estimate_contraction",
    "tune_r_weight",
    "TuningResult",
]
