"""Optimization substrate: LP and QP solvers, the capped-simplex projection.

Everything here is implemented from scratch on numpy (scipy supplies only
the triangular/Cholesky solves inside the linear-algebra kernels and the
ADMM factorization, plus cross-validation in tests).  The MPC controller
and the reference optimizer of the paper are built on these solvers; the
incremental factorizations behind the active-set QP live in
:mod:`repro.optim.linalg`.
"""

from .linalg import (
    IncrementalKKT,
    KKTFactorCache,
    UpdatableCholesky,
)
from .linprog_simplex import linprog, to_standard_form
from .projections import project_capped_simplex
from .qp_activeset import find_feasible_point, solve_qp
from .qp_admm import (
    BatchADMMSetup,
    BatchQPResult,
    boxed_constraints,
    prepare_batch_admm,
    solve_qp_admm,
    solve_qp_admm_batch,
)
from .result import OptimizeResult, Status

__all__ = [
    "linprog",
    "to_standard_form",
    "solve_qp",
    "solve_qp_admm",
    "solve_qp_admm_batch",
    "prepare_batch_admm",
    "BatchADMMSetup",
    "BatchQPResult",
    "boxed_constraints",
    "find_feasible_point",
    "UpdatableCholesky",
    "IncrementalKKT",
    "KKTFactorCache",
    "project_capped_simplex",
    "OptimizeResult",
    "Status",
]
