"""Common result container for the optimization substrate.

Every solver in :mod:`repro.optim` returns an :class:`OptimizeResult` so the
rest of the library can treat LP and QP solvers uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["OptimizeResult", "Status"]


class Status:
    """String constants for solver termination status."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    NUMERICAL = "numerical_difficulty"

    ALL = (OPTIMAL, INFEASIBLE, UNBOUNDED, ITERATION_LIMIT, NUMERICAL)


@dataclass
class OptimizeResult:
    """Solution of an optimization problem.

    Attributes
    ----------
    x:
        Primal solution (best iterate found, even when not optimal).
    fun:
        Objective value at ``x``.
    status:
        One of the :class:`Status` constants.
    iterations:
        Number of iterations (pivots for simplex, active-set changes for QP,
        ADMM sweeps for the ADMM solver).
    dual_eq / dual_ineq:
        Lagrange multipliers of the equality / inequality constraints when
        the solver computes them, else empty arrays.
    working_set:
        Indices of the inequality constraints active at the solution, for
        solvers that track them (the active-set QP).  Feeding this back as
        ``working_set0`` on the next, nearby problem warm starts the
        solver.  ``None`` when the solver does not track a working set.
    message:
        Human-readable diagnostic.
    meta:
        Solver-specific diagnostics (e.g. the QP kernels report
        ``kkt_updates`` / ``kkt_refactorizations`` / ``kkt_dense_steps``,
        the ADMM solver ``deadline_exceeded``, the simplex its
        ``phase1_iterations`` / ``phase2_iterations`` split).  Always a
        plain dict of scalars, safe to fold into
        :class:`repro.sim.profiling.PerfStats` counters and consumed by
        the :mod:`repro.verify` differential oracles when attributing a
        cross-backend disagreement.
    """

    x: np.ndarray
    fun: float
    status: str
    iterations: int = 0
    dual_eq: np.ndarray = field(default_factory=lambda: np.empty(0))
    dual_ineq: np.ndarray = field(default_factory=lambda: np.empty(0))
    working_set: tuple[int, ...] | None = None
    message: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def success(self) -> bool:
        """Whether the solver terminated at a verified optimum."""
        return self.status == Status.OPTIMAL

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        if self.status not in Status.ALL:
            raise ValueError(f"unknown solver status {self.status!r}")
