"""The solver fallback ladder: degrade through rungs, never die.

The paper's MPC loop assumes every period's QP converges.  In production
the solver occasionally cycles on a degenerate vertex, blows its latency
budget, or faces a momentarily infeasible constraint set.  The ladder
encodes the recovery policy as an ordered list of *rungs*, each strictly
cheaper and strictly cruder than the one above:

1. ``warm``       — the warm-started shared solve (the nominal path),
2. ``cold``       — the lane's exact active-set solve, from scratch,
3. ``admm``       — the lane's batched ADMM iterate,
4. ``reference``  — bypass the MPC: apply the reference-LP allocation,
5. ``hold``       — project the last-known-good allocation onto the
   current feasible set (availability + conservation) with
   :func:`repro.optim.projections.project_capped_simplex`.

Every rung runs under one shared :class:`~repro.resilience.deadline.
DeadlineBudget`: a rung that stalls eats the budget of the rungs below
it, and once the budget is spent only solver-free rungs are attempted.
The ladder itself is policy-agnostic — rungs are injected callables —
so it is unit-testable without a cluster and reusable by any policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..exceptions import (
    CapacityError,
    DegradedOperationError,
    SolverError,
)
from ..optim.projections import project_capped_simplex
from .deadline import DeadlineBudget

__all__ = ["Rung", "RungOutcome", "FallbackLadder", "project_allocation"]

#: Canonical rung order of the degradation ladder.
RUNG_ORDER = ("warm", "cold", "admm", "reference", "hold")


@dataclass
class Rung:
    """One rung of the ladder.

    Attributes
    ----------
    name:
        Label used in counters (``ladder_rung_<name>``) and diagnostics.
    attempt:
        Callable ``attempt(deadline_seconds) -> value``.  ``deadline``
        is the remaining budget in seconds (``None`` = unbounded).  Any
        :class:`~repro.exceptions.SolverError` subclass (including
        deadline exhaustion) or :class:`~repro.exceptions.CapacityError`
        raised here fails the rung and drops to the next one.
    needs_solver:
        Rungs that run an iterative solver are skipped outright once the
        deadline budget is exhausted; solver-free rungs (projection)
        always run.
    """

    name: str
    attempt: Callable[[float | None], Any]
    needs_solver: bool = True


@dataclass
class RungOutcome:
    """What the ladder produced and how far it had to fall."""

    value: Any
    rung: str
    #: (rung name, error string) for every rung that failed before the
    #: winning one.
    failures: list[tuple[str, str]] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when the nominal (first) rung did not produce the value."""
        return bool(self.failures)


class FallbackLadder:
    """Run rungs in order under a shared deadline budget.

    Parameters
    ----------
    rungs:
        Ordered :class:`Rung` list, nominal path first.
    count:
        Optional counter sink ``count(name, n=1)`` — e.g.
        :meth:`repro.sim.profiling.PerfStats.count` — fed
        ``ladder_rung_<name>`` on success, ``ladder_failures_<name>`` on
        failure and ``ladder_skipped_<name>`` on deadline skips.
    """

    def __init__(self, rungs: list[Rung],
                 count: Callable[..., None] | None = None) -> None:
        if not rungs:
            raise ValueError("ladder needs at least one rung")
        self.rungs = list(rungs)
        self._count = count if count is not None else (lambda *_a, **_k: None)

    def run(self, budget: DeadlineBudget | None = None) -> RungOutcome:
        """Attempt each rung until one succeeds.

        Raises
        ------
        DegradedOperationError
            When every rung failed — the caller (normally the policy
            supervisor) must decide what SAFE_MODE means.
        """
        if budget is None:
            budget = DeadlineBudget(None)
        failures: list[tuple[str, str]] = []
        for rung in self.rungs:
            deadline = budget.slice()
            if rung.needs_solver and deadline == 0.0:
                self._count(f"ladder_skipped_{rung.name}")
                failures.append((rung.name, "deadline budget exhausted"))
                continue
            try:
                value = rung.attempt(deadline)
            except (SolverError, CapacityError) as exc:
                self._count(f"ladder_failures_{rung.name}")
                failures.append((rung.name, f"{type(exc).__name__}: {exc}"))
                continue
            self._count(f"ladder_rung_{rung.name}")
            return RungOutcome(value=value, rung=rung.name,
                               failures=failures)
        raise DegradedOperationError(
            "every fallback rung failed: "
            + "; ".join(f"{name} ({err})" for name, err in failures))


def project_allocation(cluster, u_prev: np.ndarray,
                       loads: np.ndarray) -> tuple[np.ndarray, float]:
    """Project an allocation onto the current feasible set, shedding last.

    The final ladder rung: given the last-known-good flat allocation
    ``u_prev`` and the current portal ``loads``, produce the nearest
    allocation that (a) respects every IDC's *available* latency-bounded
    capacity and (b) conserves each portal's workload — in that priority
    order.  Each portal row is projected onto the capped simplex
    ``{0 <= v <= remaining capacity, Σv = L_i}`` (portals visited
    largest-load first so big flows keep their shape); when the surviving
    fleet cannot serve a portal's full load, the overflow is *shed* and
    reported so the caller can surface it instead of fabricating
    capacity.

    Returns
    -------
    (u, shed):
        The projected flat allocation and the total request rate shed
        (0.0 whenever the loads are servable, e.g. any time the fuzzer's
        capacity headroom guarantee holds).
    """
    loads = np.asarray(loads, dtype=float).ravel()
    lam_prev = cluster.vector_to_matrix(
        np.maximum(np.asarray(u_prev, dtype=float).ravel(), 0.0))
    remaining = np.array([idc.available_capacity for idc in cluster.idcs],
                         dtype=float)
    lam = np.zeros_like(lam_prev)
    shed = 0.0
    for i in np.argsort(-loads, kind="stable"):
        capacity = float(remaining.sum())
        servable = min(float(loads[i]), capacity)
        if servable < loads[i]:
            shed += float(loads[i]) - servable
        if servable <= 0.0:
            continue
        if servable >= capacity - 1e-9:
            row = remaining.copy()
        else:
            row = project_capped_simplex(lam_prev[i], remaining, servable)
        lam[i] = row
        remaining = np.maximum(remaining - row, 0.0)
    return cluster.matrix_to_vector(lam), float(shed)
