"""Policy supervisor: a health state machine around any allocation policy.

The fallback ladder keeps a *single* control step alive; the supervisor
manages health *across* steps.  It wraps any :class:`repro.sim.policy.
Policy` and tracks a four-state machine::

    NOMINAL ──(fallback rung used / retry needed)──▶ DEGRADED
    DEGRADED ──(every rung failed, capacity gone)──▶ SAFE_MODE
    DEGRADED / SAFE_MODE ──(one clean period)─────▶ RECOVERING
    RECOVERING ──(k clean periods in a row)───────▶ NOMINAL

Transient solver faults get a bounded retry with exponential backoff
(clearing carried solver state first, since stale warm starts are the
most common poison).  When the wrapped policy is beyond saving —
:class:`~repro.exceptions.DegradedOperationError` from the ladder, a
hard :class:`~repro.exceptions.TelemetryError`, or retries exhausted —
the supervisor emits a *safe decision* instead of crashing the loop: the
last-known-good allocation projected onto the currently available
capacity (:func:`repro.resilience.ladder.project_allocation`), shedding
load only when the surviving fleet physically cannot carry it.  A
policy whose own ladder ends on that projection (its ``hold`` rung)
puts the supervisor in SAFE_MODE too.

Per-state and per-event counters are exposed through
:meth:`PolicySupervisor.perf_snapshot`, so they land in
``SimulationResult.perf["counters"]`` next to the ladder's per-rung
counters and are visible to the invariant monitor.
"""

from __future__ import annotations

import enum
import time

import numpy as np

from ..exceptions import (
    CapacityError,
    DegradedOperationError,
    SolverError,
    TelemetryError,
)
from ..sim.policy import AllocationDecision, Policy, PolicyObservation
from .ladder import RUNG_ORDER, project_allocation

__all__ = ["HealthState", "PolicySupervisor"]


class HealthState(str, enum.Enum):
    """Controller health as seen by the supervisor."""

    NOMINAL = "nominal"
    DEGRADED = "degraded"
    SAFE_MODE = "safe_mode"
    RECOVERING = "recovering"


class PolicySupervisor:
    """Wrap a policy with retries, SAFE_MODE fallback and health tracking.

    Parameters
    ----------
    policy:
        The wrapped policy.  Optional hooks used when present:
        ``reset_solver_state()`` (called before a retry),
        ``on_availability_change()`` (forwarded), ``perf_snapshot()``
        (merged into this supervisor's snapshot).
    cluster:
        The IDC cluster, needed to project safe allocations.  Defaults
        to ``policy.cluster`` when the policy carries one.
    max_retries:
        Bounded retry count for *transient* solver faults per period.
    backoff_seconds:
        Base of the exponential backoff between retries (``base · 2^i``).
        The default keeps simulated runs fast while exercising the
        mechanism; production deployments would set tens of milliseconds.
    recovery_periods:
        Consecutive clean periods required to leave RECOVERING.
    """

    def __init__(self, policy: Policy, cluster=None, *,
                 max_retries: int = 1,
                 backoff_seconds: float = 0.0,
                 recovery_periods: int = 3) -> None:
        if cluster is None:
            cluster = getattr(policy, "cluster", None)
        if cluster is None:
            raise ValueError(
                "supervisor needs the cluster (pass cluster=...) to "
                "project safe allocations")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if recovery_periods < 1:
            raise ValueError("recovery_periods must be >= 1")
        self.policy = policy
        self.cluster = cluster
        self.max_retries = int(max_retries)
        self.backoff_seconds = float(backoff_seconds)
        self.recovery_periods = int(recovery_periods)
        self.name = f"supervised({getattr(policy, 'name', 'policy')})"
        self.reset()

    # -- lifecycle -----------------------------------------------------
    def reset(self) -> None:
        """Reset the wrapped policy and all supervisor state."""
        self.policy.reset()
        self.state = HealthState.NOMINAL
        # the per-period health states, run-length encoded: [state, count]
        self._history_runs: list[list] = []
        self._clean_streak = 0
        self._last_good_u: np.ndarray | None = None
        self.counters: dict[str, int] = {
            f"supervisor_state_{s.value}": 0 for s in HealthState
        }
        self.counters.update({
            "supervisor_retries": 0,
            "supervisor_safe_decisions": 0,
            "supervisor_recoveries": 0,
            "supervisor_shed_events": 0,
        })

    @property
    def state_history(self) -> list[HealthState]:
        """The health state after every period decided so far."""
        return [state for state, count in self._history_runs
                for _ in range(count)]

    def on_availability_change(self) -> None:
        """Forward availability changes to the wrapped policy."""
        hook = getattr(self.policy, "on_availability_change", None)
        if hook is not None:
            hook()

    def snapshot(self) -> dict:
        """Picklable copy of supervisor + wrapped-policy state.

        The health machine, clean-streak counter, last-known-good
        allocation and all counters round-trip, so a restored supervisor
        continues its state history bit-exact — including the recovery
        window position.  The state history goes as ``(state, count)``
        runs, so the snapshot grows with the transitions, not the
        periods.  The wrapped policy contributes its own snapshot when it
        supports one.
        """
        inner = getattr(self.policy, "snapshot", None)
        return {
            "policy": None if inner is None else inner(),
            "state": self.state.value,
            "state_history": [(state.value, count)
                              for state, count in self._history_runs],
            "clean_streak": int(self._clean_streak),
            "last_good_u": (None if self._last_good_u is None
                            else self._last_good_u.copy()),
            "counters": dict(self.counters),
        }

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot`; the snapshot stays reusable."""
        if state["policy"] is not None:
            self.policy.restore(state["policy"])
        self.state = HealthState(state["state"])
        self._history_runs = [[HealthState(s), int(count)]
                              for s, count in state["state_history"]]
        self._clean_streak = int(state["clean_streak"])
        self._last_good_u = (None if state["last_good_u"] is None
                             else np.asarray(state["last_good_u"],
                                             dtype=float).copy())
        self.counters = dict(state["counters"])

    def perf_snapshot(self) -> dict:
        """Wrapped policy's perf snapshot plus supervisor counters."""
        snap = (self.policy.perf_snapshot()
                if hasattr(self.policy, "perf_snapshot") else {})
        counters = dict(snap.get("counters", {}))
        counters.update(self.counters)
        snap = dict(snap)
        snap["counters"] = counters
        return snap

    # -- the control step ----------------------------------------------
    def decide(self, obs: PolicyObservation) -> AllocationDecision:
        """Decide via the wrapped policy; degrade instead of raising."""
        decision, outcome = self._attempt(obs)
        self._transition(outcome)
        decision.diagnostics["health_state"] = self.state.value
        runs = self._history_runs
        if runs and runs[-1][0] is self.state:
            runs[-1][1] += 1
        else:
            runs.append([self.state, 1])
        self.counters[f"supervisor_state_{self.state.value}"] += 1
        if np.all(np.isfinite(decision.u)):
            self._last_good_u = np.asarray(decision.u, dtype=float).copy()
        return decision

    def _attempt(self, obs: PolicyObservation
                 ) -> tuple[AllocationDecision, str]:
        retried = False
        for attempt in range(self.max_retries + 1):
            try:
                decision = self.policy.decide(obs)
            except (DegradedOperationError, TelemetryError,
                    CapacityError) as exc:
                # Beyond retrying: the ladder already fell through every
                # rung, or the plant/telemetry is in a state no repeat
                # solve can fix.
                return self._safe_decision(obs, exc), "safe"
            except SolverError as exc:
                if attempt >= self.max_retries:
                    return self._safe_decision(obs, exc), "safe"
                self.counters["supervisor_retries"] += 1
                retried = True
                reset = getattr(self.policy, "reset_solver_state", None)
                if reset is not None:
                    reset()
                if self.backoff_seconds > 0.0:
                    time.sleep(self.backoff_seconds * (2.0 ** attempt))
                continue
            rung = decision.diagnostics.get("rung")
            if rung == RUNG_ORDER[-1]:
                # The policy's own ladder fell to its hold projection:
                # every solver rung failed, SAFE_MODE by another road.
                if decision.diagnostics.get("shed_requests", 0.0) > 0.0:
                    self.counters["supervisor_shed_events"] += 1
                return decision, "safe"
            degraded = retried or (rung is not None and rung != RUNG_ORDER[0])
            return decision, ("degraded" if degraded else "clean")
        raise AssertionError("unreachable")  # pragma: no cover

    def _safe_decision(self, obs: PolicyObservation,
                       exc: BaseException) -> AllocationDecision:
        """Last-known-good allocation projected onto available capacity."""
        self.counters["supervisor_safe_decisions"] += 1
        u_prev = self._last_good_u
        if u_prev is None:
            u_prev = np.asarray(obs.prev_u, dtype=float)
        u, shed = project_allocation(self.cluster, u_prev, obs.loads)
        if shed > 0.0:
            self.counters["supervisor_shed_events"] += 1
        available = np.array([idc.available_servers
                              for idc in self.cluster.idcs], dtype=int)
        servers = np.minimum(np.asarray(obs.prev_servers, dtype=int),
                             available)
        return AllocationDecision(
            u=u, servers=servers,
            diagnostics={
                "rung": "hold",
                "safe_mode": True,
                "shed_requests": float(shed),
                "error": f"{type(exc).__name__}: {exc}",
            })

    def _transition(self, outcome: str) -> None:
        if outcome == "safe":
            self.state = HealthState.SAFE_MODE
            self._clean_streak = 0
        elif outcome == "degraded":
            self.state = HealthState.DEGRADED
            self._clean_streak = 0
        else:  # clean
            if self.state in (HealthState.SAFE_MODE, HealthState.DEGRADED):
                self.state = HealthState.RECOVERING
                self._clean_streak = 1
            elif self.state is HealthState.RECOVERING:
                self._clean_streak += 1
                if self._clean_streak >= self.recovery_periods:
                    self.state = HealthState.NOMINAL
                    self.counters["supervisor_recoveries"] += 1
            # NOMINAL stays NOMINAL.
