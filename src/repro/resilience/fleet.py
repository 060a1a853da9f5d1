"""Fleet-axis resilience: per-lane health machines.

The *scalar* control loop has a degradation ladder and a policy
supervisor.  The batched fleet engine (:func:`repro.sim.
run_batch`, :class:`repro.sim.SharedMarketFleet`) advances hundreds of
lanes through shared tensors, so the same concerns return at a
different granularity.  :class:`FleetHealth` keeps one
supervisor-style health machine *per lane* (reusing
:class:`~repro.resilience.supervisor.HealthState` and its transition
semantics), plus the fleet-only notion of **quarantine**: a lane that
keeps failing is permanently demoted to the exact scalar solve path so
it can never again destabilize the shared step.  Lane counters use the
scalar supervisor's ``supervisor_*`` names so fleet perf rollups
aggregate uniformly with scalar runs.

Durability is not fleet-specific: every period loop — scalar, batched
and fleet — runs the one protocol in :class:`~repro.resilience.
durability.RunJournal`, over one :class:`~repro.resilience.durability.
WriteAheadLog` that stripes records across ``n_shards`` files.
"""

from __future__ import annotations

import numpy as np

from .supervisor import HealthState

__all__ = ["FleetHealth"]

#: Health label of a permanently demoted lane (not a :class:`HealthState`
#: — quarantine is a terminal routing decision, not a recoverable state).
QUARANTINED = "quarantined"


class FleetHealth:
    """Per-lane health machines for a batched controller.

    Mirrors the scalar :class:`~repro.resilience.supervisor.
    PolicySupervisor` transition semantics lane by lane::

        NOMINAL ──(ladder rung used)──────────────▶ DEGRADED
        DEGRADED ──(every rung failed)────────────▶ SAFE_MODE
        DEGRADED / SAFE_MODE ──(one clean period)─▶ RECOVERING
        RECOVERING ──(k clean periods in a row)───▶ NOMINAL

    plus the fleet-only **quarantine** demotion: after
    ``quarantine_after`` *consecutive* periods in which a lane needed
    its fallback ladder, the lane is permanently routed to the exact
    scalar solve (the batched engine keeps it inside the shared tensors
    for shape stability but discards the shared result for it).
    Quarantine is terminal — a quarantined lane reports health
    ``"quarantined"`` and is exempt from the NOMINAL recovery
    requirement the chaos fuzzer asserts.

    Parameters
    ----------
    n_lanes:
        Batch width ``S``.
    recovery_periods:
        Consecutive clean periods required to leave RECOVERING.
    quarantine_after:
        Consecutive ladder periods that trigger the permanent demotion
        (``None``: never quarantine).
    """

    def __init__(self, n_lanes: int, *, recovery_periods: int = 3,
                 quarantine_after: int | None = 3) -> None:
        if n_lanes < 1:
            raise ValueError("n_lanes must be >= 1")
        if recovery_periods < 1:
            raise ValueError("recovery_periods must be >= 1")
        if quarantine_after is not None and quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        self.n_lanes = int(n_lanes)
        self.recovery_periods = int(recovery_periods)
        self.quarantine_after = quarantine_after
        self.states = [HealthState.NOMINAL] * self.n_lanes
        self.quarantined = np.zeros(self.n_lanes, dtype=bool)
        self._clean = np.zeros(self.n_lanes, dtype=int)
        self._fail = np.zeros(self.n_lanes, dtype=int)
        #: per-lane ``supervisor_*`` counters (only touched lanes carry
        #: entries — an always-NOMINAL lane stays at an empty dict).
        self.counters: list[dict[str, int]] = [
            {} for _ in range(self.n_lanes)]

    # ------------------------------------------------------------------
    def _count(self, lane: int, name: str, n: int = 1) -> None:
        c = self.counters[lane]
        c[name] = c.get(name, 0) + int(n)

    def label(self, lane: int) -> str:
        """Health label for ``lane`` (``"quarantined"`` wins)."""
        if self.quarantined[lane]:
            return QUARANTINED
        return self.states[lane].value

    @property
    def touched(self) -> list[int]:
        """Lanes that ever left the clean NOMINAL path."""
        return [s for s in range(self.n_lanes)
                if self.counters[s] or self.quarantined[s]]

    def all_recovered(self) -> bool:
        """Every lane NOMINAL or cleanly quarantined."""
        return all(self.quarantined[s]
                   or self.states[s] is HealthState.NOMINAL
                   for s in range(self.n_lanes))

    # ------------------------------------------------------------------
    def observe(self, lane: int, outcome: str) -> None:
        """Record one period's outcome for one lane.

        ``outcome`` ∈ {"clean", "degraded", "safe"} with the scalar
        supervisor's meaning: *degraded* — the ladder produced the
        decision from a non-nominal rung; *safe* — every rung failed
        and the lane fell to the hold projection.  Quarantined lanes
        are terminal: their outcomes only accumulate the
        ``supervisor_state_quarantined`` counter.
        """
        if self.quarantined[lane]:
            self._count(lane, f"supervisor_state_{QUARANTINED}")
            return
        if outcome == "safe":
            self.states[lane] = HealthState.SAFE_MODE
            self._clean[lane] = 0
            self._fail[lane] += 1
            self._count(lane, "supervisor_safe_decisions")
        elif outcome == "degraded":
            self.states[lane] = HealthState.DEGRADED
            self._clean[lane] = 0
            self._fail[lane] += 1
        else:  # clean
            self._fail[lane] = 0
            state = self.states[lane]
            if state in (HealthState.SAFE_MODE, HealthState.DEGRADED):
                self.states[lane] = HealthState.RECOVERING
                self._clean[lane] = 1
            elif state is HealthState.RECOVERING:
                self._clean[lane] += 1
                if self._clean[lane] >= self.recovery_periods:
                    self.states[lane] = HealthState.NOMINAL
                    self._count(lane, "supervisor_recoveries")
            # NOMINAL stays NOMINAL; untouched lanes stay counter-free.
        if self.counters[lane] or outcome != "clean":
            self._count(lane, f"supervisor_state_{self.states[lane].value}")
        if self.quarantine_after is not None \
                and self._fail[lane] >= self.quarantine_after:
            self.quarantined[lane] = True
            self._count(lane, "supervisor_quarantines")

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Picklable copy; a restored machine continues bit-exact."""
        return {
            "states": [s.value for s in self.states],
            "quarantined": self.quarantined.copy(),
            "clean": self._clean.copy(),
            "fail": self._fail.copy(),
            "counters": [dict(c) for c in self.counters],
        }

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot` (the snapshot stays reusable)."""
        self.states = [HealthState(v) for v in state["states"]]
        self.quarantined = np.asarray(state["quarantined"],
                                      dtype=bool).copy()
        self._clean = np.asarray(state["clean"], dtype=int).copy()
        self._fail = np.asarray(state["fail"], dtype=int).copy()
        self.counters = [dict(c) for c in state["counters"]]
