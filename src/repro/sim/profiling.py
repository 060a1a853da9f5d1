"""Lightweight performance counters for the closed loop.

The receding-horizon loop is built from caches (model discretization,
horizon operators, constraint stacks, reference LP solutions) and
warm-started solvers.  Wall-clock alone cannot tell whether those layers
actually engage — a cache regression shows up as "slightly slower" long
before it shows up as "broken".  :class:`PerfStats` therefore records,
per closed-loop run:

* **stage timers** — cumulative wall time and call counts per named
  stage (``model``, ``reference``, ``mpc_solve`` …),
* **counters** — cache hits/misses, QP iteration totals, warm-start
  engagement, and the active-set QP's kernel counters forwarded from the
  MPC layer (``kkt_updates`` / ``kkt_refactorizations`` /
  ``kkt_dense_steps`` — see :mod:`repro.optim.linalg`),

so benchmarks can assert *cache effectiveness*, not just speed.  The
object is a plain-data container (picklable) and cheap enough to leave
permanently enabled: one ``perf_counter`` pair per stage per period.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["PerfStats", "BatchPerfStats"]


@dataclass
class PerfStats:
    """Per-run stage timings and event counters.

    Attributes
    ----------
    stage_seconds, stage_calls:
        Cumulative wall time / number of entries per named stage.
    counters:
        Free-form named event counts (cache hits, solver iterations…).
    """

    stage_seconds: dict[str, float] = field(default_factory=dict)
    stage_calls: dict[str, int] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str):
        """Time a ``with``-wrapped block under ``name``."""
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            dt = time.perf_counter() - t0
            self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + dt
            self.stage_calls[name] = self.stage_calls.get(name, 0) + 1

    def count(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def update_counters(self, values: dict) -> None:
        """Overwrite several counters at once."""
        for name, value in values.items():
            self.counters[name] = int(value)

    def merge(self, other: "PerfStats") -> None:
        """Fold another stats object into this one (summing everything)."""
        for k, v in other.stage_seconds.items():
            self.stage_seconds[k] = self.stage_seconds.get(k, 0.0) + v
        for k, v in other.stage_calls.items():
            self.stage_calls[k] = self.stage_calls.get(k, 0) + v
        for k, v in other.counters.items():
            self.counters[k] = self.counters.get(k, 0) + v

    def as_dict(self) -> dict:
        """Plain-dict snapshot (stable keys, safe to serialize)."""
        return {
            "stage_seconds": dict(self.stage_seconds),
            "stage_calls": dict(self.stage_calls),
            "counters": dict(self.counters),
        }


class BatchPerfStats:
    """Per-scenario counter isolation for batched runs.

    A batch engine advances ``S`` scenarios through *shared* stages (one
    model build, one stacked QP solve), but per-scenario events —
    telemetry dropouts, invariant violations, ``ladder_rung_*`` /
    ``invariant_*`` counters, straggler fallbacks — belong to exactly
    one scenario's :attr:`SimulationResult.perf`.  Folding them through
    a single shared :class:`PerfStats` (or one shared counter dict,
    whose semantics are *overwrite*) would bleed one lane's counts into
    every other lane's result.

    ``BatchPerfStats`` therefore keeps one shared :class:`PerfStats`
    for batch-level stage timings plus an isolated :class:`PerfStats`
    per lane.  :meth:`lane_snapshot` produces the dict that goes into
    one scenario's result — shared stages annotated as batch-level,
    lane counters strictly the lane's own — and :meth:`rollup` the
    whole-batch aggregate for dashboards.
    """

    def __init__(self, n_lanes: int) -> None:
        if n_lanes < 1:
            raise ValueError("n_lanes must be >= 1")
        self.n_lanes = int(n_lanes)
        #: batch-level stage timings (model/reference/qp across all lanes).
        self.shared = PerfStats()
        #: last reported health label per *touched* lane (lanes that
        #: never left the clean path carry no entry and count NOMINAL).
        self.lane_health: dict[int, str] = {}
        self._lanes = [PerfStats() for _ in range(self.n_lanes)]

    def note_lane_health(self, index: int, label: str) -> None:
        """Record lane ``index``'s current health label (overwrites)."""
        self.lane_health[int(index)] = str(label)

    def lane(self, index: int) -> PerfStats:
        """The isolated per-scenario stats object for lane ``index``."""
        return self._lanes[index]

    def fold_lane_counters(self, index: int, extra: dict) -> None:
        """Overwrite-fold a flat counter dict into one lane only."""
        self._lanes[index].update_counters(extra)

    def lane_snapshot(self, index: int) -> dict:
        """``perf_snapshot()``-style dict for one scenario's result.

        Shared stage timings are included under ``batch_*`` names (they
        time the whole batch, not this lane) so per-lane counters can
        never be confused with batch-level wall clock.
        """
        out = self._lanes[index].as_dict()
        out["batch_stage_seconds"] = dict(self.shared.stage_seconds)
        out["batch_stage_calls"] = dict(self.shared.stage_calls)
        out["batch_n_scenarios"] = self.n_lanes
        if index in self.lane_health:
            out["health_state"] = self.lane_health[index]
        for name, value in self.shared.counters.items():
            out["counters"][f"batch_{name}"] = int(value)
        return out

    def rollup(self) -> PerfStats:
        """Whole-batch aggregate: shared stages + summed lane counters,
        plus the per-lane health breakdown."""
        total = PerfStats()
        total.merge(self.shared)
        for lane in self._lanes:
            for k, v in lane.counters.items():
                total.counters[k] = total.counters.get(k, 0) + v
        if self.lane_health:
            # per-lane health breakdown: touched lanes by their last
            # reported label, every untouched lane implicitly nominal.
            states: dict[str, int] = {}
            for label in self.lane_health.values():
                states[label] = states.get(label, 0) + 1
            states["nominal"] = states.get("nominal", 0) \
                + self.n_lanes - len(self.lane_health)
            for label, count in sorted(states.items()):
                total.counters[f"lane_health[{label}]"] = count
            total.counters["lanes_quarantined"] = sum(
                1 for label in self.lane_health.values()
                if label == "quarantined")
        return total
