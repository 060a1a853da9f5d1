"""Degradation-aware control runtime.

Everything a production deployment of the paper's controller needs when
the clean-room assumptions break: a solver fallback ladder with
wall-clock deadline budgets (:mod:`~repro.resilience.ladder`,
:mod:`~repro.resilience.deadline`), gap-filling telemetry guards for
price-feed dropouts and workload-sensor gaps
(:mod:`~repro.resilience.telemetry`), and a policy supervisor running a
NOMINAL → DEGRADED → SAFE_MODE → RECOVERING health state machine
(:mod:`~repro.resilience.supervisor`).  The durable control plane
(:mod:`~repro.resilience.durability`) adds checksummed controller
checkpoints, a write-ahead decision log (striped across shard files
for multi-lane runs) and verified crash-resume, all driven by one
:class:`~repro.resilience.durability.RunJournal` that the scalar,
batched and fleet period loops share.  The fleet layer
(:mod:`~repro.resilience.fleet`) scales the supervisor to the batched
engine: per-lane health machines with permanent quarantine.  See the
"Degradation ladder", "Durable control plane" and "Fleet resilience"
sections of ``docs/architecture.md``.
"""

from .deadline import DeadlineBudget
from .fleet import FleetHealth
from .durability import (
    ControllerCheckpoint,
    CrashInjector,
    ResumeState,
    SimulatedCrashError,
    WriteAheadLog,
    array_digest,
    checkpoint_path_for,
    load_resume_state,
    read_wal,
    wal_shard_paths,
)
from .ladder import RUNG_ORDER, FallbackLadder, Rung, RungOutcome, \
    project_allocation
from .supervisor import HealthState, PolicySupervisor
from .telemetry import TelemetryGuard

__all__ = [
    "ControllerCheckpoint",
    "CrashInjector",
    "DeadlineBudget",
    "FallbackLadder",
    "FleetHealth",
    "HealthState",
    "PolicySupervisor",
    "RUNG_ORDER",
    "ResumeState",
    "Rung",
    "RungOutcome",
    "SimulatedCrashError",
    "TelemetryGuard",
    "WriteAheadLog",
    "array_digest",
    "checkpoint_path_for",
    "load_resume_state",
    "project_allocation",
    "read_wal",
    "wal_shard_paths",
]
