"""Simulation engine, scenarios (Tables I–III), recording and results."""

from .batch import batch_signature, run_batch, scenario_incompatibility
from .engine import run_simulation, simulate_policies
from .fleet import (
    POLICY_KINDS,
    FleetResult,
    SharedMarketFleet,
    run_shared_market_fleet,
)
from .faults import (
    ActuationChannel,
    ActuationLag,
    CommandDrop,
    FleetOutage,
    PartialApply,
    PriceFeedDropout,
    SensorGap,
    apply_faults,
    split_faults,
    telemetry_visibility,
)
from .policy import AllocationDecision, Policy, PolicyObservation
from .profiling import BatchPerfStats, PerfStats
from .results import ComparisonResult, SimulationResult
from .scenario import (
    PAPER_BUDGETS_WATTS,
    PAPER_IDC_SPECS,
    PAPER_PORTAL_LOADS,
    Scenario,
    monte_carlo_scenarios,
    paper_cluster,
    paper_scenario,
    price_step_scenario,
)

__all__ = [
    "run_simulation",
    "simulate_policies",
    "run_batch",
    "run_shared_market_fleet",
    "SharedMarketFleet",
    "FleetResult",
    "POLICY_KINDS",
    "batch_signature",
    "scenario_incompatibility",
    "PerfStats",
    "BatchPerfStats",
    "ActuationChannel",
    "ActuationLag",
    "CommandDrop",
    "FleetOutage",
    "PartialApply",
    "PriceFeedDropout",
    "SensorGap",
    "apply_faults",
    "split_faults",
    "telemetry_visibility",
    "Policy",
    "PolicyObservation",
    "AllocationDecision",
    "SimulationResult",
    "ComparisonResult",
    "Scenario",
    "paper_scenario",
    "price_step_scenario",
    "monte_carlo_scenarios",
    "paper_cluster",
    "PAPER_BUDGETS_WATTS",
    "PAPER_PORTAL_LOADS",
    "PAPER_IDC_SPECS",
]
