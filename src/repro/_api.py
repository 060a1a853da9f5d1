"""Flat public API re-exports for ``import repro``.

Loaded lazily by ``repro.__getattr__`` so that ``import repro`` stays
fast; see each subpackage for the full surface.
"""

from .analysis import (
    comparison_table,
    peak_power,
    power_volatility,
    summarize_run,
    volatility_reduction,
)
from .baselines import (
    GreedyPricePolicy,
    OptimalInstantaneousPolicy,
    StaticProportionalPolicy,
    UniformPolicy,
)
from .core import (
    CostModelBuilder,
    CostMPCPolicy,
    DeferralConfig,
    DeferralPolicy,
    GreenOptimalPolicy,
    MPCPolicyConfig,
    budget_violations,
    clamp_powers,
    solve_green_allocation,
    solve_optimal_allocation,
)
from .datacenter import (
    IDC,
    Battery,
    BatteryConfig,
    IDCCluster,
    IDCConfig,
    LinearPowerModel,
    shave_with_battery,
)
from .io import load_result, result_to_csv, save_result
from .pricing import (
    MultiRegionForecaster,
    PriceTrace,
    RealTimeMarket,
    SolarProfile,
    WindModel,
    paper_price_traces,
)
from .sim import (
    PAPER_BUDGETS_WATTS,
    ComparisonResult,
    FleetOutage,
    Scenario,
    SimulationResult,
    paper_cluster,
    paper_scenario,
    price_step_scenario,
    run_simulation,
    simulate_policies,
)
from .workload import (
    ARWorkloadPredictor,
    PortalSet,
    epa_like_trace,
)

__all__ = [
    "paper_scenario",
    "price_step_scenario",
    "paper_cluster",
    "PAPER_BUDGETS_WATTS",
    "Scenario",
    "run_simulation",
    "simulate_policies",
    "SimulationResult",
    "ComparisonResult",
    "CostMPCPolicy",
    "MPCPolicyConfig",
    "DeferralPolicy",
    "DeferralConfig",
    "GreenOptimalPolicy",
    "solve_green_allocation",
    "SolarProfile",
    "WindModel",
    "MultiRegionForecaster",
    "CostModelBuilder",
    "solve_optimal_allocation",
    "clamp_powers",
    "budget_violations",
    "OptimalInstantaneousPolicy",
    "StaticProportionalPolicy",
    "UniformPolicy",
    "GreedyPricePolicy",
    "IDC",
    "IDCConfig",
    "IDCCluster",
    "LinearPowerModel",
    "Battery",
    "BatteryConfig",
    "shave_with_battery",
    "FleetOutage",
    "save_result",
    "load_result",
    "result_to_csv",
    "PriceTrace",
    "RealTimeMarket",
    "paper_price_traces",
    "PortalSet",
    "ARWorkloadPredictor",
    "epa_like_trace",
    "comparison_table",
    "summarize_run",
    "power_volatility",
    "peak_power",
    "volatility_reduction",
]
