"""The paper's primary contribution.

Dynamic control of electricity cost for distributed IDCs: the Sec. IV-A
state-space cost model, the eqs. 26–34 constraint builders, the Sec. IV-D
optimal reference LP with the peak-shaving budget clamp, and the
two-time-scale MPC policy that ties them together.
"""

from .constraints import (
    build_constraints,
    capacity_matrix,
    capacity_rhs,
    conservation_matrix,
)
from .batch_controller import BatchAllocationDecision, BatchCostMPCPolicy
from .controller import CostMPCPolicy, MPCPolicyConfig
from .deferral import BatchQueue, DeferralConfig, DeferralPolicy
from .green import GreenAllocation, GreenOptimalPolicy, solve_green_allocation
from .model import POWER_SCALE, CostModelBuilder
from .peak_shaving import (
    BudgetViolation,
    budget_violations,
    clamp_powers,
    normalize_budgets,
)
from .reference_opt import (
    BatchOptimalAllocation,
    OptimalAllocation,
    solve_optimal_allocation,
    solve_optimal_allocation_batch,
)

__all__ = [
    "CostModelBuilder",
    "POWER_SCALE",
    "conservation_matrix",
    "capacity_matrix",
    "capacity_rhs",
    "build_constraints",
    "solve_optimal_allocation",
    "solve_optimal_allocation_batch",
    "OptimalAllocation",
    "BatchOptimalAllocation",
    "clamp_powers",
    "normalize_budgets",
    "budget_violations",
    "BudgetViolation",
    "CostMPCPolicy",
    "MPCPolicyConfig",
    "BatchCostMPCPolicy",
    "BatchAllocationDecision",
    "DeferralPolicy",
    "DeferralConfig",
    "BatchQueue",
    "GreenOptimalPolicy",
    "GreenAllocation",
    "solve_green_allocation",
]
