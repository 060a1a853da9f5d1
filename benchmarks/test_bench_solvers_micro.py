"""Micro-benchmarks of the optimization substrate.

These time the individual solver calls the closed loop is built from:
the reference LP (solved once per horizon step per period) and the MPC
QP (solved once per period).  Useful to track substrate regressions.
"""

import numpy as np
import pytest

from repro.control import ModelPredictiveController
from repro.core import CostModelBuilder, build_constraints, \
    solve_optimal_allocation
from repro.optim import linprog, solve_qp, solve_qp_admm, boxed_constraints
from repro.sim import paper_cluster

PRICES = np.array([43.26, 30.26, 19.06])
LOADS = np.array([30000.0, 15000.0, 15000.0, 20000.0, 20000.0])


def test_bench_reference_lp(benchmark):
    cluster = paper_cluster()
    result = benchmark(solve_optimal_allocation, cluster, PRICES, LOADS)
    assert result.idc_workloads.sum() == pytest.approx(LOADS.sum(), rel=1e-9)


def test_bench_generic_lp(benchmark):
    rng = np.random.default_rng(0)
    n, m = 30, 20
    c = rng.normal(size=n)
    A_ub = rng.normal(size=(m, n))
    b_ub = A_ub @ rng.uniform(0.1, 1.0, n) + 1.0
    res = benchmark(linprog, c, A_ub, b_ub, None, None, [(0, 5)] * n)
    assert res.success


def _mpc_qp_problem():
    cluster = paper_cluster()
    builder = CostModelBuilder(cluster)
    model = builder.discrete(PRICES, dt=30.0)
    constraints = build_constraints(cluster, LOADS)
    mpc = ModelPredictiveController(model, 8, 3, q_weight=1.0,
                                    r_weight=0.01, constraints=constraints)
    x = builder.initial_state()
    alloc = solve_optimal_allocation(cluster, PRICES, LOADS)
    ref = np.cumsum(np.tile(alloc.powers_watts_relaxed / 1e6, (8, 1)),
                    axis=0) * 30.0
    return mpc, x, alloc.u, ref


def test_bench_mpc_step_active_set(benchmark):
    mpc, x, u, ref = _mpc_qp_problem()
    sol = benchmark(mpc.control, x, u, ref)
    assert sol.status == "optimal"


def test_bench_mpc_step_cold(benchmark):
    """Every solve from scratch: phase-1 LP + full working-set search."""
    mpc, x, u, ref = _mpc_qp_problem()
    mpc.warm_start = False

    def step():
        mpc.reset_warm_start()
        return mpc.control(x, u, ref)

    sol = benchmark(step)
    assert sol.status == "optimal"


def test_bench_mpc_step_warm(benchmark):
    """Receding-horizon regime: consecutive solves share their optimum.

    The warm path must beat the cold path on iterations by an order of
    magnitude — that is the measurable substance of the warm-start claim,
    independent of machine speed.
    """
    mpc, x, u, ref = _mpc_qp_problem()
    cold = mpc.control(x, u, ref)          # prime the warm state

    sol = benchmark(mpc.control, x, u, ref)
    assert sol.status == "optimal"
    assert sol.solver_iterations <= max(2, cold.solver_iterations // 5)
    assert mpc.stats["warm_start_hits"] >= 1
    assert mpc.stats["warm_start_misses"] == 0


def test_bench_mpc_step_warm_admm(benchmark):
    """ADMM backend with warm x/y and the cached KKT factorization."""
    mpc, x, u, ref = _mpc_qp_problem()
    mpc.backend = "admm"
    cold = mpc.control(x, u, ref)

    sol = benchmark(mpc.control, x, u, ref)
    assert sol.status == "optimal"
    assert sol.solver_iterations <= cold.solver_iterations
    # the O(n³) KKT factorization must come from the cache, not refactor
    assert mpc._admm_cache.hits >= 1


def test_bench_qp_active_set_vs_admm_agree(benchmark):
    rng = np.random.default_rng(1)
    n = 45
    M = rng.normal(size=(n, n))
    P = M @ M.T + n * np.eye(n)
    q = rng.normal(size=n)
    A_in = rng.normal(size=(20, n))
    b_in = A_in @ rng.normal(size=n) + 2.0

    ref = solve_qp(P, q, A_ineq=A_in, b_ineq=b_in)
    A, low, high = boxed_constraints(n, None, None, A_in, b_in)
    res = benchmark(solve_qp_admm, P, q, A, low, high)
    assert res.fun == pytest.approx(ref.fun, rel=1e-4, abs=1e-4)
