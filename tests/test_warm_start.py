"""Warm-started QP solves: solver-level plumbing and closed-loop equivalence.

Warm starting is a pure performance device — it must change the number
of iterations, never the answer.  Both QP backends are strictly convex
here (P ≻ 0), so warm and cold solves share a unique optimum; these
tests pin (a) the new ``x0``/``working_set0``/``y0`` solver arguments,
(b) the reused ADMM setup (no refactorization on unchanged ``(P, A)``,
and a solve that does not depend on what the setup solved before), and
(c) closed-loop trajectories over a price-step day being equal warm vs
cold, for both backends.

Tolerances: the active-set solver is exact, so its warm/cold gap is
float noise (~1e-11 on allocations).  ADMM stops at a residual
tolerance, so paths may differ by ~1e-3 req/s on ~1e4-scale
allocations.  Powers pass through the integer server count of eq. 35
(ceil), which can amplify an ~1e-8 allocation difference into one
server's 150 W at isolated periods — power comparisons must absorb one
quantization step.
"""

import numpy as np
import pytest

from repro.control import ModelPredictiveController
from repro.core import CostMPCPolicy, CostModelBuilder, MPCPolicyConfig, \
    build_constraints, solve_optimal_allocation
from repro.optim import boxed_constraints, prepare_batch_admm, solve_qp, \
    solve_qp_admm
from repro.sim import paper_cluster, price_step_scenario, run_simulation


def _small_qp():
    rng = np.random.default_rng(3)
    n = 12
    M = rng.normal(size=(n, n))
    P = M @ M.T + n * np.eye(n)
    q = rng.normal(size=n)
    A_in = rng.normal(size=(8, n))
    b_in = A_in @ rng.normal(size=n) + 1.0
    return P, q, A_in, b_in


# ---------------------------------------------------------------------------
# Active-set solver plumbing
# ---------------------------------------------------------------------------
class TestActiveSetWarmStart:
    def test_result_reports_working_set(self):
        P, q, A_in, b_in = _small_qp()
        res = solve_qp(P, q, A_ineq=A_in, b_ineq=b_in)
        assert res.success
        assert res.working_set is not None
        slack = b_in - A_in @ res.x
        for i in res.working_set:
            assert slack[i] == pytest.approx(0.0, abs=1e-7)

    def test_warm_restart_from_optimum_is_instant(self):
        P, q, A_in, b_in = _small_qp()
        cold = solve_qp(P, q, A_ineq=A_in, b_ineq=b_in)
        warm = solve_qp(P, q, A_ineq=A_in, b_ineq=b_in,
                        x0=cold.x, working_set0=cold.working_set)
        assert warm.success
        assert warm.iterations <= 2
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-9)
        assert warm.fun == pytest.approx(cold.fun, abs=1e-10)

    def test_infeasible_x0_falls_back_to_phase1(self):
        P, q, A_in, b_in = _small_qp()
        cold = solve_qp(P, q, A_ineq=A_in, b_ineq=b_in)
        # a grossly infeasible start must not break correctness
        bad = np.full(P.shape[0], 1e6)
        warm = solve_qp(P, q, A_ineq=A_in, b_ineq=b_in, x0=bad)
        assert warm.success
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-8)

    def test_stale_working_set_is_filtered(self):
        P, q, A_in, b_in = _small_qp()
        cold = solve_qp(P, q, A_ineq=A_in, b_ineq=b_in)
        # claim every constraint is active: only the truly tight ones at
        # x0 may enter the working set, the rest must be dropped
        warm = solve_qp(P, q, A_ineq=A_in, b_ineq=b_in,
                        x0=cold.x, working_set0=range(len(b_in)))
        assert warm.success
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-9)


# ---------------------------------------------------------------------------
# ADMM warm start and factorization cache
# ---------------------------------------------------------------------------
class TestADMMWarmStart:
    def test_warm_start_matches_cold(self):
        P, q, A_in, b_in = _small_qp()
        A, low, high = boxed_constraints(P.shape[0], None, None, A_in, b_in)
        cold = solve_qp_admm(P, q, A, low, high)
        warm = solve_qp_admm(P, q, A, low, high, x0=cold.x, y0=cold.dual_ineq)
        assert warm.success
        assert warm.iterations <= cold.iterations
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-4)

    def test_factor_cache_hits_on_same_structure(self):
        P, q, A_in, b_in = _small_qp()
        A, low, high = boxed_constraints(P.shape[0], None, None, A_in, b_in)
        setup = prepare_batch_admm(P, A, rho=1.0)
        solve_qp_admm(P, q, A, low, high, setup=setup)
        before = setup.refactorizations
        # new q, same P/A: the O(n³) factorization must be reused
        res = solve_qp_admm(P, q * 2.0, A, low, high, setup=setup)
        assert res.success
        assert setup.refactorizations == before
        ref = solve_qp_admm(P, q * 2.0, A, low, high)
        np.testing.assert_array_equal(res.x, ref.x)

    def test_factor_cache_invalidates_on_matrix_change(self):
        mpc, *_ = _paper_mpc_step()
        P = np.eye(6) + 1.0
        A = np.vstack([np.ones((1, 6)), -np.eye(6)])
        setup = mpc._admm_setup(P, A, n_eq=1)
        # equal by value, not by identity: the setup is kept
        assert mpc._admm_setup(P.copy(), A.copy(), n_eq=1) is setup
        assert mpc._admm_setup(P + np.eye(6), A, n_eq=1) is not setup
        assert mpc._admm_setup(P, A[:5], n_eq=1) is not setup

    def test_reused_setup_gives_the_same_solve(self):
        # a rank-deficient Hessian switches the polish off, so ADMM
        # iterates and adapts the setup's penalty (q stays in the range
        # of P, so the QP is bounded)
        P, q, A_in, b_in = _small_qp()
        B = np.linalg.cholesky(P)[:, :-4]
        P, q = B @ B.T, B @ q[:-4]
        A, low, high = boxed_constraints(P.shape[0], None, None,
                                         A_in, b_in)
        fresh = solve_qp_admm(P, q, A, low, high)
        assert fresh.success and fresh.iterations > 1
        setup = prepare_batch_admm(P, A, rho=1.0)
        assert setup.polish_operators() is None
        for scale in (100.0, 1e-3):
            solve_qp_admm(P, scale * q, A, low, high, setup=setup)
            assert setup.rho != 1.0
            again = solve_qp_admm(P, q, A, low, high, setup=setup)
            assert again.iterations == fresh.iterations
            np.testing.assert_array_equal(again.x, fresh.x)
            np.testing.assert_array_equal(again.dual_ineq, fresh.dual_ineq)

    def test_mismatched_y0_is_ignored(self):
        P, q, A_in, b_in = _small_qp()
        A, low, high = boxed_constraints(P.shape[0], None, None, A_in, b_in)
        cold = solve_qp_admm(P, q, A, low, high)
        warm = solve_qp_admm(P, q, A, low, high, x0=cold.x,
                             y0=np.zeros(3))  # wrong length
        assert warm.success
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-4)


# ---------------------------------------------------------------------------
# One MPC step on the paper's QP: cold, warm and ADMM
# ---------------------------------------------------------------------------
def _paper_mpc_step():
    """The MPC, state, input and reference of one 6H paper period."""
    prices = np.array([43.26, 30.26, 19.06])
    loads = np.array([30000.0, 15000.0, 15000.0, 20000.0, 20000.0])
    cluster = paper_cluster()
    builder = CostModelBuilder(cluster)
    mpc = ModelPredictiveController(
        builder.discrete(prices, dt=30.0), 8, 3, q_weight=1.0,
        r_weight=0.01, constraints=build_constraints(cluster, loads))
    alloc = solve_optimal_allocation(cluster, prices, loads)
    ref = np.cumsum(np.tile(alloc.powers_watts_relaxed / 1e6, (8, 1)),
                    axis=0) * 30.0
    return mpc, builder.initial_state(), alloc.u, ref


class TestMPCStep:
    def test_warm_step_cuts_iterations_over_cold(self):
        mpc, x, u, ref = _paper_mpc_step()
        mpc.warm_start = False
        cold = mpc.control(x, u, ref)
        assert cold.status == "optimal"

        mpc, x, u, ref = _paper_mpc_step()
        first = mpc.control(x, u, ref)          # primes the warm state
        assert first.status == "optimal"
        warm = mpc.control(x, u, ref)
        assert warm.status == "optimal"
        # receding-horizon regime: consecutive solves share their optimum
        assert warm.solver_iterations \
            <= max(2, first.solver_iterations // 5)
        assert mpc.stats["warm_start_hits"] >= 1
        assert mpc.stats["warm_start_misses"] == 0

    def test_warm_admm_step_reuses_the_factorization(self):
        mpc, x, u, ref = _paper_mpc_step()
        mpc.backend = "admm"
        cold = mpc.control(x, u, ref)
        setup = mpc._admm[2]
        before = setup.refactorizations
        warm = mpc.control(x, u, ref)
        assert warm.status == "optimal"
        assert warm.solver_iterations <= cold.solver_iterations
        # unchanged (P, A): the same setup, and no O(n³) refactorization
        assert mpc._admm[2] is setup
        assert setup.refactorizations == before


# ---------------------------------------------------------------------------
# Closed-loop equivalence: warm vs cold over a price-step day
# ---------------------------------------------------------------------------
def _closed_loop(backend, warm):
    sc = price_step_scenario(dt=30.0, duration=600.0)
    cfg = MPCPolicyConfig(dt=30.0, backend=backend,
                          warm_start_solver=warm)
    policy = CostMPCPolicy(sc.cluster, cfg)
    return run_simulation(sc, policy)


@pytest.mark.parametrize("backend,alloc_atol,cost_rel", [
    ("active_set", 1e-7, 1e-10),
    ("admm", 1e-2, 1e-6),
])
def test_closed_loop_warm_equals_cold(backend, alloc_atol, cost_rel):
    cold = _closed_loop(backend, warm=False)
    warm = _closed_loop(backend, warm=True)
    np.testing.assert_allclose(warm.allocations, cold.allocations,
                               atol=alloc_atol)
    assert warm.total_cost_usd == pytest.approx(cold.total_cost_usd,
                                                rel=cost_rel)
    # eq. 35's ceil may flip one server on an ~1e-8 allocation tie:
    # tolerate a single server's power, nothing structural
    assert np.max(np.abs(warm.powers_watts - cold.powers_watts)) <= 200.0


def test_warm_counters_engage_in_closed_loop():
    # The shifted ADMM iterate carries every period: each solve finishes
    # at the first iteration, and never needs the exact straggler solve.
    warm = _closed_loop("admm", warm=True)
    counters = warm.perf["counters"]
    n = counters["qp_solves"]
    assert n > 1
    assert counters["qp_iterations"] == n
    assert counters.get("straggler_fallbacks", 0) == 0

    cold = _closed_loop("admm", warm=False)
    assert cold.perf["counters"]["qp_iterations"] \
        >= counters["qp_iterations"]


def test_cold_policy_config_disables_warm_start():
    sc = price_step_scenario(dt=30.0, duration=120.0)
    policy = CostMPCPolicy(
        sc.cluster, MPCPolicyConfig(dt=30.0, warm_start_solver=False))
    run_simulation(sc, policy)
    assert policy._lane._warm is None   # no iterate carried between periods
    warm = CostMPCPolicy(sc.cluster, MPCPolicyConfig(dt=30.0))
    run_simulation(price_step_scenario(dt=30.0, duration=120.0), warm)
    assert warm._lane._warm is not None
