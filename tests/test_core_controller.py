"""Closed-loop tests of the cost MPC policy (the paper's Sec. V claims)."""

import numpy as np
import pytest

from repro.analysis import peak_power, power_volatility, summarize_run
from repro.baselines import OptimalInstantaneousPolicy
from repro.core import CostMPCPolicy, MPCPolicyConfig
from repro.exceptions import ConfigurationError
from repro.sim import (
    PAPER_BUDGETS_WATTS,
    paper_scenario,
    price_step_scenario,
    run_simulation,
    simulate_policies,
)


@pytest.fixture(scope="module")
def step_runs():
    """Optimal vs MPC on the 6H->7H price-step scenario (shared)."""
    scenario = price_step_scenario(dt=30.0, duration=600.0)
    opt = run_simulation(scenario, OptimalInstantaneousPolicy(scenario.cluster))
    scenario2 = price_step_scenario(dt=30.0, duration=600.0)
    mpc = run_simulation(scenario2,
                         CostMPCPolicy(scenario2.cluster, MPCPolicyConfig()))
    return opt, mpc


@pytest.fixture(scope="module")
def shaving_run():
    scenario = price_step_scenario(dt=30.0, duration=600.0,
                                   with_budgets=True)
    policy = CostMPCPolicy(
        scenario.cluster,
        MPCPolicyConfig(budgets_watts=PAPER_BUDGETS_WATTS))
    return run_simulation(scenario, policy)


class TestSmoothing:
    def test_mpc_smoother_than_optimal(self, step_runs):
        """Fig. 4's headline: the MPC's worst power jump is a small
        fraction of the optimal policy's step change, on every IDC."""
        opt, mpc = step_runs
        from repro.analysis import ramp_max
        r_opt = np.array([ramp_max(opt.powers_watts[:, j]) for j in range(3)])
        r_mpc = np.array([ramp_max(mpc.powers_watts[:, j]) for j in range(3)])
        assert np.all(r_mpc < r_opt)
        # the biggest mover (Minnesota's ~9.6 MW jump) is cut by > 2x
        biggest = int(np.argmax(r_opt))
        assert r_mpc[biggest] < 0.5 * r_opt[biggest]

    def test_optimal_jumps_in_one_step(self, step_runs):
        """The optimal policy's power is a step function at the price
        change: its largest single move is (almost) the whole
        transition."""
        opt, _ = step_runs
        for j in range(3):
            series = opt.powers_watts[:, j]
            total_change = abs(series[-1] - series[0])
            largest_step = np.max(np.abs(np.diff(series)))
            if total_change > 1e3:
                assert largest_step == pytest.approx(total_change, rel=1e-6)

    def test_mpc_ramps_gradually(self, step_runs):
        """MPC spreads the transition: max step well below the total."""
        _, mpc = step_runs
        j = 1  # Minnesota has the largest transition
        series = mpc.powers_watts[:, j]
        total_change = abs(series[-1] - series[1])
        largest_step = np.max(np.abs(np.diff(series)))
        assert largest_step < 0.6 * total_change

    def test_mpc_converges_to_optimal_operating_point(self, step_runs):
        """Smoothing does not change the destination, only the path."""
        opt, mpc = step_runs
        np.testing.assert_allclose(mpc.powers_watts[-1],
                                   opt.powers_watts[-1], rtol=0.02,
                                   atol=5e4)

    def test_both_serve_all_workload(self, step_runs):
        for run in step_runs:
            served = run.workloads.sum(axis=1)
            offered = run.loads.sum(axis=1)
            np.testing.assert_allclose(served, offered, rtol=1e-6)

    def test_qos_no_overloads(self, step_runs):
        for run in step_runs:
            assert np.all(np.isfinite(run.latencies))
            # simplified latency meets the 1 ms bound everywhere
            assert np.all(run.latencies <= 0.001 + 1e-9)

    def test_smoothing_costs_slightly_more(self, step_runs):
        """The Q/R trade-off: smoothing pays a small cost premium."""
        opt, mpc = step_runs
        assert mpc.total_cost_usd >= opt.total_cost_usd - 1e-6
        # ... but within a few percent over the window
        assert mpc.total_cost_usd <= opt.total_cost_usd * 1.10


class TestPeakShaving:
    def test_tracks_at_or_below_budgets(self, shaving_run):
        """Fig. 6: the shaved IDCs settle at their budgets."""
        tail = shaving_run.powers_watts[-5:]
        assert np.all(tail <= PAPER_BUDGETS_WATTS * 1.005)

    def test_michigan_and_minnesota_pinned_at_budget(self, shaving_run):
        tail = shaving_run.powers_watts[-3:]
        assert tail[:, 0].mean() == pytest.approx(PAPER_BUDGETS_WATTS[0],
                                                  rel=0.01)
        assert tail[:, 1].mean() == pytest.approx(PAPER_BUDGETS_WATTS[1],
                                                  rel=0.01)

    def test_wisconsin_between_budget_and_optimal(self, shaving_run):
        """Fig. 6c: the unconstrained IDC absorbs the displaced load,
        converging strictly between its optimal (near zero) and its
        budget."""
        final_wi = shaving_run.powers_watts[-1, 2]
        assert 0.1e6 < final_wi < PAPER_BUDGETS_WATTS[2]

    def test_optimal_violates_budgets_where_mpc_does_not(self, shaving_run):
        scenario = price_step_scenario(dt=30.0, duration=600.0)
        opt = run_simulation(scenario,
                             OptimalInstantaneousPolicy(scenario.cluster))
        opt_summary = summarize_run(opt, PAPER_BUDGETS_WATTS)
        mpc_summary = summarize_run(shaving_run, PAPER_BUDGETS_WATTS)
        assert opt_summary.total_budget_violations > 0
        # MPC may exceed briefly during the initial transient only
        tail = shaving_run.powers_watts[-8:]
        assert np.all(tail <= PAPER_BUDGETS_WATTS * 1.005)
        assert mpc_summary.total_budget_violations \
            <= opt_summary.total_budget_violations

    def test_clamp_mode_shaves_partially(self):
        """The paper's verbatim clamping rule lowers the peaks even
        though it cannot pin them exactly at budget."""
        scenario = price_step_scenario(dt=30.0, duration=600.0,
                                       with_budgets=True)
        policy = CostMPCPolicy(scenario.cluster, MPCPolicyConfig(
            budgets_watts=PAPER_BUDGETS_WATTS, budget_mode="clamp"))
        run = run_simulation(scenario, policy)
        scenario2 = price_step_scenario(dt=30.0, duration=600.0)
        opt = run_simulation(scenario2,
                             OptimalInstantaneousPolicy(scenario2.cluster))
        # Michigan's settled power under clamping is below the optimal's
        assert run.powers_watts[-1, 0] < opt.powers_watts[-1, 0]


class TestHardBudgetConstraints:
    def test_pins_power_within_budget_immediately(self):
        scenario = price_step_scenario(dt=30.0, duration=600.0,
                                       with_budgets=True)
        policy = CostMPCPolicy(scenario.cluster, MPCPolicyConfig(
            budgets_watts=PAPER_BUDGETS_WATTS,
            hard_budget_constraints=True))
        run = run_simulation(scenario, policy)
        # after the first period, no budget is ever exceeded
        assert np.all(run.powers_watts[1:] <= PAPER_BUDGETS_WATTS * 1.001)

    def test_still_serves_all_workload(self):
        scenario = price_step_scenario(dt=30.0, duration=600.0,
                                       with_budgets=True)
        policy = CostMPCPolicy(scenario.cluster, MPCPolicyConfig(
            budgets_watts=PAPER_BUDGETS_WATTS,
            hard_budget_constraints=True))
        run = run_simulation(scenario, policy)
        np.testing.assert_allclose(run.workloads.sum(axis=1),
                                   run.loads.sum(axis=1), rtol=1e-6)


class TestPowerScheduleTracking:
    def test_tracks_committed_schedule(self):
        """With power_schedule_watts the MPC holds the committed levels
        instead of chasing the spot optimum."""
        scenario = price_step_scenario(dt=30.0, duration=600.0)
        # commit the 6H optimal operating point, flat for the whole run
        # (a feasible schedule: it serves the full 100k req/s)
        from repro.core import solve_optimal_allocation
        prices_6h = scenario.prices_at(scenario.start_time)
        loads = scenario.cluster.portals.loads_at(0)
        alloc = solve_optimal_allocation(scenario.cluster, prices_6h,
                                         loads)
        schedule = np.tile(alloc.powers_watts_relaxed,
                           (scenario.n_periods, 1))
        policy = CostMPCPolicy(scenario.cluster, MPCPolicyConfig(
            power_schedule_watts=schedule, r_weight=1e-3))
        run = run_simulation(scenario, policy)
        tail = run.powers_watts[-5:]
        np.testing.assert_allclose(tail.mean(axis=0), schedule[0],
                                   rtol=0.03)
        # it does NOT jump to the 7H spot optimum (which puts ~11.3 MW
        # on Minnesota)
        assert run.powers_watts[-1, 1] < 8e6

    def test_schedule_shorter_than_run_repeats_last_row(self):
        scenario = price_step_scenario(dt=60.0, duration=300.0)
        schedule = np.array([[7.0e6, 6.0e6, 3.0e6]])  # single row
        policy = CostMPCPolicy(scenario.cluster, MPCPolicyConfig(
            dt=60.0, power_schedule_watts=schedule))
        run = run_simulation(scenario, policy)
        assert run.n_periods == 5  # runs to completion


class TestControllerMechanics:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            MPCPolicyConfig(dt=0.0)
        with pytest.raises(ConfigurationError):
            MPCPolicyConfig(horizon_pred=3, horizon_ctrl=4)
        with pytest.raises(ConfigurationError):
            MPCPolicyConfig(r_weight=0.0)
        with pytest.raises(ConfigurationError):
            MPCPolicyConfig(q_weight=-1.0)
        with pytest.raises(ConfigurationError):
            MPCPolicyConfig(budget_mode="never")

    @pytest.mark.parametrize("field", ["dt", "q_weight", "r_weight",
                                       "deadline_seconds"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_config_rejects_non_finite_and_negative(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            MPCPolicyConfig(**{field: value})

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0])
    def test_config_rejects_bad_budgets(self, bad):
        # NaN used to pass as "no budget" (nan <= 0 is false) and would
        # poison the capped reference waterfill
        with pytest.raises(ConfigurationError, match="budgets_watts"):
            MPCPolicyConfig(budgets_watts=[bad, 5e6, None])
        with pytest.raises(ConfigurationError, match="budgets_watts"):
            MPCPolicyConfig(budgets_watts=bad)
        MPCPolicyConfig(budgets_watts=[np.inf, 5e6, None])

    def test_config_rejects_unknown_backend(self):
        # a misspelt backend used to run ADMM silently
        with pytest.raises(ConfigurationError, match="backend"):
            MPCPolicyConfig(backend="activeset")
        MPCPolicyConfig(backend="admm")

    def test_config_rejects_negative_capture(self):
        with pytest.raises(ConfigurationError, match="capture_problems"):
            MPCPolicyConfig(capture_problems=-1)

    @pytest.mark.parametrize("value", [-1.0, 0.0, np.nan, np.inf])
    def test_batch_policy_rejects_bad_deadline(self, value):
        from repro.core import BatchCostMPCPolicy
        from repro.sim import paper_cluster
        with pytest.raises(ConfigurationError, match="deadline_seconds"):
            BatchCostMPCPolicy(paper_cluster(),
                               MPCPolicyConfig(deadline_seconds=value),
                               n_scenarios=2)

    def test_reset_reproducibility(self):
        """Two runs of the same policy object give identical results."""
        scenario = price_step_scenario(dt=60.0, duration=300.0)
        policy = CostMPCPolicy(scenario.cluster, MPCPolicyConfig(dt=60.0))
        r1 = run_simulation(scenario, policy)
        r2 = run_simulation(scenario, policy)
        np.testing.assert_allclose(r1.powers_watts, r2.powers_watts)

    def test_admm_backend_close_to_active_set(self):
        scenario = price_step_scenario(dt=60.0, duration=300.0)
        p1 = CostMPCPolicy(scenario.cluster,
                           MPCPolicyConfig(dt=60.0, backend="active_set"))
        r1 = run_simulation(scenario, p1)
        scenario2 = price_step_scenario(dt=60.0, duration=300.0)
        p2 = CostMPCPolicy(scenario2.cluster,
                           MPCPolicyConfig(dt=60.0, backend="admm"))
        r2 = run_simulation(scenario2, p2)
        np.testing.assert_allclose(r1.powers_watts, r2.powers_watts,
                                   rtol=5e-3)

    def test_higher_r_gives_smoother_power(self):
        vols = []
        for r in (1e-3, 1e-1):
            scenario = price_step_scenario(dt=30.0, duration=600.0)
            policy = CostMPCPolicy(scenario.cluster,
                                   MPCPolicyConfig(r_weight=r))
            run = run_simulation(scenario, policy)
            vols.append(np.mean([power_volatility(run.powers_watts[:, j])
                                 for j in range(3)]))
        assert vols[1] < vols[0]

    def test_steady_scenario_stays_at_optimum(self):
        """With no price change the MPC must hold the optimal point."""
        scenario = paper_scenario(dt=60.0, duration=300.0, start_hour=12.0)
        runs = simulate_policies(scenario, [
            OptimalInstantaneousPolicy(scenario.cluster),
            CostMPCPolicy(scenario.cluster, MPCPolicyConfig(dt=60.0)),
        ])
        opt = runs["optimal"]
        mpc = runs["mpc"]
        np.testing.assert_allclose(mpc.powers_watts, opt.powers_watts,
                                   rtol=0.01)
        assert peak_power(mpc.powers_watts[:, 0]) == pytest.approx(
            peak_power(opt.powers_watts[:, 0]), rel=0.01)


class TestSolverBackends:
    def test_admm_agrees_with_active_set_at_75_variables(self):
        """β₂ = 5 gives 15 inputs × 5 moves = 75 QP variables.

        The ablation (``benchmarks/test_bench_ablation_solvers.py``)
        runs β₂ = 3; this run covers the one dense ADMM path beyond 64
        variables, under the same agreement bounds.
        """
        runs, sizes = {}, {}
        for backend in ("active_set", "admm"):
            sc = price_step_scenario(dt=30.0, duration=600.0)
            policy = CostMPCPolicy(sc.cluster, MPCPolicyConfig(
                dt=30.0, horizon_ctrl=5, backend=backend))
            runs[backend] = run_simulation(sc, policy)
            sizes[backend] = policy._lane._ops["ndu"]
        assert sizes == {"active_set": 75, "admm": 75}
        a, b = runs["active_set"], runs["admm"]
        assert np.max(np.abs(a.powers_mw[-1] - b.powers_mw[-1])) < 0.05
        assert abs(a.total_cost_usd - b.total_cost_usd) \
            / a.total_cost_usd < 0.01
