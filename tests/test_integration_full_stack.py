"""Full-stack integration tests combining every subsystem at once.

Each test builds one scenario exercising several features together —
the kind of composite usage a downstream adopter will hit first and the
unit suites never cover.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import OptimalInstantaneousPolicy
from repro.core import (
    CostMPCPolicy,
    DeferralConfig,
    DeferralPolicy,
    MPCPolicyConfig,
)
from repro.datacenter import (
    Battery,
    BatteryConfig,
    IDCCluster,
    shave_with_battery,
)
from repro.io import load_result, save_result
from repro.pricing import MultiRegionForecaster, paper_price_traces
from repro.sim import (
    PAPER_BUDGETS_WATTS,
    FleetOutage,
    paper_scenario,
    run_simulation,
)
from repro.workload import PortalSet, PortalWorkload


def _breathing_scenario(dt=60.0, duration=1800.0, start_hour=10.0,
                        demand_sensitivity=0.0, faults=None):
    """Paper cluster with a time-varying workload mix."""
    base = paper_scenario(dt=dt, duration=duration, start_hour=start_hour,
                          demand_sensitivity=demand_sensitivity)
    t = np.arange(base.n_periods)
    varying = 25000.0 + 10000.0 * np.sin(2 * np.pi * t / 15.0)
    portals = PortalSet(portals=[
        PortalWorkload(name="varying", trace=varying),
        PortalWorkload(name="steady-1", rate=30000.0),
        PortalWorkload(name="steady-2", rate=25000.0),
    ])
    scenario = replace(base,
                       cluster=IDCCluster(base.cluster.idcs, portals))
    if faults:
        scenario = replace(scenario, faults=faults)
    return scenario


class TestEverythingAtOnce:
    def test_mpc_with_prediction_budgets_feedback_and_outage(self):
        """MPC + RLS load prediction + price forecasting + budgets +
        demand→price feedback + a mid-run outage, in one closed loop."""
        sc = _breathing_scenario(
            demand_sensitivity=0.2,
            faults=[FleetOutage("minnesota", 10 * 3600.0 + 600.0,
                                10 * 3600.0 + 1200.0, 0.6)])
        policy = CostMPCPolicy(sc.cluster, MPCPolicyConfig(
            dt=60.0, budgets_watts=PAPER_BUDGETS_WATTS,
            hard_budget_constraints=True))
        forecaster = MultiRegionForecaster.from_traces(
            [paper_price_traces()[r] for r in sc.cluster.regions])
        run = run_simulation(sc, policy, predict_loads=True,
                             prediction_horizon=3,
                             price_forecaster=forecaster)

        # every request served, every period
        np.testing.assert_allclose(run.workloads.sum(axis=1),
                                   run.loads.sum(axis=1), rtol=1e-6)
        # hard budgets honoured after the first period
        assert np.all(run.powers_watts[1:]
                      <= PAPER_BUDGETS_WATTS * 1.001)
        # outage availability respected (minnesota fleet 40000 -> 24000)
        outage_periods = slice(10, 20)
        assert np.all(run.servers[outage_periods, 1] <= 24000)
        # QoS held throughout
        assert np.all(np.isfinite(run.latencies))
        assert np.all(run.latencies <= 0.001 + 1e-9)

    def test_deferral_on_top_of_mpc(self):
        """The deferral wrapper composes with the MPC policy too."""
        sc = _breathing_scenario()
        cfg = DeferralConfig(batch_fraction=0.2, deadline_seconds=900.0,
                             price_threshold=45.0, dt=60.0)
        policy = DeferralPolicy(
            CostMPCPolicy(sc.cluster, MPCPolicyConfig(dt=60.0)), cfg)
        run = run_simulation(sc, policy)
        assert run.policy_name == "deferral(mpc)"
        # deferral conserves work over the whole run up to the final
        # backlog (nothing lost, nothing invented)
        served = (run.workloads.sum(axis=1) * 60.0).sum()
        offered = (run.loads.sum(axis=1) * 60.0).sum()
        final_backlog = run.diagnostics[-1]["deferral_backlog_req_s"]
        missed = sum(d["deferral_deadline_missed_req_s"]
                     for d in run.diagnostics)
        assert served + final_backlog + missed == pytest.approx(
            offered, rel=1e-9)

    def test_battery_post_processing_of_full_run(self):
        """Battery shaving composes with a recorded full-stack run."""
        sc = _breathing_scenario()
        run = run_simulation(sc, OptimalInstantaneousPolicy(sc.cluster))
        j = int(np.argmax(run.powers_watts.max(axis=0)))
        budget = 0.9 * run.powers_watts[:, j].max()
        battery = Battery(BatteryConfig(
            capacity_joules=2 * 3.6e9, max_charge_watts=5e6,
            max_discharge_watts=5e6, initial_soc=0.8))
        out = shave_with_battery(run.powers_watts[:, j], budget,
                                 battery, dt=60.0)
        assert out.peak_watts <= budget * (1 + 1e-9)

    def test_round_trip_of_full_stack_run(self, tmp_path):
        """A run with rich diagnostics survives JSON serialization."""
        sc = _breathing_scenario()
        policy = CostMPCPolicy(sc.cluster, MPCPolicyConfig(dt=60.0))
        run = run_simulation(sc, policy, predict_loads=True)
        path = save_result(run, tmp_path / "full.json")
        back = load_result(path)
        np.testing.assert_allclose(back.powers_watts, run.powers_watts)
        assert back.diagnostics[0]["qp_status"] == "optimal"
