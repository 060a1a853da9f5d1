"""Tests for failure injection (fleet outages) and availability plumbing."""

import numpy as np
import pytest

from repro.baselines import OptimalInstantaneousPolicy, UniformPolicy
from repro.core import CostMPCPolicy, MPCPolicyConfig
from repro.exceptions import CapacityError, ConfigurationError
from repro.sim import (
    FleetOutage,
    PriceFeedDropout,
    SensorGap,
    outage_availability,
    paper_cluster,
    paper_scenario,
    run_simulation,
    split_faults,
    telemetry_visibility,
)


class TestAvailability:
    def test_default_full_availability(self):
        cluster = paper_cluster()
        idc = cluster.idcs[0]
        assert idc.available_servers == idc.config.max_servers
        assert idc.available_capacity == idc.config.max_capacity

    def test_set_availability_clamps_active_servers(self):
        cluster = paper_cluster()
        idc = cluster.idcs[0]
        idc.set_servers(20000)
        idc.set_availability(5000)
        assert idc.servers_on == 5000
        assert idc.available_capacity == pytest.approx(5000 * 2.0 - 1000)

    def test_set_servers_beyond_availability_rejected(self):
        cluster = paper_cluster()
        idc = cluster.idcs[0]
        idc.set_availability(100)
        with pytest.raises(ConfigurationError):
            idc.set_servers(101)

    def test_servers_for_respects_availability(self):
        cluster = paper_cluster()
        idc = cluster.idcs[0]
        idc.set_availability(100)
        with pytest.raises(CapacityError):
            idc.servers_for(10000.0)

    def test_restore(self):
        cluster = paper_cluster(initial_servers=[20000, 30000, 10000])
        idc = cluster.idcs[0]
        idc.set_availability(10)
        idc.reset()
        assert idc.available_servers == idc.config.max_servers
        assert idc.servers_on == idc.initial_servers == 20000

    def test_validation(self):
        cluster = paper_cluster()
        idc = cluster.idcs[0]
        with pytest.raises(ConfigurationError):
            idc.set_availability(-1)
        with pytest.raises(ConfigurationError):
            idc.set_availability(idc.config.max_servers + 1)


class TestFleetOutage:
    def test_window(self):
        f = FleetOutage("michigan", 100.0, 200.0, 0.5)
        assert not f.active_at(99.9)
        assert f.active_at(100.0)
        assert f.active_at(199.9)
        assert not f.active_at(200.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FleetOutage("x", 200.0, 100.0, 0.5)
        with pytest.raises(ConfigurationError):
            FleetOutage("x", 0.0, 1.0, 1.5)

    @staticmethod
    def _available(cluster, faults, t):
        return outage_availability([cluster], [faults], t)[0]

    def test_availability_sets_and_restores(self):
        cluster = paper_cluster()
        faults = [FleetOutage("michigan", 100.0, 200.0, 0.25)]
        assert self._available(cluster, faults, 150.0)[0] == 7500
        assert self._available(cluster, faults, 250.0)[0] == 30000
        # data, not a mutation: the cluster keeps its whole fleet
        assert cluster.idcs[0].available_servers == 30000

    def test_overlapping_outages_take_minimum(self):
        cluster = paper_cluster()
        faults = [
            FleetOutage("michigan", 0.0, 100.0, 0.5),
            FleetOutage("michigan", 50.0, 150.0, 0.2),
        ]
        assert self._available(cluster, faults, 75.0)[0] == 6000

    def test_unknown_idc(self):
        cluster = paper_cluster()
        with pytest.raises(ConfigurationError):
            self._available(cluster, [FleetOutage("mars", 0, 1, 0.5)], 0.5)

    def test_unknown_fault_type_rejected(self):
        cluster = paper_cluster()
        with pytest.raises(ConfigurationError):
            self._available(cluster, ["not a fault"], 0.0)

    def test_adjacent_windows_compose_without_gap_or_overlap(self):
        # Two back-to-back outages: the boundary instant belongs to the
        # second window only (end is exclusive, start inclusive), so the
        # handover never double-applies or briefly restores the fleet.
        cluster = paper_cluster()
        faults = [
            FleetOutage("michigan", 0.0, 100.0, 0.5),
            FleetOutage("michigan", 100.0, 200.0, 0.25),
        ]
        assert self._available(cluster, faults, 99.9)[0] == 15000
        assert self._available(cluster, faults, 100.0)[0] == 7500
        assert self._available(cluster, faults, 200.0)[0] == 30000

    def test_total_outage_fraction_zero(self):
        cluster = paper_cluster()
        assert self._available(
            cluster, [FleetOutage("michigan", 0.0, 10.0, 0.0)], 5.0)[0] == 0

    def test_each_lane_reads_its_own_windows_and_clock(self):
        clusters = [paper_cluster(), paper_cluster()]
        faults = [[FleetOutage("wisconsin", 0.0, 100.0, 0.5)],
                  [FleetOutage("michigan", 50.0, 150.0, 0.1)]]
        avail = outage_availability(clusters, faults, [60.0, 40.0])
        full = [idc.config.max_servers for idc in clusters[0].idcs]
        np.testing.assert_array_equal(
            avail, [[full[0], full[1], full[2] // 2], full])


class TestTelemetryFaults:
    def test_split_faults_partitions_by_type(self):
        faults = [
            FleetOutage("michigan", 0.0, 1.0, 0.5),
            PriceFeedDropout("michigan", 0.0, 1.0),
            SensorGap(0, 0.0, 1.0),
        ]
        groups = split_faults(faults)
        assert groups.outages == [faults[0]]
        assert groups.price_faults == [faults[1]]
        assert groups.sensor_faults == [faults[2]]
        assert groups.actuation_faults == []

    def test_split_faults_rejects_unknown_type(self):
        with pytest.raises(ConfigurationError):
            split_faults([object()])

    def test_telemetry_fault_validation(self):
        with pytest.raises(ConfigurationError):
            PriceFeedDropout("x", 5.0, 1.0)
        with pytest.raises(ConfigurationError):
            SensorGap(-1, 0.0, 1.0)

    def test_visibility_masks(self):
        cluster = paper_cluster()
        faults = [
            PriceFeedDropout("minnesota", 100.0, 200.0),
            SensorGap(2, 100.0, 200.0),
        ]
        prices_ok, loads_ok = telemetry_visibility(cluster, faults, 150.0)
        assert list(prices_ok) == [True, False, True]
        assert list(loads_ok) == [True, True, False, True, True]
        prices_ok, loads_ok = telemetry_visibility(cluster, faults, 250.0)
        assert prices_ok.all() and loads_ok.all()

    def test_visibility_rejects_unknown_idc_and_portal(self):
        cluster = paper_cluster()
        with pytest.raises(ConfigurationError):
            telemetry_visibility(
                cluster, [PriceFeedDropout("mars", 0.0, 1.0)], 0.5)
        with pytest.raises(ConfigurationError):
            telemetry_visibility(cluster, [SensorGap(99, 0.0, 1.0)], 0.5)

    def _scenario_with(self, faults_fn, duration=600.0):
        sc = paper_scenario(dt=60.0, duration=duration, start_hour=12.0)
        return sc.__class__(**{**sc.__dict__,
                               "faults": faults_fn(sc.start_time)})

    def test_price_dropout_blinds_policy_but_not_billing(self):
        sc_clean = paper_scenario(dt=60.0, duration=600.0, start_hour=12.0)
        clean = run_simulation(sc_clean,
                               OptimalInstantaneousPolicy(sc_clean.cluster))
        sc = self._scenario_with(lambda t0: [
            PriceFeedDropout("michigan", t0 + 120.0, t0 + 360.0)])
        run = run_simulation(sc, OptimalInstantaneousPolicy(sc.cluster))
        counters = run.perf["counters"]
        assert counters["telemetry_price_dropouts"] == 4
        assert counters["telemetry_hold_fills"] == 4
        # The recorder (and hence billing) still saw the true prices.
        np.testing.assert_array_equal(run.prices, clean.prices)
        # The loop stays healthy: every period's load fully served.
        np.testing.assert_allclose(run.workloads.sum(axis=1),
                                   run.loads.sum(axis=1), rtol=1e-6)

    def test_sensor_gap_is_gap_filled_and_recorded_truthfully(self):
        sc = self._scenario_with(lambda t0: [
            SensorGap(0, t0 + 240.0, t0 + 420.0)])
        true_loads = sc.cluster.portals.loads_at(0)
        run = run_simulation(sc, OptimalInstantaneousPolicy(sc.cluster))
        counters = run.perf["counters"]
        assert counters["telemetry_load_gaps"] == 3
        # The recorder logs the offered (true) loads, not the estimates.
        np.testing.assert_allclose(run.loads[5], true_loads, rtol=1e-9)
        assert np.all(np.isfinite(run.allocations))


class TestAvailabilityChangeHook:
    class _HookSpy:
        """Minimal policy recording when the engine signals a change."""

        name = "hook-spy"

        def __init__(self, cluster):
            self.cluster = cluster
            self.calls: list[int] = []
            self.k = 0

        def reset(self):
            self.k = 0

        def on_availability_change(self):
            self.calls.append(self.k)

        def decide(self, obs):
            from repro.sim import AllocationDecision
            self.k = obs.period
            lam = np.zeros((self.cluster.n_portals, self.cluster.n_idcs))
            available = np.array([idc.available_capacity
                                  for idc in self.cluster.idcs])
            j = int(np.argmax(available))
            lam[:, j] = np.asarray(obs.loads, dtype=float)
            return AllocationDecision(
                u=self.cluster.matrix_to_vector(lam),
                servers=np.array([idc.available_servers
                                  for idc in self.cluster.idcs]))

    def test_hook_fires_on_outage_start_and_end_only(self):
        sc = paper_scenario(dt=60.0, duration=600.0, start_hour=12.0)
        start = sc.start_time + 180.0
        sc = sc.__class__(**{**sc.__dict__,
                             "faults": [FleetOutage("michigan", start,
                                                    start + 240.0, 0.5)]})
        spy = self._HookSpy(sc.cluster)
        run_simulation(sc, spy)
        # Fires when the outage begins (period 3) and lifts (period 7);
        # the spy records the *previous* decided period each time.
        assert spy.calls == [2, 6]

    def test_mpc_resets_solver_state_on_midday_outage(self):
        # Regression: the reference cache is keyed by (prices, loads)
        # but its values depend on availability — without the
        # availability-change hook a mid-day outage with unchanged
        # prices served stale (infeasible) references from the cache.
        sc = paper_scenario(dt=60.0, duration=600.0, start_hour=12.0)
        start = sc.start_time + 180.0
        sc = sc.__class__(**{**sc.__dict__,
                             "faults": [FleetOutage("michigan", start,
                                                    start + 240.0, 0.3)]})
        policy = CostMPCPolicy(sc.cluster, MPCPolicyConfig(dt=60.0))
        run = run_simulation(sc, policy)
        counters = run.perf["counters"]
        # Once at outage start, once at restoration.
        assert counters["availability_resets"] == 2
        # The rebuilt references respect the outage: workload is
        # conserved and Michigan's servers stay within availability.
        np.testing.assert_allclose(run.workloads.sum(axis=1),
                                   run.loads.sum(axis=1), rtol=1e-6)
        for k in range(3, 7):
            assert run.servers[k, 0] <= 9000


class TestOutageInClosedLoop:
    def _scenario_with_outage(self, fraction=0.5):
        sc = paper_scenario(dt=60.0, duration=600.0, start_hour=12.0)
        # Michigan loses most of its fleet for minutes 3..7
        start = sc.start_time + 180.0
        sc = sc.__class__(**{**sc.__dict__,
                             "faults": [FleetOutage("michigan", start,
                                                    start + 240.0,
                                                    fraction)]})
        return sc

    def test_optimal_policy_reroutes_around_outage(self):
        sc = self._scenario_with_outage()
        run = run_simulation(sc, OptimalInstantaneousPolicy(sc.cluster))
        mi = run.workloads[:, 0]
        # during the outage Michigan's workload drops to its reduced cap
        outage_cap = 0.5 * 30000 * 2.0 - 1000.0
        assert mi[4] <= outage_cap + 1e-6
        # all workload still served every period
        np.testing.assert_allclose(run.workloads.sum(axis=1),
                                   run.loads.sum(axis=1), rtol=1e-6)
        # after restoration the allocation returns
        assert mi[-1] > outage_cap

    def test_mpc_reroutes_around_outage(self):
        sc = self._scenario_with_outage()
        run = run_simulation(sc, CostMPCPolicy(sc.cluster,
                                               MPCPolicyConfig(dt=60.0)))
        outage_cap = 0.5 * 30000 * 2.0 - 1000.0
        # by the end of the outage the MPC has moved Michigan's load off
        assert run.workloads[6, 0] <= outage_cap * 1.05
        np.testing.assert_allclose(run.workloads.sum(axis=1),
                                   run.loads.sum(axis=1), rtol=1e-6)
        # servers never exceed availability
        assert np.all(run.servers[:, 0] <= 30000)
        for k in range(3, 7):
            assert run.servers[k, 0] <= 15000

    def test_uniform_policy_survives_outage(self):
        sc = self._scenario_with_outage(fraction=0.6)
        run = run_simulation(sc, UniformPolicy(sc.cluster))
        np.testing.assert_allclose(run.workloads.sum(axis=1),
                                   run.loads.sum(axis=1), rtol=1e-6)

    def test_total_outage_of_all_capacity_raises(self):
        sc = paper_scenario(dt=60.0, duration=300.0, start_hour=12.0)
        faults = [
            FleetOutage(name, sc.start_time, sc.start_time + 1e6, 0.0)
            for name in sc.cluster.idc_names
        ]
        sc = sc.__class__(**{**sc.__dict__, "faults": faults})
        with pytest.raises(CapacityError):
            run_simulation(sc, UniformPolicy(sc.cluster))
