"""Tests for IDC, cluster, and energy metering."""

import numpy as np
import pytest

from repro.datacenter import (
    IDC,
    EnergyMeter,
    IDCCluster,
    IDCConfig,
    LinearPowerModel,
    joules_to_mwh,
    mw_to_watts,
    mwh_to_joules,
    watts_to_mw,
)
from repro.exceptions import (
    CapacityError,
    ConfigurationError,
    ModelError,
)
from repro.workload import PortalSet

PM = LinearPowerModel.from_idle_peak(150.0, 285.0, 2.0)


def _config(name="michigan", max_servers=30000, mu=2.0, d=0.001):
    return IDCConfig(name=name, region=name, max_servers=max_servers,
                     service_rate=mu, latency_bound=d, power_model=PM)


class TestIDC:
    def test_initial_state_defaults_to_full_fleet(self):
        idc = IDC(_config())
        assert idc.servers_on == 30000

    def test_capacity_matches_formula(self):
        idc = IDC(_config(), initial_servers=1000)
        assert idc.capacity == pytest.approx(1000 * 2.0 - 1000.0)

    def test_power_eq7(self):
        idc = IDC(_config(), initial_servers=100)
        idc.assign_workload(50.0)
        assert idc.power_watts() == pytest.approx(67.5 * 50 + 100 * 150)

    def test_latency_and_qos(self):
        idc = IDC(_config(), initial_servers=1000)
        idc.assign_workload(900.0)
        assert idc.latency() == pytest.approx(1.0 / (2000 - 900))
        assert idc.meets_qos()
        idc.assign_workload(1999.5)  # latency = 2s > 1ms bound
        assert not idc.meets_qos()

    def test_servers_for_eq35(self):
        idc = IDC(_config())
        assert idc.servers_for(100.0) == 550

    def test_servers_for_capacity_error(self):
        idc = IDC(_config(max_servers=10))
        with pytest.raises(CapacityError):
            idc.servers_for(1e6)

    def test_set_servers_validation(self):
        idc = IDC(_config(max_servers=10))
        with pytest.raises(ConfigurationError):
            idc.set_servers(11)
        with pytest.raises(ConfigurationError):
            idc.set_servers(-1)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            _config(max_servers=0)
        with pytest.raises(ConfigurationError):
            _config(mu=0.0)
        with pytest.raises(ConfigurationError):
            _config(d=0.0)

    def test_max_power(self):
        cfg = _config(max_servers=10)
        assert cfg.max_power_watts == pytest.approx(10 * 285.0)


class TestCluster:
    def _cluster(self):
        configs = [
            _config("michigan", 30000, 2.0),
            _config("minnesota", 40000, 1.25),
            _config("wisconsin", 20000, 1.75),
        ]
        portals = PortalSet.constant([30000, 15000, 15000, 20000, 20000])
        return IDCCluster.from_configs(configs, portals)

    def test_dimensions(self):
        c = self._cluster()
        assert c.n_idcs == 3
        assert c.n_portals == 5
        assert c.n_allocations == 15

    def test_vector_matrix_round_trip(self):
        c = self._cluster()
        rng = np.random.default_rng(0)
        mat = rng.uniform(0, 100, (5, 3))
        vec = c.matrix_to_vector(mat)
        np.testing.assert_allclose(c.vector_to_matrix(vec), mat)

    def test_vector_ordering_grouped_by_idc(self):
        c = self._cluster()
        mat = np.zeros((5, 3))
        mat[2, 1] = 7.0  # portal 3 -> IDC 2
        vec = c.matrix_to_vector(mat)
        assert vec[1 * 5 + 2] == 7.0
        assert vec.sum() == 7.0

    def test_idc_workloads_sum(self):
        c = self._cluster()
        mat = np.full((5, 3), 10.0)
        vec = c.matrix_to_vector(mat)
        np.testing.assert_allclose(c.idc_workloads(vec), [50.0, 50.0, 50.0])

    def test_apply_allocation_sets_idc_state(self):
        c = self._cluster()
        mat = np.zeros((5, 3))
        mat[:, 0] = [100, 50, 50, 100, 100]
        loads = c.apply_allocation(c.matrix_to_vector(mat))
        assert loads[0] == 400.0
        assert c.idcs[0].workload == 400.0

    def test_apply_allocation_rejects_negative(self):
        c = self._cluster()
        vec = np.full(15, -1.0)
        with pytest.raises(ModelError):
            c.apply_allocation(vec)

    def test_sleep_controllability_ok_for_paper_setup(self):
        c = self._cluster()
        c.check_sleep_controllability()  # no raise: capacity >> 100k req/s

    def test_sleep_controllability_violation(self):
        configs = [_config("tiny", max_servers=10, mu=1.0, d=0.5)]
        portals = PortalSet.constant([1000.0])
        c = IDCCluster.from_configs(configs, portals)
        with pytest.raises(CapacityError):
            c.check_sleep_controllability()

    def test_allocation_feasible(self):
        c = self._cluster()
        loads = c.portals.loads_at(0)
        mat = np.zeros((5, 3))
        mat[:, 0] = loads  # everything to IDC 1 (capacity 59000?)
        # Michigan capacity = 30000*2 - 1000 = 59000 < 100000: infeasible
        assert not c.allocation_feasible(c.matrix_to_vector(mat))
        # spread according to capacity: feasible
        mat = np.outer(loads, [0.4, 0.35, 0.25])
        assert c.allocation_feasible(c.matrix_to_vector(mat))

    def test_allocation_feasible_rejects_bad_shapes_and_negatives(self):
        c = self._cluster()
        assert not c.allocation_feasible(np.ones(7))
        mat = np.outer(c.portals.loads_at(0), [0.5, 0.5, 0.0])
        vec = c.matrix_to_vector(mat)
        vec[0] -= 20.0  # break conservation
        assert not c.allocation_feasible(vec)

    def test_duplicate_names_rejected(self):
        portals = PortalSet.constant([10.0])
        with pytest.raises(ConfigurationError):
            IDCCluster.from_configs([_config("a"), _config("a")], portals)


class TestEnergyMeterAndUnits:
    def test_unit_conversions(self):
        assert watts_to_mw(2.5e6) == 2.5
        assert mw_to_watts(2.5) == 2.5e6
        assert joules_to_mwh(3.6e9) == 1.0
        assert mwh_to_joules(1.0) == 3.6e9

    def test_meter_energy_and_cost(self):
        meter = EnergyMeter(n_idcs=2)
        # 1 MW and 2 MW for one hour at $50 and $20 per MWh
        meter.record([1e6, 2e6], [50.0, 20.0], 3600.0)
        np.testing.assert_allclose(meter.energy_mwh, [1.0, 2.0])
        np.testing.assert_allclose(meter.cost_usd, [50.0, 40.0])
        assert meter.total_cost_usd == pytest.approx(90.0)

    def test_paper_cost_uses_accumulated_energy(self):
        meter = EnergyMeter(n_idcs=1)
        meter.record([1e6], [10.0], 3600.0)   # E goes 0 -> 1 MWh
        assert meter.total_paper_cost == 0.0  # integrand saw E = 0
        meter.record([1e6], [10.0], 3600.0)   # now integrand sees E = 1 MWh
        assert meter.total_paper_cost == pytest.approx(10.0 * 1.0 * 3600.0)

    def test_meter_validation(self):
        with pytest.raises(ModelError):
            EnergyMeter(n_idcs=0)
        meter = EnergyMeter(n_idcs=1)
        with pytest.raises(ModelError):
            meter.record([1.0, 2.0], [1.0], 1.0)
        with pytest.raises(ModelError):
            meter.record([1.0], [1.0], 0.0)
        with pytest.raises(ModelError):
            meter.record([-1.0], [1.0], 1.0)
