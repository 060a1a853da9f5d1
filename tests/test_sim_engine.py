"""Tests for the simulation engine, scenario factory and result types."""

import numpy as np
import pytest

from repro.baselines import OptimalInstantaneousPolicy, UniformPolicy
from repro.exceptions import CheckpointError, ConfigurationError, ModelError
from repro.pricing import TABLE_III_PRICES
from repro.sim import (
    PAPER_BUDGETS_WATTS,
    paper_cluster,
    paper_scenario,
    price_step_scenario,
    run_simulation,
    simulate_policies,
)
from repro.sim.recorder import LaneRecord, RecordChunk


class TestScenario:
    def test_paper_scenario_tables(self):
        sc = paper_scenario()
        assert sc.cluster.n_idcs == 3
        assert sc.cluster.n_portals == 5
        np.testing.assert_allclose(sc.cluster.portals.loads_at(0),
                                   [30000, 15000, 15000, 20000, 20000])
        fleets = [idc.config.max_servers for idc in sc.cluster.idcs]
        assert fleets == [30000, 40000, 20000]
        mus = [idc.config.service_rate for idc in sc.cluster.idcs]
        assert mus == [2.0, 1.25, 1.75]
        for idc in sc.cluster.idcs:
            assert idc.config.latency_bound == 0.001
            assert idc.config.power_model.b0 == 150.0

    def test_paper_scenario_prices_match_table_iii(self):
        sc = paper_scenario()
        prices = sc.prices_at(6 * 3600.0)
        expected = [TABLE_III_PRICES[r][6] for r in sc.cluster.regions]
        np.testing.assert_allclose(prices, expected)

    def test_price_step_scenario_crosses_7h(self):
        sc = price_step_scenario(dt=30.0, duration=600.0)
        first = sc.prices_at(sc.start_time)
        later = sc.prices_at(sc.start_time + 120.0)
        expected_6h = [TABLE_III_PRICES[r][6] for r in sc.cluster.regions]
        expected_7h = [TABLE_III_PRICES[r][7] for r in sc.cluster.regions]
        np.testing.assert_allclose(first, expected_6h)
        np.testing.assert_allclose(later, expected_7h)

    def test_n_periods(self):
        sc = paper_scenario(dt=30.0, duration=600.0)
        assert sc.n_periods == 20

    def test_with_budgets(self):
        sc = paper_scenario(with_budgets=True)
        np.testing.assert_allclose(sc.budgets_watts, PAPER_BUDGETS_WATTS)
        sc2 = sc.with_budgets(None)
        assert sc2.budgets_watts is None

    def test_validation(self):
        sc = paper_scenario()
        with pytest.raises(ConfigurationError):
            paper_scenario(dt=0.0)
        with pytest.raises(ConfigurationError):
            paper_scenario(dt=100.0, duration=50.0)
        _ = sc

    def test_sleep_controllability_of_paper_setup(self):
        paper_cluster().check_sleep_controllability()


class TestEngine:
    def test_result_shapes(self):
        sc = paper_scenario(dt=60.0, duration=300.0)
        run = run_simulation(sc, OptimalInstantaneousPolicy(sc.cluster))
        assert run.n_periods == 5
        assert run.powers_watts.shape == (5, 3)
        assert run.loads.shape == (5, 5)
        assert run.allocations.shape == (5, 15)
        assert run.idc_names == ["michigan", "minnesota", "wisconsin"]
        assert len(run.diagnostics) == 5

    def test_energy_meter_consistency(self):
        sc = paper_scenario(dt=60.0, duration=300.0)
        run = run_simulation(sc, OptimalInstantaneousPolicy(sc.cluster))
        # meter energy equals sum(P*dt) converted to MWh
        expected = run.powers_watts.sum(axis=0) * 60.0 / 3.6e9
        np.testing.assert_allclose(run.energy_mwh, expected, rtol=1e-12)

    def test_cost_is_price_weighted_energy(self):
        sc = paper_scenario(dt=60.0, duration=300.0)
        run = run_simulation(sc, OptimalInstantaneousPolicy(sc.cluster))
        expected = np.sum(run.prices * run.powers_watts * 60.0 / 3.6e9,
                          axis=0)
        np.testing.assert_allclose(run.cost_usd, expected, rtol=1e-12)

    def test_market_demand_feedback_loop(self):
        sc = paper_scenario(dt=60.0, duration=300.0,
                            demand_sensitivity=0.3)
        run = run_simulation(sc, OptimalInstantaneousPolicy(sc.cluster))
        # prices after the first period must deviate from the pure trace
        base = np.array([
            sc.market.base_price(r, sc.start_time)
            for r in sc.cluster.regions
        ])
        assert not np.allclose(run.prices[1], base)

    def test_simulate_policies_shared_scenario(self):
        sc = paper_scenario(dt=60.0, duration=300.0)
        comp = simulate_policies(sc, [
            OptimalInstantaneousPolicy(sc.cluster),
            UniformPolicy(sc.cluster),
        ])
        assert set(comp.policy_names) == {"optimal", "uniform"}
        assert "optimal" in comp
        summary = comp.summary()
        assert "Policy comparison" in summary
        assert "optimal" in summary

    def test_simulate_policies_duplicate_names(self):
        sc = paper_scenario(dt=60.0, duration=300.0)
        with pytest.raises(ModelError):
            simulate_policies(sc, [UniformPolicy(sc.cluster),
                                   UniformPolicy(sc.cluster)])

    def test_simulate_policies_empty(self):
        sc = paper_scenario(dt=60.0, duration=300.0)
        with pytest.raises(ModelError):
            simulate_policies(sc, [])

    def test_prediction_plumbing(self):
        """With predictors on, policies receive forecasts."""
        sc = paper_scenario(dt=60.0, duration=300.0)

        captured = []

        class Probe:
            name = "probe"

            def decide(self, obs):
                captured.append(obs.predicted_loads)
                return UniformPolicy(sc.cluster).decide(obs)

            def reset(self):
                pass

        run_simulation(sc, Probe(), predict_loads=True,
                       prediction_horizon=4)
        assert captured[0] is not None
        assert captured[0].shape == (4, 5)
        # constant loads -> prediction converges to the constant
        np.testing.assert_allclose(captured[-1][0],
                                   sc.cluster.portals.loads_at(0),
                                   rtol=1e-3)


class TestResultAccessors:
    def test_series_accessors(self):
        sc = paper_scenario(dt=60.0, duration=300.0)
        run = run_simulation(sc, OptimalInstantaneousPolicy(sc.cluster))
        by_name = run.power_series_mw("michigan")
        by_index = run.power_series_mw(0)
        np.testing.assert_allclose(by_name, by_index)
        assert run.server_series("wisconsin").shape == (5,)
        with pytest.raises(ModelError):
            run.idc_index("mars")

    def test_recorder_validation(self):
        with pytest.raises(ModelError):
            LaneRecord(1, 5, 0, 1, 1.0)
        with pytest.raises(ModelError):
            LaneRecord(1, 5, 1, 1, 0.0)
        rec = LaneRecord(1, 5, 1, 1, 1.0)
        with pytest.raises(ModelError):
            rec.results("p", [paper_scenario(dt=60.0, duration=300.0)], [{}])


def _record_periods(rec, powers, prices, start=0):
    S, T, n = powers.shape
    for k in range(start, T):
        rec.record(k, times=np.full(S, 60.0 * k), powers_watts=powers[:, k],
                   servers=np.ones((S, n)), workloads=np.zeros((S, n)),
                   latencies=np.zeros((S, n)), prices=prices[:, k],
                   loads=np.ones((S, 2)), allocations=np.zeros((S, 2 * n)),
                   diagnostics=[{"k": k}] * S)


class TestLaneRecord:
    """The record's stacked meter bills every lane like a one-run meter."""

    def _record(self):
        rng = np.random.default_rng(0)
        powers = rng.uniform(1e5, 1e6, size=(3, 4, 2))
        prices = rng.uniform(10.0, 90.0, size=(3, 4, 2))
        rec = LaneRecord(3, 4, 2, 2, 60.0)
        _record_periods(rec, powers, prices)
        return rec, powers, prices

    def test_meter_energy_and_cost_per_lane(self):
        rec, powers, prices = self._record()
        np.testing.assert_allclose(rec.meter.energy_mwh,
                                   powers.sum(axis=1) * 60.0 / 3.6e9,
                                   rtol=1e-12)
        np.testing.assert_allclose(
            rec.meter.cost_usd,
            np.sum(prices * powers * 60.0 / 3.6e9, axis=1), rtol=1e-12)

    def test_each_lane_bills_like_a_one_run_meter(self):
        from repro.datacenter import EnergyMeter
        rec, powers, prices = self._record()
        for s in range(3):
            meter = EnergyMeter(2)
            for k in range(4):
                meter.record(powers[s, k], prices[s, k], 60.0)
            np.testing.assert_array_equal(rec.meter.cost_usd[s],
                                          meter.cost_usd)
            np.testing.assert_array_equal(rec.meter.paper_cost[s],
                                          meter.paper_cost)

    def test_results_slice_each_lane(self):
        rec, powers, _ = self._record()
        sc = paper_scenario(dt=60.0, duration=300.0)
        res = rec.results("p", [sc] * 3, [{}] * 3)[1]
        np.testing.assert_array_equal(res.powers_watts, powers[1])
        assert res.diagnostics == [{"k": k} for k in range(4)]
        assert res.total_cost_usd == float(rec.meter.cost_usd[1].sum())

    def test_pickle_round_trip_continues_bit_exact(self):
        """A record pickled whole carries on bit-exact once unpickled."""
        import pickle
        rec, powers, prices = self._record()
        partial = LaneRecord(3, 4, 2, 2, 60.0)
        _record_periods(partial, powers[:, :2], prices[:, :2])
        resumed = pickle.loads(pickle.dumps(partial))
        _record_periods(resumed, powers, prices, start=2)
        np.testing.assert_array_equal(resumed.meter.cost_usd,
                                      rec.meter.cost_usd)
        np.testing.assert_array_equal(resumed.meter.paper_cost,
                                      rec.meter.paper_cost)
        np.testing.assert_array_equal(resumed.series["powers_watts"],
                                      rec.series["powers_watts"])
        assert resumed.diagnostics == rec.diagnostics

    def test_snapshot_round_trip_continues_bit_exact(self):
        """A checkpoint carries the filled prefix and pickles each
        period's diagnostics once; a restored record carries on."""
        import pickle
        rec, powers, prices = self._record()
        partial = LaneRecord(3, 4, 2, 2, 60.0)
        _record_periods(partial, powers[:, :1], prices[:, :1])
        first = partial.snapshot()
        _record_periods(partial, powers[:, :3], prices[:, :3], start=1)
        snap = pickle.loads(pickle.dumps(partial.snapshot()))
        assert snap["diagnostics"].startswith(first["diagnostics"])
        assert snap["series"]["powers_watts"].shape == (3, 3, 2)
        resumed = LaneRecord.from_snapshot(snap)
        assert resumed.n_periods == 3
        _record_periods(resumed, powers, prices, start=3)
        np.testing.assert_array_equal(resumed.meter.cost_usd,
                                      rec.meter.cost_usd)
        np.testing.assert_array_equal(resumed.meter.paper_cost,
                                      rec.meter.paper_cost)
        for name, series in rec.series.items():
            np.testing.assert_array_equal(resumed.series[name], series)
        assert resumed.diagnostics == rec.diagnostics
        again = LaneRecord.from_snapshot(resumed.snapshot())
        assert again.diagnostics == rec.diagnostics

    def test_snapshot_and_chunks_fold_to_one_snapshot(self):
        """A checkpoint log's base plus its deltas equals one snapshot of
        the whole, and so does a restored record's new base and deltas."""
        import pickle
        rec, powers, prices = self._record()
        partial = LaneRecord(3, 4, 2, 2, 60.0)
        _record_periods(partial, powers[:, :1], prices[:, :1])
        base = partial.snapshot()
        chunks = []
        for k in (2, 2, 3):     # an empty chunk folds too
            _record_periods(partial, powers[:, :k], prices[:, :k],
                            start=partial.n_periods)
            chunks.append(pickle.loads(pickle.dumps(partial.chunk())))
        assert [(c.start, c.stop) for c in chunks] == [(1, 2), (2, 2),
                                                       (2, 3)]
        folded = RecordChunk.fold(pickle.loads(pickle.dumps(base)), chunks)
        whole = partial.snapshot()
        assert folded["n_periods"] == whole["n_periods"] == 3
        assert folded["diagnostics"] == whole["diagnostics"]
        for name, series in whole["series"].items():
            np.testing.assert_array_equal(folded["series"][name], series)
        np.testing.assert_array_equal(folded["meter"].cost_usd,
                                      whole["meter"].cost_usd)

        resumed = LaneRecord.from_snapshot(folded)
        with pytest.raises(ModelError, match="snapshot"):
            resumed.chunk()
        base = resumed.snapshot()
        _record_periods(resumed, powers, prices, start=3)
        again = LaneRecord.from_snapshot(
            RecordChunk.fold(base, [resumed.chunk()]))
        assert again.diagnostics == rec.diagnostics
        for name, series in rec.series.items():
            np.testing.assert_array_equal(again.series[name], series)
        np.testing.assert_array_equal(again.meter.paper_cost,
                                      rec.meter.paper_cost)
        with pytest.raises(CheckpointError, match="starts at period"):
            RecordChunk.fold(base, chunks)

    def test_meter_rejects_misshaped_and_negative_input(self):
        rec, _, _ = self._record()
        with pytest.raises(ModelError):
            rec.meter.record(np.ones((2, 3)), np.ones((2, 3)), 60.0)
        with pytest.raises(ModelError):
            rec.meter.record(-np.ones((3, 2)), np.ones((3, 2)), 60.0)
        with pytest.raises(ModelError):
            rec.meter.record(np.ones((3, 2)), np.ones((3, 2)), 0.0)
