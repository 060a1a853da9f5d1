"""Tests for price traces, stochastic models, LMP helpers and the market."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.pricing import (
    PAPER_REGIONS,
    TABLE_III_PRICES,
    BidStackPriceModel,
    DiurnalProfile,
    OrnsteinUhlenbeck,
    PriceTrace,
    RealTimeMarket,
    RegionMarketConfig,
    decompose_lmp,
    paper_price_traces,
    price_to_cost_rate,
    spatial_diversity,
    temporal_diversity,
)


class TestPaperTraces:
    def test_regions_present(self):
        traces = paper_price_traces()
        assert set(traces) == set(PAPER_REGIONS)
        for t in traces.values():
            assert t.n_hours == 24

    def test_table_iii_values_exact(self):
        traces = paper_price_traces()
        for region, by_hour in TABLE_III_PRICES.items():
            for hour, price in by_hour.items():
                assert traces[region].price_at_hour(hour) == pytest.approx(
                    price, abs=1e-9), (region, hour)

    def test_wisconsin_has_negative_dip(self):
        # Fig. 2 shows one region going below zero overnight.
        wi = paper_price_traces()["wisconsin"]
        assert wi.hourly.min() < 0

    def test_wisconsin_6h_to_7h_spike(self):
        wi = paper_price_traces()["wisconsin"]
        assert wi.price_at_hour(7) - wi.price_at_hour(6) > 50

    def test_price_ranges_match_fig2_axis(self):
        # Fig. 2's y-axis runs about -40..100 $/MWh.
        for t in paper_price_traces().values():
            assert -40 <= t.hourly.min()
            assert t.hourly.max() <= 100


class TestPriceTrace:
    def test_hourly_step_behaviour(self):
        t = PriceTrace("x", [10.0, 20.0])
        assert t.price_at_time(0.0) == 10.0
        assert t.price_at_time(3599.9) == 10.0
        assert t.price_at_time(3600.0) == 20.0

    def test_wraps_around(self):
        t = PriceTrace("x", [10.0, 20.0])
        assert t.price_at_hour(2) == 10.0
        assert t.price_at_time(2 * 3600.0) == 10.0

    def test_interpolation(self):
        t = PriceTrace("x", [10.0, 20.0])
        assert t.price_at_time(1800.0, interpolate=True) == pytest.approx(15.0)

    def test_resample(self):
        t = PriceTrace("x", [10.0, 20.0])
        out = t.resample(1800.0)
        np.testing.assert_allclose(out, [10.0, 10.0, 20.0, 20.0])

    def test_resample_invalid_period(self):
        with pytest.raises(ConfigurationError):
            PriceTrace("x", [1.0]).resample(0.0)

    def test_statistics(self):
        stats = PriceTrace("x", [10.0, 20.0, 10.0]).statistics()
        assert stats["mean"] == pytest.approx(40.0 / 3)
        assert stats["volatility"] == pytest.approx(10.0)
        assert stats["min"] == 10.0 and stats["max"] == 20.0

    def test_csv_round_trip(self):
        t = paper_price_traces()["michigan"]
        t2 = PriceTrace.from_csv(t.to_csv(), region="michigan")
        np.testing.assert_allclose(t2.hourly, t.hourly, atol=1e-4)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ConfigurationError):
            PriceTrace("x", [])
        with pytest.raises(ConfigurationError):
            PriceTrace("x", [1.0, np.nan])


class TestOrnsteinUhlenbeck:
    def test_mean_reversion(self):
        ou = OrnsteinUhlenbeck(mean=5.0, reversion=2.0, volatility=0.0)
        path = ou.sample_path(50, dt=0.1, x0=10.0)
        assert abs(path[-1] - 5.0) < abs(path[0] - 5.0)
        assert path[-1] == pytest.approx(5.0, abs=0.01)

    def test_stationary_std(self):
        ou = OrnsteinUhlenbeck(reversion=2.0, volatility=2.0)
        assert ou.stationary_std == pytest.approx(1.0)

    def test_sample_statistics(self):
        rng = np.random.default_rng(0)
        ou = OrnsteinUhlenbeck(mean=0.0, reversion=1.0, volatility=1.0)
        path = ou.sample_path(20_000, dt=0.5, rng=rng)
        assert np.mean(path) == pytest.approx(0.0, abs=0.05)
        assert np.std(path) == pytest.approx(ou.stationary_std, rel=0.1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OrnsteinUhlenbeck(reversion=0.0)
        with pytest.raises(ConfigurationError):
            OrnsteinUhlenbeck(volatility=-1.0)


class TestDiurnalProfile:
    def test_fit_reproduces_smooth_shape(self):
        hours = np.arange(24)
        shape = 50 + 20 * np.sin(2 * np.pi * hours / 24)
        prof = DiurnalProfile.fit(shape, n_harmonics=2)
        np.testing.assert_allclose(prof.values(hours), shape, atol=1e-8)

    def test_periodicity(self):
        prof = DiurnalProfile.fit(np.random.default_rng(1).uniform(0, 50, 24))
        assert prof.value(0.0) == pytest.approx(prof.value(24.0), abs=1e-9)

    def test_odd_coefficient_count_enforced(self):
        with pytest.raises(ConfigurationError):
            DiurnalProfile(np.ones(4))


class TestBidStack:
    def test_zero_load_weight_is_pure_diurnal(self):
        trace = paper_price_traces()["minnesota"]
        model = BidStackPriceModel.from_trace(trace, load_weight=0.0,
                                              noise_std=0.0)
        assert model.mean_price(12.0, load=100.0) == pytest.approx(
            model.diurnal.value(12.0))

    def test_price_increases_with_load(self):
        trace = paper_price_traces()["michigan"]
        model = BidStackPriceModel.from_trace(trace, load_weight=0.5,
                                              load_ref=10.0)
        assert model.mean_price(12.0, load=20.0) > model.mean_price(12.0, 0.0)

    def test_sample_day_shape(self):
        trace = paper_price_traces()["michigan"]
        model = BidStackPriceModel.from_trace(trace, noise_std=1.0)
        day = model.sample_day(rng=np.random.default_rng(2))
        assert day.n_hours == 24

    def test_sample_day_load_validation(self):
        trace = paper_price_traces()["michigan"]
        model = BidStackPriceModel.from_trace(trace)
        with pytest.raises(ConfigurationError):
            model.sample_day(loads=np.zeros(10))


class TestLMP:
    def test_decomposition_sums_to_total(self):
        prices = np.array([43.26, 30.26, 19.06])
        comps = decompose_lmp(prices)
        for p, c in zip(prices, comps):
            assert c.total == pytest.approx(p, abs=1e-9)

    def test_congestion_sums_to_zero(self):
        comps = decompose_lmp(np.array([50.0, 30.0, 10.0]))
        assert sum(c.congestion for c in comps) == pytest.approx(0.0, abs=1e-9)

    def test_diversity_measures(self):
        assert spatial_diversity([50.0, 30.0, 10.0]) == 40.0
        assert temporal_diversity([10.0, 90.0, 40.0]) == 80.0

    def test_price_to_cost_rate(self):
        # 1 MW at $36/MWh = $36/h = $0.01/s
        assert price_to_cost_rate(36.0, 1e6) == pytest.approx(0.01)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-50, 150), min_size=1, max_size=6))
    def test_decomposition_always_consistent(self, prices):
        comps = decompose_lmp(np.array(prices))
        for p, c in zip(prices, comps):
            assert c.total == pytest.approx(p, abs=1e-6)


class TestMarket:
    def _market(self, gamma=0.0):
        traces = paper_price_traces()
        return RealTimeMarket({
            name: RegionMarketConfig(trace=traces[name],
                                     demand_sensitivity=gamma,
                                     nominal_power_mw=5.0)
            for name in PAPER_REGIONS
        })

    def test_no_feedback_matches_trace(self):
        m = self._market(gamma=0.0)
        t = 6 * 3600.0
        np.testing.assert_allclose(
            m.prices_at(t),
            [TABLE_III_PRICES[r][6] for r in m.region_names])

    def test_demand_feedback_raises_price(self):
        m = self._market(gamma=0.5)
        t = 6 * 3600.0
        base = m.prices_at(t).copy()
        m.record_demand({"michigan": 10.0})  # 2x nominal
        after = m.prices_at(t)
        idx = m.region_names.index("michigan")
        assert after[idx] == pytest.approx(base[idx] * 1.5)

    def test_demand_below_nominal_lowers_price(self):
        m = self._market(gamma=0.5)
        t = 12 * 3600.0
        base = m.price("minnesota", t)
        m.record_demand({"minnesota": 2.5})  # half nominal
        assert m.price("minnesota", t) == pytest.approx(base * 0.75)

    def test_price_floor(self):
        traces = paper_price_traces()
        m = RealTimeMarket({
            "wisconsin": RegionMarketConfig(
                trace=traces["wisconsin"], demand_sensitivity=5.0,
                nominal_power_mw=1.0, price_floor=-50.0),
        })
        m.record_demand({"wisconsin": 100.0})
        # hour 3 has a negative base price; huge positive demand factor on a
        # negative base drives it far down — floor must bind.
        assert m.price("wisconsin", 3 * 3600.0) >= -50.0

    @pytest.mark.parametrize("field,value", [
        ("demand_sensitivity", -0.1),
        ("demand_sensitivity", float("nan")),
        ("demand_sensitivity", float("inf")),
        ("nominal_power_mw", 0.0),
        ("nominal_power_mw", float("nan")),
        ("nominal_power_mw", float("inf")),
        ("price_floor", float("nan")),
    ])
    def test_config_rejects_invalid_and_non_finite(self, field, value):
        # NaN slips past a plain `< 0` check and poisons every price
        trace = paper_price_traces()["michigan"]
        with pytest.raises(ConfigurationError):
            RegionMarketConfig(trace=trace, **{field: value})

    def test_config_floor_may_be_minus_infinity(self):
        traces = paper_price_traces()
        m = RealTimeMarket({"wisconsin": RegionMarketConfig(
            trace=traces["wisconsin"], demand_sensitivity=5.0,
            nominal_power_mw=1.0, price_floor=float("-inf"))})
        m.record_demand({"wisconsin": 100.0})
        # hour 3's negative base price, scaled up, is not clipped
        assert m.price("wisconsin", 3 * 3600.0) < -50.0

    def test_record_demand_vector_form(self):
        m = self._market(gamma=0.1)
        m.record_demand(np.array([1.0, 2.0, 3.0]))
        assert len(m.demand_history) == 1

    def test_record_demand_validation(self):
        m = self._market()
        with pytest.raises(ConfigurationError):
            m.record_demand({"mars": 1.0})
        with pytest.raises(ConfigurationError):
            m.record_demand(np.ones(2))

    def test_reset(self):
        m = self._market(gamma=0.5)
        t = 6 * 3600.0
        base = m.prices_at(t).copy()
        m.record_demand(np.array([50.0, 50.0, 50.0]))
        m.reset()
        np.testing.assert_allclose(m.prices_at(t), base)
