"""Tests for AR processes and synthetic traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, ModelError
from repro.workload import (
    ARProcess,
    DiurnalTraceConfig,
    epa_like_trace,
    fit_yule_walker,
    is_stationary,
    step_change_trace,
    synth_web_trace,
)


class TestARProcess:
    def test_stationarity_check(self):
        assert is_stationary([0.5])
        assert not is_stationary([1.1])
        assert is_stationary([0.5, 0.3])
        assert not is_stationary([0.9, 0.3])  # sum > 1 with positive coeffs

    def test_zero_noise_decays_to_mean(self):
        ar = ARProcess(coefficients=[0.5], noise_std=0.0, mean=10.0)
        path = ar.sample(50, initial=[5.0])
        assert abs(path[-1] - 10.0) < 1e-6

    def test_yule_walker_recovers_ar1(self):
        rng = np.random.default_rng(0)
        true = ARProcess(coefficients=[0.7], noise_std=1.0)
        series = true.sample(20_000, rng=rng)
        coeffs, var = fit_yule_walker(series, order=1)
        assert coeffs[0] == pytest.approx(0.7, abs=0.03)
        assert var == pytest.approx(1.0, rel=0.1)

    def test_yule_walker_recovers_ar2(self):
        rng = np.random.default_rng(1)
        true = ARProcess(coefficients=[0.5, 0.2], noise_std=1.0)
        series = true.sample(40_000, rng=rng)
        coeffs, _ = fit_yule_walker(series, order=2)
        np.testing.assert_allclose(coeffs, [0.5, 0.2], atol=0.05)

    def test_fit_classmethod(self):
        rng = np.random.default_rng(2)
        series = ARProcess([0.6], noise_std=2.0, mean=100.0).sample(
            10_000, rng=rng) + 0.0
        model = ARProcess.fit(series, order=1)
        assert model.mean == pytest.approx(100.0, abs=2.0)
        assert model.stationary

    def test_time_varying_mean(self):
        ar = ARProcess(coefficients=[0.0], noise_std=0.0)
        path = ar.sample(5, mean_fn=lambda k: float(k))
        np.testing.assert_allclose(path, np.arange(5.0))

    def test_validation(self):
        with pytest.raises(ModelError):
            ARProcess(coefficients=[])
        with pytest.raises(ModelError):
            ARProcess(coefficients=[0.5], noise_std=-1.0)
        with pytest.raises(ModelError):
            fit_yule_walker([1.0, 2.0], order=5)
        ar = ARProcess([0.5, 0.2])
        with pytest.raises(ModelError):
            ar.sample(10, initial=[1.0])

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-0.9, 0.9), st.integers(0, 1000))
    def test_stationary_ar1_bounded(self, a, seed):
        ar = ARProcess([a], noise_std=1.0)
        path = ar.sample(500, rng=np.random.default_rng(seed))
        # stationary variance is 1/(1-a^2); 10 sigma bound is generous
        bound = 10.0 / np.sqrt(1 - a ** 2)
        assert np.all(np.abs(path) < bound)


class TestTraces:
    def test_epa_like_shape(self):
        trace = epa_like_trace()
        assert trace.size == 24 * 12
        assert np.all(trace >= 0)
        # Fig. 3 peak is around 2000 requests/interval
        assert 1500 <= trace.max() <= 3500
        # overnight trough well below the peak
        assert trace.min() < 0.45 * trace.max()

    def test_epa_like_reproducible(self):
        np.testing.assert_allclose(epa_like_trace(), epa_like_trace())

    def test_synth_trace_duration(self):
        cfg = DiurnalTraceConfig(samples_per_hour=4)
        trace = synth_web_trace(cfg, hours=6.0,
                                rng=np.random.default_rng(0))
        assert trace.size == 24

    def test_synth_trace_diurnal_peak_location(self):
        cfg = DiurnalTraceConfig(noise_std=0.0, burst_rate=0.0,
                                 peak_hour=15.0, samples_per_hour=1)
        trace = synth_web_trace(cfg, hours=24.0,
                                rng=np.random.default_rng(0))
        assert int(np.argmax(trace)) == 15

    def test_step_change_trace(self):
        out = step_change_trace([100.0, 200.0], steps_per_level=3)
        np.testing.assert_allclose(out, [100, 100, 100, 200, 200, 200])

    def test_step_change_noise_nonnegative(self):
        out = step_change_trace([1.0], 100, noise_std=10.0,
                                rng=np.random.default_rng(1))
        assert np.all(out >= 0)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            DiurnalTraceConfig(base_rate=0.0)
        with pytest.raises(ConfigurationError):
            DiurnalTraceConfig(burst_decay=1.0)
        with pytest.raises(ConfigurationError):
            step_change_trace([], 3)
