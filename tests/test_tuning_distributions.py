"""Tests for the R-weight autotuner."""

import pytest

from repro.analysis import ramp_max
from repro.control import tune_r_weight
from repro.exceptions import ConfigurationError, ConvergenceError


class TestTuneRWeight:
    def test_synthetic_monotone_response(self):
        """On a known monotone ramp(r) curve the tuner brackets the
        smallest feasible weight."""

        def evaluate(r):
            return 10.0 / (1.0 + 50.0 * r)  # smooth, decreasing in r

        result = tune_r_weight(evaluate, target_ramp=2.0,
                               r_low=1e-4, r_high=10.0)
        assert result.met_target
        # analytic crossing: 10/(1+50r) = 2  =>  r = 0.08
        assert result.r_weight == pytest.approx(0.08, rel=0.20)
        assert result.evaluations <= 20
        assert len(result.history) == result.evaluations

    def test_returns_low_bracket_if_already_feasible(self):
        result = tune_r_weight(lambda r: 0.1, target_ramp=1.0)
        assert result.r_weight == pytest.approx(1e-5)
        assert result.evaluations == 1

    def test_raises_when_target_unreachable(self):
        with pytest.raises(ConvergenceError):
            tune_r_weight(lambda r: 100.0, target_ramp=1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            tune_r_weight(lambda r: 1.0, target_ramp=0.0)
        with pytest.raises(ConfigurationError):
            tune_r_weight(lambda r: 1.0, target_ramp=1.0,
                          r_low=1.0, r_high=0.5)

    def test_closed_loop_tuning(self):
        """Tune the real controller to a 1.5 MW ramp target."""
        from repro.core import CostMPCPolicy, MPCPolicyConfig
        from repro.sim import price_step_scenario, run_simulation

        def evaluate(r):
            sc = price_step_scenario(dt=30.0, duration=600.0)
            run = run_simulation(sc, CostMPCPolicy(
                sc.cluster, MPCPolicyConfig(r_weight=r)))
            return max(ramp_max(run.powers_watts[:, j])
                       for j in range(3)) / 1e6

        result = tune_r_weight(evaluate, target_ramp=1.5,
                               r_low=1e-3, r_high=1.0,
                               max_evaluations=8, tolerance=0.5)
        assert result.met_target
        assert result.achieved_ramp <= 1.5 * (1 + 1e-6)
