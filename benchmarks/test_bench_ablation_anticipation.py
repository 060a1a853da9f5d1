"""Ablation: anticipatory MPC — what a price forecast buys.

With a perfect forecast of the 7:00 price adjustment, the MPC begins
reallocating *before* the change; reactively it can only smooth after
the fact.  Measured: pre-step movement and post-step settling error.
"""

import numpy as np

from repro.core import CostMPCPolicy, MPCPolicyConfig
from repro.sim import price_step_scenario, run_simulation


class _Oracle:
    """Perfect per-region foresight of the price trace."""

    def __init__(self, scenario):
        self.scenario = scenario

    def observe(self, prices, hour):
        pass

    def predict(self, steps, start_hour, step_hours):
        out = np.empty((steps, self.scenario.cluster.n_idcs))
        for s in range(steps):
            t = (start_hour + s * step_hours) * 3600.0
            out[s] = [self.scenario.market.base_price(r, t)
                      for r in self.scenario.cluster.regions]
        return out


def _study():
    blind_sc = price_step_scenario(dt=30.0, duration=600.0,
                                   lead_seconds=240.0)
    blind = run_simulation(blind_sc,
                           CostMPCPolicy(blind_sc.cluster,
                                         MPCPolicyConfig()))
    seeing_sc = price_step_scenario(dt=30.0, duration=600.0,
                                    lead_seconds=240.0)
    seeing = run_simulation(
        seeing_sc, CostMPCPolicy(seeing_sc.cluster, MPCPolicyConfig()),
        price_forecaster=_Oracle(seeing_sc), prediction_horizon=8)
    final = seeing.powers_watts[-1]
    window = slice(8, 14)  # first 3 minutes after the step
    return {
        "pre_step_movement_mw": float(
            np.abs(seeing.powers_watts[7] - seeing.powers_watts[0]).sum()
        ) / 1e6,
        "blind_pre_step_movement_mw": float(
            np.abs(blind.powers_watts[7] - blind.powers_watts[0]).sum()
        ) / 1e6,
        "blind_settling_error_mwmin": float(
            np.abs(blind.powers_watts[window] - final).sum()) / 1e6 / 2,
        "seeing_settling_error_mwmin": float(
            np.abs(seeing.powers_watts[window] - final).sum()) / 1e6 / 2,
    }


def test_bench_anticipation(capsys):
    data = _study()

    # the blind controller cannot move before the price does...
    assert data["blind_pre_step_movement_mw"] < 0.5
    # ...the forecasting controller does, by megawatts
    assert data["pre_step_movement_mw"] > 2.0
    # and settles markedly closer to the new optimum after the step
    assert data["seeing_settling_error_mwmin"] \
        < 0.7 * data["blind_settling_error_mwmin"]

    with capsys.disabled():
        print()
        print(f"  pre-step movement: blind "
              f"{data['blind_pre_step_movement_mw']:.2f} MW vs "
              f"forecasting {data['pre_step_movement_mw']:.2f} MW")
        print(f"  post-step settling error: blind "
              f"{data['blind_settling_error_mwmin']:.2f} MW·min vs "
              f"forecasting {data['seeing_settling_error_mwmin']:.2f} "
              f"MW·min")
