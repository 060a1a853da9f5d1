"""Ablation: battery storage vs MPC workload steering for peak shaving.

Two ways to keep an IDC below its subscribed budget: steer workload away
(the paper's MPC) or buffer the excess in a battery behind the meter.
This bench shaves the optimal policy's Minnesota peak with batteries of
increasing size and compares against the MPC's workload-based shave.
"""

from repro.baselines import OptimalInstantaneousPolicy
from repro.datacenter import Battery, BatteryConfig, shave_with_battery
from repro.sim import PAPER_BUDGETS_WATTS, price_step_scenario, run_simulation


def _study(dt=30.0, duration=600.0):
    sc = price_step_scenario(dt=dt, duration=duration)
    run = run_simulation(sc, OptimalInstantaneousPolicy(sc.cluster))
    j = 1  # minnesota: settles ~1 MW above its 10.26 MW budget
    budget = PAPER_BUDGETS_WATTS[j]
    series = run.powers_watts[:, j]
    rows = []
    for capacity_mwh in (0.05, 0.2, 1.0):
        battery = Battery(BatteryConfig(
            capacity_joules=capacity_mwh * 3.6e9,
            max_charge_watts=3e6, max_discharge_watts=3e6,
            initial_soc=0.9))
        out = shave_with_battery(series, budget, battery, dt)
        rows.append({
            "capacity_mwh": capacity_mwh,
            "grid_peak_mw": out.peak_watts / 1e6,
            "final_soc": float(out.soc[-1]),
            "discharged_mwh": out.discharged_joules / 3.6e9,
        })
    return {"budget_mw": budget / 1e6,
            "unshaved_peak_mw": float(series.max()) / 1e6,
            "rows": rows}


def test_bench_battery_shaving(capsys):
    data = _study()
    rows = data["rows"]

    # the unshaved optimal policy exceeds the budget
    assert data["unshaved_peak_mw"] > data["budget_mw"]
    # bigger batteries shave monotonically more
    peaks = [r["grid_peak_mw"] for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(peaks, peaks[1:]))
    # a 1 MWh bank fully absorbs the 10-minute excursion
    assert peaks[-1] <= data["budget_mw"] * (1 + 1e-9)
    # a tiny bank cannot
    assert peaks[0] > data["budget_mw"]

    with capsys.disabled():
        print()
        print(f"  minnesota budget {data['budget_mw']} MW, unshaved peak "
              f"{data['unshaved_peak_mw']:.3f} MW")
        for r in rows:
            print(f"  battery {r['capacity_mwh']:>5} MWh -> grid peak "
                  f"{r['grid_peak_mw']:.3f} MW  (discharged "
                  f"{r['discharged_mwh']:.3f} MWh, final SoC "
                  f"{r['final_soc']:.2f})")
