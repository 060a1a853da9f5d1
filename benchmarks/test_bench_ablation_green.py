"""Ablation: green geographic load balancing (renewable following).

Gives each IDC an on-site solar plant and compares the brown-energy bill
of the price-only optimal policy against the renewable-aware policy as
solar capacity grows.
"""

import numpy as np

from repro.baselines import OptimalInstantaneousPolicy
from repro.core import GreenOptimalPolicy
from repro.pricing import SolarProfile
from repro.sim import paper_scenario, run_simulation


def _brown_cost(run, renewables_per_period=None) -> float:
    """Price-weighted brown energy of a run (USD)."""
    powers = run.powers_watts
    if renewables_per_period is None:
        brown = powers
    else:
        brown = np.maximum(powers - renewables_per_period, 0.0)
    return float(np.sum(run.prices * brown * run.dt / 3.6e9))


def _study():
    rows = []
    for capacity_mw in (0.0, 2.0, 6.0):
        sc = paper_scenario(dt=300.0, duration=4 * 3600.0, start_hour=9.0)
        n = sc.n_periods
        traces = [
            SolarProfile(capacity_watts=max(capacity_mw, 1e-3) * 1e6,
                         cloud_volatility=0.0).sample(
                9.0, n, 300.0, rng=np.random.default_rng(j), site=name)
            for j, name in enumerate(sc.cluster.idc_names)
        ]
        renewables = np.column_stack([t.powers_watts for t in traces])

        opt = run_simulation(sc, OptimalInstantaneousPolicy(sc.cluster))
        sc2 = paper_scenario(dt=300.0, duration=4 * 3600.0, start_hour=9.0)
        green = run_simulation(sc2, GreenOptimalPolicy(sc2.cluster, traces))

        rows.append({
            "capacity_mw": capacity_mw,
            "optimal_brown_usd": _brown_cost(opt, renewables),
            "green_brown_usd": _brown_cost(green, renewables),
        })
    return rows


def test_bench_green_balancing(capsys):
    rows = _study()

    # with no renewables the two policies coincide
    r0 = rows[0]
    assert r0["green_brown_usd"] <= r0["optimal_brown_usd"] * 1.01
    # the renewable-aware policy never pays more brown energy...
    for r in rows:
        assert r["green_brown_usd"] <= r["optimal_brown_usd"] * 1.01
    # ...and with large solar it pays clearly less (it moves load to sun)
    r_big = rows[-1]
    assert r_big["green_brown_usd"] < 0.97 * r_big["optimal_brown_usd"]

    with capsys.disabled():
        print()
        for r in rows:
            save = 100 * (1 - r["green_brown_usd"]
                          / max(r["optimal_brown_usd"], 1e-9))
            print(f"  solar {r['capacity_mw']:>3} MW/site: brown bill "
                  f"{r['optimal_brown_usd']:.2f} (price-only) vs "
                  f"{r['green_brown_usd']:.2f} USD (green)  "
                  f"[{save:+.1f}%]")
