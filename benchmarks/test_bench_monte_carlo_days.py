"""Monte-Carlo study: policy comparison over many synthetic price days.

The paper evaluates one trace day; a production claim needs robustness
across days.  This bench samples stochastic price days from bid-stack
models calibrated on the embedded traces, runs the optimal policy and
the MPC on each, and aggregates cost / peak / worst-ramp statistics.

The days are independent; each (day, policy) pair is one plain
:func:`repro.sim.run_simulation` run on its own freshly sampled day.
"""

import numpy as np

from repro.analysis import peak_power, ramp_max
from repro.baselines import OptimalInstantaneousPolicy
from repro.core import CostMPCPolicy, MPCPolicyConfig
from repro.pricing import (
    BidStackPriceModel,
    RealTimeMarket,
    RegionMarketConfig,
    paper_price_traces,
)
from repro.sim import Scenario, paper_cluster, run_simulation

N_DAYS = 5


def _random_day_scenario(seed: int) -> Scenario:
    rng = np.random.default_rng(seed)
    regions = {}
    for name, trace in paper_price_traces().items():
        model = BidStackPriceModel.from_trace(trace, load_weight=0.0,
                                              noise_std=6.0)
        regions[name] = RegionMarketConfig(trace=model.sample_day(
            rng=rng, region=name))
    return Scenario(cluster=paper_cluster(), market=RealTimeMarket(regions),
                    dt=120.0, duration=4 * 3600.0,
                    start_time=5 * 3600.0, name=f"mc-day-{seed}")


def _optimal_factory(cluster):
    return OptimalInstantaneousPolicy(cluster)


def _mpc_factory(cluster):
    return CostMPCPolicy(cluster, MPCPolicyConfig(dt=120.0))


def _run_days(policy_factory):
    results = []
    for seed in range(N_DAYS):
        scenario = _random_day_scenario(seed)
        results.append(run_simulation(scenario,
                                      policy_factory(scenario.cluster)))
    return results


def _study():
    opts = _run_days(_optimal_factory)
    mpcs = _run_days(_mpc_factory)
    rows = []
    for seed, (opt, mpc) in enumerate(zip(opts, mpcs)):
        rows.append({
            "seed": seed,
            "opt_cost": opt.total_cost_usd,
            "mpc_cost": mpc.total_cost_usd,
            "opt_ramp_mw": max(ramp_max(opt.powers_watts[:, j])
                               for j in range(3)) / 1e6,
            "mpc_ramp_mw": max(ramp_max(mpc.powers_watts[:, j])
                               for j in range(3)) / 1e6,
            "opt_peak_mw": max(peak_power(opt.powers_watts[:, j])
                               for j in range(3)) / 1e6,
            "mpc_peak_mw": max(peak_power(mpc.powers_watts[:, j])
                               for j in range(3)) / 1e6,
        })
    return rows


def test_bench_monte_carlo_days(capsys):
    rows = _study()

    premiums = [(r["mpc_cost"] - r["opt_cost"]) / r["opt_cost"]
                for r in rows]
    ramp_ratios = [r["mpc_ramp_mw"] / max(r["opt_ramp_mw"], 1e-9)
                   for r in rows]

    # On every sampled day: the optimal policy is the cost floor...
    assert all(p >= -1e-9 for p in premiums)
    # ...the MPC's premium stays small...
    assert all(p < 0.10 for p in premiums)
    # ...and the MPC's worst power jump is smaller on average.
    assert np.mean(ramp_ratios) < 0.9

    with capsys.disabled():
        print()
        for r in rows:
            print(f"  day {r['seed']}: cost {r['opt_cost']:.0f} -> "
                  f"{r['mpc_cost']:.0f} USD  worst ramp "
                  f"{r['opt_ramp_mw']:.2f} -> {r['mpc_ramp_mw']:.2f} MW  "
                  f"peak {r['opt_peak_mw']:.2f} -> {r['mpc_peak_mw']:.2f} MW")
        print(f"  mean premium {100 * np.mean(premiums):.2f}%  "
              f"mean ramp ratio {np.mean(ramp_ratios):.2f}")
