"""Ablation: advance contracting (day-ahead commitment) value.

The paper's introduction argues volatile demand makes IDCs "unable to
qualify for price rebates by signing up advance-contracts".  Here each
policy commits an hourly day-ahead schedule computed on the *forecast*
price day (the embedded trace) and is settled on a *realized* day (a
bid-stack sample with noise).  A policy whose allocation flips with
every price wiggle misses its own schedule and pays deviation penalties;
the MPC's damped reallocation stays close to it.
"""

import numpy as np

from repro.baselines import OptimalInstantaneousPolicy
from repro.core import CostMPCPolicy, MPCPolicyConfig
from repro.pricing import (
    BidStackPriceModel,
    RealTimeMarket,
    RegionMarketConfig,
    TwoSettlementTerms,
    paper_price_traces,
    settle,
)
from repro.sim import Scenario, paper_cluster, run_simulation

DT = 300.0
DURATION = 12 * 3600.0
START = 6 * 3600.0


def _scenario(realized: bool, seed: int = 3) -> Scenario:
    regions = {}
    rng = np.random.default_rng(seed)
    for name, trace in paper_price_traces().items():
        if realized:
            model = BidStackPriceModel.from_trace(trace, load_weight=0.0,
                                                  noise_std=7.0)
            trace = model.sample_day(rng=rng, region=name)
        regions[name] = RegionMarketConfig(trace=trace)
    return Scenario(cluster=paper_cluster(), market=RealTimeMarket(regions),
                    dt=DT, duration=DURATION, start_time=START)


def _hourly_commitment(powers: np.ndarray) -> np.ndarray:
    """Per-period commitment = that hour's mean power on the forecast day."""
    periods_per_hour = int(3600.0 / DT)
    n = powers.shape[0]
    out = np.empty_like(powers)
    for start in range(0, n, periods_per_hour):
        block = slice(start, min(start + periods_per_hour, n))
        out[block] = powers[block].mean(axis=0)
    return out


def _settle_run(run, commitment, terms):
    settled = 0.0
    deviation_mwh = 0.0
    for j in range(3):
        res = settle(run.powers_watts[:, j], commitment[:, j],
                     run.prices[:, j], DT, terms)
        settled += res.total_usd
        deviation_mwh += res.shortfall_mwh + res.surplus_mwh
    return settled, deviation_mwh


def _study():
    terms = TwoSettlementTerms(dayahead_discount=0.05,
                               shortfall_markup=0.25,
                               surplus_discount=0.5)
    out = {}

    # Commitments are made on the *forecast* day with the spot-chasing
    # policy (the best schedule one can plan).
    sc_f = _scenario(realized=False)
    forecast_run = run_simulation(sc_f,
                                  OptimalInstantaneousPolicy(sc_f.cluster))
    commitment = _hourly_commitment(forecast_run.powers_watts)

    # 1) spot-chasing on the realized day: reacts to every price wiggle.
    sc_r = _scenario(realized=True)
    opt = run_simulation(sc_r, OptimalInstantaneousPolicy(sc_r.cluster))
    settled, dev = _settle_run(opt, commitment, terms)
    out["optimal"] = {"spot_usd": opt.total_cost_usd,
                      "settled_usd": settled, "deviation_mwh": dev}

    # 2) commitment-tracking MPC: the committed schedule *is* the MPC
    #    reference, so the realized profile hugs it.
    sc_c = _scenario(realized=True)
    policy = CostMPCPolicy(sc_c.cluster, MPCPolicyConfig(
        dt=DT, r_weight=0.05, power_schedule_watts=commitment))
    mpc = run_simulation(sc_c, policy)
    settled, dev = _settle_run(mpc, commitment, terms)
    out["mpc+commit"] = {"spot_usd": mpc.total_cost_usd,
                         "settled_usd": settled, "deviation_mwh": dev}
    return out


def test_bench_dayahead_contracting(capsys):
    data = _study()

    # the commitment-tracking MPC misses the schedule by far less energy
    assert data["mpc+commit"]["deviation_mwh"] \
        < 0.5 * data["optimal"]["deviation_mwh"]
    # and its settled bill undercuts the spot-chaser's settled bill
    assert data["mpc+commit"]["settled_usd"] \
        < data["optimal"]["settled_usd"]

    with capsys.disabled():
        print()
        for label, d in data.items():
            print(f"  {label:>11s}: spot {d['spot_usd']:.2f} vs settled "
                  f"{d['settled_usd']:.2f} USD "
                  f"(deviation {d['deviation_mwh']:.2f} MWh)")
