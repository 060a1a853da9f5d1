"""Ablation: delay-tolerant workload deferral across a price drop.

A single-region market whose price halves after the first hour; the
deferral wrapper queues the batch share during the expensive hour and
drains it in the cheap one.  Sweeps the batch fraction.
"""

from repro.baselines import OptimalInstantaneousPolicy
from repro.core import DeferralConfig, DeferralPolicy
from repro.datacenter import IDCCluster, IDCConfig, LinearPowerModel
from repro.pricing import PriceTrace, RealTimeMarket, RegionMarketConfig
from repro.sim import Scenario, run_simulation
from repro.workload import PortalSet


def _scenario() -> Scenario:
    config = IDCConfig(
        name="solo", region="solo", max_servers=50000, service_rate=2.0,
        latency_bound=0.001,
        power_model=LinearPowerModel.from_idle_peak(150, 285, 2.0))
    cluster = IDCCluster.from_configs([config],
                                      PortalSet.constant([20000.0]))
    market = RealTimeMarket({"solo": RegionMarketConfig(
        trace=PriceTrace("solo", [50.0, 10.0, 10.0]))})
    return Scenario(cluster=cluster, market=market, dt=60.0,
                    duration=7200.0, start_time=0.0, name="price-drop")


def _study():
    sc = _scenario()
    plain = run_simulation(sc, OptimalInstantaneousPolicy(sc.cluster))
    rows = [{"batch_fraction": 0.0, "cost": plain.total_cost_usd,
             "missed": 0.0}]
    for frac in (0.2, 0.4, 0.6):
        sc_i = _scenario()
        cfg = DeferralConfig(batch_fraction=frac, deadline_seconds=5400.0,
                             price_threshold=20.0, dt=60.0)
        run = run_simulation(sc_i, DeferralPolicy(
            OptimalInstantaneousPolicy(sc_i.cluster), cfg))
        rows.append({
            "batch_fraction": frac,
            "cost": run.total_cost_usd,
            "missed": float(sum(d["deferral_deadline_missed_req_s"]
                                for d in run.diagnostics)),
        })
    return rows


def test_bench_deferral(capsys):
    rows = _study()

    costs = [r["cost"] for r in rows]
    # more delay tolerance -> monotonically cheaper
    assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))
    # a 60% batch share cuts the bill substantially on this market
    assert costs[-1] < 0.8 * costs[0]
    # never at the price of deadline misses
    assert all(r["missed"] == 0.0 for r in rows)

    with capsys.disabled():
        print()
        for r in rows:
            saving = 100 * (1 - r["cost"] / rows[0]["cost"])
            print(f"  batch {int(100 * r['batch_fraction']):>3d}%: "
                  f"cost {r['cost']:.2f} USD ({saving:+.1f}% vs no deferral)")
