"""Ablation: reaction to a fleet outage (failure injection).

Half of Michigan's fleet goes down for four minutes in the middle of the
window; both the optimal policy and the MPC must reroute around it and
return afterwards.  The bench records the rerouted workload and the QoS
record during the event.
"""

import numpy as np

from repro.baselines import OptimalInstantaneousPolicy
from repro.core import CostMPCPolicy, MPCPolicyConfig
from repro.sim import FleetOutage, paper_scenario, run_simulation


def _study(dt=60.0, duration=600.0):
    out = {}
    for label, make in (("optimal", OptimalInstantaneousPolicy),
                        ("mpc", lambda c: CostMPCPolicy(
                            c, MPCPolicyConfig(dt=60.0)))):
        sc = paper_scenario(dt=dt, duration=duration, start_hour=12.0)
        start = sc.start_time + 180.0
        sc = sc.__class__(**{**sc.__dict__, "faults": [
            FleetOutage("michigan", start, start + 240.0, 0.5)]})
        run = run_simulation(sc, make(sc.cluster))
        out[label] = {
            "michigan_workload": run.workloads[:, 0].copy(),
            "served": run.workloads.sum(axis=1),
            "offered": run.loads.sum(axis=1),
            "qos_ok": bool(np.all(np.isfinite(run.latencies))),
            "servers_michigan": run.servers[:, 0].copy(),
        }
    return out


def test_bench_fault_tolerance(capsys):
    data = _study()
    outage_cap = 0.5 * 30000 * 2.0 - 1000.0  # 29000 req/s

    for label in ("optimal", "mpc"):
        d = data[label]
        # every request served throughout the outage
        np.testing.assert_allclose(d["served"], d["offered"], rtol=1e-6)
        # michigan pinned at (or below) its degraded capacity mid-outage
        assert d["michigan_workload"][5] <= outage_cap * 1.05
        # availability respected by the sleep loop
        assert np.all(d["servers_michigan"][3:6] <= 15000)
        assert d["qos_ok"]
    # after restoration both policies send load back to michigan
    assert data["optimal"]["michigan_workload"][-1] > outage_cap

    with capsys.disabled():
        print()
        for label in ("optimal", "mpc"):
            w = data[label]["michigan_workload"]
            print(f"  {label:>8s} michigan workload (kreq/s): "
                  + " ".join(f"{v / 1e3:.1f}" for v in w))
