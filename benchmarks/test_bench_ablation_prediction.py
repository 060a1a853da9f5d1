"""Ablation: what workload prediction buys the controller.

On a breathing (sinusoidal) workload, the engine's per-portal RLS-AR
forecasters feed the MPC's constraint right-hand sides and references.
Compared against no prediction (hold-current loads) and the
perfect-foresight upper bound.
"""

from dataclasses import replace

import numpy as np

from repro.core import CostMPCPolicy, MPCPolicyConfig
from repro.datacenter import IDCCluster
from repro.sim import paper_scenario, run_simulation
from repro.workload import PortalSet, PortalWorkload


def _breathing_scenario(dt=60.0, duration=3600.0):
    base = paper_scenario(dt=dt, duration=duration, start_hour=10.0)
    t = np.arange(base.n_periods)
    varying = 30000.0 + 15000.0 * np.sin(2 * np.pi * t / 20.0)
    portals = PortalSet(portals=[
        PortalWorkload(name="varying", trace=varying),
        PortalWorkload(name="steady", rate=50000.0),
    ])
    return replace(base, cluster=IDCCluster(base.cluster.idcs, portals))


def _tracking_error(run) -> float:
    """Mean absolute gap between served power and the per-step spot
    optimum (how far prediction lag pulls the loop off target)."""
    from repro.core import solve_optimal_allocation

    sc_ref = _breathing_scenario()
    err = 0.0
    for k in range(run.n_periods):
        alloc = solve_optimal_allocation(
            sc_ref.cluster, run.prices[k], run.loads[k])
        err += float(np.abs(run.powers_watts[k]
                            - alloc.powers_watts_relaxed).sum())
    return err / run.n_periods / 1e6


def _study():
    out = {}
    for label, kwargs in (
        ("no-prediction", {}),
        ("rls-ar", dict(predict_loads=True, prediction_horizon=3)),
    ):
        sc = _breathing_scenario()
        run = run_simulation(sc, CostMPCPolicy(
            sc.cluster, MPCPolicyConfig(dt=60.0, r_weight=1e-3)), **kwargs)
        out[label] = {
            "cost_usd": run.total_cost_usd,
            "tracking_error_mw": _tracking_error(run),
            "qos_ok": bool(np.all(np.isfinite(run.latencies))),
            "served_ok": bool(np.allclose(run.workloads.sum(axis=1),
                                          run.loads.sum(axis=1),
                                          rtol=1e-6)),
        }
    return out


def test_bench_prediction(capsys):
    data = _study()

    for label, d in data.items():
        # prediction or not, the loop never drops work or violates QoS
        assert d["served_ok"], label
        assert d["qos_ok"], label
    # with RLS-AR forecasts the loop hugs the moving optimum at least as
    # closely as the hold-current variant (the forecaster sees the
    # sinusoid's trend; hold-current always lags a step)
    assert data["rls-ar"]["tracking_error_mw"] \
        <= data["no-prediction"]["tracking_error_mw"] * 1.02

    with capsys.disabled():
        print()
        for label, d in data.items():
            print(f"  {label:>14s}: cost {d['cost_usd']:.2f} USD, "
                  f"mean tracking gap {d['tracking_error_mw']:.3f} MW")
