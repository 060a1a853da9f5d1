"""Bit-exact digests of the closed-loop paths the golden trace misses.

The golden full-day trace (``test_golden_trace.py``) pins one fault-free
MPC day.  This module pins, bit for bit, the scalar engine under load
prediction, a price forecaster, telemetry faults, actuation faults and
a fleet outage, plus a ``run_batch`` fleet that splits into two
signature groups, one of which carries a telemetry-faulted lane and an
outage lane.  Each run is reduced to
the SHA-256 of its ``cost_usd``, ``servers`` and ``allocations`` arrays;
the expected digests live in ``tests/fixtures/engine_digests.json``.

Any change that moves one of these trajectories by a single bit fails
here.  Regenerate the fixture (``PYTHONPATH=src python
tests/test_engine_digests.py --write``) only when such a change is
intended.
"""

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core import CostMPCPolicy, MPCPolicyConfig
from repro.datacenter import IDCCluster
from repro.pricing import MultiRegionForecaster, paper_price_traces
from repro.sim import (
    ActuationLag,
    CommandDrop,
    FleetOutage,
    PartialApply,
    PriceFeedDropout,
    SensorGap,
    monte_carlo_scenarios,
    paper_scenario,
    price_step_scenario,
    run_batch,
    run_simulation,
)
from repro.workload import PortalSet, PortalWorkload

FIXTURE = Path(__file__).parent / "fixtures" / "engine_digests.json"


def _digests(result) -> dict:
    return {
        name: hashlib.sha256(np.ascontiguousarray(
            getattr(result, name), dtype=float).tobytes()).hexdigest()
        for name in ("cost_usd", "servers", "allocations")
    }


def _mpc(scenario):
    return CostMPCPolicy(scenario.cluster,
                         MPCPolicyConfig(dt=float(scenario.dt)))


def _breathing_scenario():
    """Paper cluster, 30 one-minute periods, one sinusoidal portal."""
    base = paper_scenario(dt=60.0, duration=1800.0, start_hour=10.0)
    t = np.arange(base.n_periods)
    portals = PortalSet(portals=[
        PortalWorkload(name="varying",
                       trace=25000.0 + 10000.0 * np.sin(2 * np.pi * t / 15.0)),
        PortalWorkload(name="steady-1", rate=30000.0),
        PortalWorkload(name="steady-2", rate=25000.0),
    ])
    return replace(base, cluster=IDCCluster(base.cluster.idcs, portals))


def _predict_loads():
    sc = _breathing_scenario()
    return [run_simulation(sc, _mpc(sc), predict_loads=True)]


def _price_forecaster():
    sc = paper_scenario(dt=300.0, duration=7200.0, start_hour=5.0)
    forecaster = MultiRegionForecaster.from_traces(
        [paper_price_traces()[r] for r in sc.cluster.regions])
    return [run_simulation(sc, _mpc(sc), price_forecaster=forecaster)]


def _telemetry_faults():
    sc = price_step_scenario(dt=30.0, duration=900.0)
    t0 = sc.start_time
    sc = replace(sc, faults=[
        PriceFeedDropout("michigan", t0 + 120.0, t0 + 300.0),
        SensorGap(1, t0 + 200.0, t0 + 420.0),
    ])
    return [run_simulation(sc, _mpc(sc))]


def _actuation_faults():
    sc = paper_scenario(dt=300.0, duration=7200.0, start_hour=0.0)
    sc = replace(sc, faults=[
        CommandDrop("minnesota", 0.0, 600.0),
        ActuationLag("michigan", 1800.0, 3000.0, delay_periods=2),
        PartialApply("wisconsin", 3600.0, 4800.0, fraction=0.5),
    ])
    return [run_simulation(sc, _mpc(sc))]


def _fleet_outage():
    sc = price_step_scenario(dt=60.0, duration=1200.0)
    t0 = sc.start_time
    sc = replace(sc, faults=[
        FleetOutage("wisconsin", t0 + 300.0, t0 + 900.0, 0.6)])
    return [run_simulation(sc, _mpc(sc))]


def _batch_two_groups_with_outage():
    fast = monte_carlo_scenarios(3, seed=1, dt=30.0, duration=600.0)
    t0 = fast[1].start_time
    fast[1] = replace(fast[1], faults=[
        PriceFeedDropout("minnesota", t0 + 90.0, t0 + 240.0),
        SensorGap(2, t0 + 150.0, t0 + 330.0),
    ])
    slow = monte_carlo_scenarios(2, seed=2, dt=60.0, duration=600.0)
    lone = monte_carlo_scenarios(1, seed=4, dt=30.0, duration=600.0)[0]
    t0 = lone.start_time
    lone = replace(lone, faults=[
        FleetOutage("michigan", t0 + 120.0, t0 + 360.0, 0.7)])
    return run_batch([*fast, *slow, lone], MPCPolicyConfig(dt=30.0))


RUNS = {
    "predict_loads": _predict_loads,
    "price_forecaster": _price_forecaster,
    "telemetry_faults": _telemetry_faults,
    "actuation_faults": _actuation_faults,
    "fleet_outage": _fleet_outage,
    "batch_two_groups_with_outage": _batch_two_groups_with_outage,
}


def _compute(name: str) -> list[dict]:
    return [_digests(result) for result in RUNS[name]()]


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())["runs"]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_pinned_digests(name, pinned):
    assert _compute(name) == pinned[name]


def test_batch_fixture_covers_both_paths(pinned):
    """The batch run must really mix two groups; the outage lane rides
    the dt = 30 s group."""
    results = _batch_two_groups_with_outage()
    assert [r.policy_name for r in results] == ["mpc_batch"] * 6
    assert [r.perf["batch_n_scenarios"] for r in results] == \
        [4, 4, 4, 2, 2, 4]
    assert results[5].perf["counters"]["availability_resets"] == 2
    assert len(pinned["batch_two_groups_with_outage"]) == 6


if __name__ == "__main__" and "--write" in sys.argv:
    FIXTURE.write_text(json.dumps({
        "description": (
            "SHA-256 of cost_usd, servers and allocations (float64 "
            "bytes) per run; regenerate with PYTHONPATH=src python "
            "tests/test_engine_digests.py --write only when a "
            "trajectory change is intended"),
        "runs": {name: _compute(name) for name in sorted(RUNS)},
    }, indent=2) + "\n")
