"""Several policies on one scenario: each run starts from the same plant.

``simulate_policies`` runs its policies one after another on a single
scenario object.  Every run must start from the scenario's initial
plant — market history cleared, every server available, the initial
server counts on — so each policy's result equals a run on its own
fresh copy of the scenario, bit for bit.  A run whose actuation faults
leave the plant in an unusual final state is the sharpest check.
"""

import numpy as np
import pytest

from repro.exceptions import ModelError

from repro.baselines import GreedyPricePolicy, OptimalInstantaneousPolicy, \
    UniformPolicy
from repro.core import CostMPCPolicy, MPCPolicyConfig
from repro.sim import (
    CommandDrop,
    batch_signature,
    paper_scenario,
    run_simulation,
    simulate_policies,
)


def _command_drop_scenario():
    sc = paper_scenario(dt=300.0, duration=7200.0, start_hour=0.0)
    sc.faults = [CommandDrop("minnesota", 0.0, 600.0)]
    return sc


_POLICIES = {
    "mpc": lambda cluster: CostMPCPolicy(cluster, MPCPolicyConfig(dt=300.0)),
    "optimal": OptimalInstantaneousPolicy,
    "greedy": GreedyPricePolicy,
    "uniform": UniformPolicy,
}


def _assert_same_run(a, b):
    assert a.policy_name == b.policy_name
    np.testing.assert_array_equal(a.allocations, b.allocations)
    np.testing.assert_array_equal(a.servers, b.servers)
    np.testing.assert_array_equal(a.powers_watts, b.powers_watts)
    np.testing.assert_array_equal(a.cost_usd, b.cost_usd)
    assert a.total_cost_usd == b.total_cost_usd


class TestSimulatePoliciesParallel:
    def test_parallel_equals_sequential(self):
        """Sequential runs on one scenario equal runs on fresh copies."""
        sc = _command_drop_scenario()
        signature = batch_signature(sc)
        seq = simulate_policies(sc, [make(sc.cluster)
                                     for make in _POLICIES.values()])
        assert list(seq.runs) == list(_POLICIES)
        for make in _POLICIES.values():
            fresh = _command_drop_scenario()
            alone = run_simulation(fresh, make(fresh.cluster))
            _assert_same_run(seq[alone.policy_name], alone)
        # a second run of the first policy still starts from the
        # initial plant, not from the last run's final server counts
        again = run_simulation(sc, _POLICIES["mpc"](sc.cluster))
        _assert_same_run(again, seq["mpc"])
        np.testing.assert_array_equal(again.servers[0],
                                      [30000, 40000, 20000])
        assert batch_signature(sc) == signature

    def test_duplicate_names_rejected_before_fan_out(self):
        sc = paper_scenario(dt=60.0, duration=300.0)
        with pytest.raises(ModelError):
            simulate_policies(sc, [
                UniformPolicy(sc.cluster),
                UniformPolicy(sc.cluster),
            ])
