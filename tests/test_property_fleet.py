"""Hypothesis property: lane faults never leak across the fleet.

The fleet resilience contract is *bitwise non-interference*: a lane
poisoned with any injected solver fault — transient or persistent, a
convergence failure or a deadline blowout, firing on the shared solve
or chasing the lane down its fallback ladder — must never change any
healthy lane's decisions, servers, or billed cost by even one ULP,
relative to an equally armed fault-free baseline.  Hypothesis draws
(fleet size ∈ {4, 16}, poisoned lane, fault kind, fault window) and
checks every healthy lane bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MPCPolicyConfig
from repro.exceptions import ConvergenceError, DeadlineExceededError
from repro.sim import monte_carlo_scenarios, run_batch

_CFG = MPCPolicyConfig(dt=30.0)
_DURATION = 300.0            # 10 control periods at dt = 30 s
_BASELINES: dict[int, tuple] = {}


def _scenarios(S):
    return monte_carlo_scenarios(S, seed=17, duration=_DURATION)


def _baseline(S):
    """Armed fault-free run (hook that never fires), cached per S."""
    if S not in _BASELINES:
        res = run_batch(_scenarios(S), _CFG,
                        solver_fault_hook=lambda *a: None)
        _BASELINES[S] = (
            [r.allocations.copy() for r in res],
            [np.asarray(r.cost_usd).copy() for r in res],
            [r.servers.copy() for r in res],
        )
    return _BASELINES[S]


class _Poison:
    """Deterministically fault one lane inside a period window."""

    def __init__(self, lane, exc, start, length, chase_ladder):
        self.lane = int(lane)
        self.exc = exc
        self.start = int(start)
        self.length = int(length)
        self.chase_ladder = bool(chase_ladder)
        self.fired = 0

    def __call__(self, stage, lane, period):
        if lane != self.lane:
            return
        if not (self.start <= period < self.start + self.length):
            return
        if stage == "batch_qp" or self.chase_ladder:
            self.fired += 1
            raise self.exc(f"injected {self.exc.__name__} "
                           f"lane={lane} period={period} stage={stage}")


@settings(max_examples=14, deadline=None)
@given(
    s_idx=st.integers(0, 1),
    lane_draw=st.integers(0, 15),
    kind=st.sampled_from([ConvergenceError, DeadlineExceededError]),
    start=st.integers(1, 8),
    length=st.integers(1, 3),
    chase_ladder=st.booleans(),
)
def test_poisoned_lane_never_perturbs_healthy_lanes(
        s_idx, lane_draw, kind, start, length, chase_ladder):
    S = (4, 16)[s_idx]
    lane = lane_draw % S
    base_u, base_cost, base_srv = _baseline(S)

    poison = _Poison(lane, kind, start, length, chase_ladder)
    results = run_batch(_scenarios(S), _CFG, solver_fault_hook=poison)
    assert poison.fired > 0    # the draw actually exercised a fault

    for i in range(S):
        if i == lane:
            continue
        np.testing.assert_array_equal(results[i].allocations, base_u[i])
        np.testing.assert_array_equal(np.asarray(results[i].cost_usd),
                                      base_cost[i])
        np.testing.assert_array_equal(results[i].servers, base_srv[i])
        assert results[i].perf.get("health_state", "nominal") == "nominal"

    # the poisoned lane itself must land in a supervised state, not
    # crash the run or go NaN
    assert np.isfinite(results[lane].allocations).all()
    assert np.isfinite(np.asarray(results[lane].cost_usd)).all()
