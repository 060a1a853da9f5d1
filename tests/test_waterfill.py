"""The λ-only waterfill: bit-exact against the per-lane reference loop.

The fleet's clearing bids, the batched MPC's reference powers and the LP
chasers all read per-IDC totals from :class:`Waterfill`.  These tests
hold it to the loop it replaced (kept here as the reference), to the
scalar simplex LP, and hold the fleet's memoized clearing bids to an
unmemoized run.
"""

import numpy as np
import pytest

from repro.core import solve_optimal_allocation, solve_optimal_allocation_batch
from repro.core.reference_opt import Waterfill
from repro.exceptions import InfeasibleProblemError
from repro.pricing import RegionMarketConfig, SharedMarket, paper_price_traces
from repro.sim import SharedMarketFleet, paper_cluster
from repro.sim.scenario import PAPER_IDC_SPECS, PAPER_PORTAL_LOADS


def _reference_loop(cluster, prices, loads):
    """Per-lane-order waterfill exactly as the batch solver used to run
    it: ``(λ, relaxed powers)``."""
    wf = Waterfill(cluster)
    S, n = prices.shape
    order = np.argsort(prices * (wf.b1 + wf.b0 / wf.mu), axis=1,
                       kind="stable")
    lam = np.zeros((S, n))
    remaining = loads.sum(axis=1)
    rows = np.arange(S)
    for r in range(n):
        j = order[:, r]
        take = np.minimum(remaining, wf.caps[j])
        lam[rows, j] = take
        remaining = remaining - take
    m_cont = (lam + wf.inv_d) / wf.mu
    return lam, wf.b1 * lam + wf.b0 * m_cont


def _cases(rng, S=200):
    cluster = paper_cluster()
    wf = Waterfill(cluster)
    prices = rng.uniform(5.0, 90.0, size=(S, 3))
    # equal effective costs exercise the stable tie order
    prices[:20] = rng.integers(1, 4, size=(20, 1)) * 40.0 / wf.rate
    prices[20:30, 1] = prices[20:30, 0] * wf.rate[0] / wf.rate[1]
    loads = np.asarray(PAPER_PORTAL_LOADS) * rng.uniform(
        0.3, 1.3, size=(S, 5))
    return cluster, wf, prices, loads


def test_waterfill_matches_reference_loop_bitwise():
    cluster, wf, prices, loads = _cases(np.random.default_rng(0))
    want_lam, want_p = _reference_loop(cluster, prices, loads)
    lam = wf.workloads(prices, loads.sum(axis=1))
    assert np.array_equal(lam, want_lam)
    assert np.array_equal(wf.powers_watts(lam), want_p)
    alloc = solve_optimal_allocation_batch(cluster, prices, loads)
    assert np.array_equal(alloc.idc_workloads, want_lam)
    assert np.array_equal(alloc.powers_watts_relaxed, want_p)


def test_shared_price_row_matches_broadcast_rows_bitwise():
    cluster, wf, prices, loads = _cases(np.random.default_rng(1))
    totals = loads.sum(axis=1)
    for row in prices[::7]:
        shared = wf.workloads(row, totals)
        stacked = wf.workloads(np.broadcast_to(row, prices.shape), totals)
        assert np.array_equal(shared, stacked)


def test_waterfill_matches_simplex_lp():
    # untied rows only: at an exact tie any split is optimal
    cluster, wf, prices, loads = _cases(np.random.default_rng(2), S=42)
    lam = wf.workloads(prices, loads.sum(axis=1))
    for s in range(30, len(prices)):
        lp = solve_optimal_allocation(cluster, prices[s], loads[s])
        np.testing.assert_allclose(lam[s], lp.idc_workloads,
                                   rtol=1e-9, atol=1e-6)
        np.testing.assert_allclose(wf.powers_watts(lam[s]),
                                   lp.powers_watts_relaxed, rtol=1e-9)


def test_waterfill_rejects_overload():
    wf = Waterfill(paper_cluster())
    with pytest.raises(InfeasibleProblemError):
        wf.workloads(np.array([30.0, 20.0, 10.0]),
                     np.array([1.0, wf.caps.sum() + 10.0]))


def _fleet(n_lanes, gamma, stagger):
    traces = paper_price_traces()
    market = SharedMarket({
        name: RegionMarketConfig(trace=traces[name],
                                 demand_sensitivity=gamma,
                                 nominal_power_mw=5.0 * n_lanes)
        for name, _f, _mu in PAPER_IDC_SPECS})
    rng = np.random.default_rng(3)
    loads = np.asarray(PAPER_PORTAL_LOADS) * np.clip(
        1.0 + 0.1 * rng.standard_normal((n_lanes, 5)), 0.5, 1.3)
    return SharedMarketFleet(paper_cluster(), market, loads,
                             policy_mix=("mpc", "lp", "static"),
                             dt=300.0, start_time=0.0, stagger=stagger)


class _NoMemo(dict):
    def __setitem__(self, key, value):
        pass


@pytest.mark.parametrize("gamma, stagger", [(0.05, 1), (0.3, 3)])
def test_fleet_bid_memo_is_bit_exact(gamma, stagger):
    memo = _fleet(30, gamma, stagger)
    plain = _fleet(30, gamma, stagger)
    plain._bids = _NoMemo()
    a, b = memo.run(36), plain.run(36)
    assert len(memo._bids) > 0 and len(plain._bids) == 0
    for field in ("prices", "agg_demand_mw", "cost_usd",
                  "clearing_iterations"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def test_fleet_bids_match_batch_solver_bitwise():
    fleet = _fleet(30, 0.05, 1)
    lanes = np.arange(0, 30, 2)
    for p in np.random.default_rng(4).uniform(10.0, 80.0, size=(10, 3)):
        want = solve_optimal_allocation_batch(
            fleet.cluster, np.broadcast_to(p, (lanes.size, 3)),
            fleet.loads[lanes]).powers_watts_relaxed * 1e-6
        assert np.array_equal(fleet._bid_mw(p, lanes), want)
        assert np.array_equal(fleet._live_bid_mw(p, lanes, 0),
                              want.sum(axis=0))
