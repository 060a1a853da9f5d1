"""The capped waterfill against the budgeted simplex LP (the oracle).

The MPC's reference on every path is :class:`Waterfill`'s closed form of
the Sec. IV-D cost LP, with the Sec. V-C power budgets as workload caps.
:func:`solve_optimal_allocation` solves the same LP, budget rows
included, with the revised simplex.  Over random clusters, prices, loads
and budgets, some with one IDC in total outage, the two must agree on
the per-IDC totals, and both must refuse the same infeasible draws.  The budget-mode rule of the reference
(``"lp"`` falling back to the clamp where the LP is infeasible) is held
to the same simplex oracle.
"""

import numpy as np
import pytest

from repro.core import solve_optimal_allocation
from repro.core.reference_opt import Waterfill
from repro.datacenter import IDCCluster, IDCConfig, LinearPowerModel
from repro.exceptions import InfeasibleProblemError
from repro.sim import paper_cluster
from repro.sim.scenario import PAPER_PORTAL_LOADS
from repro.workload import PortalSet

N_DRAWS = 60
N_OUTAGE_DRAWS = 20


def _draw(rng, outage=False):
    """A random cluster with prices, portal loads and budgets.

    Draws near a feasibility boundary (total load at the budget-capped
    capacity, a budget at an IDC's idle power) are redrawn: there the
    two solvers' feasibility tolerances, not the LP, decide.  With
    ``outage`` one IDC has no available servers and a 1 000 W budget.
    """
    while True:
        n, c = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        configs = []
        for j in range(n):
            mu = rng.uniform(0.5, 5.0)
            idle = rng.uniform(50.0, 200.0)
            configs.append(IDCConfig(
                name=f"idc-{j}", region=f"region-{j}",
                max_servers=int(rng.integers(50, 2000)), service_rate=mu,
                latency_bound=rng.uniform(0.1, 1.0),
                power_model=LinearPowerModel.from_idle_peak(
                    idle, idle * rng.uniform(1.2, 3.0), service_rate=mu)))
        cluster = IDCCluster.from_configs(
            configs, PortalSet.constant(np.ones(c)))
        if outage:
            dead = int(rng.integers(n))
            cluster.idcs[dead].set_availability(0)
        wf = Waterfill(cluster)
        prices = rng.uniform(5.0, 100.0, n)
        full = wf.powers_watts(wf.caps)
        budgets = np.where(rng.random(n) < 0.3, np.inf,
                           full * rng.uniform(0.002, 1.2, n))
        if outage:
            budgets[dead] = 1000.0
        budget_caps = wf.budget_caps(budgets)
        capped = np.minimum(wf.caps, budget_caps).sum()
        loads = rng.dirichlet(np.ones(c)) * wf.caps.sum() \
            * rng.uniform(0.05, 1.1)
        if abs(loads.sum() / capped - 1.0) < 1e-6 \
                or np.any(np.abs(budget_caps) < 1e-6 * wf.caps):
            continue
        return cluster, wf, prices, loads, budgets


def _simplex_totals(cluster, prices, loads, budgets):
    return solve_optimal_allocation(
        cluster, prices, loads,
        budgets_watts=[b if np.isfinite(b) else None for b in budgets]
    ).idc_workloads


def _check_against_simplex(cluster, wf, prices, loads, budgets):
    total = loads.sum()
    for caps in (None, budgets):
        try:
            want = _simplex_totals(cluster, prices, loads,
                                   np.full(prices.size, np.inf)
                                   if caps is None else caps)
        except InfeasibleProblemError:
            with pytest.raises(InfeasibleProblemError):
                wf.workloads(prices, total[None], budgets_watts=caps)
            continue
        lam = wf.workloads(prices, total[None], budgets_watts=caps)[0]
        assert np.max(np.abs(lam - want)) <= 1e-9 * total


@pytest.mark.parametrize("seed", range(N_DRAWS))
def test_capped_waterfill_matches_budgeted_simplex(seed):
    _check_against_simplex(*_draw(np.random.default_rng(seed)))


@pytest.mark.parametrize("seed", range(N_OUTAGE_DRAWS))
def test_capped_waterfill_matches_simplex_under_total_outage(seed):
    # an IDC with no available servers serves nothing, holds no server
    # and draws no power, whatever its budget; the others carry the
    # load, on both solvers
    drawn = _draw(np.random.default_rng(seed), outage=True)
    assert min(idc.available_servers for idc in drawn[0].idcs) == 0
    _check_against_simplex(*drawn)

    # the paper cluster at the 6H prices and Table I loads, Wisconsin out
    cluster = paper_cluster()
    cluster.idcs[2].set_availability(0)
    wf = Waterfill(cluster)
    prices = np.array([43.26, 30.26, 19.06])
    loads = np.asarray(PAPER_PORTAL_LOADS, dtype=float)
    budgets = np.array([np.inf, np.inf, 1000.0])
    want = solve_optimal_allocation(cluster, prices, loads,
                                    budgets_watts=[None, None, 1000.0])
    np.testing.assert_allclose(want.idc_workloads, [59000, 41000, 0],
                               atol=1e-6)
    for caps in (None, budgets):
        lam = wf.workloads(prices, loads.sum()[None], budgets_watts=caps)
        np.testing.assert_array_equal(lam, [[59000, 41000, 0]])
        assert wf.servers(lam)[0, 2] == 0.0
        assert wf.powers_watts(lam)[0, 2] == 0.0
    for mode in ("lp", "clamp"):
        ref = wf.reference_powers_watts(prices, loads.sum()[None],
                                        budgets, mode)
        assert ref[0, 2] == 0.0


def test_draws_cover_feasible_and_infeasible_budgets():
    # the property above means little unless both outcomes occur, for
    # both reasons the budgeted LP can be infeasible
    outcomes = set()
    for seed in range(N_DRAWS):
        _cluster, wf, prices, loads, budgets = _draw(
            np.random.default_rng(seed))
        if np.any(wf.budget_caps(budgets) < 0):
            outcomes.add("budget below idle")
        elif loads.sum() > np.minimum(wf.caps,
                                      wf.budget_caps(budgets)).sum():
            outcomes.add("load above capped capacity")
        else:
            outcomes.add("feasible")
    assert outcomes == {"feasible", "budget below idle",
                        "load above capped capacity"}


def _simplex_reference(cluster, prices, loads, budgets, budget_mode):
    """The reference rule on the simplex: the budgeted LP in ``"lp"``
    mode, the clamped budget-free LP otherwise or where it is
    infeasible."""
    if budget_mode == "lp":
        try:
            return solve_optimal_allocation(
                cluster, prices, loads,
                budgets_watts=[b if np.isfinite(b) else None
                               for b in budgets]).powers_watts_relaxed
        except InfeasibleProblemError:
            pass
    powers = solve_optimal_allocation(cluster, prices,
                                      loads).powers_watts_relaxed
    return np.minimum(powers, budgets)


@pytest.mark.parametrize("budget_mode", ["lp", "clamp"])
def test_reference_powers_match_simplex_rule(budget_mode):
    checked = 0
    for seed in range(N_DRAWS):
        cluster, wf, prices, loads, budgets = _draw(
            np.random.default_rng(seed))
        if loads.sum() > wf.caps.sum():
            with pytest.raises(InfeasibleProblemError):
                wf.reference_powers_watts(prices, loads.sum()[None],
                                          budgets, budget_mode)
            continue
        got = wf.reference_powers_watts(prices, loads.sum()[None], budgets,
                                        budget_mode)[0]
        want = _simplex_reference(cluster, prices, loads, budgets,
                                  budget_mode)
        np.testing.assert_allclose(got, want, rtol=1e-9,
                                   atol=1e-9 * want.max())
        checked += 1
    assert checked > N_DRAWS // 2


def test_lp_mode_falls_back_to_clamp_per_row():
    # one batched call: row 0 fits under the budget caps, row 1 does
    # not and is clamped, row 2 has no binding budget at all
    rng = np.random.default_rng(7)
    cluster, wf, prices, _loads, _budgets = _draw(rng)
    budgets = 0.5 * wf.powers_watts(wf.caps)
    capped = np.minimum(wf.caps, wf.budget_caps(budgets)).sum()
    assert capped < wf.caps.sum()
    totals = np.array([0.5 * capped, 0.5 * (capped + wf.caps.sum()), 0.0])
    lp = wf.reference_powers_watts(prices, totals, budgets, "lp")
    clamp = wf.reference_powers_watts(prices, totals, budgets, "clamp")
    free = wf.powers_watts(wf.workloads(prices, totals))
    np.testing.assert_array_equal(clamp, np.minimum(free, budgets))
    np.testing.assert_array_equal(
        lp[0], wf.powers_watts(wf.workloads(prices, totals[:1],
                                            budgets_watts=budgets))[0])
    np.testing.assert_array_equal(lp[1], clamp[1])
    np.testing.assert_array_equal(lp[2], free[2])
    assert np.all(lp[0] <= budgets * (1 + 1e-12))
