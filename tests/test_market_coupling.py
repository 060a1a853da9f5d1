"""Vectorized market coupling: batched γ>0 clearing and shared fleets.

Covers the two coupling modes the batch layer gained:

* independent-coupled — γ > 0 lanes ride the batched hot path and stay
  in lockstep with the looped scalar engine (cost agreement ≤ 1e-6,
  demand histories written back);
* shared-market fleet — many controllers on one market, with
  deterministic (bit-identical across runs and across a mid-day
  resume) price trajectories, convergent clearing for mild γ, and
  grid-level herding metrics.

Plus the fleet-level perf surfacing: fallback reasons in
``BatchPerfStats.rollup()`` and clearing iteration counters.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import CostMPCPolicy, MPCPolicyConfig
from repro.exceptions import ConfigurationError, ConvergenceError
from repro.pricing import (
    LaneMarketBatch,
    RealTimeMarket,
    RegionMarketConfig,
    SharedMarket,
    clear_fixed_point,
    clearing_contraction,
    paper_price_traces,
)
from repro.sim import (
    BatchPerfStats,
    SharedMarketFleet,
    monte_carlo_scenarios,
    paper_cluster,
    run_batch,
    run_shared_market_fleet,
    run_simulation,
)
from repro.sim.scenario import PAPER_IDC_SPECS, PAPER_PORTAL_LOADS
from repro.verify import GridMonitor


def _coupled_scenarios(n, seed, gamma=0.4, duration=600.0):
    """Monte-Carlo lanes whose markets all carry demand feedback γ."""
    return monte_carlo_scenarios(n, seed=seed, duration=duration,
                                 demand_sensitivity=gamma)


def _shared_market(gamma, n_lanes):
    traces = paper_price_traces()
    return SharedMarket({
        name: RegionMarketConfig(trace=traces[name],
                                 demand_sensitivity=gamma,
                                 nominal_power_mw=5.0 * n_lanes)
        for name, _fleet, _mu in PAPER_IDC_SPECS})


def _lane_loads(n_lanes, seed=0, noise=0.1):
    rng = np.random.default_rng(seed)
    base = np.asarray(PAPER_PORTAL_LOADS)
    return base * np.clip(
        1.0 + noise * rng.standard_normal((n_lanes, base.size)), 0.5, 1.3)


# ---------------------------------------------------------------------------
# Independent-coupled lanes on the batched hot path
# ---------------------------------------------------------------------------
def test_coupled_lanes_ride_the_batched_path():
    results = run_batch(_coupled_scenarios(3, seed=1), MPCPolicyConfig())
    for r in results:
        assert r.policy_name == "mpc_batch"
        assert r.perf["batch_n_scenarios"] == 3


@pytest.mark.parametrize("n_lanes", [4, 16])
def test_coupled_batch_matches_looped(n_lanes):
    cfg = MPCPolicyConfig(dt=30.0)
    batch = run_batch(_coupled_scenarios(n_lanes, seed=7), cfg,
                      warm_start="exact")
    for i, sc in enumerate(_coupled_scenarios(n_lanes, seed=7)):
        policy = CostMPCPolicy(sc.cluster, replace(cfg, dt=float(sc.dt)))
        looped = run_simulation(sc, policy)
        rel = abs(batch[i].total_cost_usd - looped.total_cost_usd) \
            / abs(looped.total_cost_usd)
        assert rel <= 1e-6, f"lane {i}: relative cost gap {rel}"


def test_coupled_batch_prices_actually_move():
    # γ > 0 must change the price trajectory relative to the pure-trace
    # run (otherwise the clearing silently didn't engage).
    cfg = MPCPolicyConfig(dt=30.0)
    coupled = run_batch(_coupled_scenarios(4, seed=3, gamma=0.8), cfg)
    flat = run_batch(_coupled_scenarios(4, seed=3, gamma=0.0), cfg)
    gap = max(np.max(np.abs(c.prices - f.prices))
              for c, f in zip(coupled, flat))
    assert gap > 1e-6


def test_batch_writes_demand_history_back():
    scens = _coupled_scenarios(3, seed=5)
    run_batch(scens, MPCPolicyConfig(dt=30.0), warm_start="exact")
    loop_scens = _coupled_scenarios(3, seed=5)
    cfg = MPCPolicyConfig(dt=30.0)
    for sc_b, sc_l in zip(scens, loop_scens):
        policy = CostMPCPolicy(sc_l.cluster, replace(cfg, dt=float(sc_l.dt)))
        run_simulation(sc_l, policy)
        hist_b = sc_b.market.demand_history
        hist_l = sc_l.market.demand_history
        assert len(hist_b) == len(hist_l) > 0
        for row_b, row_l in zip(hist_b, hist_l):
            assert row_b.keys() == row_l.keys()
            for region in row_b:
                assert row_b[region] == pytest.approx(row_l[region],
                                                      rel=1e-5)


def test_lane_market_batch_matches_scalar_prices_bitwise():
    # effective_prices must replicate RealTimeMarket.price IEEE-exactly,
    # including the γ = 0 no-floor pass-through.
    traces = paper_price_traces()
    markets = []
    for gamma in (0.0, 0.3, 1.2):
        markets.append(RealTimeMarket({
            name: RegionMarketConfig(trace=traces[name],
                                     demand_sensitivity=gamma,
                                     nominal_power_mw=5.0,
                                     price_floor=20.0)
            for name, _f, _mu in PAPER_IDC_SPECS}))
    regions = [name for name, _f, _mu in PAPER_IDC_SPECS]
    batch = LaneMarketBatch((m, regions) for m in markets)
    rng = np.random.default_rng(0)
    t = 6.5 * 3600.0
    drawn = []
    for _ in range(5):
        watts = rng.uniform(0.0, 12e6, size=(3, 3))
        drawn.append(watts)
        demands = watts / 1e6
        batch.record_demand(demands)
        for m, row in zip(markets, demands):
            m.record_demand(row)
        base = np.array([[m.base_price(r, t) for r in regions]
                         for m in markets])
        vec = batch.effective_prices(base)
        scalar = np.array([m.prices_at(t) for m in markets])
        assert np.array_equal(vec, scalar)
    scalar_history = [m.demand_history for m in markets]
    batch.flush(np.stack(drawn, axis=1))
    for m, before in zip(markets, scalar_history):
        assert len(m.demand_history) == 10  # 5 scalar + 5 flushed
        assert m.demand_history[5:] == before   # the same reports, bitwise


def test_lane_market_batch_rejects_empty_and_ragged():
    traces = paper_price_traces()
    m = RealTimeMarket({
        name: RegionMarketConfig(trace=traces[name])
        for name, _f, _mu in PAPER_IDC_SPECS})
    with pytest.raises(ConfigurationError):
        LaneMarketBatch([])
    regions = [name for name, _f, _mu in PAPER_IDC_SPECS]
    with pytest.raises(ConfigurationError):
        LaneMarketBatch([(m, regions), (m, regions[:2])])


# ---------------------------------------------------------------------------
# Fleet perf rollup: outage lanes, clearing counters
# ---------------------------------------------------------------------------
def test_rollup_counts_the_outage_lane_in_the_group():
    from repro.sim.faults import FleetOutage
    scens = monte_carlo_scenarios(4, seed=11, duration=300.0)
    sc = scens[0]
    scens[0] = replace(sc, faults=[FleetOutage(
        idc_name=sc.cluster.idc_names[0],
        start_seconds=sc.start_time + 30.0,
        end_seconds=sc.start_time + 120.0,
        available_fraction=0.5)])
    perf = BatchPerfStats(len(scens))
    results = run_batch(scens, MPCPolicyConfig(dt=30.0), perf=perf)
    total = perf.rollup()
    assert [r.policy_name for r in results] == ["mpc_batch"] * 4
    # the outage lane re-plans when its fleet shrinks and when it returns
    assert total.counters["availability_resets"] == 2
    assert "batch_scalar_fallback" not in total.counters


def test_rollup_without_fallbacks_has_no_reason_counters():
    perf = BatchPerfStats(3)
    run_batch(monte_carlo_scenarios(3, seed=2, duration=300.0),
              MPCPolicyConfig(dt=30.0), perf=perf)
    total = perf.rollup()
    assert "batch_scalar_fallback" not in total.counters
    assert not any(k.startswith("fallback_reason[")
                   for k in total.counters)


def test_run_batch_rejects_misaligned_perf():
    scens = monte_carlo_scenarios(2, seed=0, duration=300.0)
    with pytest.raises(ConfigurationError):
        run_batch(scens, MPCPolicyConfig(dt=30.0), perf=BatchPerfStats(3))


# ---------------------------------------------------------------------------
# Shared-market fleet
# ---------------------------------------------------------------------------
def test_shared_market_fleet_deterministic_across_runs():
    loads = _lane_loads(12, seed=4)
    kw = dict(policy_mix=("mpc", "lp", "static"), dt=300.0)
    r1 = run_shared_market_fleet(paper_cluster(), _shared_market(0.3, 12),
                                 loads, 16, **kw)
    r2 = run_shared_market_fleet(paper_cluster(), _shared_market(0.3, 12),
                                 loads, 16, **kw)
    assert np.array_equal(r1.prices, r2.prices)
    assert np.array_equal(r1.agg_demand_mw, r2.agg_demand_mw)
    assert np.array_equal(r1.cost_usd, r2.cost_usd)


def test_shared_market_fleet_deterministic_across_resume():
    loads = _lane_loads(9, seed=8)
    kw = dict(policy_mix=("mpc", "lp", "static"), dt=300.0)
    full = SharedMarketFleet(paper_cluster(), _shared_market(0.3, 9),
                             loads, **kw).run(16)
    split = SharedMarketFleet(paper_cluster(), _shared_market(0.3, 9),
                              loads, **kw)
    split.run(8)
    resumed = split.run(8)
    assert np.array_equal(full.prices, resumed.prices)
    assert np.array_equal(full.agg_demand_mw, resumed.agg_demand_mw)
    assert np.array_equal(full.cost_usd, resumed.cost_usd)


def test_fleet_clearing_converges_for_mild_gamma():
    res = run_shared_market_fleet(
        paper_cluster(), _shared_market(0.04, 10), _lane_loads(10),
        12, policy_mix=("mpc", "lp", "static"), dt=300.0)
    assert bool(res.clearing_converged.all())
    # the cold-start period may need a dozen sweeps; warm-started
    # periods settle in a few
    assert res.clearing_iterations[1:].max() <= 10
    counters = res.perf["counters"]
    assert counters["clearing_periods"] == 12
    assert counters["clearing_iterations"] \
        == int(res.clearing_iterations.sum())


def test_fleet_lagged_mode_skips_iteration():
    res = run_shared_market_fleet(
        paper_cluster(), _shared_market(0.3, 6), _lane_loads(6),
        8, policy_mix=("lp",), clearing="lagged", dt=300.0)
    assert np.all(res.clearing_iterations == 0)
    assert "clearing_periods" not in res.perf["counters"]


def test_fleet_coupling_raises_cost_vs_pure_traces():
    # With γ > 0 the fleet's own draw raises the price it pays.
    loads = _lane_loads(8)
    kw = dict(policy_mix=("lp",), dt=300.0)
    coupled = run_shared_market_fleet(
        paper_cluster(), _shared_market(0.5, 8), loads, 12, **kw)
    flat = run_shared_market_fleet(
        paper_cluster(), _shared_market(0.0, 8), loads, 12, **kw)
    assert coupled.total_cost_usd > flat.total_cost_usd
    assert flat.herding_metrics()["price_swing_max"] == pytest.approx(0.0)


def test_fleet_stagger_reduces_aggregate_ramp():
    # The mitigation the example script demonstrates, pinned as a test:
    # staggering the price refresh means only 1/stagger of the fleet
    # re-chases prices each period, so the aggregate demand ramp — the
    # grid-facing herding symptom — drops sharply.  (Price oscillation
    # per period is NOT monotone in stagger: held cohorts flip one
    # period apart, which can spread the same swing over more periods.)
    loads = _lane_loads(12)
    kw = dict(policy_mix=("lp",), dt=300.0)
    herd = run_shared_market_fleet(
        paper_cluster(), _shared_market(0.6, 12), loads, 16,
        stagger=1, **kw)
    staggered = run_shared_market_fleet(
        paper_cluster(), _shared_market(0.6, 12), loads, 16,
        stagger=4, **kw)
    m_herd = herd.herding_metrics()
    m_stag = staggered.herding_metrics()
    assert m_stag["aggregate_ramp_mw_mean"] \
        < 0.5 * m_herd["aggregate_ramp_mw_mean"]
    assert m_stag["aggregate_ramp_mw_max"] \
        < 0.5 * m_herd["aggregate_ramp_mw_max"]


def test_fleet_smoothing_weight_reduces_aggregate_ramp():
    # The paper's own knob: a heavier smoothing weight R in the MPC
    # objective damps per-lane power swings, and therefore the fleet's
    # aggregate ramp, even with every lane refreshing every period.
    loads = _lane_loads(12)
    kw = dict(policy_mix=("mpc",), dt=300.0, stagger=1)
    twitchy = run_shared_market_fleet(
        paper_cluster(), _shared_market(0.6, 12), loads, 16, **kw)
    smoothed = run_shared_market_fleet(
        paper_cluster(), _shared_market(0.6, 12), loads, 16,
        config=MPCPolicyConfig(r_weight=0.3), **kw)
    assert smoothed.herding_metrics()["aggregate_ramp_mw_mean"] \
        < twitchy.herding_metrics()["aggregate_ramp_mw_mean"]


def test_fleet_result_accessors():
    res = run_shared_market_fleet(
        paper_cluster(), _shared_market(0.2, 6), _lane_loads(6),
        8, policy_mix=("mpc", "lp", "static"), dt=300.0)
    assert res.n_periods == 8 and res.n_lanes == 6
    by_policy = res.cost_by_policy()
    assert set(by_policy) == {"mpc", "lp", "static"}
    assert all(v > 0 for v in by_policy.values())
    metrics = res.herding_metrics()
    assert metrics["regional_peak_concentration"] >= 1.0
    assert res.total_cost_usd == pytest.approx(float(res.cost_usd.sum()))


def test_fleet_validates_inputs():
    cluster = paper_cluster()
    market = _shared_market(0.1, 4)
    loads = _lane_loads(4)
    with pytest.raises(ConfigurationError):
        SharedMarketFleet(cluster, market, loads, policy_mix=("bogus",))
    with pytest.raises(ConfigurationError):
        SharedMarketFleet(cluster, market, loads, clearing="psychic")
    with pytest.raises(ConfigurationError):
        SharedMarketFleet(cluster, market, loads, stagger=0)
    with pytest.raises(ConfigurationError):
        SharedMarketFleet(cluster, market, loads[:, :2])


BAD_CLEARING = [{"damping": 0.0}, {"damping": 1.5}, {"tol": -1.0},
                {"tol": 0.0}, {"tol": float("nan")}, {"max_iter": 0}]


@pytest.mark.parametrize("bad", BAD_CLEARING + [{"policy_mix": ()}])
def test_fleet_rejects_bad_clearing_inputs_at_construction(bad):
    # Each of these used to be accepted: an empty mix divided by zero,
    # tol <= 0 and max_iter = 0 reported every period non-converged, and
    # a bad damping surfaced only at the first step().
    with pytest.raises(ConfigurationError):
        SharedMarketFleet(paper_cluster(), _shared_market(0.1, 4),
                          _lane_loads(4), **bad)


@pytest.mark.parametrize("bad", BAD_CLEARING)
def test_clear_fixed_point_rejects_bad_controls(bad):
    with pytest.raises(ConfigurationError):
        clear_fixed_point(lambda d: d, lambda p: p, np.ones(2), **bad)


def test_shared_market_stability_guard():
    market = _shared_market(0.5, 10)
    base = market.base_prices(6 * 3600.0)
    # a violently price-chasing fleet (steep demand slope) trips the bound
    steep = abs(10 * market.nominal.max() / base.max())
    assert market.stability_bound(base, steep) >= 1.0
    with pytest.raises(ConvergenceError):
        market.require_stable(base, steep)
    market.require_stable(base, 0.0)  # inelastic fleet is always stable


def test_grid_monitor_counts_and_metrics():
    # 16 periods × 300 s from 6:00 crosses the 7:00 price step — without
    # it the base prices are constant, clearing repeats identically each
    # period, and there is no ramp for the monitor to see.
    mon = GridMonitor(ramp_limit_mw=1.0, oscillation_limit=0.5)
    fleet = SharedMarketFleet(
        paper_cluster(), _shared_market(0.6, 12), _lane_loads(12),
        policy_mix=("lp",), dt=300.0, grid_monitor=mon)
    res = fleet.run(16)
    counters = mon.counters()
    assert counters["grid_periods"] == 16
    assert counters["grid_violations"] > 0
    metrics = mon.metrics()
    m = res.herding_metrics()
    assert metrics["aggregate_ramp_mw_mean"] \
        == pytest.approx(m["aggregate_ramp_mw_mean"])
    assert metrics["regional_peak_concentration"] \
        == pytest.approx(m["regional_peak_concentration"])


def test_clearing_contraction_and_fixed_point_api():
    assert clearing_contraction(0.5, 40.0, 100.0, 2.0) \
        == pytest.approx(0.5 * 40.0 / 100.0 * 2.0)
    with pytest.raises(ConfigurationError):
        clear_fixed_point(lambda d: d, lambda p: p, np.ones(2), damping=0.0)


def test_herding_metrics_of_zero_period_result():
    # A fleet stopped before its first period has nothing to diff or
    # peak over; the metrics fall back to the empty-diff zeros.
    fleet = SharedMarketFleet(paper_cluster(), _shared_market(0.3, 6),
                              _lane_loads(6), policy_mix=("mpc", "lp"))
    res = fleet.run(0)
    assert res.n_periods == 0
    metrics = res.herding_metrics()
    assert metrics == {
        "aggregate_ramp_mw_mean": 0.0, "aggregate_ramp_mw_max": 0.0,
        "price_oscillation_mean": 0.0, "price_swing_max": 0.0,
        "regional_peak_concentration": 0.0,
        "clearing_iterations_mean": 0.0, "clearing_nonconverged": 0}
