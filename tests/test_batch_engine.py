"""Batched fleet engine vs looped one-lane runs.

The batched path (:func:`repro.sim.run_batch`) must be a pure
performance transformation: every scenario's trajectory, billing,
invariant verdicts and per-lane counters must match what ``S``
independent one-lane runs produce.  The S=1 case is the strongest form —
:class:`repro.core.CostMPCPolicy` is a one-lane
:class:`repro.core.BatchCostMPCPolicy`, so a lone lane of ``run_batch``
and a ``run_simulation`` run make the same decisions bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import BatchCostMPCPolicy, CostMPCPolicy, MPCPolicyConfig
from repro.core.reference_opt import Waterfill
from repro.datacenter.queueing import simplified_latency_batch
from repro.exceptions import ConfigurationError, ModelError
from repro.optim import solve_qp
from repro.optim.qp_admm import (
    prepare_batch_admm,
    solve_qp_admm_batch,
)
from repro.sim import (
    PAPER_BUDGETS_WATTS,
    FleetOutage,
    batch_signature,
    monte_carlo_scenarios,
    paper_scenario,
    price_step_scenario,
    run_batch,
    run_simulation,
    scenario_incompatibility,
)
from repro.sim.profiling import BatchPerfStats
from repro.verify import InvariantMonitor
from repro.verify.fuzz import build_scenario, generate_batch_specs
from repro.workload import ARWorkloadPredictor, BatchARWorkloadPredictor


def _looped(scenarios, cfg, **kwargs):
    out = []
    for sc in scenarios:
        policy = CostMPCPolicy(sc.cluster, replace(cfg, dt=float(sc.dt)))
        out.append(run_simulation(sc, policy, **kwargs))
    return out


# ---------------------------------------------------------------------------
# S = 1: a lone lane is the one-lane policy, bit for bit
# ---------------------------------------------------------------------------
def _schedule_config():
    # a day-ahead style power commitment drifting between two operating
    # points; rows past the run repeat the last one
    schedule = np.linspace([8.0e6, 2.0e6, 5.0e6], [6.0e6, 4.0e6, 4.0e6], 12)
    return MPCPolicyConfig(dt=30.0, power_schedule_watts=schedule)


@pytest.mark.parametrize("cfg", [
    MPCPolicyConfig(dt=30.0),
    MPCPolicyConfig(dt=30.0, fallback_ladder=True,       # paper_day's flags
                    budgets_watts=PAPER_BUDGETS_WATTS),
    MPCPolicyConfig(dt=30.0, budgets_watts=PAPER_BUDGETS_WATTS,
                    hard_budget_constraints=True),
    _schedule_config(),
], ids=["default", "paper_day", "hard", "schedule"])
def test_lone_lane_matches_one_lane_policy(cfg):
    sc_batch = price_step_scenario(dt=30.0, duration=600.0,
                                   with_budgets=True)
    sc_scalar = price_step_scenario(dt=30.0, duration=600.0,
                                    with_budgets=True)

    b = run_batch([sc_batch], cfg)[0]
    scalar = run_simulation(
        sc_scalar, CostMPCPolicy(sc_scalar.cluster, cfg))

    assert b.policy_name == "mpc_batch"
    assert "batch_fallback_reason" not in b.perf
    np.testing.assert_array_equal(b.servers, scalar.servers)
    np.testing.assert_array_equal(b.allocations, scalar.allocations)
    np.testing.assert_allclose(b.cost_usd, scalar.cost_usd, rtol=1e-12)
    assert b.total_cost_usd == pytest.approx(scalar.total_cost_usd,
                                             rel=1e-12)


def test_singleton_batch_replays_golden_day_fixture():
    """The golden full-day trace, replayed through the batch entry point."""
    import json
    from pathlib import Path

    fixture = (Path(__file__).parent / "fixtures"
               / "golden_paper_day.json")
    golden = json.loads(fixture.read_text())
    scenario = paper_scenario(dt=golden["dt"], duration=golden["duration"])
    result = run_batch([scenario], MPCPolicyConfig(dt=golden["dt"]))[0]

    assert result.total_cost_usd == pytest.approx(
        golden["total_cost_usd"], rel=1e-6)
    fresh = np.array([result.servers[i] for i in golden["sample_periods"]])
    np.testing.assert_array_equal(fresh, np.array(golden["servers"]))


# ---------------------------------------------------------------------------
# S > 1: batched lockstep vs looped scalar runs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n_scenarios", [4, 16])
def test_batch_matches_looped(n_scenarios):
    _assert_batch_matches_looped(MPCPolicyConfig(dt=30.0), n_scenarios)


@pytest.mark.parametrize("budget_mode", ["lp", "clamp"])
def test_batch_matches_looped_with_budgets(budget_mode):
    # the Sec. V-C budgets cap the reference waterfill in every lane;
    # replica 2's load exceeds the budget-capped capacity, so its "lp"
    # reference falls back to the clamp
    cfg = MPCPolicyConfig(dt=30.0, budgets_watts=PAPER_BUDGETS_WATTS,
                          budget_mode=budget_mode)
    wf = Waterfill(paper_scenario().cluster)
    capped = np.minimum(wf.caps, wf.budget_caps(PAPER_BUDGETS_WATTS)).sum()
    totals = [sum(p.rate for p in sc.cluster.portals.portals)
              for sc in monte_carlo_scenarios(4, seed=3, duration=600.0)]
    assert totals[2] > capped > max(totals[:2] + totals[3:])
    _assert_batch_matches_looped(cfg, 4)


@pytest.mark.parametrize("budget_mode, flags", [
    ("lp", {}), ("clamp", {}),
    ("lp", {"fallback_ladder": True}),          # paper_day's flags
    ("lp", {"hard_budget_constraints": True}),
], ids=["lp", "clamp", "ladder", "hard"])
def test_shaving_figures_run_batched(budget_mode, flags):
    # the Figs. 6-7 peak-shaving setup (Sec. V-C budgets) rides the
    # batched path and bills what the scalar engine bills, with the
    # fallback ladder armed or the budgets as hard rows too
    cfg = MPCPolicyConfig(dt=30.0, budgets_watts=PAPER_BUDGETS_WATTS,
                          budget_mode=budget_mode, **flags)
    scens = [price_step_scenario(dt=30.0, duration=600.0, with_budgets=True)
             for _ in range(2)]
    batch = run_batch(scens, cfg)
    sc = price_step_scenario(dt=30.0, duration=600.0, with_budgets=True)
    scalar = run_simulation(sc, CostMPCPolicy(sc.cluster, cfg))
    for b in batch:
        assert b.policy_name == "mpc_batch"
        assert "batch_fallback_reason" not in b.perf
        assert b.total_cost_usd == pytest.approx(scalar.total_cost_usd,
                                                 rel=1e-9)
        np.testing.assert_allclose(b.cost_usd, scalar.cost_usd, rtol=1e-9)


def _assert_batch_matches_looped(cfg, n_scenarios):
    scens_b = monte_carlo_scenarios(n_scenarios, seed=3, duration=600.0)
    scens_l = monte_carlo_scenarios(n_scenarios, seed=3, duration=600.0)

    batch = run_batch(scens_b, cfg, warm_start="exact")
    looped = _looped(scens_l, cfg)

    for b, l in zip(batch, looped):
        assert b.policy_name == "mpc_batch"
        assert "batch_fallback_reason" not in b.perf
        np.testing.assert_array_equal(b.times, l.times)
        np.testing.assert_array_equal(b.prices, l.prices)
        np.testing.assert_array_equal(b.loads, l.loads)
        # trajectories agree to solver tolerance; the integer server
        # command may flip ±1 where the QP lands a hair from a ceiling
        assert b.total_cost_usd == pytest.approx(
            l.total_cost_usd, rel=1e-4)
        np.testing.assert_allclose(b.paper_cost, l.paper_cost, rtol=1e-4)
        np.testing.assert_allclose(b.energy_mwh, l.energy_mwh, rtol=1e-4)
        np.testing.assert_allclose(b.allocations, l.allocations,
                                   rtol=1e-3, atol=1.0)
        assert np.mean(b.servers != l.servers) < 0.05
        same = b.servers == l.servers
        np.testing.assert_allclose(b.latencies[same], l.latencies[same],
                                   rtol=1e-3)
        # per-period diagnostics (built on first read) carry the scalar
        # policy's keys
        assert [list(d) for d in b.diagnostics] == \
            [list(d) for d in l.diagnostics]


def test_batch_matches_looped_with_monitors():
    """Invariant verdicts must be identical under both execution paths."""
    cfg = MPCPolicyConfig(dt=30.0)
    n = 4
    scens_b = monte_carlo_scenarios(n, seed=11, duration=600.0)
    scens_l = monte_carlo_scenarios(n, seed=11, duration=600.0)
    mons_b = [InvariantMonitor() for _ in range(n)]
    mons_l = [InvariantMonitor() for _ in range(n)]

    batch = run_batch(scens_b, cfg, monitors=mons_b, warm_start="exact")
    looped = []
    for sc, mon in zip(scens_l, mons_l):
        policy = CostMPCPolicy(sc.cluster, replace(cfg, dt=float(sc.dt)))
        looped.append(run_simulation(sc, policy, monitor=mon))

    for b, l, mb, ml in zip(batch, looped, mons_b, mons_l):
        assert mb.counters()["invariant_checks"] \
            == ml.counters()["invariant_checks"]
        assert mb.counters()["invariant_violations"] \
            == ml.counters()["invariant_violations"] == 0
        assert b.perf["counters"]["invariant_checks"] \
            == mb.counters()["invariant_checks"]


def test_batch_matches_looped_under_telemetry_faults():
    """Telemetry-faulted lanes gap-fill per lane, identically to scalar."""
    specs = generate_batch_specs(29, 6, telemetry_faults=True)
    assert any("telemetry" in s for s in specs)
    built_b = [build_scenario(s) for s in specs]
    built_l = [build_scenario(s) for s in specs]
    cfg = built_b[0][1]

    batch = run_batch([s for s, _ in built_b], cfg, warm_start="exact")
    looped = _looped([s for s, _ in built_l], cfg)

    for spec, b, l in zip(specs, batch, looped):
        assert b.total_cost_usd == pytest.approx(
            l.total_cost_usd, rel=1e-4)
        faulted = "telemetry" in spec
        b_fills = (b.perf["counters"].get("telemetry_hold_fills", 0)
                   + b.perf["counters"].get("telemetry_predictor_fills", 0))
        l_fills = (l.perf["counters"].get("telemetry_hold_fills", 0)
                   + l.perf["counters"].get("telemetry_predictor_fills", 0))
        assert b_fills == l_fills
        if not faulted:
            # counter isolation: a clean lane must not inherit its
            # neighbours' telemetry events
            assert b_fills == 0


def test_batch_with_load_prediction_matches_looped():
    cfg = MPCPolicyConfig(dt=30.0)
    scens_b = monte_carlo_scenarios(4, seed=5, duration=600.0)
    scens_l = monte_carlo_scenarios(4, seed=5, duration=600.0)
    batch = run_batch(scens_b, cfg, predict_loads=True, warm_start="exact")
    looped = _looped(scens_l, cfg, predict_loads=True)
    for b, l in zip(batch, looped):
        assert b.total_cost_usd == pytest.approx(l.total_cost_usd, rel=1e-4)


# ---------------------------------------------------------------------------
# Routing: what batches, what falls back
# ---------------------------------------------------------------------------
def test_outage_scenarios_fall_back_to_scalar():
    scens = monte_carlo_scenarios(3, seed=1, duration=600.0)
    sc = scens[0]
    scens[0] = replace(sc, faults=[FleetOutage(
        idc_name=sc.cluster.idc_names[0],
        start_seconds=sc.start_time + 60.0,
        end_seconds=sc.start_time + 240.0,
        available_fraction=0.5)])
    assert "outage" in scenario_incompatibility(scens[0])
    results = run_batch(scens, MPCPolicyConfig(dt=30.0))
    assert results[0].perf["counters"].get("batch_scalar_fallback") == 1
    assert "outage" in results[0].perf["batch_fallback_reason"]
    for r in results[1:]:
        assert "batch_fallback_reason" not in r.perf
        assert r.policy_name == "mpc_batch"


def test_demand_coupled_market_batches():
    # γ > 0 lanes ride the hot path since the LaneMarketBatch clearing
    # landed; only plant-mutating faults still force the scalar engine.
    sc = paper_scenario(dt=30.0, duration=300.0, demand_sensitivity=0.5)
    assert scenario_incompatibility(sc) is None


def test_every_config_runs_batched():
    # certification, QP capture and power schedules ride the batched
    # path: no lane falls off it, and every lane certifies its own QPs
    scens = monte_carlo_scenarios(3, seed=2, duration=300.0)
    schedule = np.full((10, 3), 5.0e6)
    for cfg in (MPCPolicyConfig(dt=30.0, certify=True, capture_problems=4),
                MPCPolicyConfig(dt=30.0, certify=True,
                                backend="active_set"),
                MPCPolicyConfig(dt=30.0, power_schedule_watts=schedule)):
        perf = BatchPerfStats(len(scens))
        results = run_batch(scens, cfg, perf=perf)
        assert "batch_scalar_fallback" not in perf.rollup().counters
        for r in results:
            assert r.policy_name == "mpc_batch"
            assert "batch_fallback_reason" not in r.perf
            counters = r.perf["counters"]
            if cfg.certify:
                assert counters["certificates_checked"] == r.n_periods
                assert counters.get("certificate_failures", 0) == 0
    policy = BatchCostMPCPolicy(scens[0].cluster, MPCPolicyConfig(
        dt=30.0, capture_problems=4), n_scenarios=2)
    for k in range(6):
        policy.decide_batch(k, np.tile(scens[0].prices_at(0.0), (2, 1)),
                            np.tile(scens[0].cluster.portals.loads_at(k),
                                    (2, 1)))
    labels = [problem.label for problem, _x in policy.captured]
    assert labels == [f"mpc-step-{k}" for k in range(4)]


def test_batch_signature_separates_structures():
    a, b = monte_carlo_scenarios(2, seed=4, duration=600.0)
    assert batch_signature(a) == batch_signature(b)
    c = replace(a, dt=60.0)
    assert batch_signature(c) != batch_signature(a)


def test_run_batch_rejects_empty_and_misaligned_monitors():
    with pytest.raises(ConfigurationError):
        run_batch([])
    scens = monte_carlo_scenarios(2, seed=0, duration=300.0)
    with pytest.raises(ConfigurationError):
        run_batch(scens, monitors=[None])


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------
def test_batch_perf_stats_isolates_lanes():
    perf = BatchPerfStats(3)
    perf.shared.count("admm_iterations", 42)
    perf.lane(1).count("telemetry_hold_fills", 5)
    perf.fold_lane_counters(2, {"invariant_violations": 1})

    snap0 = perf.lane_snapshot(0)
    snap1 = perf.lane_snapshot(1)
    snap2 = perf.lane_snapshot(2)
    assert "telemetry_hold_fills" not in snap0["counters"]
    assert snap1["counters"]["telemetry_hold_fills"] == 5
    assert "invariant_violations" not in snap1["counters"]
    assert snap2["counters"]["invariant_violations"] == 1
    for snap in (snap0, snap1, snap2):
        assert snap["counters"]["batch_admm_iterations"] == 42
        assert snap["batch_n_scenarios"] == 3
    assert perf.rollup().counters["telemetry_hold_fills"] == 5


def test_batched_reference_matches_per_lane_scalar_reference():
    # one batched waterfill call over every (lane, step) row against a
    # per-lane waterfill of that lane's horizon, bit for bit, with the
    # observed and with forecast prices; the 1.2x loads exceed the
    # budget-capped capacity (the "lp" clamp fallback)
    sc = paper_scenario(dt=30.0, duration=600.0)
    wf = Waterfill(sc.cluster)
    rng = np.random.default_rng(8)
    S = 12
    prices = sc.prices_at(sc.start_time) * rng.uniform(0.5, 1.5, (S, 3))
    forecast = prices[:, None] * rng.uniform(0.5, 1.5, (S, 4, 3))
    rates = np.array([p.rate for p in sc.cluster.portals.portals])
    for budgets, budget_mode in ((None, "lp"), (PAPER_BUDGETS_WATTS, "lp"),
                                 (PAPER_BUDGETS_WATTS, "clamp")):
        cfg = MPCPolicyConfig(dt=30.0, budgets_watts=budgets,
                              budget_mode=budget_mode)
        batch = BatchCostMPCPolicy(sc.cluster, cfg, n_scenarios=S)
        steps = np.arange(cfg.horizon_pred)
        capped = np.inf if budgets is None else budgets
        loads_seq = rates * rng.choice([0.9, 1.0, 1.2],
                                       size=(S, cfg.horizon_ctrl, 1))
        for uniform, predicted in ((False, None), (True, None),
                                   (False, forecast)):
            if uniform:
                loads_seq = np.repeat(loads_seq[:, :1], cfg.horizon_ctrl,
                                      axis=1)
            out = batch._reference_powers_mw(prices, loads_seq, 0,
                                             predicted, uniform)
            assert out.shape == (S, cfg.horizon_pred, 3)
            for s in range(S):
                totals = loads_seq[s, np.minimum(
                    steps, cfg.horizon_ctrl - 1)].sum(axis=1)
                rows = prices[s] if predicted is None else \
                    predicted[s, np.minimum(steps, 3)]
                want = wf.reference_powers_watts(
                    rows, totals, np.broadcast_to(capped, (3,)).astype(
                        float), budget_mode) / 1e6
                np.testing.assert_array_equal(out[s], want)


def test_simplified_latency_batch_matches_scalar_and_flags_overload():
    rates = np.array([2.0, 1.25])
    lam = np.array([[10.0, 5.0], [0.0, 100.0]])
    servers = np.array([[10, 8], [5, 4]])
    out = simplified_latency_batch(lam, servers, rates)
    assert out[0, 0] == pytest.approx(1.0 / (10 * 2.0 - 10.0))
    assert out[1, 0] == pytest.approx(1.0 / (5 * 2.0))
    assert np.isinf(out[1, 1])  # λ=100 ≥ mμ=5
    assert np.isinf(simplified_latency_batch([1.0], [0], [2.0])[0])
    with pytest.raises(ModelError):
        simplified_latency_batch([-1.0], [3], [2.0])


def test_batch_ar_predictor_tracks_scalar_lockstep():
    rng = np.random.default_rng(17)
    series = 100.0 + np.cumsum(rng.standard_normal((40, 3)), axis=0)
    scalars = [ARWorkloadPredictor(order=3) for _ in range(3)]
    batch = BatchARWorkloadPredictor(3, order=3)
    for row in series:
        for p, v in zip(scalars, row):
            p.observe(float(v))
        batch.observe(row)
        expect = np.column_stack([p.predict(4) for p in scalars])
        got = batch.predict(4).T  # (B, steps) -> (steps, B)
        # vectorized RLS reorders a few flops vs the scalar loop
        np.testing.assert_allclose(got, expect, rtol=1e-6, atol=1e-4)


def test_solve_qp_admm_batch_matches_scalar():
    rng = np.random.default_rng(23)
    n, m, S = 6, 9, 5
    M = rng.standard_normal((n, n))
    P = M @ M.T + np.eye(n)
    A = np.vstack([rng.standard_normal((3, n)), np.eye(n)])
    Q = rng.standard_normal((S, n))
    L = np.hstack([np.full((S, 3), -2.0), np.zeros((S, n))])
    U = np.hstack([np.full((S, 3), 2.0), np.full((S, n), 5.0)])

    setup = prepare_batch_admm(P, A)
    res = solve_qp_admm_batch(P, Q, A, L, U, setup=setup)
    assert res.X.shape == (S, n)
    for s in range(S):
        # the active-set polish makes the batched lanes exact, so the
        # reference is the exact active-set solver, with each two-sided
        # row split into two one-sided ones
        ref = solve_qp(P, Q[s], A_ineq=np.vstack([A, -A]),
                       b_ineq=np.concatenate([U[s], -L[s]]))
        assert ref.success
        np.testing.assert_allclose(res.X[s], ref.x, rtol=1e-8, atol=1e-8)
