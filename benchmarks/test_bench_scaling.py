"""Scaling benchmarks: linear-algebra kernels and the fleet engine.

Pass/fail checks only; nothing is written to disk.  Timings of record
come from ``benchmarks/e2e``.

**Kernel scaling** sweeps the two size axes of the paper's problem — the
number of IDCs ``N`` and the prediction horizon ``β₁`` — and times the
active-set warm solve (cached incremental KKT factorization, seeded
working set) against the cold solve on the same condensed MPC QP, with
the ``kkt_updates`` / ``kkt_refactorizations`` counters as proof that
the O(n²) incremental path — not a refactorization — did the work.
At the largest configuration the warm solve must beat the cold one by
at least 3×.

**Scenario scaling** sweeps the fleet width ``S`` of a Monte-Carlo
study: ``S`` price/workload-perturbed replicas of the paper's
price-step experiment, run once as ``S`` looped scalar simulations and
once through the batched engine (:func:`repro.sim.run_batch`), with
per-lane total costs cross-checked.  Acceptance: batched beats looped
by ≥ 5× at S = 100, and a 1000-scenario fleet costs no more than 3×
one scalar full-day run.

**Market coupling** repeats the looped-vs-batched race with γ > 0
(every lane owns a demand-coupled market, cleared vectorized through
:class:`repro.pricing.LaneMarketBatch`), then runs the headline
shared-market experiment: a 1000-controller mixed-policy fleet on one
demand-coupled regional market for a full day.  Acceptance:
coupled batched ≥ 5× looped at S = 100 with ≤ 1e-6 relative cost
agreement, and the 1000-lane coupled day within 5× of one scalar
full-day run.

**Fleet durability** times the batched engine and the shared-market
fleet with the write-ahead log and checkpoints armed against the same
runs without them: durable must stay within 2× of plain.
"""

import time
from dataclasses import replace

import numpy as np

from repro.control import DiscreteStateSpace, build_horizon, move_selector
from repro.core import CostMPCPolicy, MPCPolicyConfig
from repro.optim import KKTFactorCache, solve_qp
from repro.pricing import RegionMarketConfig, SharedMarket, paper_price_traces
from repro.sim import (
    SharedMarketFleet,
    monte_carlo_scenarios,
    paper_cluster,
    paper_scenario,
    run_batch,
    run_shared_market_fleet,
    run_simulation,
)
from repro.sim.scenario import PAPER_IDC_SPECS, PAPER_PORTAL_LOADS

CONFIGS = [(n, b1) for n in (3, 10, 30) for b1 in (5, 15, 30)]

SCENARIO_SWEEP = (1, 10, 100)   # looped-vs-batched comparison widths
MC_FLEET = 1000                 # headline batched-only fleet width


def _make_model(n_idcs):
    """Paper-shaped model: N power states plus one total-demand state."""
    n_state = n_idcs + 1
    Phi = np.zeros((n_state, n_state))
    G = np.zeros((n_state, n_idcs))
    G[:n_idcs] = np.eye(n_idcs)
    G[n_idcs] = 1.0
    return DiscreteStateSpace(Phi=Phi, G=G, C=np.eye(n_state),
                              w=np.zeros(n_state))


def _make_qp(n_idcs, horizon_pred):
    """Condensed MPC QP with the full paper constraint menagerie."""
    horizon_ctrl = min(horizon_pred, 10)
    rng = np.random.default_rng(100 * n_idcs + horizon_pred)
    model = _make_model(n_idcs)
    H = build_horizon(model, horizon_pred, horizon_ctrl)
    R = 0.05 * np.eye(horizon_ctrl * n_idcs)
    P = 2.0 * (H.Theta.T @ H.Theta) + 2.0 * R
    P = 0.5 * (P + P.T)
    # per step i: total-load row on u(k+i) = u_prev + T_i ΔU, then the
    # lower and upper bounds on u(k+i) and the |Δu_i| <= 1 rate limits
    eq_rows, in_rows = [], []
    for i in range(horizon_ctrl):
        T = move_selector(n_idcs, horizon_ctrl, i)
        E = np.zeros_like(T)
        E[:, i * n_idcs:(i + 1) * n_idcs] = np.eye(n_idcs)
        eq_rows.append(np.ones((1, n_idcs)) @ T)
        in_rows += [-T, T, E, -E]
    A_eq, A_in = np.vstack(eq_rows), np.vstack(in_rows)
    u_prev = np.full(n_idcs, 5.0)
    # constant total load: per-step increments sum to 0
    b_eq = np.zeros(horizon_ctrl)
    b_in = np.concatenate([
        np.concatenate([u_prev, 8.0 - u_prev,
                        np.ones(n_idcs), np.ones(n_idcs)])
        for _ in range(horizon_ctrl)
    ])
    x_target = rng.normal(scale=0.6, size=horizon_ctrl * n_idcs)
    q = -(P @ x_target)
    return P, q, A_eq, b_eq, A_in, b_in


def _bench_config(n_idcs, horizon_pred):
    P, q, A_eq, b_eq, A_in, b_in = _make_qp(n_idcs, horizon_pred)
    n = q.size

    # --- Active-set: cold build vs cached incremental factorization ---
    cache = KKTFactorCache()
    t0 = time.perf_counter()
    cold = solve_qp(P, q, A_eq, b_eq, A_in, b_in,
                    x0=np.zeros(n), kkt_cache=cache)
    t_cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = solve_qp(P, q, A_eq, b_eq, A_in, b_in, x0=cold.x,
                    working_set0=cold.working_set, kkt_cache=cache)
    t_warm = time.perf_counter() - t0
    assert np.allclose(warm.x, cold.x, atol=1e-7)

    return {
        "n_idcs": n_idcs,
        "horizon_pred": horizon_pred,
        "active_set": {
            "speedup": t_cold / t_warm,
            "cold_meta": cold.meta,
            "warm_meta": warm.meta,
        },
    }


def test_bench_kernel_scaling():
    rows = [_bench_config(n, b1) for n, b1 in CONFIGS]

    for row in rows:
        # A warm solve on the cached factorization must do no
        # factorization work at all: the counters are the proof.
        assert row["active_set"]["warm_meta"]["kkt_refactorizations"] == 0
        assert row["active_set"]["warm_meta"]["kkt_updates"] == 0

    # Headline acceptance: at the largest configuration the warm solve
    # beats the cold one by >= 3x (measured ~26x; the 3x floor absorbs
    # machine noise).
    largest = rows[-1]
    assert (largest["n_idcs"], largest["horizon_pred"]) == (30, 30)
    assert largest["active_set"]["speedup"] >= 3.0, largest["active_set"]
    # ... and the cold solve itself is incremental: one refactorization
    # total, everything else O(n^2) updates.
    cold_meta = largest["active_set"]["cold_meta"]
    assert cold_meta["kkt_refactorizations"] <= 2
    assert cold_meta["kkt_updates"] >= 5


# ---------------------------------------------------------------------------
# Scenario-axis sweep: the batched fleet engine
# ---------------------------------------------------------------------------
def _run_looped(scenarios, cfg):
    out = []
    for sc in scenarios:
        policy = CostMPCPolicy(sc.cluster, replace(cfg, dt=float(sc.dt)))
        out.append(run_simulation(sc, policy))
    return out


def test_bench_scenario_scaling():
    cfg = MPCPolicyConfig(dt=30.0)

    # reference unit of work: one scalar full-day closed-loop run
    day = paper_scenario(dt=30.0, duration=24 * 3600.0)
    t0 = time.perf_counter()
    run_simulation(day, CostMPCPolicy(day.cluster, cfg))
    t_day = time.perf_counter() - t0

    rows = []
    for width in SCENARIO_SWEEP:
        scens_l = monte_carlo_scenarios(width, seed=0)
        t0 = time.perf_counter()
        looped = _run_looped(scens_l, cfg)
        t_loop = time.perf_counter() - t0

        scens_b = monte_carlo_scenarios(width, seed=0)
        t0 = time.perf_counter()
        # "exact" warm start = per-lane scalar LP at period 0, the
        # trajectory-equivalent mode — this sweep asserts agreement, so
        # it must not compare across the LP's degenerate-split freedom
        batched = run_batch(scens_b, cfg, warm_start="exact")
        t_batch = time.perf_counter() - t0

        cost_gap = max(
            abs(b.total_cost_usd - l.total_cost_usd)
            / max(abs(l.total_cost_usd), 1e-12)
            for b, l in zip(batched, looped))
        rows.append({
            "n_scenarios": width,
            "speedup": t_loop / t_batch,
            "max_cost_reldiff": cost_gap,
        })

    scens = monte_carlo_scenarios(MC_FLEET, seed=0)
    t0 = time.perf_counter()
    run_batch(scens, cfg, warm_start="waterfill")
    t_fleet = time.perf_counter() - t0

    # the batched path is a pure perf transformation — per-lane totals
    # must agree with the looped scalar runs at every width
    for row in rows:
        assert row["max_cost_reldiff"] < 1e-3, row
    # headline acceptance: >= 5x over looped at S=100, and a
    # 1000-scenario Monte Carlo within 3x of one scalar full day
    assert rows[-1]["n_scenarios"] == 100
    assert rows[-1]["speedup"] >= 5.0, rows[-1]
    assert t_fleet <= 3.0 * t_day, (t_fleet, t_day)


# ---------------------------------------------------------------------------
# Market-coupling sweep: γ > 0 lanes and the shared-market fleet
# ---------------------------------------------------------------------------
COUPLED_GAMMA = 0.4           # per-lane demand sensitivity for the race
FLEET_GAMMA = 0.05            # shared-market γ (inside the stable regime)
FLEET_LANES = 1000
FLEET_PERIODS = 288           # dt = 300 s → one full day


def _shared_market(gamma: float, n_lanes: int) -> SharedMarket:
    traces = paper_price_traces()
    return SharedMarket({
        name: RegionMarketConfig(
            trace=traces[name], demand_sensitivity=gamma,
            nominal_power_mw=5.0 * n_lanes)
        for name, _fleet, _mu in PAPER_IDC_SPECS})


def _fleet_loads(n_lanes: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.asarray(PAPER_PORTAL_LOADS) * np.clip(
        1.0 + 0.1 * rng.standard_normal((n_lanes, 5)), 0.5, 1.3)


def test_bench_market_coupling():
    cfg = MPCPolicyConfig(dt=30.0)

    # reference unit of work, same as the scenario sweep: one scalar
    # full-day closed-loop run
    day = paper_scenario(dt=30.0, duration=24 * 3600.0)
    t0 = time.perf_counter()
    run_simulation(day, CostMPCPolicy(day.cluster, cfg))
    t_day = time.perf_counter() - t0

    # --- independent-coupled race: every lane γ > 0, batched vs looped ---
    rows = []
    for width in (10, 100):
        scens_l = monte_carlo_scenarios(
            width, seed=0, demand_sensitivity=COUPLED_GAMMA)
        t0 = time.perf_counter()
        looped = _run_looped(scens_l, cfg)
        t_loop = time.perf_counter() - t0

        scens_b = monte_carlo_scenarios(
            width, seed=0, demand_sensitivity=COUPLED_GAMMA)
        t0 = time.perf_counter()
        batched = run_batch(scens_b, cfg, warm_start="exact")
        t_batch = time.perf_counter() - t0

        cost_gap = max(
            abs(b.total_cost_usd - l.total_cost_usd)
            / max(abs(l.total_cost_usd), 1e-12)
            for b, l in zip(batched, looped))
        rows.append({
            "n_scenarios": width,
            "speedup": t_loop / t_batch,
            "max_cost_reldiff": cost_gap,
        })

    # --- headline: 1000-controller shared-market full day ---
    loads = _fleet_loads(FLEET_LANES)
    t0 = time.perf_counter()
    run_shared_market_fleet(
        paper_cluster(), _shared_market(FLEET_GAMMA, FLEET_LANES), loads,
        FLEET_PERIODS, policy_mix=("mpc", "lp", "static"), dt=300.0,
        start_time=0.0)
    t_fleet = time.perf_counter() - t0

    # γ > 0 no longer splinters the batch: the coupled race must match
    # the looped engine tightly and still win big at S = 100
    for row in rows:
        assert row["max_cost_reldiff"] <= 1e-6, row
    assert rows[-1]["n_scenarios"] == 100
    assert rows[-1]["speedup"] >= 5.0, rows[-1]
    # a 1000-controller coupled day within 5x of one scalar full day
    assert t_fleet <= 5.0 * t_day, (t_fleet, t_day)


# ---------------------------------------------------------------------------
# Fleet durability: sharded-WAL + checkpoint overhead on the batched engines
# ---------------------------------------------------------------------------
DURABILITY_BATCH_LANES = 32      # Monte-Carlo run_batch width
DURABILITY_FLEET_LANES = 64      # shared-market fleet width
DURABILITY_FLEET_PERIODS = 48    # dt = 300 s -> a 4-hour market window
DURABILITY_MAX_OVERHEAD = 2.0    # acceptance: durable <= 2x plain


def test_bench_fleet_durability(tmp_path):
    cfg = MPCPolicyConfig(dt=30.0)

    # --- Monte-Carlo batch: plain vs sharded WAL + periodic checkpoint ---
    S = DURABILITY_BATCH_LANES

    def _mc():
        return monte_carlo_scenarios(S, seed=3, duration=3600.0)

    t0 = time.perf_counter()
    plain = run_batch(_mc(), cfg)
    t_plain = time.perf_counter() - t0

    t0 = time.perf_counter()
    durable = run_batch(
        _mc(), cfg, checkpoint_every=12,
        wal_path=str(tmp_path / "batch.wal"), wal_shards=2)
    t_durable = time.perf_counter() - t0

    # durability must be a pure-observer layer: bit-identical decisions
    for p, d in zip(plain, durable):
        np.testing.assert_array_equal(p.allocations, d.allocations)
    batch_overhead = t_durable / t_plain

    # --- shared-market fleet day: plain vs durable run() ---
    loads = _fleet_loads(DURABILITY_FLEET_LANES, seed=11)

    def _fleet() -> SharedMarketFleet:
        return SharedMarketFleet(
            paper_cluster(),
            _shared_market(FLEET_GAMMA, DURABILITY_FLEET_LANES), loads,
            policy_mix=("mpc", "lp", "static"), dt=300.0, start_time=0.0)

    t0 = time.perf_counter()
    res_plain = _fleet().run(DURABILITY_FLEET_PERIODS)
    t_fleet_plain = time.perf_counter() - t0

    t0 = time.perf_counter()
    res_durable = _fleet().run(
        DURABILITY_FLEET_PERIODS, checkpoint_every=12,
        wal_path=str(tmp_path / "fleet.wal"), wal_shards=4)
    t_fleet_durable = time.perf_counter() - t0

    np.testing.assert_array_equal(res_plain.prices, res_durable.prices)
    np.testing.assert_array_equal(res_plain.agg_demand_mw,
                                  res_durable.agg_demand_mw)
    assert res_plain.total_cost_usd == res_durable.total_cost_usd
    fleet_overhead = t_fleet_durable / t_fleet_plain

    # acceptance: the durable control plane costs at most 2x wall clock
    assert batch_overhead <= DURABILITY_MAX_OVERHEAD, batch_overhead
    assert fleet_overhead <= DURABILITY_MAX_OVERHEAD, fleet_overhead
