"""Fleet-scale batched simulation: ``S`` scenarios as stacked tensors.

:func:`run_batch` advances a fleet of *independent* closed-loop
scenarios through one process, stepping every scenario once per control
period on ``(S, …)`` tensors instead of looping the scalar engine ``S``
times.  The heavy per-period work — RLS/AR prediction, the reference
optimum, the MPC QP — is shared structurally across the batch (one
horizon build, one KKT factorization, vectorized ADMM iterates; see
:class:`repro.core.BatchCostMPCPolicy`), so a 1000-scenario Monte Carlo
costs roughly as much wall-clock as a handful of scalar runs.

Not every scenario can ride the hot path.  Lanes are partitioned:

* **Batchable lanes** share a structural signature
  (:func:`batch_signature`: IDC coefficients, fleet sizes, portal
  count, ``dt``, period count) and carry at most *telemetry* faults
  (price-feed dropouts / sensor gaps — these only change what the
  controller sees, per lane).  Demand-coupled markets (γ > 0) batch
  too: each lane's market clears vectorized against that lane's own
  demand history through :class:`repro.pricing.LaneMarketBatch`, so a
  group mixing γ = 0 and γ > 0 lanes no longer splinters.  Groups of
  at least ``min_batch`` such lanes step together.
* **Everything else** — plant-mutating faults (outages, actuation),
  configs rejected by :func:`repro.core.batch_incompatibility`, or a
  group of one — runs through the scalar
  :func:`repro.sim.engine.run_simulation` unchanged.  A single-lane
  "batch" in particular is defined to be the scalar engine: there is
  nothing to vectorize, and the scalar path is the reference semantics
  (bit-exact against the golden traces).

Either way the caller gets one :class:`~repro.sim.results.
SimulationResult` per scenario, in input order, with per-lane
counters isolated through :class:`~repro.sim.profiling.BatchPerfStats`.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..datacenter.queueing import simplified_latency_batch
from ..exceptions import ConfigurationError
from ..resilience.durability import RunJournal, array_digest
from .engine import run_simulation
from .faults import split_faults, telemetry_visibility
from .profiling import BatchPerfStats
from .results import SimulationResult
from .scenario import Scenario

__all__ = ["run_batch", "batch_signature", "scenario_incompatibility"]

_JOULES_PER_MWH = 3.6e9

#: Per-lane decision digests are logged only up to this batch width —
#: beyond it each WAL record would carry S×64 hex chars per period and
#: the whole-batch digest already proves bit-exactness.
_LANE_DIGEST_MAX = 64


def scenario_incompatibility(scenario: Scenario) -> str | None:
    """Why ``scenario`` cannot ride the batched hot path (None = it can).

    Config-level compatibility is :func:`repro.core.
    batch_incompatibility`'s job; this checks the *scenario*: faults
    that mutate the plant (changing per-lane constraint geometry).
    Demand-coupled markets (γ > 0) are batch-compatible — each lane's
    feedback clears vectorized through
    :class:`repro.pricing.LaneMarketBatch`.
    """
    if scenario.faults:
        groups = split_faults(scenario.faults)
        if groups.outages:
            return "fleet outages (per-lane constraint geometry)"
        if groups.actuation_faults:
            return "actuation faults (per-lane plant channel)"
    return None


def batch_signature(scenario: Scenario) -> tuple:
    """Structural identity lanes must share to batch together.

    Everything the shared horizon operators, Hessian, constraint stacks
    and lockstep period loop depend on: plant coefficients and fleet
    sizes per IDC, portal count, the control period and the number of
    periods.  Prices, portal loads and the trace start offset may vary
    freely per lane — they enter only as per-lane vectors.
    """
    cl = scenario.cluster
    idcs = tuple(
        (idc.config.service_rate, idc.config.latency_bound,
         idc.config.power_model.b1, idc.config.power_model.b0,
         idc.config.max_servers, idc.available_servers, idc.servers_on)
        for idc in cl.idcs)
    return (cl.n_idcs, cl.n_portals, idcs, float(scenario.dt),
            int(scenario.n_periods))


def run_batch(scenarios, config=None, *,
              predict_loads: bool = False,
              predictor_order: int = 3,
              prediction_horizon: int = 3,
              monitors=None,
              warm_start: str = "exact",
              min_batch: int = 2,
              perf: BatchPerfStats | None = None,
              deadline_seconds: float | None = None,
              quarantine_after: int = 3,
              solver_fault_hook=None,
              checkpoint_every: int | None = None,
              wal_path: str | None = None,
              wal_fsync_every: int = 1,
              wal_shards: int = 1,
              resume_from: str | None = None,
              resume_strict: bool = True) -> list[SimulationResult]:
    """Run many scenarios under the cost MPC, batched where possible.

    Parameters
    ----------
    scenarios:
        The scenario fleet.  Lanes sharing a :func:`batch_signature`
        (and passing the compatibility checks) step together as stacked
        tensors; the rest run through the scalar engine.
    config:
        Shared :class:`repro.core.MPCPolicyConfig` (default-constructed
        when omitted).  Its ``dt`` is overridden per lane/group by the
        scenario's ``dt``.  A config rejected by
        :func:`repro.core.batch_incompatibility` routes *every* lane
        through the scalar engine.
    predict_loads, predictor_order, prediction_horizon:
        As in :func:`repro.sim.engine.run_simulation`; batched groups
        use the stacked :class:`repro.workload.BatchARWorkloadPredictor`
        (one AR channel per (lane, portal)).
    monitors:
        Optional per-scenario invariant monitors (aligned with
        ``scenarios``; entries may be ``None``).  Each monitor sees its
        own lane's decisions and measurements exactly as under the
        scalar engine, and its counters land in that lane's
        ``result.perf`` only.
    warm_start:
        Period-0 warm start of batched groups — ``"exact"`` (per-lane
        scalar reference LP; trajectory-equivalent to looped runs) or
        ``"waterfill"`` (vectorized, for Monte-Carlo widths).  See
        :class:`repro.core.BatchCostMPCPolicy`.
    min_batch:
        Smallest group that steps batched (default 2 — a group of one
        has nothing to vectorize and runs scalar).
    perf:
        Optional fleet-level :class:`~repro.sim.profiling.
        BatchPerfStats` sized to the whole fleet.  When given, every
        lane's final counters are folded into its lane slot and each
        scalar fallback is recorded by reason, so ``perf.rollup()``
        reports how many lanes fell off the batched path and why —
        without digging through ``len(scenarios)`` result dicts.

    deadline_seconds, quarantine_after, solver_fault_hook:
        Lane fault isolation, forwarded to
        :class:`repro.core.BatchCostMPCPolicy`: an optional per-period
        fleet deadline budget, the consecutive-failure threshold for
        the permanent scalar-quarantine demotion, and an optional
        fault-injection hook ``hook(stage, lane, period)``.  Scalar-
        fallback lanes are unaffected (their scenarios never see the
        hook).
    checkpoint_every, wal_path, wal_fsync_every, wal_shards,
    resume_from, resume_strict:
        The durable fleet control plane, mirroring
        :func:`repro.sim.engine.run_simulation`'s scalar contract: one
        decision record per period in a write-ahead log (striped
        across ``wal_shards`` files — :class:`repro.resilience.
        WriteAheadLog`), a fleet checkpoint every ``checkpoint_every``
        periods beside it, and digest-verified resume via
        ``resume_from`` (periods after the checkpoint are re-executed
        and must reproduce the logged digests bit-exact;
        ``resume_strict=False`` downgrades a mismatch to the
        ``wal_tail_mismatches`` counter).  Durable runs require the
        batchable lanes to form exactly **one** group — scalar-fallback
        lanes are allowed and simply re-run deterministically on
        resume, outside the WAL's scope.

    Returns
    -------
    list of SimulationResult
        One per scenario, in input order.  Scalar-fallback lanes carry
        ``perf["counters"]["batch_scalar_fallback"] = 1`` and the
        routing reason under ``perf["batch_fallback_reason"]``.
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise ConfigurationError("run_batch needs at least one scenario")
    if monitors is not None and len(monitors) != len(scenarios):
        raise ConfigurationError(
            f"got {len(monitors)} monitors for {len(scenarios)} scenarios")
    if perf is not None and perf.n_lanes != len(scenarios):
        raise ConfigurationError(
            f"fleet perf has {perf.n_lanes} lanes for "
            f"{len(scenarios)} scenarios")

    from ..core import CostMPCPolicy, MPCPolicyConfig, batch_incompatibility
    base_cfg = config if config is not None else MPCPolicyConfig()
    cfg_reason = batch_incompatibility(base_cfg)

    results: list[SimulationResult | None] = [None] * len(scenarios)
    groups: dict[tuple, list[int]] = {}
    scalar_lanes: list[tuple[int, str]] = []
    for i, sc in enumerate(scenarios):
        reason = cfg_reason or scenario_incompatibility(sc)
        if reason is not None:
            scalar_lanes.append((i, reason))
        else:
            groups.setdefault(batch_signature(sc), []).append(i)
    for sig in list(groups):
        if len(groups[sig]) < min_batch:
            for i in groups.pop(sig):
                scalar_lanes.append(
                    (i, f"batch group smaller than {min_batch}"))

    journal = RunJournal(wal_path, resume_from=resume_from,
                         checkpoint_every=checkpoint_every,
                         fsync_every=wal_fsync_every, n_shards=wal_shards,
                         strict=resume_strict)
    if journal.durable and len(groups) != 1:
        raise ConfigurationError(
            f"durable fleet runs need exactly one batched group, got "
            f"{len(groups)} (scalar-fallback lanes are fine — they re-run "
            "deterministically on resume)")

    for i, reason in scalar_lanes:
        sc = scenarios[i]
        policy = CostMPCPolicy(sc.cluster, replace(base_cfg, dt=float(sc.dt)))
        res = run_simulation(
            sc, policy, predict_loads=predict_loads,
            predictor_order=predictor_order,
            prediction_horizon=prediction_horizon,
            monitor=None if monitors is None else monitors[i])
        res.perf.setdefault("counters", {})["batch_scalar_fallback"] = 1
        res.perf["batch_fallback_reason"] = reason
        results[i] = res
        if perf is not None:
            perf.note_fallback(reason)

    for lanes in groups.values():
        group = _run_batch_group(
            [scenarios[i] for i in lanes], base_cfg,
            predict_loads=predict_loads, predictor_order=predictor_order,
            prediction_horizon=prediction_horizon,
            monitors=(None if monitors is None
                      else [monitors[i] for i in lanes]),
            warm_start=warm_start,
            deadline_seconds=deadline_seconds,
            quarantine_after=quarantine_after,
            solver_fault_hook=solver_fault_hook,
            journal=journal)
        for i, res in zip(lanes, group):
            results[i] = res
    if perf is not None:
        for i, res in enumerate(results):
            # batch_* counters replicate group-level totals into every
            # lane's snapshot; folding them per lane would multiply them
            # by the group width in the fleet rollup.
            perf.fold_lane_counters(i, {
                k: v for k, v in res.perf.get("counters", {}).items()
                if not k.startswith("batch_")})
    return results


def _run_batch_group(scens: list[Scenario], base_cfg, *,
                     predict_loads: bool, predictor_order: int,
                     prediction_horizon: int, monitors,
                     warm_start: str,
                     deadline_seconds: float | None = None,
                     quarantine_after: int = 3,
                     solver_fault_hook=None,
                     journal: RunJournal
                     ) -> list[SimulationResult]:
    """Advance one signature-sharing group in lockstep."""
    from ..core import BatchCostMPCPolicy

    S = len(scens)
    rep = scens[0]
    T = rep.n_periods
    dt = float(rep.dt)
    cluster = rep.cluster
    n, c = cluster.n_idcs, cluster.n_portals
    cfg = replace(base_cfg, dt=dt)

    for sc in scens:
        sc.market.reset()
        for idc in sc.cluster.idcs:
            idc.restore_availability()

    perf = BatchPerfStats(S)
    policy = BatchCostMPCPolicy(cluster, cfg, n_scenarios=S, perf=perf,
                                warm_start=warm_start,
                                deadline_seconds=deadline_seconds,
                                quarantine_after=quarantine_after)
    policy.reset()
    policy.solver_fault_hook = solver_fault_hook

    b1 = np.array([idc.config.power_model.b1 for idc in cluster.idcs])
    b0 = np.array([idc.config.power_model.b0 for idc in cluster.idcs])
    mu = np.array([idc.config.service_rate for idc in cluster.idcs])

    # Each lane's *base* price trajectory is a trace-table lookup —
    # vectorize it over periods up front instead of S·N·T Python calls
    # in the loop.  Demand feedback (γ > 0 lanes), when present, is a
    # per-period (S, N) clearing step on top of these base rows.
    start_times = np.array([float(sc.start_time) for sc in scens])
    period_times = np.arange(T) * dt
    prices_traj = np.empty((T, S, n))
    for s, sc in enumerate(scens):
        hours = np.floor((sc.start_time + period_times) / 3600.0).astype(int)
        for j, region in enumerate(sc.cluster.regions):
            trace = sc.market.regions[region].trace
            prices_traj[:, s, j] = trace.hourly[hours % trace.n_hours]

    from ..pricing import LaneMarketBatch
    lane_markets = LaneMarketBatch(
        (sc.market, sc.cluster.regions) for sc in scens)
    coupled = lane_markets.any_coupled

    loads_traj = np.empty((T, S, c))
    for s, sc in enumerate(scens):
        portals = sc.cluster.portals.portals
        if all(p.trace is None and p.rate_fn is None for p in portals):
            loads_traj[:, s, :] = [p.rate for p in portals]
        else:
            for k in range(T):
                loads_traj[k, s] = sc.cluster.portals.loads_at(k)

    guards: dict[int, object] = {}
    for s, sc in enumerate(scens):
        if sc.faults:
            fam = split_faults(sc.faults)
            if fam.price_faults or fam.sensor_faults:
                from ..resilience import TelemetryGuard
                guards[s] = TelemetryGuard(n, c)

    predictor = None
    if predict_loads:
        from ..workload.predictor import BatchARWorkloadPredictor
        predictor = BatchARWorkloadPredictor(S * c, order=predictor_order)

    if monitors is not None:
        for s, mon in enumerate(monitors):
            if mon is not None:
                mon.begin_run(scens[s])

    powers_rec = np.empty((S, T, n))
    servers_rec = np.empty((S, T, n))
    lam_rec = np.empty((S, T, n))
    lat_rec = np.empty((S, T, n))
    prices_rec = np.empty((S, T, n))
    loads_rec = np.empty((S, T, c))
    alloc_rec = np.empty((S, T, n * c))
    diags: list[list[dict]] = [[] for _ in range(S)]
    energy_j = np.zeros((S, n))
    cost_usd = np.zeros((S, n))
    paper_cost = np.zeros((S, n))

    # -- durable fleet control plane: resume, then (re)open the WAL ----
    fingerprint = {
        "kind": "batch", "policy": policy.name, "n_lanes": S,
        "dt": dt, "n_periods": int(T), "n_idcs": n, "n_portals": c,
        "scenarios": [sc.name for sc in scens],
        # arming flips the shared QP into its lane-isolated mode, which
        # is a *different bit-exact trajectory* — a resume must arm the
        # same way or every replayed digest diverges.  Record it so the
        # mismatch fails fast with a fingerprint error instead.
        "isolated": bool(solver_fault_hook is not None
                         or deadline_seconds is not None),
    }
    checkpoint = journal.recover(fingerprint)
    if checkpoint is not None:
        start_k = checkpoint.period
        state = checkpoint.state
        policy.restore(state["policy"])
        lane_markets.restore(state["lane_markets"])
        for s, guard in guards.items():
            guard.restore(state["guards"][s])
        if predictor is not None and state.get("predictor") is not None:
            predictor.restore(state["predictor"])
        if monitors is not None and state.get("monitors"):
            for s, mon in enumerate(monitors):
                snap = state["monitors"][s]
                if mon is not None and snap is not None \
                        and hasattr(mon, "restore"):
                    mon.restore(snap)
        rec = state["records"]
        powers_rec[:, :start_k] = rec["powers"]
        servers_rec[:, :start_k] = rec["servers"]
        lam_rec[:, :start_k] = rec["workloads"]
        lat_rec[:, :start_k] = rec["latencies"]
        prices_rec[:, :start_k] = rec["prices"]
        loads_rec[:, :start_k] = rec["loads"]
        alloc_rec[:, :start_k] = rec["allocations"]
        energy_j[:] = rec["energy_j"]
        cost_usd[:] = rec["cost_usd"]
        paper_cost[:] = rec["paper_cost"]
        diags = [list(d) for d in state["diags"]]
    journal.open()

    def checkpoint_state(next_period: int) -> dict:
        return {
            "policy": policy.snapshot(),
            "lane_markets": lane_markets.snapshot(),
            "guards": {s: g.snapshot() for s, g in guards.items()},
            "predictor": (None if predictor is None
                          else predictor.snapshot()),
            "monitors": (None if monitors is None else
                         [m.snapshot()
                          if m is not None and hasattr(m, "snapshot")
                          else None for m in monitors]),
            "records": {
                "powers": powers_rec[:, :next_period].copy(),
                "servers": servers_rec[:, :next_period].copy(),
                "workloads": lam_rec[:, :next_period].copy(),
                "latencies": lat_rec[:, :next_period].copy(),
                "prices": prices_rec[:, :next_period].copy(),
                "loads": loads_rec[:, :next_period].copy(),
                "allocations": alloc_rec[:, :next_period].copy(),
                "energy_j": energy_j.copy(),
                "cost_usd": cost_usd.copy(),
                "paper_cost": paper_cost.copy(),
            },
            "diags": [list(d) for d in diags],
        }

    try:
        for k in range(journal.start_period, T):
            t = start_times + k * dt
            # γ > 0 lanes clear against their own lagged demand, exactly
            # as S scalar RealTimeMarkets would; γ = 0 lanes pass the
            # base row through bit-identically (np.where inside
            # effective_prices).
            prices = lane_markets.effective_prices(prices_traj[k]) \
                if coupled else prices_traj[k]
            loads = loads_traj[k]

            # What each lane's controller *sees* — identical to the
            # truth unless that lane carries telemetry faults this
            # period.
            obs_prices, obs_loads = prices, loads
            if guards:
                obs_prices = prices.copy()
                obs_loads = loads.copy()
                for s, guard in guards.items():
                    prices_ok, loads_ok = telemetry_visibility(
                        scens[s].cluster, scens[s].faults, float(t[s]))
                    obs_prices[s] = guard.filter_prices(prices[s],
                                                        prices_ok)
                    obs_loads[s] = guard.filter_loads(loads[s], loads_ok)

            predicted = None
            if predictor is not None:
                predictor.observe(obs_loads.reshape(-1))
                predicted = predictor.predict(prediction_horizon) \
                    .reshape(S, c, prediction_horizon).transpose(0, 2, 1)

            decision = policy.decide_batch(k, obs_prices, obs_loads,
                                           predicted)
            servers = decision.servers.astype(float)             # (S, N)
            lam = decision.u.reshape(S, n, c).sum(axis=2)        # (S, N)
            powers = b1 * lam + b0 * servers                     # watts
            lats = simplified_latency_batch(lam, servers, mu)

            # Write-ahead: the fleet's decision reaches stable storage
            # before it is folded into the records, so a crash leaves
            # the log as an exact upper bound on what was committed.
            if journal.wal is not None:
                record = {
                    "type": "decision", "period": k,
                    "time_seconds": float(t[0]),
                    "obs_sha256": array_digest(obs_prices, obs_loads),
                    "decision_sha256": array_digest(decision.u,
                                                    decision.servers),
                }
                if solver_fault_hook is not None \
                        or deadline_seconds is not None:
                    record["health"] = policy.lane_health()
                if S <= _LANE_DIGEST_MAX:
                    record["lane_sha256"] = [
                        array_digest(decision.u[s], decision.servers[s])
                        for s in range(S)]
                journal.log(record)

            if monitors is not None:
                for s, mon in enumerate(monitors):
                    if mon is None:
                        continue
                    mon.observe(
                        period=k, time_seconds=float(t[s]),
                        loads=obs_loads[s],
                        prices=prices[s], decision=decision.lane(s),
                        workloads=lam[s], powers_watts=powers[s],
                        servers=decision.servers[s], latencies=lats[s],
                        applied_servers=None)

            powers_rec[:, k] = powers
            servers_rec[:, k] = servers
            lam_rec[:, k] = lam
            lat_rec[:, k] = lats
            prices_rec[:, k] = prices
            loads_rec[:, k] = loads
            alloc_rec[:, k] = decision.u
            for s in range(S):
                diags[s].append(decision.diagnostics[s])

            # vectorized EnergyMeter.record, same order of operations:
            # the paper cost bills the energy accumulated *before* this
            # period
            paper_cost += prices * (energy_j / _JOULES_PER_MWH) * dt
            step = powers * dt
            energy_j += step
            cost_usd += prices * (step / _JOULES_PER_MWH)
            # same demand report as the scalar engine (division, not
            # *1e-6, for bit parity); γ = 0 markets never read it back,
            # but their demand_history must still match a looped run's.
            lane_markets.record_demand(powers / 1e6)

            journal.end_period(k + 1, T,
                               state=lambda: checkpoint_state(k + 1))
    finally:
        perf.shared.update_counters(journal.close())

    lane_markets.flush()
    times = start_times[:, None] + period_times[None, :]
    out = []
    for s in range(S):
        if s in guards:
            perf.fold_lane_counters(s, guards[s].counters)
        if monitors is not None and monitors[s] is not None:
            perf.fold_lane_counters(s, monitors[s].counters())
        out.append(SimulationResult(
            policy_name=policy.name, dt=dt, times=times[s],
            powers_watts=powers_rec[s], servers=servers_rec[s],
            workloads=lam_rec[s], latencies=lat_rec[s],
            prices=prices_rec[s], loads=loads_rec[s],
            allocations=alloc_rec[s],
            energy_mwh=energy_j[s] / _JOULES_PER_MWH,
            cost_usd=cost_usd[s].copy(), paper_cost=paper_cost[s].copy(),
            idc_names=scens[s].cluster.idc_names,
            diagnostics=diags[s], perf=perf.lane_snapshot(s)))
    return out
