"""Closed-loop simulation engine.

Each control period the engine:

1. reads the portal workloads and market prices,
2. (optionally) updates online workload predictors and produces a
   forecast for the policy,
3. asks the policy for an allocation + server decision,
4. logs the decision to the write-ahead log (when configured) *before*
   anything touches the plant,
5. routes the eq.-35 server command through the actuation channel
   (faults may drop, delay or partially apply it), applies the result to
   the plant (cluster), measures power and latency,
6. records everything and reports the demand back to the market so the
   price feedback (when enabled) sees it.

The engine is deliberately synchronous and deterministic: all
stochasticity lives in the scenario inputs (traces, price noise).  That
determinism is what makes the durable control plane work: a run killed
mid-scenario resumes from its last checkpoint
(``checkpoint_every=``/``wal_path=``/``resume_from=``), re-executes the
tail, and every recomputed decision is verified bit-exact against the
write-ahead log.
"""

from __future__ import annotations

import numpy as np

from ..datacenter.queueing import simplified_latency_batch
from ..exceptions import CheckpointError, ModelError
from ..resilience.durability import RunJournal, array_digest
from ..workload.predictor import ARWorkloadPredictor
from .faults import (
    ActuationChannel,
    apply_faults,
    split_faults,
    telemetry_visibility,
)
from .policy import AllocationDecision, Policy, PolicyObservation
from .recorder import SimulationRecorder
from .results import ComparisonResult, SimulationResult
from .scenario import Scenario

__all__ = ["run_simulation", "simulate_policies"]


def _measure_latencies(cluster, workloads, servers) -> np.ndarray:
    rates = np.array([idc.config.service_rate for idc in cluster.idcs])
    return simplified_latency_batch(np.asarray(workloads, dtype=float),
                                    np.asarray(servers, dtype=float), rates)


def _run_fingerprint(scenario: Scenario, policy) -> dict:
    """Identity of a (scenario, policy) pairing for WAL/checkpoint checks.

    Deliberately coarse — enough to catch resuming the wrong run (or the
    right run with a reconfigured world), cheap enough to embed in every
    log header.
    """
    return {
        "scenario": str(scenario.name),
        "dt": float(scenario.dt),
        "n_periods": int(scenario.n_periods),
        "n_idcs": int(scenario.cluster.n_idcs),
        "n_portals": int(scenario.cluster.n_portals),
        "policy": str(getattr(policy, "name", type(policy).__name__)),
    }


def run_simulation(scenario: Scenario, policy: Policy,
                   predict_loads: bool = False,
                   predictor_order: int = 3,
                   prediction_horizon: int = 3,
                   price_forecaster=None,
                   monitor=None,
                   telemetry_guard=None,
                   checkpoint_every: int | None = None,
                   wal_path=None,
                   wal_fsync_every: int = 1,
                   resume_from=None,
                   resume_strict: bool = True,
                   resume_force: bool = False,
                   step_hook=None) -> SimulationResult:
    """Run one policy through a scenario.

    Parameters
    ----------
    predict_loads:
        Attach per-portal RLS-AR predictors and pass their forecasts to
        the policy (the paper's Sec. III-D machinery).  With the constant
        Table I workloads this is a no-op, so it defaults off.
    predictor_order, prediction_horizon:
        AR order and forecast depth when prediction is on.
    price_forecaster:
        Optional :class:`repro.pricing.MultiRegionForecaster` fed the
        realized prices each period; its forecasts are passed to the
        policy as ``predicted_prices`` (region order = cluster order).
        On resume, the checkpointed forecaster replaces the one passed
        in (its learned state belongs to the interrupted run).
    monitor:
        Optional :class:`repro.verify.InvariantMonitor` (or anything with
        its ``begin_run``/``observe``/``counters`` protocol).  It sees
        every period's raw decision and measured plant state; its
        counters are folded into ``SimulationResult.perf["counters"]``.
    telemetry_guard:
        Optional :class:`repro.resilience.TelemetryGuard` that gap-fills
        the price/load streams the *policy* sees when the scenario
        carries telemetry faults (:class:`~repro.sim.faults.
        PriceFeedDropout` / :class:`~repro.sim.faults.SensorGap`).  A
        default guard is created automatically when such faults are
        present; billing, the recorder and the monitor always use the
        true streams.
    checkpoint_every:
        Write a :class:`repro.resilience.ControllerCheckpoint` (next to
        the WAL, ``<wal_path>.ckpt``) after every this-many completed
        periods.  Requires ``wal_path``.  The checkpoint captures every
        stateful component — policy (via its ``snapshot()``),
        predictors, telemetry guard, price forecaster, monitor,
        actuation channel, recorder, market — so a resumed run continues
        bit-exact.
    wal_path:
        Write-ahead decision log (JSONL).  Each period's observation and
        decision digests are appended *before* the decision touches the
        plant; ``wal_fsync_every`` sets the fsync cadence (1 = every
        record reaches stable storage before actuation).
    resume_from:
        Path of a previous run's WAL.  The engine restores the sibling
        checkpoint (when one exists), re-executes the remaining periods,
        and verifies every re-executed decision that the old log already
        recorded against its digests — a mismatch means the resumed run
        diverged and raises :class:`~repro.exceptions.CheckpointError`
        (or is only counted, with ``resume_strict=False``).  The
        returned result always covers the *full* run: the checkpointed
        recorder carries the pre-crash periods.
    resume_strict:
        Whether a WAL-tail digest mismatch aborts the resume (default)
        or is merely counted in ``perf["counters"]["wal_tail_mismatches"]``.
    resume_force:
        A checkpoint whose write-ahead log is missing cannot be resumed
        *or verified*, so the engine refuses to silently start fresh on
        top of it (see Raises).  ``resume_force=True`` discards the
        orphaned checkpoint and starts over deliberately.
    step_hook:
        Optional callable fired once per completed control period with a
        dict of that period's telemetry (``period``, ``time_seconds``,
        ``prices``, ``loads``, ``powers_watts``, ``servers``,
        ``allocation``, ``latencies``, ``cost_usd_total``,
        ``diagnostics``).  Its return value steers the engine: falsy →
        continue; the string ``"checkpoint"`` → write a checkpoint now
        (requires ``wal_path``) and continue; any other truthy value →
        write a final checkpoint and *stop*, returning the partial
        result with
        ``perf["counters"]["stopped_at_period"]`` set.  This is the seam
        external drivers (the control-plane service) use to stream
        decisions, trigger on-demand checkpoints and drain gracefully.

    Raises
    ------
    ReproError subclasses
        Propagated from the policy (e.g. :class:`CapacityError` when the
        scenario overloads the cluster),
        :class:`repro.exceptions.InvariantViolationError` from a monitor
        in ``raise_on_violation`` mode, and
        :class:`repro.exceptions.CheckpointError` from the durability
        layer (corrupt checkpoint, foreign WAL, non-deterministic
        resume).
    """
    journal = RunJournal(wal_path, resume_from=resume_from,
                         checkpoint_every=checkpoint_every,
                         fsync_every=wal_fsync_every, strict=resume_strict)
    cluster = scenario.cluster
    scenario.market.reset()
    for idc in cluster.idcs:
        idc.restore_availability()
    policy.reset()
    cluster_names = cluster.idc_names
    recorder = SimulationRecorder(cluster.n_idcs, cluster.n_portals,
                                  scenario.dt)

    if monitor is not None:
        monitor.begin_run(scenario)

    predictors = None
    if predict_loads:
        predictors = [ARWorkloadPredictor(order=predictor_order)
                      for _ in range(cluster.n_portals)]

    has_telemetry_faults = False
    actuation = None
    if scenario.faults:
        groups = split_faults(scenario.faults)
        has_telemetry_faults = bool(groups.price_faults
                                    or groups.sensor_faults)
        if groups.actuation_faults:
            actuation = ActuationChannel(cluster, scenario.faults)
    if telemetry_guard is None and has_telemetry_faults:
        from ..resilience import TelemetryGuard
        telemetry_guard = TelemetryGuard(cluster.n_idcs, cluster.n_portals)
    if telemetry_guard is not None:
        telemetry_guard.reset()

    u_prev = np.zeros(cluster.n_allocations)
    servers_prev = cluster.server_counts()
    avail_prev = None
    if actuation is not None:
        actuation.reset(servers_prev)

    # -- durability: resume, then (re)open the WAL ----------------------
    checkpoint = journal.recover(_run_fingerprint(scenario, policy),
                                 force=resume_force)
    if checkpoint is not None:
        state = checkpoint.state
        u_prev = np.asarray(state["u_prev"], dtype=float).copy()
        servers_prev = np.asarray(state["servers_prev"]).astype(int)
        avail_prev = (None if state["avail_prev"] is None
                      else tuple(state["avail_prev"]))
        recorder = state["recorder"]
        scenario.market = state["market"]
        if state["policy"] is not None:
            restore = getattr(policy, "restore", None)
            if restore is None:
                raise CheckpointError(
                    f"checkpoint carries policy state but policy "
                    f"{policy.name!r} has no restore()")
            restore(state["policy"])
        elif hasattr(policy, "snapshot"):
            raise CheckpointError(
                f"policy {policy.name!r} is stateful but the "
                "checkpoint carries no policy state")
        if predictors is not None and state.get("predictors"):
            for p, snap in zip(predictors, state["predictors"]):
                p.restore(snap)
        if telemetry_guard is not None and state.get("telemetry_guard"):
            telemetry_guard.restore(state["telemetry_guard"])
        if state.get("price_forecaster") is not None:
            price_forecaster = state["price_forecaster"]
        if monitor is not None and state.get("monitor") is not None \
                and hasattr(monitor, "restore"):
            monitor.restore(state["monitor"])
        if actuation is not None and state.get("actuation") is not None:
            actuation.restore(state["actuation"])
    journal.open()

    def checkpoint_state() -> dict:
        return {
            "u_prev": u_prev.copy(),
            "servers_prev": np.asarray(servers_prev).astype(int).copy(),
            "avail_prev": (None if avail_prev is None
                           else [int(a) for a in avail_prev]),
            "recorder": recorder,
            "market": scenario.market,
            "policy": (policy.snapshot()
                       if hasattr(policy, "snapshot") else None),
            "predictors": (None if predictors is None
                           else [p.snapshot() for p in predictors]),
            "telemetry_guard": (None if telemetry_guard is None
                                else telemetry_guard.snapshot()),
            "price_forecaster": price_forecaster,
            "monitor": (monitor.snapshot()
                        if monitor is not None
                        and hasattr(monitor, "snapshot") else None),
            "actuation": (None if actuation is None
                          else actuation.snapshot()),
        }

    try:
        for k in range(journal.start_period, scenario.n_periods):
            t = scenario.start_time + k * scenario.dt
            if scenario.faults:
                apply_faults(cluster, scenario.faults, t)
                avail_now = tuple(idc.available_servers
                                  for idc in cluster.idcs)
                if avail_prev is not None and avail_now != avail_prev:
                    # Constraint geometry changed under the policy's feet;
                    # let it drop carried solver state (stale warm starts,
                    # cached working sets) before the next solve.
                    hook = getattr(policy, "on_availability_change", None)
                    if hook is not None:
                        hook()
                avail_prev = avail_now
            loads = cluster.portals.loads_at(k)
            prices = scenario.prices_at(t)

            # What the controller *sees* — identical to the truth unless
            # telemetry faults are active this period.
            obs_loads, obs_prices = loads, prices
            if telemetry_guard is not None:
                prices_ok, loads_ok = telemetry_visibility(
                    cluster, scenario.faults or [], t)
                obs_prices = telemetry_guard.filter_prices(prices, prices_ok)
                obs_loads = telemetry_guard.filter_loads(loads, loads_ok)

            predicted = None
            if predictors is not None:
                for p, value in zip(predictors, obs_loads):
                    p.observe(float(value))
                predicted = np.column_stack([
                    p.predict(prediction_horizon) for p in predictors
                ])

            predicted_prices = None
            if price_forecaster is not None:
                hour = t / 3600.0
                price_forecaster.observe(obs_prices, hour)
                step_hours = scenario.dt / 3600.0
                predicted_prices = price_forecaster.predict(
                    prediction_horizon, hour + step_hours, step_hours)

            obs = PolicyObservation(
                period=k, time_seconds=t, loads=obs_loads, prices=obs_prices,
                prev_u=u_prev.copy(), prev_servers=servers_prev.copy(),
                predicted_loads=predicted,
                predicted_prices=predicted_prices,
            )
            decision = policy.decide(obs)
            if not isinstance(decision, AllocationDecision):
                raise ModelError(
                    f"policy {policy.name!r} returned "
                    f"{type(decision).__name__}, expected AllocationDecision")

            commanded = np.asarray(decision.servers).astype(int)
            if actuation is not None:
                available = np.array([idc.available_servers
                                      for idc in cluster.idcs], dtype=int)
                applied = actuation.apply(commanded, t, available)
            else:
                applied = commanded

            # Write-ahead: the decision reaches stable storage before it
            # reaches the plant, so after a crash the log is an upper
            # bound on what was actuated (the torn last record, if any,
            # never actuated).
            if journal.wal is not None:
                diag = (decision.diagnostics
                        if isinstance(decision.diagnostics, dict) else {})
                record = {
                    "type": "decision", "period": k, "time_seconds": t,
                    "obs_sha256": array_digest(
                        np.asarray(obs_loads, dtype=float),
                        np.asarray(obs_prices, dtype=float)),
                    "decision_sha256": array_digest(
                        np.asarray(decision.u, dtype=float),
                        commanded, applied),
                    "servers": commanded.tolist(),
                    "applied": applied.tolist(),
                    "u_total": float(np.sum(decision.u)),
                }
                for key in ("qp_status", "rung", "health_state"):
                    if key in diag:
                        record[key] = str(diag[key])
                journal.log(record)

            for idc, m in zip(cluster.idcs, applied):
                idc.set_servers(int(m))
            workloads = cluster.apply_allocation(decision.u)

            powers = cluster.powers_watts()
            latencies = _measure_latencies(cluster, workloads, applied)
            if monitor is not None:
                # The monitor sees the *raw* decision (pre-integer-cast
                # servers) next to the measured plant state.  Conservation
                # is checked against the loads the policy was shown —
                # under a sensor gap the controller can only route what it
                # saw.
                monitor.observe(
                    period=k, time_seconds=t, loads=obs_loads,
                    prices=prices, decision=decision, workloads=workloads,
                    powers_watts=powers, servers=commanded,
                    latencies=latencies,
                    applied_servers=(applied if actuation is not None
                                     else None))
            if actuation is not None \
                    and isinstance(decision.diagnostics, dict) \
                    and not np.array_equal(applied, commanded):
                decision.diagnostics["applied_servers"] = applied.tolist()
            recorder.record(
                time_seconds=t, powers_watts=powers, servers=applied,
                workloads=workloads, latencies=latencies, prices=prices,
                loads=loads, allocation=decision.u,
                diagnostics=decision.diagnostics)

            scenario.market.record_demand(powers / 1e6)
            u_prev = np.asarray(decision.u, dtype=float)
            servers_prev = applied

            action = None
            if step_hook is not None:
                action = step_hook({
                    "period": k, "time_seconds": t,
                    "prices": np.asarray(prices, dtype=float),
                    "loads": np.asarray(loads, dtype=float),
                    "powers_watts": powers,
                    "servers": applied,
                    "allocation": np.asarray(decision.u, dtype=float),
                    "latencies": latencies,
                    "cost_usd_total": float(recorder.meter.cost_usd.sum()),
                    "diagnostics": (decision.diagnostics
                                    if isinstance(decision.diagnostics,
                                                  dict) else {}),
                })
            if journal.end_period(k + 1, scenario.n_periods, action,
                                  checkpoint_state):
                break
    finally:
        durable_counters = journal.close()

    arrays = recorder.as_arrays()
    perf = policy.perf_snapshot() if hasattr(policy, "perf_snapshot") else {}
    from .profiling import fold_counters
    if telemetry_guard is not None:
        perf = fold_counters(perf, telemetry_guard.counters)
    if monitor is not None:
        perf = fold_counters(perf, monitor.counters())
    if actuation is not None:
        perf = fold_counters(perf, actuation.counters)
    if durable_counters:
        perf = fold_counters(perf, durable_counters)
    return SimulationResult(
        policy_name=policy.name,
        dt=scenario.dt,
        times=arrays["times"],
        powers_watts=arrays["powers_watts"],
        servers=arrays["servers"],
        workloads=arrays["workloads"],
        latencies=arrays["latencies"],
        prices=arrays["prices"],
        loads=arrays["loads"],
        allocations=arrays["allocations"],
        energy_mwh=recorder.meter.energy_mwh.copy(),
        cost_usd=recorder.meter.cost_usd.copy(),
        paper_cost=recorder.meter.paper_cost.copy(),
        idc_names=cluster_names,
        diagnostics=recorder.diagnostics,
        perf=perf,
    )


def simulate_policies(scenario: Scenario, policies: list[Policy],
                      parallel: bool = False, n_workers: int | None = None,
                      **run_kwargs) -> ComparisonResult:
    """Run several policies on (fresh copies of) the same scenario.

    Each policy sees identical conditions: sequentially, the market and
    plant are reset between runs; with ``parallel=True`` every policy
    runs in its own worker process on its own pickled copy of the
    scenario (see :mod:`repro.sim.runner`), which is bit-identical to the
    sequential path because the engine is deterministic.
    """
    if not policies:
        raise ModelError("need at least one policy")
    names = [p.name for p in policies]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise ModelError(f"duplicate policy name {dup!r}")
    if parallel:
        from .runner import run_parallel
        results = run_parallel([(scenario, p) for p in policies],
                               n_workers=n_workers, **run_kwargs)
        return ComparisonResult(runs={r.policy_name: r for r in results})
    runs: dict[str, SimulationResult] = {}
    for policy in policies:
        runs[policy.name] = run_simulation(scenario, policy, **run_kwargs)
    return ComparisonResult(runs=runs)
