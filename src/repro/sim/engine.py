"""Closed-loop simulation engine: one period loop over a lane axis.

:func:`run_lanes` is the controller's closed loop (Secs. III–IV),
written once for ``S`` lanes stepped in lockstep.  Each control period
runs: prices and loads → per-lane telemetry guard → prediction →
decide → WAL record (before anything touches the plant) → plant →
monitor → record and meter → demand report → ``step_hook`` →
:meth:`~repro.resilience.RunJournal.end_period`.

A caller supplies only what differs between runs, as a *lane set*: the
policy, the plant step, the fingerprint and the WAL decision record.
:func:`run_simulation` is one lane (:class:`_ScalarLane`): any
:class:`~repro.sim.policy.Policy` on the object plant, which outages
and the actuation channel mutate.  :func:`repro.sim.run_batch` steps
each signature group as ``S`` lanes of
:class:`~repro.core.BatchCostMPCPolicy` on the closed-form eq. 7 /
eq. 14 plant.

The loop is synchronous and deterministic — all stochasticity lives in
the scenario inputs — which is what lets a killed run resume from its
last checkpoint and have every re-executed decision verified bit-exact
against the write-ahead log.
"""

from __future__ import annotations

import numpy as np

from ..datacenter.queueing import simplified_latency_batch
from ..exceptions import CheckpointError, ModelError
from ..resilience.durability import RunJournal, array_digest
from ..resilience.telemetry import TelemetryGuard
from ..workload.predictor import ARWorkloadPredictor, BatchARWorkloadPredictor
from .faults import (
    ActuationChannel,
    apply_faults,
    split_faults,
    telemetry_visibility,
)
from .policy import AllocationDecision, Policy, PolicyObservation
from .recorder import LaneRecord
from .results import ComparisonResult, SimulationResult
from .scenario import Scenario

__all__ = ["run_simulation", "simulate_policies", "run_lanes"]

#: AR order of the online load predictors.
_AR_ORDER = 3


class _LoadPredictor:
    """Per-(lane, portal) AR(3) load forecasts, ``(S, horizon, C)``.

    One lane keeps one :class:`ARWorkloadPredictor` per portal, so a
    scalar run stays bit-identical to it; the stacked
    :class:`BatchARWorkloadPredictor` agrees with it only to rounding.
    """

    def __init__(self, n_lanes: int, n_portals: int) -> None:
        self.portals = None
        if n_lanes == 1:
            self.portals = [ARWorkloadPredictor(order=_AR_ORDER)
                            for _ in range(n_portals)]
        else:
            self.stacked = BatchARWorkloadPredictor(n_lanes * n_portals,
                                                    order=_AR_ORDER)

    def __call__(self, loads: np.ndarray, horizon: int) -> np.ndarray:
        if self.portals is not None:
            for p, value in zip(self.portals, loads[0]):
                p.observe(float(value))
            return np.column_stack([p.predict(horizon)
                                    for p in self.portals])[None]
        S, C = loads.shape
        self.stacked.observe(loads.reshape(-1))
        return self.stacked.predict(horizon) \
            .reshape(S, C, horizon).transpose(0, 2, 1)


def run_lanes(lanes, journal: RunJournal, *, predict_loads: bool = False,
              prediction_horizon: int = 3, monitors=None, step_hook=None,
              resume_force: bool = False) -> list[SimulationResult]:
    """Step a lane set through its scenarios; one result per lane.

    ``lanes`` carries ``scenarios`` (all sharing ``dt`` and the period
    count), ``policy_name`` and ``fingerprint``, and implements
    ``reset()``, ``observe(k)``, ``decide(...)``, ``actuate(...)``,
    ``wal_record(...)``, ``step(...)``, ``report_demand(powers)``,
    ``snapshot()``/``restore(state)`` and ``finish(durable_counters,
    lane_counters)``.  ``monitors`` aligns with the scenarios (entries
    may be ``None``); ``step_hook`` sees lane 0 and is meant for one-lane
    runs.  The period stages are listed in the module docstring.
    """
    scens = lanes.scenarios
    S, rep = len(scens), scens[0]
    T, n, c = rep.n_periods, rep.cluster.n_idcs, rep.cluster.n_portals
    # Every run starts from the scenario as built: market history
    # cleared, every server available, the initial server counts on.
    for sc in scens:
        sc.market.reset()
        for idc in sc.cluster.idcs:
            idc.reset()
    lanes.reset()

    record = LaneRecord(S, T, n, c, rep.dt)
    guards = {}
    for s, sc in enumerate(scens):
        groups = split_faults(sc.faults or [])
        if groups.price_faults or groups.sensor_faults:
            guards[s] = TelemetryGuard(n, c)
    predictor = _LoadPredictor(S, c) if predict_loads else None
    monitors = [None] * S if monitors is None else list(monitors)
    for sc, mon in zip(scens, monitors):
        if mon is not None:
            mon.begin_run(sc)

    # -- durability: resume, then (re)open the WAL ----------------------
    checkpoint = journal.recover(lanes.fingerprint, force=resume_force)
    if checkpoint is not None:
        state = checkpoint.state
        lanes.restore(state["lanes"])
        record, guards = state["record"], state["guards"]
        predictor = state["predictor"]
        for mon, snap in zip(monitors, state["monitors"]):
            if mon is not None and snap is not None \
                    and hasattr(mon, "restore"):
                mon.restore(snap)
    journal.open()

    def checkpoint_state() -> dict:
        return {
            # picklable loop-owned state rides whole
            "lanes": lanes.snapshot(), "record": record, "guards": guards,
            "predictor": predictor,
            "monitors": [mon.snapshot() if mon is not None
                         and hasattr(mon, "snapshot") else None
                         for mon in monitors],
        }

    try:
        for k in range(journal.start_period, T):
            t, prices, loads = lanes.observe(k)

            # What each lane's controller *sees* — identical to the
            # truth unless that lane has telemetry faults this period.
            obs_prices, obs_loads = prices, loads
            if guards:
                obs_prices, obs_loads = prices.copy(), loads.copy()
                for s, guard in guards.items():
                    prices_ok, loads_ok = telemetry_visibility(
                        scens[s].cluster, scens[s].faults, t[s])
                    obs_prices[s] = guard.filter_prices(prices[s], prices_ok)
                    obs_loads[s] = guard.filter_loads(loads[s], loads_ok)

            predicted = (None if predictor is None
                         else predictor(obs_loads, prediction_horizon))
            decision = lanes.decide(k, t, obs_prices, obs_loads, predicted)
            applied = lanes.actuate(decision, t)

            # Write-ahead: the decision reaches stable storage before it
            # reaches the plant, so after a crash the log is an upper
            # bound on what was actuated (the torn last record, if any,
            # never actuated).
            if journal.wal is not None:
                journal.log(lanes.wal_record(k, t, obs_prices, obs_loads,
                                             decision, applied))

            workloads, powers, latencies = lanes.step(decision, applied)
            for s, mon in enumerate(monitors):
                if mon is None:
                    continue
                # Conservation is checked against the loads the policy
                # was shown — under a sensor gap the controller can only
                # route what it saw.
                mon.observe(
                    period=k, time_seconds=t[s], loads=obs_loads[s],
                    prices=prices[s], decision=decision.lane(s),
                    workloads=workloads[s], powers_watts=powers[s],
                    servers=decision.servers[s], latencies=latencies[s],
                    applied_servers=(applied[s] if lanes.has_actuation
                                     else None))
            record.record(k, times=t, powers_watts=powers, servers=applied,
                          workloads=workloads, latencies=latencies,
                          prices=prices, loads=loads,
                          allocations=decision.u,
                          diagnostics=decision.diagnostics)
            lanes.report_demand(powers)

            action = None
            if step_hook is not None:
                diag = decision.lane(0).diagnostics
                action = step_hook({
                    "period": k, "time_seconds": t[0],
                    "prices": prices[0], "loads": loads[0],
                    "powers_watts": powers[0],
                    "servers": applied[0],
                    "allocation": decision.u[0],
                    "latencies": latencies[0],
                    "cost_usd_total": float(record.meter.cost_usd[0].sum()),
                    "diagnostics": diag if isinstance(diag, dict) else {},
                })
            if journal.end_period(k + 1, T, action, checkpoint_state):
                break
    finally:
        durable_counters = journal.close()

    extras = [[] for _ in scens]
    for s, guard in guards.items():
        extras[s].append(guard.counters)
    for s, mon in enumerate(monitors):
        if mon is not None:
            extras[s].append(mon.counters())
    return record.results(lanes.policy_name, scens,
                          lanes.finish(durable_counters, extras))


class _OneLaneDecision:
    """A scalar :class:`AllocationDecision` seen as a one-lane batch."""

    def __init__(self, decision: AllocationDecision) -> None:
        self.decision = decision
        self.u = np.asarray(decision.u, dtype=float)[None]
        self.servers = np.asarray(decision.servers).astype(int)[None]

    @property
    def diagnostics(self) -> list[dict]:
        return [dict(self.decision.diagnostics or {})]

    def lane(self, index: int) -> AllocationDecision:
        return self.decision


class _ScalarLane:
    """One scalar policy on the object plant: :func:`run_simulation`'s lane.

    Lifts ``Policy.decide`` to the lane axis, keeps the previous
    allocation and applied servers the policy observes, owns the price
    forecaster, and steps the :class:`~repro.datacenter.IDCCluster`
    that outages and the actuation channel mutate.
    """

    def __init__(self, scenario: Scenario, policy: Policy,
                 price_forecaster, prediction_horizon: int) -> None:
        self.scenarios = [scenario]
        self.policy = policy
        self.policy_name = policy.name
        self.price_forecaster = price_forecaster
        self.horizon = prediction_horizon
        self.actuation = None
        if scenario.faults and split_faults(scenario.faults).actuation_faults:
            self.actuation = ActuationChannel(scenario.cluster,
                                              scenario.faults)
        self.has_actuation = self.actuation is not None
        self.fingerprint = {
            "scenario": str(scenario.name),
            "dt": float(scenario.dt),
            "n_periods": int(scenario.n_periods),
            "n_idcs": int(scenario.cluster.n_idcs),
            "n_portals": int(scenario.cluster.n_portals),
            "policy": str(getattr(policy, "name", type(policy).__name__)),
        }

    def reset(self) -> None:
        self.policy.reset()
        cluster = self.scenarios[0].cluster
        self.u_prev = np.zeros(cluster.n_allocations)
        self.servers_prev = cluster.server_counts()
        self.avail_prev = None
        if self.actuation is not None:
            self.actuation.reset(self.servers_prev)

    def snapshot(self) -> dict:
        # a checkpoint pickles its state as soon as it is built, so
        # nothing here needs a copy
        policy = self.policy
        return {
            "u_prev": self.u_prev, "servers_prev": self.servers_prev,
            "avail_prev": self.avail_prev,
            "market": self.scenarios[0].market,
            "policy": (policy.snapshot()
                       if hasattr(policy, "snapshot") else None),
            "price_forecaster": self.price_forecaster,
            "actuation": (None if self.actuation is None
                          else self.actuation.snapshot()),
        }

    def restore(self, state: dict) -> None:
        policy = self.policy
        self.u_prev, self.servers_prev = state["u_prev"], state["servers_prev"]
        self.avail_prev = state["avail_prev"]
        self.scenarios[0].market = state["market"]
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
        # the checkpointed forecaster's learned state belongs to the
        # interrupted run
        if state["price_forecaster"] is not None:
            self.price_forecaster = state["price_forecaster"]
        if self.actuation is not None:
            self.actuation.restore(state["actuation"])

    def observe(self, k: int):
        scenario = self.scenarios[0]
        cluster = scenario.cluster
        t = scenario.start_time + k * scenario.dt
        if scenario.faults:
            apply_faults(cluster, scenario.faults, t)
            avail_now = tuple(idc.available_servers for idc in cluster.idcs)
            if self.avail_prev is not None and avail_now != self.avail_prev:
                # Constraint geometry changed under the policy's feet;
                # let it drop carried solver state (stale warm starts,
                # cached working sets) before the next solve.
                hook = getattr(self.policy, "on_availability_change", None)
                if hook is not None:
                    hook()
            self.avail_prev = avail_now
        loads = cluster.portals.loads_at(k)
        return [t], scenario.prices_at(t)[None], loads[None]

    def decide(self, k, t, obs_prices, obs_loads, predicted):
        predicted_prices = None
        if self.price_forecaster is not None:
            hour = t[0] / 3600.0
            self.price_forecaster.observe(obs_prices[0], hour)
            step_hours = self.scenarios[0].dt / 3600.0
            predicted_prices = self.price_forecaster.predict(
                self.horizon, hour + step_hours, step_hours)
        decision = self.policy.decide(PolicyObservation(
            period=k, time_seconds=t[0], loads=obs_loads[0],
            prices=obs_prices[0], prev_u=self.u_prev.copy(),
            prev_servers=self.servers_prev.copy(),
            predicted_loads=None if predicted is None else predicted[0],
            predicted_prices=predicted_prices))
        if not isinstance(decision, AllocationDecision):
            raise ModelError(
                f"policy {self.policy.name!r} returned "
                f"{type(decision).__name__}, expected AllocationDecision")
        return _OneLaneDecision(decision)

    def actuate(self, decision: _OneLaneDecision, t) -> np.ndarray:
        if self.actuation is None:
            return decision.servers
        cluster = self.scenarios[0].cluster
        available = np.array([idc.available_servers for idc in cluster.idcs],
                             dtype=int)
        return self.actuation.apply(decision.servers[0], t[0],
                                    available)[None]

    def wal_record(self, k, t, obs_prices, obs_loads, decision, applied):
        raw = decision.decision
        record = {
            "type": "decision", "period": k, "time_seconds": t[0],
            "obs_sha256": array_digest(obs_loads[0], obs_prices[0]),
            "decision_sha256": array_digest(decision.u[0],
                                            decision.servers[0], applied[0]),
            "servers": decision.servers[0].tolist(),
            "applied": applied[0].tolist(),
            "u_total": float(np.sum(raw.u)),
        }
        diag = raw.diagnostics if isinstance(raw.diagnostics, dict) else {}
        for key in ("qp_status", "rung", "health_state"):
            if key in diag:
                record[key] = str(diag[key])
        return record

    def step(self, decision: _OneLaneDecision, applied: np.ndarray):
        cluster = self.scenarios[0].cluster
        for idc, m in zip(cluster.idcs, applied[0]):
            idc.set_servers(int(m))
        raw = decision.decision
        workloads = cluster.apply_allocation(raw.u)
        powers = cluster.powers_watts()
        rates = np.array([idc.config.service_rate for idc in cluster.idcs])
        latencies = simplified_latency_batch(
            np.asarray(workloads, dtype=float),
            np.asarray(applied[0], dtype=float), rates)
        if self.actuation is not None and isinstance(raw.diagnostics, dict) \
                and not np.array_equal(applied, decision.servers):
            raw.diagnostics["applied_servers"] = applied[0].tolist()
        self.u_prev = decision.u[0]
        self.servers_prev = applied[0]
        return workloads[None], powers[None], latencies[None]

    def report_demand(self, powers: np.ndarray) -> None:
        self.scenarios[0].market.record_demand(powers[0] / 1e6)

    def finish(self, durable_counters: dict, lane_counters) -> list[dict]:
        policy = self.policy
        perf = policy.perf_snapshot() if hasattr(policy, "perf_snapshot") \
            else {}
        extras = list(lane_counters[0])
        if self.actuation is not None:
            extras.append(self.actuation.counters)
        if durable_counters:
            extras.append(durable_counters)
        for counters in extras:
            perf.setdefault("counters", {}).update(
                (name, int(value)) for name, value in counters.items())
        return [perf]


def run_simulation(scenario: Scenario, policy: Policy,
                   predict_loads: bool = False,
                   prediction_horizon: int = 3,
                   price_forecaster=None,
                   monitor=None,
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
        Attach per-portal RLS-AR(3) predictors and pass their forecasts
        to the policy (the paper's Sec. III-D machinery).  With the
        constant Table I workloads this is a no-op, so it defaults off.
    prediction_horizon:
        Forecast depth when prediction is on.
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
    checkpoint_every:
        Write a :class:`repro.resilience.ControllerCheckpoint` of every
        stateful component (policy via its ``snapshot()``, predictors,
        telemetry guard, price forecaster, monitor, actuation channel,
        record, market) next to the WAL after every this-many completed
        periods, so a resumed run continues bit-exact.  Requires
        ``wal_path``.
    wal_path:
        Write-ahead decision log (JSONL): each period's observation and
        decision digests are appended *before* the decision touches the
        plant, fsynced every ``wal_fsync_every`` records.
    resume_from:
        Path of a previous run's WAL.  The engine restores the sibling
        checkpoint (when one exists), re-executes the remaining periods
        and verifies every one the old log recorded against its digests;
        a mismatch raises :class:`~repro.exceptions.CheckpointError`, or
        is only counted in ``perf["counters"]["wal_tail_mismatches"]``
        with ``resume_strict=False``.  The result covers the *full*
        run.
    resume_force:
        A checkpoint whose WAL is missing can be neither resumed nor
        verified, so the engine refuses to start fresh on top of it;
        ``resume_force=True`` discards it and starts over.
    step_hook:
        Optional callable fired once per completed control period with a
        dict of that period's telemetry (``period``, ``time_seconds``,
        ``prices``, ``loads``, ``powers_watts``, ``servers``,
        ``allocation``, ``latencies``, ``cost_usd_total``,
        ``diagnostics``).  Its return value steers the engine: falsy →
        continue; the string ``"checkpoint"`` → write a checkpoint now
        (requires ``wal_path``) and continue; any other truthy value →
        write a final checkpoint and *stop*, returning the partial
        result with ``perf["counters"]["stopped_at_period"]`` set.  This
        is the seam external drivers (the control-plane service) use to
        stream decisions, trigger on-demand checkpoints and drain.

    When the scenario carries telemetry faults
    (:class:`~repro.sim.faults.PriceFeedDropout` /
    :class:`~repro.sim.faults.SensorGap`), a
    :class:`repro.resilience.TelemetryGuard` gap-fills the price and
    load streams the *policy* sees; billing, the record and the monitor
    always use the true streams.  Every run starts from the scenario's
    initial plant: the market history is cleared, every server is
    available again and the initial server counts are on.

    Raises
    ------
    ReproError subclasses
        From the policy (e.g. :class:`CapacityError` on an overloaded
        cluster), a monitor in ``raise_on_violation`` mode, and the
        durability layer (:class:`~repro.exceptions.CheckpointError`:
        corrupt checkpoint, foreign WAL, non-deterministic resume).
    """
    journal = RunJournal(wal_path, resume_from=resume_from,
                         checkpoint_every=checkpoint_every,
                         fsync_every=wal_fsync_every, strict=resume_strict)
    lane = _ScalarLane(scenario, policy, price_forecaster,
                       prediction_horizon)
    result, = run_lanes(lane, journal, predict_loads=predict_loads,
                        prediction_horizon=prediction_horizon,
                        monitors=[monitor], step_hook=step_hook,
                        resume_force=resume_force)
    return result


def simulate_policies(scenario: Scenario, policies: list[Policy],
                      **run_kwargs) -> ComparisonResult:
    """Run several policies on the same scenario, one after another.

    Each policy sees identical conditions: every run starts from the
    scenario's initial plant and a cleared market, so the comparison
    equals running each policy on its own fresh copy of the scenario.
    """
    if not policies:
        raise ModelError("need at least one policy")
    names = [p.name for p in policies]
    dup = next((n for n in names if names.count(n) > 1), None)
    if dup is not None:
        raise ModelError(f"duplicate policy name {dup!r}")
    return ComparisonResult(runs={
        p.name: run_simulation(scenario, p, **run_kwargs) for p in policies})
