"""Closed-loop simulation engine: one period loop, one plant, a lane axis.

:func:`run_lanes` is the controller's closed loop (Secs. III–IV),
written once for ``S`` lanes stepped in lockstep.  Each control period
runs: prices, loads and available fleets → per-lane telemetry guard →
prediction → decide → actuation → WAL record (before anything touches
the plant) → plant and demand report → monitor → record and meter →
``step_hook`` → :meth:`~repro.resilience.RunJournal.end_period`.

The plant is one object for every run (``_LanePlant``): the paper's
closed forms — eq. 7 workloads, eq. 14 power, the simplified latency —
under the capacity rows of eqs. 2–3, over ``(S, N)`` arrays.  Each
lane's available fleet comes from its outage windows
(:func:`~repro.sim.faults.outage_availability`), its commands pass the
one lane-vectorized :class:`~repro.sim.faults.ActuationChannel`, its
prices come from its trace tables and its demand report goes through
:class:`~repro.pricing.LaneMarketBatch`.  The plant mutates no cluster
object, so lanes may share one.

A caller supplies only the policy, as a *lane set*: its decisions, the
fingerprint and the WAL decision record.  :func:`run_simulation` is one
lane (:class:`_ScalarLane`) of any :class:`~repro.sim.policy.Policy`;
:func:`repro.sim.run_batch` steps each signature group as ``S`` lanes of
:class:`~repro.core.BatchCostMPCPolicy`.

The loop is synchronous and deterministic — all stochasticity lives in
the scenario inputs — which is what lets a killed run resume from its
last checkpoint and have every re-executed decision verified bit-exact
against the write-ahead log.
"""

from __future__ import annotations

import numpy as np

from ..datacenter.queueing import simplified_latency_batch
from ..exceptions import CheckpointError, ConfigurationError, ModelError
from ..pricing import LaneMarketBatch
from ..resilience.durability import RunJournal, array_digest
from ..resilience.telemetry import TelemetryGuard
from ..workload.predictor import ARWorkloadPredictor, BatchARWorkloadPredictor
from .faults import (
    ActuationChannel,
    outage_availability,
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


class _LanePlant:
    """The paper's plant for ``S`` lanes stepped in lockstep.

    The lanes' scenarios share the plant coefficients, ``dt`` and the
    period count.  The plant owns each lane's price and load tables,
    outage windows, market and last applied server counts, and the
    actuation channel; lanes without outages or actuation faults pay
    for neither.
    """

    def __init__(self, scens: list[Scenario]) -> None:
        rep = scens[0]
        S, T, cluster = len(scens), rep.n_periods, rep.cluster
        n, c = cluster.n_idcs, cluster.n_portals
        self.scenarios = scens
        self.dt = dt = float(rep.dt)
        idcs = cluster.idcs
        self._b1 = np.array([idc.config.power_model.b1 for idc in idcs])
        self._b0 = np.array([idc.config.power_model.b0 for idc in idcs])
        self._mu = np.array([idc.config.service_rate for idc in idcs])
        #: every lane's whole fleet ``(S, N)``
        self.fleet = np.array([[idc.config.max_servers
                                for idc in sc.cluster.idcs] for sc in scens])

        # Each lane's *base* price trajectory is a trace-table lookup —
        # vectorized over periods up front instead of S·N·T calls in the
        # loop.  Demand feedback (γ > 0 lanes), when present, is a
        # per-period (S, N) clearing step on top.
        self._start_times = np.array([float(sc.start_time) for sc in scens])
        period_times = np.arange(T) * dt
        self._prices = np.empty((T, S, n))
        for s, sc in enumerate(scens):
            hours = np.floor((sc.start_time + period_times) / 3600.0) \
                .astype(int)
            for j, region in enumerate(sc.cluster.regions):
                trace = sc.market.regions[region].trace
                self._prices[:, s, j] = trace.hourly[hours % trace.n_hours]
        self._loads = np.empty((T, S, c))
        for s, sc in enumerate(scens):
            portals = sc.cluster.portals.portals
            if all(p.trace is None and p.rate_fn is None for p in portals):
                self._loads[:, s, :] = [p.rate for p in portals]
            else:
                for k in range(T):
                    self._loads[k, s] = sc.cluster.portals.loads_at(k)

        #: each lane's faults, by family
        self.faults = faults = [split_faults(sc.faults or []) for sc in scens]
        self._outage_lanes = [s for s, f in enumerate(faults) if f.outages]
        self._outages = ([scens[s].cluster for s in self._outage_lanes],
                         [faults[s].outages for s in self._outage_lanes])
        #: lanes whose commands can be dropped, delayed or partly applied
        self.has_actuation = np.array([bool(f.actuation_faults)
                                       for f in faults])
        self.actuation = None
        #: the server counts each fleet ran last period, ``(S, N)``
        self.servers = np.array([[idc.initial_servers
                                  for idc in sc.cluster.idcs]
                                 for sc in scens])
        if self.has_actuation.any():
            self.actuation = ActuationChannel(
                [sc.cluster for sc in scens],
                [f.actuation_faults for f in faults])
            self.actuation.reset(self.servers)
        self.markets = LaneMarketBatch(
            (sc.market, sc.cluster.regions) for sc in scens)
        self._coupled = self.markets.any_coupled

    def snapshot(self) -> dict:
        return {"markets": self.markets.snapshot(), "servers": self.servers,
                "actuation": self.actuation and self.actuation.snapshot()}

    def restore(self, state: dict) -> None:
        self.markets.restore(state["markets"])
        self.servers = np.asarray(state["servers"]).copy()
        if self.actuation is not None:
            self.actuation.restore(state["actuation"])

    def observe(self, k: int):
        """``(t, prices, loads, available)`` of period ``k``, lane-stacked.

        γ > 0 lanes clear against their own lagged demand, as a scalar
        :class:`~repro.pricing.RealTimeMarket` would; γ = 0 lanes pass
        the trace row through bit-identically.
        """
        t = self._start_times + k * self.dt
        prices = self._prices[k]
        if self._coupled:
            prices = self.markets.effective_prices(prices)
        available = self.fleet
        if self._outage_lanes:
            available = self.fleet.copy()
            available[self._outage_lanes] = outage_availability(
                *self._outages, t[self._outage_lanes])
        return t, prices, self._loads[k], available

    def step(self, u: np.ndarray, applied: np.ndarray,
             available: np.ndarray):
        """One period of the plant: ``(workloads, powers, latencies)``.

        ``u`` is every lane's allocation ``(S, N·C)``, ``applied`` its
        running servers ``(S, N)``.  An allocation entry below ``-1e-9``
        raises :class:`~repro.exceptions.ModelError` (smaller ones are
        rounding and count as 0), a server count outside ``[0,
        available]`` raises :class:`~repro.exceptions.ConfigurationError`.
        The drawn power is reported to each lane's market — divided, not
        multiplied by 1e-6, for bit parity with a scalar market's report.
        """
        if np.any(u < -1e-9):
            raise ModelError("allocations must be nonnegative")
        bad = (applied < 0) | (applied > available)
        if bad.any():
            s, j = np.argwhere(bad)[0]
            raise ConfigurationError(
                f"lane {s}: server count {applied[s, j]} outside "
                f"[0, {available[s, j]}] (available) for IDC "
                f"{self.scenarios[s].cluster.idc_names[j]}")
        S, n = applied.shape
        lam = np.maximum(u, 0.0).reshape(S, n, -1).sum(axis=2)
        servers = applied.astype(float)
        powers = self._b1 * lam + self._b0 * servers             # watts
        self.servers = applied
        self.markets.record_demand(powers / 1e6)
        return lam, powers, simplified_latency_batch(lam, servers, self._mu)


def run_lanes(lanes, journal: RunJournal, *, predict_loads: bool = False,
              prediction_horizon: int = 3, monitors=None, step_hook=None,
              resume_force: bool = False) -> list[SimulationResult]:
    """Step a lane set through its scenarios on one plant; one result per lane.

    ``lanes`` carries ``scenarios`` (all sharing ``dt`` and the period
    count), ``policy_name`` and ``fingerprint``, and implements
    ``reset()``, ``decide(k, t, prices, loads, predicted, available,
    servers)``, ``wal_record(...)``, ``snapshot()``/``restore(state)``
    and ``finish(durable_counters, lane_counters)``.  ``monitors``
    aligns with the scenarios (entries may be ``None``); ``step_hook``
    sees lane 0 and is meant for one-lane runs.  The period stages are
    listed in the module docstring.
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
    plant = _LanePlant(scens)
    lanes.reset()

    record = LaneRecord(S, T, n, c, rep.dt)
    guards = {s: TelemetryGuard(n, c) for s, f in enumerate(plant.faults)
              if f.price_faults or f.sensor_faults}
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
        plant.restore(state["plant"])
        record = LaneRecord.from_snapshot(state["record"])
        guards = state["guards"]
        predictor = state["predictor"]
        for mon, snap in zip(monitors, state["monitors"]):
            if mon is not None and snap is not None \
                    and hasattr(mon, "restore"):
                mon.restore(snap)
    journal.open()

    def checkpoint_state(base: bool) -> dict:
        return {
            # the record goes as what it has filled, or in a delta as
            # what it filled since the frame before; the rest of the
            # loop-owned state is small and rides whole in every frame
            "lanes": lanes.snapshot(), "plant": plant.snapshot(),
            "record": record.snapshot() if base else record.chunk(),
            "guards": guards,
            "predictor": predictor,
            "monitors": [mon.snapshot() if mon is not None
                         and hasattr(mon, "snapshot") else None
                         for mon in monitors],
        }

    try:
        for k in range(journal.start_period, T):
            t, prices, loads, available = plant.observe(k)

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
            decision = lanes.decide(k, t, obs_prices, obs_loads, predicted,
                                    available, plant.servers)
            applied = decision.servers if plant.actuation is None \
                else plant.actuation.apply(decision.servers, t, available)

            # Write-ahead: the decision reaches stable storage before it
            # reaches the plant, so after a crash the log is an upper
            # bound on what was actuated (the torn last record, if any,
            # never actuated).
            if journal.wal is not None:
                journal.log(lanes.wal_record(k, t, obs_prices, obs_loads,
                                             decision, applied))

            workloads, powers, latencies = plant.step(decision.u, applied,
                                                      available)
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
                    applied_servers=(applied[s] if plant.has_actuation[s]
                                     else None),
                    available_servers=available[s])
            record.record(k, times=t, powers_watts=powers, servers=applied,
                          workloads=workloads, latencies=latencies,
                          prices=prices, loads=loads,
                          allocations=decision.u,
                          diagnostics=decision.diagnostics)

            action = None
            if step_hook is not None:
                diag = decision.lane(0).diagnostics
                action = step_hook({
                    "period": k, "time_seconds": float(t[0]),
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
    # the demand history, back to each market
    plant.markets.flush(record.series["powers_watts"][:, :record.n_periods])
    for s in np.flatnonzero(plant.has_actuation):
        extras[s].append(plant.actuation.lane_counters(s))
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
    """One scalar policy: :func:`run_simulation`'s lane set.

    Lifts ``Policy.decide`` to the lane axis, keeps the previous
    allocation the policy observes and owns the price forecaster.  Under
    outages it tells its own cluster the available fleet, for the
    policies that read it there, and fires the policy's
    ``on_availability_change`` when that fleet changes.
    """

    def __init__(self, scenario: Scenario, policy: Policy,
                 price_forecaster, prediction_horizon: int) -> None:
        self.scenarios = [scenario]
        self.policy = policy
        self.policy_name = policy.name
        self.price_forecaster = price_forecaster
        self.horizon = prediction_horizon
        self.outages = bool(scenario.faults
                            and split_faults(scenario.faults).outages)
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
        self.u_prev = np.zeros(self.scenarios[0].cluster.n_allocations)
        self.avail_prev = None

    def snapshot(self) -> dict:
        # a checkpoint pickles its state as soon as it is built, so
        # nothing here needs a copy
        policy = self.policy
        return {
            "u_prev": self.u_prev, "avail_prev": self.avail_prev,
            "policy": (policy.snapshot()
                       if hasattr(policy, "snapshot") else None),
            "price_forecaster": self.price_forecaster,
        }

    def restore(self, state: dict) -> None:
        policy = self.policy
        self.u_prev, self.avail_prev = state["u_prev"], state["avail_prev"]
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

    def decide(self, k, t, obs_prices, obs_loads, predicted, available,
               servers):
        if self.outages:
            avail = tuple(int(m) for m in available[0])
            for idc, count in zip(self.scenarios[0].cluster.idcs, avail):
                idc.set_availability(count)
            # constraint geometry changed under the policy's feet: let it
            # drop carried solver state before the next solve
            hook = getattr(self.policy, "on_availability_change", None)
            if hook is not None and self.avail_prev not in (None, avail):
                hook()
            self.avail_prev = avail
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
            prev_servers=servers[0].copy(),
            predicted_loads=None if predicted is None else predicted[0],
            predicted_prices=predicted_prices))
        if not isinstance(decision, AllocationDecision):
            raise ModelError(
                f"policy {self.policy.name!r} returned "
                f"{type(decision).__name__}, expected AllocationDecision")
        lane = _OneLaneDecision(decision)
        self.u_prev = lane.u[0]
        return lane

    def wal_record(self, k, t, obs_prices, obs_loads, decision, applied):
        raw = decision.decision
        record = {
            "type": "decision", "period": k, "time_seconds": float(t[0]),
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

    def finish(self, durable_counters: dict, lane_counters) -> list[dict]:
        policy = self.policy
        perf = policy.perf_snapshot() if hasattr(policy, "perf_snapshot") \
            else {}
        extras = list(lane_counters[0])
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
        telemetry guard, price forecaster, monitor, the plant's
        actuation channel and market, record) to the checkpoint log
        next to the WAL after every this-many completed periods — a
        base, then deltas appended to it — so a resumed run continues
        bit-exact.  Requires ``wal_path``.
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
