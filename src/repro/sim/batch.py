"""Fleet-scale batched simulation: ``S`` scenarios as stacked tensors.

:func:`run_batch` advances a fleet of *independent* closed-loop
scenarios through one process.  Each signature group runs the engine's
one period loop (:func:`repro.sim.engine.run_lanes`) as ``S`` lanes of
:class:`repro.core.BatchCostMPCPolicy`, which shares the heavy work —
RLS/AR prediction, the reference optimum, the MPC QP — across the group
(one horizon build, one KKT factorization, vectorized ADMM iterates),
so a 1000-scenario Monte Carlo costs roughly as much wall-clock as a
handful of one-lane runs.  This module supplies the group's lane set:
the batched policy, the closed-form eq. 7 / eq. 14 plant step, the
fleet fingerprint and the fleet WAL record.

Lanes are partitioned:

* **Batchable lanes** share a :func:`batch_signature` (IDC
  coefficients, fleet sizes and initial server counts, portal count,
  ``dt``, period count) and carry at most *telemetry* faults, which
  only change what each controller sees.  Demand-coupled markets
  (γ > 0) batch too, each lane clearing against its own demand history
  through :class:`repro.pricing.LaneMarketBatch`.  Each signature
  group, a lone lane included, steps together.  Every
  :class:`repro.core.MPCPolicyConfig` runs batched.
* **Plant-mutating faults** (outages, actuation; see
  :func:`scenario_incompatibility`) need the object plant, so those
  lanes run through :func:`repro.sim.engine.run_simulation` under
  :class:`repro.core.CostMPCPolicy` — the same controller, one lane
  wide.

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
from .engine import run_lanes, run_simulation
from .faults import split_faults
from .profiling import BatchPerfStats
from .results import SimulationResult
from .scenario import Scenario

__all__ = ["run_batch", "batch_signature", "scenario_incompatibility"]

#: Per-lane decision digests are logged only up to this batch width —
#: beyond it each WAL record would carry S×64 hex chars per period and
#: the whole-batch digest already proves bit-exactness.
_LANE_DIGEST_MAX = 64


def scenario_incompatibility(scenario: Scenario) -> str | None:
    """Why ``scenario`` cannot ride the batched hot path (None = it can).

    Every config runs batched; this checks the *scenario*: faults that
    mutate the plant (changing per-lane constraint geometry).
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
    freely per lane — they enter only as per-lane vectors.  The server
    counts are the ones every run starts from, so a finished run does
    not change its scenario's signature.
    """
    cl = scenario.cluster
    idcs = tuple(
        (idc.config.service_rate, idc.config.latency_bound,
         idc.config.power_model.b1, idc.config.power_model.b0,
         idc.config.max_servers, idc.initial_servers)
        for idc in cl.idcs)
    return (cl.n_idcs, cl.n_portals, idcs, float(scenario.dt),
            int(scenario.n_periods))


def run_batch(scenarios, config=None, *,
              predict_loads: bool = False,
              prediction_horizon: int = 3,
              monitors=None,
              warm_start: str = "exact",
              perf: BatchPerfStats | None = None,
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
        step together as stacked tensors, a lone lane as a group of one;
        lanes with plant-mutating faults
        (:func:`scenario_incompatibility`) run one at a time through
        :func:`repro.sim.engine.run_simulation`.
    config:
        Shared :class:`repro.core.MPCPolicyConfig` (default-constructed
        when omitted).  Its ``dt`` is overridden per lane/group by the
        scenario's ``dt``.  Its ``fallback_ladder`` and
        ``deadline_seconds`` arm the per-lane ladder, its ``certify``
        and ``capture_problems`` the per-lane certificates and lane 0's
        QP capture (see :class:`repro.core.BatchCostMPCPolicy`).
    predict_loads, prediction_horizon:
        As in :func:`repro.sim.engine.run_simulation`; batched groups
        use the stacked :class:`repro.workload.BatchARWorkloadPredictor`
        (one AR(3) channel per (lane, portal)).
    monitors:
        Optional per-scenario invariant monitors (aligned with
        ``scenarios``; entries may be ``None``).  Each monitor sees its
        own lane's decisions and measurements exactly as under the
        scalar engine, and its counters land in that lane's
        ``result.perf`` only.
    warm_start:
        Period-0 warm start of batched groups — ``"exact"`` (per-lane
        simplex reference LP; trajectory-equivalent to looped runs) or
        ``"waterfill"`` (vectorized, for Monte-Carlo widths).  See
        :class:`repro.core.BatchCostMPCPolicy`.
    perf:
        Optional fleet-level :class:`~repro.sim.profiling.
        BatchPerfStats` sized to the whole fleet.  When given, every
        lane's final counters are folded into its lane slot and each
        scalar fallback is recorded by reason, so ``perf.rollup()``
        reports how many lanes fell off the batched path and why.
    solver_fault_hook:
        Optional fault-injection hook ``hook(stage, lane, period)`` of
        the batched groups' :class:`repro.core.BatchCostMPCPolicy`; it
        switches their shared solve to lane isolation.  Lanes routed to
        :func:`~repro.sim.engine.run_simulation` are unaffected (their
        scenarios never see the hook).
    checkpoint_every, wal_path, wal_fsync_every, wal_shards,
    resume_from, resume_strict:
        The durable control plane, as in
        :func:`repro.sim.engine.run_simulation`, with the write-ahead
        log striped across ``wal_shards`` files.  Durable runs require
        the batchable lanes to form exactly **one** group;
        scalar-fallback lanes re-run deterministically on resume,
        outside the WAL's scope.

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

    from ..core import CostMPCPolicy, MPCPolicyConfig
    base_cfg = config if config is not None else MPCPolicyConfig()

    results: list[SimulationResult | None] = [None] * len(scenarios)
    groups: dict[tuple, list[int]] = {}
    scalar_lanes: list[tuple[int, str]] = []
    for i, sc in enumerate(scenarios):
        reason = scenario_incompatibility(sc)
        if reason is not None:
            scalar_lanes.append((i, reason))
        else:
            groups.setdefault(batch_signature(sc), []).append(i)

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
            prediction_horizon=prediction_horizon,
            monitor=None if monitors is None else monitors[i])
        res.perf.setdefault("counters", {})["batch_scalar_fallback"] = 1
        res.perf["batch_fallback_reason"] = reason
        results[i] = res
        if perf is not None:
            perf.note_fallback(reason)

    for lanes in groups.values():
        group = _BatchGroup(
            [scenarios[i] for i in lanes], base_cfg, warm_start=warm_start,
            solver_fault_hook=solver_fault_hook)
        group_results = run_lanes(
            group, journal, predict_loads=predict_loads,
            prediction_horizon=prediction_horizon,
            monitors=(None if monitors is None
                      else [monitors[i] for i in lanes]))
        for i, res in zip(lanes, group_results):
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


class _BatchGroup:
    """One signature group: ``S`` lanes of the batched MPC.

    Steps :class:`repro.core.BatchCostMPCPolicy` on the closed-form
    plant — eq. 7 workloads, eq. 14 power, the simplified latency — with
    each lane's market cleared through
    :class:`repro.pricing.LaneMarketBatch`.  No plant object is touched,
    which is why outage and actuation faults cannot ride this path.
    """

    has_actuation = False

    def __init__(self, scens: list[Scenario], base_cfg, *, warm_start: str,
                 solver_fault_hook) -> None:
        from ..core import BatchCostMPCPolicy
        from ..core.reference_opt import Waterfill

        self.scenarios = scens
        S, rep = len(scens), scens[0]
        T, cluster = rep.n_periods, rep.cluster
        n, c = cluster.n_idcs, cluster.n_portals
        self.dt = dt = float(rep.dt)
        self.perf = BatchPerfStats(S)
        self.policy = BatchCostMPCPolicy(
            cluster, replace(base_cfg, dt=dt), n_scenarios=S,
            perf=self.perf, warm_start=warm_start)
        self.policy.solver_fault_hook = solver_fault_hook
        self.policy_name = self.policy.name
        self.fingerprint = {
            "kind": "batch", "policy": self.policy_name, "n_lanes": S,
            "dt": dt, "n_periods": int(T), "n_idcs": n, "n_portals": c,
            "scenarios": [sc.name for sc in scens],
            # a fault hook flips the shared QP into its lane-isolated
            # mode, a *different bit-exact trajectory*: a resume must
            # hook the same way or every replayed digest diverges, so
            # the mismatch fails fast here
            "isolated": self.policy.lane_isolated,
        }
        plant = Waterfill(cluster)        # eq. 14 power, eq. 3 latency
        self._b1, self._b0, self._mu = plant.b1, plant.b0, plant.mu

        # Each lane's *base* price trajectory is a trace-table lookup —
        # vectorize it over periods up front instead of S·N·T Python
        # calls in the loop.  Demand feedback (γ > 0 lanes), when
        # present, is a per-period (S, N) clearing step on top.
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

    def reset(self) -> None:
        from ..pricing import LaneMarketBatch
        self.policy.reset()
        self.markets = LaneMarketBatch(
            (sc.market, sc.cluster.regions) for sc in self.scenarios)
        self._coupled = self.markets.any_coupled

    def snapshot(self) -> dict:
        return {"policy": self.policy.snapshot(),
                "lane_markets": self.markets.snapshot()}

    def restore(self, state: dict) -> None:
        self.policy.restore(state["policy"])
        self.markets.restore(state["lane_markets"])

    def observe(self, k: int):
        # γ > 0 lanes clear against their own lagged demand, exactly as
        # S scalar RealTimeMarkets would; γ = 0 lanes pass the base row
        # through bit-identically (np.where inside effective_prices).
        prices = self._prices[k]
        if self._coupled:
            prices = self.markets.effective_prices(prices)
        return self._start_times + k * self.dt, prices, self._loads[k]

    def decide(self, k, t, obs_prices, obs_loads, predicted):
        return self.policy.decide_batch(k, obs_prices, obs_loads, predicted)

    def actuate(self, decision, t) -> np.ndarray:
        return decision.servers

    def wal_record(self, k, t, obs_prices, obs_loads, decision, applied):
        record = {
            "type": "decision", "period": k, "time_seconds": float(t[0]),
            "obs_sha256": array_digest(obs_prices, obs_loads),
            "decision_sha256": array_digest(decision.u, decision.servers),
        }
        if self.policy.lane_isolated:
            record["health"] = self.policy.lane_health()
        if len(self.scenarios) <= _LANE_DIGEST_MAX:
            record["lane_sha256"] = [
                array_digest(u, servers)
                for u, servers in zip(decision.u, decision.servers)]
        return record

    def step(self, decision, applied: np.ndarray):
        S, n = applied.shape
        servers = applied.astype(float)
        lam = decision.u.reshape(S, n, -1).sum(axis=2)
        powers = self._b1 * lam + self._b0 * servers             # watts
        return lam, powers, simplified_latency_batch(lam, servers, self._mu)

    def report_demand(self, powers: np.ndarray) -> None:
        # the scalar engine's demand report (division, not *1e-6, for
        # bit parity); γ = 0 markets never read it back, but their
        # demand_history must still match a looped run's.
        self.markets.record_demand(powers / 1e6)

    def finish(self, durable_counters: dict, lane_counters) -> list[dict]:
        self.perf.shared.update_counters(durable_counters)
        self.markets.flush()
        for s, extras in enumerate(lane_counters):
            for counters in extras:
                self.perf.fold_lane_counters(s, counters)
        return [self.perf.lane_snapshot(s)
                for s in range(len(self.scenarios))]
