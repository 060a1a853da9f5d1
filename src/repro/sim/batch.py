"""Fleet-scale batched simulation: ``S`` scenarios as stacked tensors.

:func:`run_batch` advances a fleet of *independent* closed-loop
scenarios through one process.  Lanes sharing a :func:`batch_signature`
(IDC coefficients, fleet sizes and initial server counts, portal count,
``dt``, period count) form one group, a lone lane included, and each
group runs the engine's one period loop
(:func:`repro.sim.engine.run_lanes`) on its one plant as ``S`` lanes of
:class:`repro.core.BatchCostMPCPolicy`, which shares the heavy work —
RLS/AR prediction, the reference optimum, the MPC QP — across the group
(one horizon build, one KKT factorization, vectorized ADMM iterates),
so a 1000-scenario Monte Carlo costs roughly as much wall-clock as a
handful of one-lane runs.  This module supplies the group's lane set:
the batched policy, the fleet fingerprint and the fleet WAL record.

Every scenario batches: faults, demand-coupled markets (γ > 0) and
every :class:`repro.core.MPCPolicyConfig` are per-lane data of the one
plant.  Telemetry faults change only what a lane's controller sees;
outages change its available fleet, which the policy takes per lane;
actuation faults pass its commands through the plant's actuation
channel.  The caller gets one :class:`~repro.sim.results.
SimulationResult` per scenario, in input order, with per-lane counters
isolated through :class:`~repro.sim.profiling.BatchPerfStats`.
"""

from __future__ import annotations

from dataclasses import replace

# run_simulation and simplified_latency_batch are bound here only so the
# e2e tracer (benchmarks/e2e/tracer.py) finds them at this call site.
from ..datacenter.queueing import simplified_latency_batch  # noqa: F401
from ..exceptions import ConfigurationError
from ..resilience.durability import RunJournal, array_digest
from .engine import run_lanes, run_simulation  # noqa: F401
from .profiling import BatchPerfStats
from .results import SimulationResult
from .scenario import Scenario

__all__ = ["run_batch", "batch_signature"]

#: Per-lane decision digests are logged only up to this batch width —
#: beyond it each WAL record would carry S×64 hex chars per period and
#: the whole-batch digest already proves bit-exactness.
_LANE_DIGEST_MAX = 64


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
    """Run many scenarios under the cost MPC, batched.

    Parameters
    ----------
    scenarios:
        The scenario fleet.  Lanes sharing a :func:`batch_signature`
        step together as stacked tensors, a lone lane as a group of one.
    config:
        Shared :class:`repro.core.MPCPolicyConfig` (default-constructed
        when omitted).  Its ``dt`` is overridden per group by the
        scenario's ``dt``.  Its ``fallback_ladder`` and
        ``deadline_seconds`` arm the per-lane ladder, its ``certify``
        and ``capture_problems`` the per-lane certificates and lane 0's
        QP capture (see :class:`repro.core.BatchCostMPCPolicy`).
    predict_loads, prediction_horizon:
        As in :func:`repro.sim.engine.run_simulation`; groups of two or
        more lanes use the stacked
        :class:`repro.workload.BatchARWorkloadPredictor` (one AR(3)
        channel per (lane, portal)).
    monitors:
        Optional per-scenario invariant monitors (aligned with
        ``scenarios``; entries may be ``None``).  Each monitor sees its
        own lane's decisions, measurements and available fleet exactly
        as under the scalar engine, and its counters land in that
        lane's ``result.perf`` only.
    warm_start:
        Period-0 warm start of the groups — ``"exact"`` (per-lane
        simplex reference LP; trajectory-equivalent to looped runs) or
        ``"waterfill"`` (vectorized, for Monte-Carlo widths).  See
        :class:`repro.core.BatchCostMPCPolicy`.
    perf:
        Optional fleet-level :class:`~repro.sim.profiling.
        BatchPerfStats` sized to the whole fleet.  When given, every
        lane's final counters are folded into its lane slot, so
        ``perf.rollup()`` reports the fleet's totals.
    solver_fault_hook:
        Optional fault-injection hook ``hook(stage, lane, period)`` of
        the groups' :class:`repro.core.BatchCostMPCPolicy` (``lane``
        indexes the group); it switches their shared solve to lane
        isolation.
    checkpoint_every, wal_path, wal_fsync_every, wal_shards,
    resume_from, resume_strict:
        The durable control plane, as in
        :func:`repro.sim.engine.run_simulation`, with the write-ahead
        log striped across ``wal_shards`` files.  Durable runs require
        the lanes to form exactly **one** group.

    Returns
    -------
    list of SimulationResult
        One per scenario, in input order.
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

    from ..core import MPCPolicyConfig
    base_cfg = config if config is not None else MPCPolicyConfig()

    results: list[SimulationResult | None] = [None] * len(scenarios)
    groups: dict[tuple, list[int]] = {}
    for i, sc in enumerate(scenarios):
        groups.setdefault(batch_signature(sc), []).append(i)

    journal = RunJournal(wal_path, resume_from=resume_from,
                         checkpoint_every=checkpoint_every,
                         fsync_every=wal_fsync_every, n_shards=wal_shards,
                         strict=resume_strict)
    if journal.durable and len(groups) != 1:
        raise ConfigurationError(
            f"durable fleet runs need exactly one batched group, got "
            f"{len(groups)}")

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

    The engine's plant steps the lanes; this lane set decides them with
    one :class:`repro.core.BatchCostMPCPolicy`, reconciled each period
    with the server counts the fleets actually ran.
    """

    def __init__(self, scens: list[Scenario], base_cfg, *, warm_start: str,
                 solver_fault_hook) -> None:
        from ..core import BatchCostMPCPolicy

        self.scenarios = scens
        S, rep = len(scens), scens[0]
        cluster = rep.cluster
        dt = float(rep.dt)
        self.perf = BatchPerfStats(S)
        self.policy = BatchCostMPCPolicy(
            cluster, replace(base_cfg, dt=dt), n_scenarios=S,
            perf=self.perf, warm_start=warm_start)
        self.policy.solver_fault_hook = solver_fault_hook
        self.policy_name = self.policy.name
        self.fingerprint = {
            "kind": "batch", "policy": self.policy_name, "n_lanes": S,
            "dt": dt, "n_periods": int(rep.n_periods),
            "n_idcs": cluster.n_idcs, "n_portals": cluster.n_portals,
            "scenarios": [sc.name for sc in scens],
            # a fault hook flips the shared QP into its lane-isolated
            # mode, a *different bit-exact trajectory*: a resume must
            # hook the same way or every replayed digest diverges, so
            # the mismatch fails fast here
            "isolated": self.policy.lane_isolated,
        }

    def reset(self) -> None:
        self.policy.reset()

    def snapshot(self) -> dict:
        # the per-lane counters ride along, so a resumed run reports the
        # whole run's counts as a resumed scalar run does; the
        # checkpoint pickles them at once, so no copy is needed
        return {"policy": self.policy.snapshot(), "perf": self.perf}

    def restore(self, state: dict) -> None:
        self.policy.restore(state["policy"])
        self.perf = self.policy.perf = state["perf"].copy()

    def decide(self, k, t, obs_prices, obs_loads, predicted, available,
               servers):
        self.policy.reconcile_actuation(servers)
        return self.policy.decide_batch(k, obs_prices, obs_loads, predicted,
                                        available=available)

    def wal_record(self, k, t, obs_prices, obs_loads, decision, applied):
        # the applied counts are logged only where an actuation channel
        # can make them differ from the commands
        arrays = [decision.u, decision.servers]
        if applied is not decision.servers:
            arrays.append(applied)
        record = {
            "type": "decision", "period": k, "time_seconds": float(t[0]),
            "obs_sha256": array_digest(obs_prices, obs_loads),
            "decision_sha256": array_digest(*arrays),
        }
        if self.policy.solver_fault_hook is not None:
            record["health"] = self.policy.lane_health()
        if len(self.scenarios) <= _LANE_DIGEST_MAX:
            record["lane_sha256"] = [array_digest(*lane)
                                     for lane in zip(*arrays)]
        return record

    def finish(self, durable_counters: dict, lane_counters) -> list[dict]:
        self.perf.shared.update_counters(durable_counters)
        for s, extras in enumerate(lane_counters):
            for counters in extras:
                self.perf.fold_lane_counters(s, counters)
        return [self.perf.lane_snapshot(s)
                for s in range(len(self.scenarios))]
