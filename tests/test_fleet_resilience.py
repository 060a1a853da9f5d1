"""Fleet-grade resilience: lane isolation, quarantine, durable resume.

Three contracts stacked on the batched engine:

1. **Lane fault isolation** — installing a fault hook switches the
   shared QP into its lane-decoupled mode, so a poisoned lane can
   never change a healthy lane's decisions *bitwise* (relative to an
   equally hooked fault-free baseline).
2. **Durable fleet control plane** — ``run_batch`` and
   ``SharedMarketFleet.run`` survive a kill at *every* period and
   resume bit-exact from the sharded WAL + fleet checkpoint.
3. **Fleet chaos** — seeded multi-lane fault storms end with every
   lane NOMINAL or cleanly quarantined and healthy lanes untouched.
"""

import json
import os

import numpy as np
import pytest

from repro.core import MPCPolicyConfig
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    ConvergenceError,
)
from repro.optim.qp_admm import prepare_batch_admm, solve_qp_admm_batch
from repro.pricing import (
    LaneMarketBatch,
    RealTimeMarket,
    RegionMarketConfig,
    SharedMarket,
    paper_price_traces,
)
from repro.resilience import (
    FleetHealth,
    SimulatedCrashError,
    WriteAheadLog,
    load_resume_state,
    read_wal,
    wal_shard_paths,
)
from repro.sim import (
    SharedMarketFleet,
    monte_carlo_scenarios,
    paper_cluster,
    run_batch,
)
from repro.sim.profiling import BatchPerfStats
from repro.sim.scenario import PAPER_IDC_SPECS, PAPER_PORTAL_LOADS
from repro.verify import GridMonitor, run_batch_chaos_seed
from repro.verify.fuzz import build_scenario, generate_batch_specs


def _noop_hook(stage, lane, period):
    return None


# ---------------------------------------------------------------------------
# lane-isolated batched ADMM: bitwise decoupling at the solver level
# ---------------------------------------------------------------------------
class TestLaneIsolatedSolver:
    def _problem(self, S=6, n=12, m=20, seed=0, rank=None):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n, n))
        if rank is None:
            P = M @ M.T + 0.1 * np.eye(n)
        else:
            P = M[:, :rank] @ M[:, :rank].T
        A = rng.standard_normal((m, n))
        Q = rng.standard_normal((S, n)) * 100.0
        L = -np.abs(rng.standard_normal((S, m))) * 10.0
        U = np.abs(rng.standard_normal((S, m))) * 10.0
        return P, A, Q, L, U

    def test_perturbed_lane_never_touches_others_bitwise(self):
        P, A, Q, L, U = self._problem()
        Q2 = Q.copy()
        Q2[2] *= 3.0
        res = solve_qp_admm_batch(P, Q, A, L, U,
                                  setup=prepare_batch_admm(P, A),
                                  lane_isolated=True)
        pert = solve_qp_admm_batch(P, Q2, A, L, U,
                                   setup=prepare_batch_admm(P, A),
                                   lane_isolated=True)
        for i in range(Q.shape[0]):
            if i == 2:
                continue
            np.testing.assert_array_equal(res.X[i], pert.X[i])
            np.testing.assert_array_equal(res.Y[i], pert.Y[i])
            assert res.iterations[i] == pert.iterations[i]

    def test_shared_mode_is_not_isolated(self):
        # The compacted shared-rho hot loop leaks convergence timing
        # across lanes — that is exactly why the armed path must switch
        # modes.  Pin the contrast so a future "optimization" of the
        # isolated path back onto the shared one fails loudly.  A
        # rank-deficient Hessian switches the polish off, so the lanes
        # converge by ADMM at different iterations.
        P, A, Q, L, U = self._problem(rank=8)
        Q2 = Q.copy()
        Q2[2] *= 3.0
        res = solve_qp_admm_batch(P, Q, A, L, U,
                                  setup=prepare_batch_admm(P, A))
        pert = solve_qp_admm_batch(P, Q2, A, L, U,
                                   setup=prepare_batch_admm(P, A))
        assert (res.iterations > 1).all() and not res.polished.any()
        same = [np.array_equal(res.X[i], pert.X[i])
                for i in range(Q.shape[0]) if i != 2]
        assert not all(same)

    def test_isolated_matches_shared_solution_to_tolerance(self):
        P, A, Q, L, U = self._problem()
        shared = solve_qp_admm_batch(P, Q, A, L, U,
                                     setup=prepare_batch_admm(P, A))
        isolated = solve_qp_admm_batch(P, Q, A, L, U,
                                       setup=prepare_batch_admm(P, A),
                                       lane_isolated=True)
        assert shared.converged.all() and isolated.converged.all()
        np.testing.assert_allclose(isolated.fun, shared.fun,
                                   rtol=1e-4, atol=1e-6)

    def test_per_lane_rho_persists_and_stays_decoupled(self):
        # Warm re-solves reuse setup.rho_lanes; the persisted penalties
        # must themselves be lane-local state.
        P, A, Q, L, U = self._problem()
        Q2 = Q.copy()
        Q2[2] *= 3.0
        s1 = prepare_batch_admm(P, A)
        solve_qp_admm_batch(P, Q, A, L, U, setup=s1, lane_isolated=True)
        assert s1.rho_lanes is not None
        warm1 = solve_qp_admm_batch(P, Q * 1.1, A, L, U, setup=s1,
                                    lane_isolated=True)
        s2 = prepare_batch_admm(P, A)
        solve_qp_admm_batch(P, Q2, A, L, U, setup=s2, lane_isolated=True)
        warm2 = solve_qp_admm_batch(P, Q * 1.1, A, L, U, setup=s2,
                                    lane_isolated=True)
        for i in range(Q.shape[0]):
            if i != 2:
                np.testing.assert_array_equal(warm1.X[i], warm2.X[i])

    def test_lane_kinv_is_memoised(self):
        P, A, _Q, _L, _U = self._problem()
        setup = prepare_batch_admm(P, A)
        first = setup.lane_kinv(0.5)
        refac = setup.refactorizations
        assert setup.lane_kinv(0.5) is first
        assert setup.refactorizations == refac
        setup.lane_kinv(0.7)
        assert setup.refactorizations == refac + 1


# ---------------------------------------------------------------------------
# FleetHealth: per-lane supervisor machines + permanent quarantine
# ---------------------------------------------------------------------------
class TestFleetHealth:
    def test_degraded_recovers_after_clean_streak(self):
        h = FleetHealth(3, recovery_periods=2, quarantine_after=5)
        h.observe(1, "degraded")
        assert h.label(1) == "degraded"
        h.observe(1, "clean")
        assert h.label(1) == "recovering"
        h.observe(1, "clean")
        assert h.label(1) == "nominal"
        assert h.label(0) == "nominal"        # untouched lanes stay clean
        assert h.touched == [1]

    def test_repeated_failures_quarantine_permanently(self):
        h = FleetHealth(2, recovery_periods=2, quarantine_after=3)
        for _ in range(3):
            h.observe(0, "degraded")
        assert h.quarantined[0]
        assert h.label(0) == "quarantined"
        # quarantine is permanent: clean periods do not lift it
        for _ in range(10):
            h.observe(0, "clean")
        assert h.quarantined[0]
        assert not h.quarantined[1]

    def test_clean_breaks_the_failure_streak(self):
        h = FleetHealth(1, recovery_periods=1, quarantine_after=3)
        h.observe(0, "degraded")
        h.observe(0, "degraded")
        h.observe(0, "clean")
        h.observe(0, "degraded")
        h.observe(0, "degraded")
        assert not h.quarantined[0]

    def test_snapshot_restore_round_trip(self):
        h = FleetHealth(3, recovery_periods=2, quarantine_after=2)
        h.observe(0, "degraded")
        h.observe(2, "safe")
        h.observe(2, "safe")
        snap = h.snapshot()
        h2 = FleetHealth(3, recovery_periods=2, quarantine_after=2)
        h2.restore(snap)
        assert [h2.label(s) for s in range(3)] == \
            [h.label(s) for s in range(3)]
        assert np.array_equal(h2.quarantined, h.quarantined)
        assert h2.counters == h.counters


# ---------------------------------------------------------------------------
# Sharded WAL: routing, merge, torn tails
# ---------------------------------------------------------------------------
class TestShardedWal:
    def test_records_route_by_period_and_merge_sorted(self, tmp_path):
        path = str(tmp_path / "fleet.wal")
        wal = WriteAheadLog(path, n_shards=3)
        wal.append({"type": "begin", "fingerprint": {"k": 1}})
        for k in range(7):
            wal.append({"type": "decision", "period": k})
        wal.close()
        shards = wal_shard_paths(path, 3)
        assert shards[0] == path
        assert all(os.path.exists(p) for p in shards)
        merged = read_wal(path, n_shards=3)
        periods = [r["period"] for r in merged if r["type"] == "decision"]
        assert periods == list(range(7))

    def test_torn_shard_tail_is_tolerated(self, tmp_path):
        path = str(tmp_path / "fleet.wal")
        wal = WriteAheadLog(path, n_shards=2)
        wal.append({"type": "begin", "fingerprint": {"k": 1}})
        for k in range(6):
            wal.append({"type": "decision", "period": k})
        wal.close()
        # tear the tail of shard 1 mid-record (simulated torn write)
        shard1 = wal_shard_paths(path, 2)[1]
        data = open(shard1, "rb").read()
        with open(shard1, "wb") as f:
            f.write(data[:-7])
        merged = read_wal(path, n_shards=2)
        periods = [r["period"] for r in merged if r["type"] == "decision"]
        # shard 1 held the odd periods; its last record was torn off
        assert periods == [0, 1, 2, 3, 4]

    def test_resume_state_uses_newest_complete_period(self, tmp_path):
        path = str(tmp_path / "fleet.wal")
        wal = WriteAheadLog(path, n_shards=2)
        wal.append({"type": "begin", "fingerprint": {"k": 1}})
        for k in range(4):
            wal.append({"type": "decision", "period": k})
        wal.close()
        state = load_resume_state(path, n_shards=2)
        assert state.header["fingerprint"] == {"k": 1}
        tail = dict(state.tail_after(2))
        assert sorted(tail) == [2, 3]

    def test_byte_layout_is_pinned(self, tmp_path):
        # One compact, key-sorted JSON line per record; the begin record
        # in every shard; shard 0 at the base path, shard k beside it.
        path = str(tmp_path / "fleet.wal")
        wal = WriteAheadLog(path, n_shards=2)
        wal.append({"type": "begin", "wal_version": 1,
                    "fingerprint": {"n": 2, "k": "x"}})
        for k in range(3):
            wal.append({"type": "decision", "period": k, "b": [1, 2]})
        wal.append({"type": "resume", "period": 1, "tail_records": 2})
        wal.close()
        begin = (b'{"fingerprint":{"k":"x","n":2},"type":"begin",'
                 b'"wal_version":1}\n')
        assert wal_shard_paths(path, 2) == [path, path + ".shard1"]
        assert open(path, "rb").read() == (
            begin
            + b'{"b":[1,2],"period":0,"type":"decision"}\n'
            + b'{"b":[1,2],"period":2,"type":"decision"}\n')
        assert open(path + ".shard1", "rb").read() == (
            begin
            + b'{"b":[1,2],"period":1,"type":"decision"}\n'
            + b'{"period":1,"tail_records":2,"type":"resume"}\n')
        assert wal.counters["wal_records"] == 6  # begin counted twice


# ---------------------------------------------------------------------------
# GridMonitor: clearing non-convergence is a first-class violation
# ---------------------------------------------------------------------------
class TestGridMonitorClearing:
    def _observe(self, mon, converged):
        mon.observe(period=0, time_seconds=0.0,
                    prices=np.array([30.0, 31.0]),
                    base_prices=np.array([30.0, 30.0]),
                    agg_demand_mw=np.array([5.0, 5.0]),
                    clearing_converged=converged)

    def test_nonconverged_clearing_counts_as_violation(self):
        mon = GridMonitor()
        assert "clearing_nonconverged" in GridMonitor.KINDS
        self._observe(mon, converged=True)
        self._observe(mon, converged=False)
        self._observe(mon, converged=None)    # lagged clearing: exempt
        counters = mon.counters()
        assert counters["grid_clearing_nonconverged"] == 1
        assert counters["grid_violations"] == 1

    def test_counter_survives_snapshot_restore(self):
        mon = GridMonitor()
        self._observe(mon, converged=False)
        mon2 = GridMonitor()
        mon2.restore(mon.snapshot())
        assert mon2.counters()["grid_clearing_nonconverged"] == 1


# ---------------------------------------------------------------------------
# SharedMarket / LaneMarketBatch: one stability semantics
# ---------------------------------------------------------------------------
class TestMarketStabilityParity:
    def _markets(self, gamma):
        traces = paper_price_traces()
        regions = [name for name, _f, _mu in PAPER_IDC_SPECS]
        cfgs = {
            name: RegionMarketConfig(trace=traces[name],
                                     demand_sensitivity=gamma,
                                     nominal_power_mw=5.0)
            for name in regions}
        lanes = [RealTimeMarket(dict(cfgs)) for _ in range(3)]
        batch = LaneMarketBatch((m, regions) for m in lanes)
        shared = SharedMarket(dict(cfgs))
        return batch, shared

    def test_stability_bounds_agree(self):
        batch, shared = self._markets(gamma=0.4)
        assert batch.stability_bound(30.0, 0.1) == \
            pytest.approx(shared.stability_bound(30.0, 0.1))

    def test_require_stable_raises_consistently(self):
        batch, shared = self._markets(gamma=50.0)
        with pytest.raises(ConvergenceError):
            shared.require_stable(30.0, 5.0)
        with pytest.raises(ConvergenceError):
            batch.require_stable(30.0, 5.0)
        calm_batch, calm_shared = self._markets(gamma=0.01)
        calm_shared.require_stable(30.0, 0.01)
        calm_batch.require_stable(30.0, 0.01)


# ---------------------------------------------------------------------------
# actuation-fault lanes ride the group through the plant's channel
# ---------------------------------------------------------------------------
class TestActuationRouting:
    def test_actuation_lanes_batch(self):
        specs = generate_batch_specs(7, 6, actuation_faults=True)
        assert any(sp.get("actuation") for sp in specs)
        built = [build_scenario(sp) for sp in specs]
        results = run_batch([b[0] for b in built], built[0][1])
        for sp, res in zip(specs, results):
            counters = res.perf["counters"]
            assert res.policy_name == "mpc_batch"
            assert res.perf["batch_n_scenarios"] == len(specs)
            # every lane carries the shared-solve counters, only the
            # actuation lanes the channel's
            assert counters.get("batch_qp_solves", 0) >= 1
            assert ("actuation_commands" in counters) \
                == bool(sp.get("actuation"))


# ---------------------------------------------------------------------------
# the config's ladder and deadline arm the batched lanes
# ---------------------------------------------------------------------------
class TestBatchedLadderConfig:
    def test_ladder_and_deadline_keep_the_shared_solve(self):
        # lane isolation is keyed on the fault hook alone: a configured
        # ladder or deadline, with nothing failing, is the unarmed run
        plain = run_batch(monte_carlo_scenarios(4, seed=3, duration=300.0),
                          MPCPolicyConfig(dt=30.0))
        armed = run_batch(monte_carlo_scenarios(4, seed=3, duration=300.0),
                          MPCPolicyConfig(dt=30.0, fallback_ladder=True,
                                          deadline_seconds=10.0))
        for p, a in zip(plain, armed):
            assert a.policy_name == "mpc_batch"
            np.testing.assert_array_equal(a.allocations, p.allocations)
            np.testing.assert_array_equal(np.asarray(a.cost_usd),
                                          np.asarray(p.cost_usd))

    def test_spent_deadline_skips_the_solver_rungs(self):
        # one DeadlineBudget per period: at 1e-9 s it is spent before
        # the poisoned lane is ejected, so its ladder skips ``cold`` and
        # lands on ``hold``; every other lane is bit-identical to an
        # equally hooked run without the deadline
        S, bad, periods = 4, 2, (3, 4)

        def hook(stage, lane, period):
            if stage == "batch_qp" and lane == bad and period in periods:
                raise ConvergenceError("poisoned")

        base = run_batch(monte_carlo_scenarios(S, seed=3, duration=300.0),
                         MPCPolicyConfig(dt=30.0), solver_fault_hook=hook)
        timed = run_batch(monte_carlo_scenarios(S, seed=3, duration=300.0),
                          MPCPolicyConfig(dt=30.0, deadline_seconds=1e-9),
                          solver_fault_hook=hook)
        assert base[bad].perf["counters"]["ladder_rung_cold"] == 2
        counters = timed[bad].perf["counters"]
        assert counters["ladder_skipped_cold"] == 2
        assert counters["ladder_rung_hold"] == 2
        assert "ladder_rung_cold" not in counters
        for i in range(S):
            if i == bad:
                continue
            np.testing.assert_array_equal(timed[i].allocations,
                                          base[i].allocations)
            np.testing.assert_array_equal(np.asarray(timed[i].cost_usd),
                                          np.asarray(base[i].cost_usd))

    def test_shedding_lane_declares_shed_requests(self):
        # Lane 0's portals jump past the whole fleet's capacity after
        # period 0, and every solver rung fails: its ladder lands on the
        # hold projection, which sheds the overflow.  The shed is
        # declared under the key the invariant monitor reads, so the
        # monitor excuses the routed gap (no conservation violation) and
        # counts one shed period per overloaded period.  (The lanes
        # track a power schedule: the reference LP has no solution for
        # a load beyond the fleet's capacity.)
        from dataclasses import replace

        from repro.core.reference_opt import Waterfill
        from repro.verify import InvariantMonitor
        from repro.workload import PortalSet, PortalWorkload

        # three overloaded periods: a fourth would quarantine the lane
        scens = monte_carlo_scenarios(2, seed=3, dt=60.0, duration=240.0)
        cluster = scens[0].cluster
        rates = np.array([p.rate for p in cluster.portals.portals])
        capacity = Waterfill(cluster).caps.sum()
        surge = np.ones(scens[0].n_periods)
        surge[1:] = 1.5 * capacity / rates.sum()
        portals = PortalSet(portals=[
            PortalWorkload(name=p.name, trace=p.rate * surge)
            for p in cluster.portals.portals])
        scens[0] = replace(scens[0], cluster=type(cluster)(
            cluster.idcs, portals))

        def always_fail(stage, lane, period):
            if lane == 0 and period >= 1:
                raise ConvergenceError(f"injected at {stage}")

        monitors = [InvariantMonitor(), InvariantMonitor()]
        cfg = MPCPolicyConfig(dt=60.0, power_schedule_watts=np.full(
            (scens[0].n_periods, cluster.n_idcs), 5.0e6))
        results = run_batch(scens, cfg, monitors=monitors,
                            solver_fault_hook=always_fail)
        overloaded = scens[0].n_periods - 1
        assert results[0].perf["counters"]["ladder_rung_hold"] == overloaded
        assert results[0].perf["counters"]["monitor_shed_periods"] \
            == overloaded
        assert not [v for v in monitors[0].violations
                    if v.kind == "conservation"]
        assert all(d["shed_requests"] > 0
                   for d in results[0].diagnostics[1:])
        assert monitors[1].n_violations == 0


    def test_overloaded_lanes_shed_without_touching_the_group(self):
        # Lane 1's portals offer 1.5x the fleet's capacity from period 1
        # on, and lane 3 loses most of its fleet for three periods: with
        # no power schedule, each is ejected to its own ladder, whose
        # hold projection sheds the excess and declares it.  Every other
        # lane is bit-identical to the same-width group in which those
        # two lanes' loads are servable.
        from dataclasses import replace

        from repro.core.reference_opt import Waterfill
        from repro.sim import FleetOutage
        from repro.verify import InvariantMonitor
        from repro.workload import PortalSet, PortalWorkload

        S = 5

        def fleet(overloaded):
            scens = monte_carlo_scenarios(S, seed=3, dt=60.0,
                                          duration=360.0)
            if not overloaded:
                return scens
            cluster = scens[1].cluster
            rates = np.array([p.rate for p in cluster.portals.portals])
            surge = np.ones(scens[1].n_periods)
            surge[1:] = 1.5 * Waterfill(cluster).caps.sum() / rates.sum()
            scens[1] = replace(scens[1], cluster=type(cluster)(
                cluster.idcs, PortalSet(portals=[
                    PortalWorkload(name=p.name, trace=p.rate * surge)
                    for p in cluster.portals.portals])))
            t0 = scens[3].start_time
            scens[3] = replace(scens[3], faults=[
                FleetOutage(name, t0 + 120.0, t0 + 300.0, 0.2)
                for name in scens[3].cluster.idc_names])
            return scens

        cfg = MPCPolicyConfig(dt=60.0)
        base = run_batch(fleet(False), cfg, solver_fault_hook=_noop_hook)
        monitors = [InvariantMonitor() for _ in range(S)]
        res = run_batch(fleet(True), cfg, monitors=monitors,
                        solver_fault_hook=_noop_hook)
        for lane, periods in ((1, range(1, 6)), (3, range(2, 5))):
            counters = res[lane].perf["counters"]
            assert counters["monitor_shed_periods"] == len(periods)
            assert [k for k, d in enumerate(res[lane].diagnostics)
                    if d.get("shed_requests", 0.0) > 0] == list(periods)
            assert not [v for v in monitors[lane].violations
                        if v.kind == "conservation"]
        for lane in (0, 2, 4):
            np.testing.assert_array_equal(res[lane].allocations,
                                          base[lane].allocations)
            np.testing.assert_array_equal(np.asarray(res[lane].cost_usd),
                                          np.asarray(base[lane].cost_usd))
            assert monitors[lane].n_violations == 0

    def test_unarmed_overload_names_the_lane(self):
        from repro.exceptions import CapacityError
        from repro.sim import FleetOutage

        scens = monte_carlo_scenarios(3, seed=3, duration=300.0)
        t0 = scens[2].start_time
        scens[2] = scens[2].__class__(**{**scens[2].__dict__, "faults": [
            FleetOutage(name, t0 + 60.0, t0 + 120.0, 0.1)
            for name in scens[2].cluster.idc_names]})
        with pytest.raises(CapacityError, match="lane 2"):
            run_batch(scens, MPCPolicyConfig(dt=30.0))


# ---------------------------------------------------------------------------
# durable fleet control plane: kill at every period, resume bit-exact
# ---------------------------------------------------------------------------
def _durable_fleet(S):
    """``S`` Monte-Carlo lanes plus one outage and one actuation lane."""
    from dataclasses import replace

    from repro.sim import CommandDrop, FleetOutage, PartialApply

    scens = monte_carlo_scenarios(S + 2, seed=3, duration=300.0)
    t0 = scens[0].start_time
    names = scens[0].cluster.idc_names
    scens[S] = replace(scens[S], faults=[
        FleetOutage(names[0], t0 + 90.0, t0 + 210.0, 0.5)])
    scens[S + 1] = replace(scens[S + 1], faults=[
        CommandDrop(names[1], t0 + 60.0, t0 + 150.0),
        PartialApply(names[2], t0 + 120.0, t0 + 240.0, fraction=0.5)])
    return scens


class TestDurableBatchResume:
    def test_kill_at_every_period_resumes_bit_exact_s16(self, tmp_path):
        S, T = 16, 10
        cfg = MPCPolicyConfig(dt=30.0)
        base = run_batch(_durable_fleet(S), cfg,
                         solver_fault_hook=_noop_hook)
        assert base[S].perf["counters"]["availability_resets"] == 2
        assert base[S + 1].perf["counters"][
            "actuation_faulted_periods"] > 0
        base_u = [r.allocations.copy() for r in base]
        base_cost = [np.asarray(r.cost_usd).copy() for r in base]

        for crash_at in range(1, T):
            wal = str(tmp_path / f"fleet_{crash_at}.wal")

            def hook(stage, lane, period, _c=crash_at):
                if stage == "batch_qp" and period == _c and lane == 0:
                    raise SimulatedCrashError(f"crash@{_c}")

            with pytest.raises(SimulatedCrashError):
                run_batch(_durable_fleet(S), cfg, checkpoint_every=3,
                          wal_path=wal, wal_shards=2,
                          solver_fault_hook=hook)
            res = run_batch(_durable_fleet(S), cfg, checkpoint_every=3,
                            wal_path=wal, wal_shards=2, resume_from=wal,
                            solver_fault_hook=_noop_hook)
            for i in range(S + 2):
                np.testing.assert_array_equal(res[i].allocations,
                                              base_u[i])
                np.testing.assert_array_equal(
                    np.asarray(res[i].cost_usd), base_cost[i])
            counters = res[0].perf["counters"]
            assert counters.get("batch_wal_tail_mismatches", 0) == 0

    def test_resumed_run_reports_the_whole_runs_counters(self, tmp_path):
        # the checkpoint carries the group's per-lane perf counters, so
        # a resumed run counts every period as an uninterrupted one does
        cfg = MPCPolicyConfig(dt=30.0)
        wal = str(tmp_path / "mc.wal")

        def scens():
            return monte_carlo_scenarios(3, seed=3, duration=600.0)

        def hook(stage, lane, period):
            if stage == "batch_qp" and period == 13 and lane == 0:
                raise SimulatedCrashError("crash@13")

        base = run_batch(scens(), cfg, solver_fault_hook=_noop_hook)
        with pytest.raises(SimulatedCrashError):
            run_batch(scens(), cfg, checkpoint_every=4, wal_path=wal,
                      solver_fault_hook=hook)
        res = run_batch(scens(), cfg, checkpoint_every=4, wal_path=wal,
                        resume_from=wal, solver_fault_hook=_noop_hook)
        counters = res[0].perf["counters"]
        assert counters["batch_resumed_from_period"] == 12
        assert counters["batch_qp_solves"] == 20
        assert counters["ladder_rung_warm"] == 20
        for key in ("batch_qp_solves", "ladder_rung_warm"):
            assert counters[key] == base[0].perf["counters"][key]

    def test_resume_requires_matching_arming(self, tmp_path):
        # The WAL fingerprint records whether the run was armed (the
        # lane-isolated trajectory differs bitwise); resuming with
        # different arming must fail fast, not diverge digest by digest.
        cfg = MPCPolicyConfig(dt=30.0)
        wal = str(tmp_path / "fleet.wal")

        def hook(stage, lane, period):
            if stage == "batch_qp" and period == 2 and lane == 0:
                raise SimulatedCrashError("crash@2")

        with pytest.raises(SimulatedCrashError):
            run_batch(monte_carlo_scenarios(4, seed=3, duration=300.0),
                      cfg, checkpoint_every=2, wal_path=wal,
                      wal_shards=2, solver_fault_hook=hook)
        with pytest.raises(CheckpointError):
            run_batch(monte_carlo_scenarios(4, seed=3, duration=300.0),
                      cfg, checkpoint_every=2, wal_path=wal,
                      wal_shards=2, resume_from=wal)

    def test_checkpoint_without_wal_is_a_config_error(self):
        cfg = MPCPolicyConfig(dt=30.0)
        with pytest.raises(ConfigurationError):
            run_batch(monte_carlo_scenarios(2, seed=3, duration=300.0),
                      cfg, checkpoint_every=2)

    def test_orphaned_checkpoint_is_refused(self, tmp_path):
        cfg = MPCPolicyConfig(dt=30.0)
        wal = str(tmp_path / "fleet.wal")
        run_batch(monte_carlo_scenarios(2, seed=3, duration=300.0), cfg,
                  checkpoint_every=2, wal_path=wal, wal_shards=2)
        os.unlink(wal)  # shard 0 gone, its checkpoint left behind
        with pytest.raises(CheckpointError, match="missing or was"):
            run_batch(monte_carlo_scenarios(2, seed=3, duration=300.0),
                      cfg, checkpoint_every=2, wal_path=wal, wal_shards=2)


class TestDurableFleetMarketResume:
    @staticmethod
    def _make(S):
        traces = paper_price_traces()
        regions = [name for name, _f, _mu in PAPER_IDC_SPECS]
        market = SharedMarket({
            name: RegionMarketConfig(trace=traces[name],
                                     demand_sensitivity=0.3,
                                     nominal_power_mw=5.0 * S)
            for name in regions})
        rng = np.random.default_rng(0)
        base = np.asarray(PAPER_PORTAL_LOADS)
        loads = base * np.clip(
            1.0 + 0.1 * rng.standard_normal((S, base.size)), 0.5, 1.3)
        return SharedMarketFleet(
            paper_cluster(), market, loads,
            policy_mix=("mpc", "lp", "static"),
            config=MPCPolicyConfig(horizon_pred=6, horizon_ctrl=3),
            dt=300.0, grid_monitor=GridMonitor(ramp_limit_mw=1e9))

    def test_kill_at_every_period_resumes_bit_exact(self, tmp_path):
        S, T = 4, 8
        base = self._make(S).run(T)
        for kill_at in range(1, T):
            wal = str(tmp_path / f"fleet_{kill_at}.wal")
            fleet = self._make(S)
            orig_step = fleet.step
            calls = {"n": 0}

            def step(_orig=orig_step, _k=kill_at):
                if calls["n"] >= _k:
                    raise SimulatedCrashError(f"kill@{_k}")
                calls["n"] += 1
                return _orig()

            fleet.step = step
            with pytest.raises(SimulatedCrashError):
                fleet.run(T, checkpoint_every=3, wal_path=wal,
                          wal_shards=2)
            resumed = self._make(S)
            res = resumed.run(T, checkpoint_every=3, wal_path=wal,
                              wal_shards=2, resume_from=wal)
            np.testing.assert_array_equal(res.prices, base.prices)
            np.testing.assert_array_equal(res.agg_demand_mw,
                                          base.agg_demand_mw)
            np.testing.assert_array_equal(res.cost_usd, base.cost_usd)
            counters = res.perf["counters"]
            assert counters.get("wal_tail_mismatches", 0) == 0

    def _crash(self, S, T, kill_at, wal, **kw):
        fleet = self._make(S)
        orig_step = fleet.step

        def step():
            if fleet._k >= kill_at:
                raise SimulatedCrashError(f"kill@{kill_at}")
            return orig_step()

        fleet.step = step
        with pytest.raises(SimulatedCrashError):
            fleet.run(T, wal_path=wal, **kw)

    def test_wal_without_begin_record_is_refused(self, tmp_path):
        wal = str(tmp_path / "fleet.wal")
        self._crash(4, 8, 5, wal, checkpoint_every=3)
        lines = open(wal, "rb").read().splitlines(keepends=True)
        with open(wal, "wb") as fh:
            fh.writelines(line for line in lines
                          if b'"type":"begin"' not in line)
        with pytest.raises(CheckpointError, match="no begin record"):
            self._make(4).run(8, checkpoint_every=3, wal_path=wal,
                              resume_from=wal)

    def test_tail_replay_counts_every_reverified_period(self, tmp_path):
        # Checkpoint at 3, killed at 5: periods 3 and 4 are re-executed
        # and both count as replayed, the tampered one also as a
        # mismatch (the scalar engine's counting).
        wal = str(tmp_path / "fleet.wal")
        self._crash(4, 8, 5, wal, checkpoint_every=3)
        records = [json.loads(line) for line in open(wal, "rb")]
        for rec in records:
            if rec.get("period") == 4:
                rec["powers_sha256"] = "0" * 64
        with open(wal, "w") as fh:
            fh.writelines(json.dumps(r, sort_keys=True,
                                     separators=(",", ":")) + "\n"
                          for r in records)
        res = self._make(4).run(8, checkpoint_every=3, wal_path=wal,
                                resume_from=wal, resume_strict=False)
        counters = res.perf["counters"]
        assert counters["resumed_from_period"] == 3
        assert counters["wal_tail_replayed"] == 2
        assert counters["wal_tail_mismatches"] == 1

    def test_orphaned_checkpoint_is_refused(self, tmp_path):
        wal = str(tmp_path / "fleet.wal")
        self._make(4).run(8, checkpoint_every=3, wal_path=wal)
        os.unlink(wal)
        with pytest.raises(CheckpointError, match="missing or was"):
            self._make(4).run(8, checkpoint_every=3, wal_path=wal)

    def test_uninterrupted_durable_run_matches_plain(self, tmp_path):
        S, T = 4, 8
        base = self._make(S).run(T)
        wal = str(tmp_path / "fleet.wal")
        res = self._make(S).run(T, checkpoint_every=3, wal_path=wal,
                                wal_shards=2)
        np.testing.assert_array_equal(res.prices, base.prices)
        np.testing.assert_array_equal(res.cost_usd, base.cost_usd)
        assert res.perf["counters"]["checkpoints_written"] >= 1


# ---------------------------------------------------------------------------
# fleet chaos drills
# ---------------------------------------------------------------------------
class TestBatchChaos:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_chaos_seed_recovers_with_healthy_lanes_bitexact(self, seed):
        outcome = run_batch_chaos_seed(seed)
        assert outcome.ok, outcome.describe()
        assert outcome.batch
        assert outcome.recovered
        assert outcome.healthy_lanes_bitexact
        assert all(state in ("nominal", "quarantined")
                   for state in outcome.lane_states)

    def test_outcome_report_shape(self):
        outcome = run_batch_chaos_seed(0)
        d = outcome.to_dict()
        assert d["batch"] is True
        assert "lane_states" in d and "quarantined_lanes" in d
        assert "healthy_lanes_bitexact" in d


# ---------------------------------------------------------------------------
# perf rollup surfaces lane health
# ---------------------------------------------------------------------------
class TestPerfRollup:
    def test_rollup_counts_health_states(self):
        perf = BatchPerfStats(4)
        perf.note_lane_health(0, "nominal")
        perf.note_lane_health(1, "quarantined")
        perf.note_lane_health(2, "degraded")
        perf.note_lane_health(3, "quarantined")
        roll = perf.rollup()
        assert roll.counters["lane_health[quarantined]"] == 2
        assert roll.counters["lane_health[degraded]"] == 1
        assert roll.counters["lane_health[nominal]"] == 1
        assert roll.counters["lanes_quarantined"] == 2

    def test_lane_snapshot_carries_health_state(self):
        perf = BatchPerfStats(2)
        perf.note_lane_health(1, "safe_mode")
        snap = perf.lane_snapshot(1)
        assert snap["health_state"] == "safe_mode"
