"""Degradation-aware runtime: ladder, deadlines, telemetry guard, supervisor.

Covers the `repro.resilience` package in isolation (fake rungs, scripted
policies) and wired into the real MPC/engine stack (injected solver
faults, total outages, chaos-grade recovery).
"""

import time

import numpy as np
import pytest

from repro.core import CostMPCPolicy, MPCPolicyConfig
from repro.exceptions import (
    CapacityError,
    ConfigurationError,
    ConvergenceError,
    DeadlineExceededError,
    DegradedOperationError,
    ReproError,
    SolverError,
    TelemetryError,
)
from repro.resilience import (
    RUNG_ORDER,
    DeadlineBudget,
    FallbackLadder,
    HealthState,
    PolicySupervisor,
    Rung,
    TelemetryGuard,
    project_allocation,
)
from repro.sim import (
    AllocationDecision,
    FleetOutage,
    paper_cluster,
    paper_scenario,
    run_simulation,
)


class TestExceptionHierarchy:
    def test_deadline_is_a_convergence_and_solver_error(self):
        exc = DeadlineExceededError("late")
        assert isinstance(exc, ConvergenceError)
        assert isinstance(exc, SolverError)
        assert isinstance(exc, ReproError)

    def test_telemetry_and_degraded_are_repro_errors(self):
        assert issubclass(TelemetryError, ReproError)
        assert issubclass(DegradedOperationError, ReproError)
        # ...but not solver errors: the supervisor must treat them as
        # unrecoverable, never as retryable solver hiccups.
        assert not issubclass(TelemetryError, SolverError)
        assert not issubclass(DegradedOperationError, SolverError)


class TestDeadlineBudget:
    def test_unbounded_budget_is_transparent(self):
        b = DeadlineBudget(None)
        assert b.remaining() == float("inf")
        assert not b.expired
        assert b.slice() is None

    def test_bounded_budget_counts_down(self):
        b = DeadlineBudget(60.0)
        assert 0.0 < b.slice() <= 60.0
        assert not b.expired

    def test_expires(self):
        b = DeadlineBudget(0.005)
        time.sleep(0.01)
        assert b.expired
        assert b.remaining() == 0.0
        assert b.slice() == 0.0

    def test_min_slice_floor(self):
        # Remaining time below min_slice reports as exhausted (0.0)
        # rather than handing a solver a useless microscopic deadline.
        b = DeadlineBudget(10.0, min_slice=1e9)
        assert b.slice() == 0.0

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            DeadlineBudget(0.0)
        with pytest.raises(ValueError):
            DeadlineBudget(-1.0)

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf")])
    def test_non_finite_budget_rejected(self, seconds):
        # a NaN budget would slice 0.0 while never expiring, so the
        # ladder would skip every solver rung; None is "unbounded"
        with pytest.raises(ValueError):
            DeadlineBudget(seconds)


class TestFallbackLadder:
    def _counting(self):
        counts = {}

        def count(name, n=1):
            counts[name] = counts.get(name, 0) + n

        return counts, count

    def test_first_rung_wins(self):
        counts, count = self._counting()
        ladder = FallbackLadder(
            [Rung("warm", lambda dl: "a"), Rung("cold", lambda dl: "b")],
            count=count)
        out = ladder.run()
        assert out.value == "a"
        assert out.rung == "warm"
        assert not out.degraded
        assert counts == {"ladder_rung_warm": 1}

    def test_falls_through_failures(self):
        counts, count = self._counting()

        def boom(dl):
            raise ConvergenceError("cycle")

        ladder = FallbackLadder(
            [Rung("warm", boom), Rung("cold", boom),
             Rung("hold", lambda dl: "safe", needs_solver=False)],
            count=count)
        out = ladder.run()
        assert out.value == "safe"
        assert out.rung == "hold"
        assert out.degraded
        assert [name for name, _ in out.failures] == ["warm", "cold"]
        assert counts["ladder_failures_warm"] == 1
        assert counts["ladder_failures_cold"] == 1
        assert counts["ladder_rung_hold"] == 1

    def test_capacity_error_also_falls_through(self):
        def no_room(dl):
            raise CapacityError("overloaded")

        ladder = FallbackLadder(
            [Rung("warm", no_room), Rung("hold", lambda dl: 1,
                                         needs_solver=False)])
        assert ladder.run().rung == "hold"

    def test_all_rungs_failing_raises_degraded_operation(self):
        def boom(dl):
            raise ConvergenceError("no")

        ladder = FallbackLadder([Rung("warm", boom), Rung("cold", boom)])
        with pytest.raises(DegradedOperationError) as err:
            ladder.run()
        assert "warm" in str(err.value) and "cold" in str(err.value)

    def test_exhausted_budget_skips_solver_rungs(self):
        counts, count = self._counting()
        ladder = FallbackLadder(
            [Rung("warm", lambda dl: "should not run"),
             Rung("hold", lambda dl: "projected", needs_solver=False)],
            count=count)
        budget = DeadlineBudget(0.004)
        time.sleep(0.01)
        out = ladder.run(budget)
        assert out.value == "projected"
        assert counts == {"ladder_skipped_warm": 1, "ladder_rung_hold": 1}

    def test_rung_receives_remaining_deadline(self):
        seen = []
        ladder = FallbackLadder([Rung("warm", lambda dl: seen.append(dl))])
        ladder.run(DeadlineBudget(60.0))
        assert seen and 0.0 < seen[0] <= 60.0
        ladder.run()  # unbounded
        assert seen[1] is None

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            FallbackLadder([])

    def test_rung_order_constant_matches_policy_ladder(self):
        assert RUNG_ORDER == ("warm", "cold", "admm", "reference", "hold")


class TestProjectAllocation:
    def test_feasible_projection_conserves_and_respects_caps(self):
        cluster = paper_cluster()
        loads = np.array([20000.0, 15000.0, 10000.0, 8000.0, 6000.0])
        rng = np.random.default_rng(0)
        u_prev = rng.uniform(0, 5000, cluster.n_allocations)
        u, shed = project_allocation(cluster, u_prev, loads)
        assert shed == 0.0
        lam = cluster.vector_to_matrix(u)
        np.testing.assert_allclose(lam.sum(axis=1), loads, rtol=1e-9)
        caps = np.array([idc.available_capacity for idc in cluster.idcs])
        assert np.all(lam.sum(axis=0) <= caps + 1e-6)
        assert np.all(u >= 0.0)

    def test_total_outage_moves_load_off_dead_idc(self):
        cluster = paper_cluster()
        loads = np.array([20000.0, 15000.0, 10000.0, 8000.0, 6000.0])
        u_prev = np.ones(cluster.n_allocations) * 3000.0
        cluster.idcs[0].set_availability(0)
        u, shed = project_allocation(cluster, u_prev, loads)
        lam = cluster.vector_to_matrix(u)
        assert lam[:, 0].sum() <= 1e-9        # nothing routed to the dead IDC
        np.testing.assert_allclose(lam.sum(axis=1), loads, rtol=1e-9)
        assert shed == 0.0

    def test_unservable_load_is_shed_not_fabricated(self):
        cluster = paper_cluster()
        for idc in cluster.idcs:
            idc.set_availability(1000)
        caps = sum(idc.available_capacity for idc in cluster.idcs)
        loads = np.full(cluster.n_portals, caps)  # n_portals x capacity
        u, shed = project_allocation(
            cluster, np.zeros(cluster.n_allocations), loads)
        lam = cluster.vector_to_matrix(u)
        assert shed == pytest.approx(loads.sum() - caps, rel=1e-9)
        assert lam.sum() == pytest.approx(caps, rel=1e-9)


class TestTelemetryGuard:
    def test_visible_samples_pass_through(self):
        g = TelemetryGuard(2, 2)
        prices = np.array([30.0, 50.0])
        out = g.filter_prices(prices, np.array([True, True]))
        np.testing.assert_array_equal(out, prices)
        loads = np.array([100.0, 200.0])
        out = g.filter_loads(loads, np.array([True, True]))
        np.testing.assert_array_equal(out, loads)
        assert g.counters["telemetry_price_dropouts"] == 0
        assert g.counters["telemetry_load_gaps"] == 0

    def test_dropped_price_decays_toward_running_mean(self):
        g = TelemetryGuard(1, 1, price_decay=0.5)
        for p in (40.0, 40.0, 40.0, 80.0):  # mean 50, last 80
            g.filter_prices(np.array([p]), np.array([True]))
        est1 = g.filter_prices(np.array([np.nan]), np.array([False]))[0]
        est2 = g.filter_prices(np.array([np.nan]), np.array([False]))[0]
        assert est1 == pytest.approx(50.0 + 30.0 * 0.5)   # 65
        assert est2 == pytest.approx(50.0 + 30.0 * 0.25)  # 57.5, mean-ward
        assert g.counters["telemetry_price_dropouts"] == 2
        assert g.counters["telemetry_max_staleness"] == 2

    def test_never_seen_price_borrows_visible_mean(self):
        g = TelemetryGuard(2, 1)
        out = g.filter_prices(np.array([np.nan, 60.0]),
                              np.array([False, True]))
        assert out[0] == pytest.approx(60.0)

    def test_load_gap_filled_by_predictor_after_warmup(self):
        g = TelemetryGuard(1, 1)
        # Linearly ramping portal: the AR predictor learns the trend.
        for v in np.linspace(100.0, 190.0, 10):
            g.filter_loads(np.array([v]), np.array([True]))
        est = g.filter_loads(np.array([np.nan]), np.array([False]))[0]
        assert 180.0 < est < 230.0  # extrapolates, not holds, the ramp
        assert g.counters["telemetry_predictor_fills"] == 1

    def test_never_seen_portal_reports_zero(self):
        g = TelemetryGuard(1, 1)
        out = g.filter_loads(np.array([np.nan]), np.array([False]))
        assert out[0] == 0.0

    def test_outputs_never_nan(self):
        g = TelemetryGuard(2, 2)
        for _ in range(20):
            p = g.filter_prices(np.array([np.nan, np.nan]),
                                np.array([False, False]))
            ld = g.filter_loads(np.array([np.nan, np.nan]),
                                np.array([False, False]))
            assert np.all(np.isfinite(p)) and np.all(np.isfinite(ld))

    def test_max_staleness_raises_telemetry_error(self):
        g = TelemetryGuard(1, 1, max_staleness=2)
        g.filter_prices(np.array([40.0]), np.array([True]))
        g.filter_prices(np.array([np.nan]), np.array([False]))
        g.filter_prices(np.array([np.nan]), np.array([False]))
        with pytest.raises(TelemetryError):
            g.filter_prices(np.array([np.nan]), np.array([False]))

    def test_reset_clears_history_and_counters(self):
        g = TelemetryGuard(1, 1)
        g.filter_prices(np.array([40.0]), np.array([True]))
        g.filter_prices(np.array([np.nan]), np.array([False]))
        g.reset()
        assert g.counters["telemetry_price_dropouts"] == 0
        # After reset the guard has no held value again.
        out = g.filter_prices(np.array([np.nan]), np.array([False]))
        assert np.isfinite(out[0])

    def test_invalid_decay_rejected(self):
        with pytest.raises(ValueError):
            TelemetryGuard(1, 1, price_decay=0.0)
        with pytest.raises(ValueError):
            TelemetryGuard(1, 1, price_decay=1.5)


class _ScriptedPolicy:
    """Deterministic fake policy: a script of decisions/exceptions."""

    name = "scripted"

    def __init__(self, cluster, script):
        self.cluster = cluster
        self.script = list(script)
        self.k = 0
        self.resets = 0
        self.solver_resets = 0

    def reset(self):
        self.resets += 1
        self.k = 0

    def reset_solver_state(self):
        self.solver_resets += 1

    def decide(self, obs):
        item = self.script[min(self.k, len(self.script) - 1)]
        self.k += 1
        if isinstance(item, BaseException):
            raise item
        u = np.zeros(self.cluster.n_allocations)
        lam = self.cluster.vector_to_matrix(u)
        lam[:, 0] = np.asarray(obs.loads, dtype=float)
        return AllocationDecision(
            u=self.cluster.matrix_to_vector(lam),
            servers=np.asarray(obs.prev_servers, dtype=int),
            diagnostics=dict(item) if isinstance(item, dict) else {})


def _obs(cluster, loads=(100.0,) * 5):
    from repro.sim import PolicyObservation
    return PolicyObservation(
        period=0, time_seconds=0.0,
        loads=np.asarray(loads, dtype=float),
        prices=np.array([40.0, 40.0, 40.0]),
        prev_u=np.zeros(cluster.n_allocations),
        prev_servers=np.array([idc.servers_on for idc in cluster.idcs]),
        predicted_loads=None, predicted_prices=None)


class TestPolicySupervisor:
    def test_clean_decisions_stay_nominal(self):
        cluster = paper_cluster()
        sup = PolicySupervisor(_ScriptedPolicy(cluster, [{"rung": "warm"}]))
        for _ in range(4):
            d = sup.decide(_obs(cluster))
        assert sup.state is HealthState.NOMINAL
        assert d.diagnostics["health_state"] == "nominal"
        assert sup.counters["supervisor_state_nominal"] == 4

    def test_fallback_rung_marks_degraded_then_recovers(self):
        cluster = paper_cluster()
        script = [{"rung": "admm"}, {"rung": "warm"}]
        sup = PolicySupervisor(_ScriptedPolicy(cluster, script),
                               recovery_periods=2)
        sup.decide(_obs(cluster))
        assert sup.state is HealthState.DEGRADED
        sup.decide(_obs(cluster))
        assert sup.state is HealthState.RECOVERING
        sup.decide(_obs(cluster))
        assert sup.state is HealthState.NOMINAL
        assert sup.counters["supervisor_recoveries"] == 1
        assert [s.value for s in sup.state_history] == [
            "degraded", "recovering", "nominal"]

    def test_solver_error_retried_with_solver_state_reset(self):
        cluster = paper_cluster()
        policy = _ScriptedPolicy(
            cluster, [ConvergenceError("transient"), {"rung": "warm"}])
        sup = PolicySupervisor(policy, max_retries=1)
        d = sup.decide(_obs(cluster))
        assert policy.solver_resets == 1
        assert sup.counters["supervisor_retries"] == 1
        # Retried decisions count as degraded even when the retry won.
        assert sup.state is HealthState.DEGRADED
        assert "safe_mode" not in d.diagnostics

    def test_retries_exhausted_falls_to_safe_mode(self):
        cluster = paper_cluster()
        policy = _ScriptedPolicy(cluster, [ConvergenceError("persistent")])
        sup = PolicySupervisor(policy, max_retries=1)
        d = sup.decide(_obs(cluster))
        assert sup.state is HealthState.SAFE_MODE
        assert d.diagnostics["safe_mode"] is True
        assert d.diagnostics["rung"] == "hold"
        assert sup.counters["supervisor_safe_decisions"] == 1
        # The safe decision still serves the observed loads.
        lam = cluster.vector_to_matrix(d.u)
        np.testing.assert_allclose(lam.sum(axis=1), _obs(cluster).loads,
                                   rtol=1e-9)

    def test_degraded_operation_error_goes_safe_without_retry(self):
        cluster = paper_cluster()
        policy = _ScriptedPolicy(
            cluster, [DegradedOperationError("all rungs dead")])
        sup = PolicySupervisor(policy, max_retries=5)
        sup.decide(_obs(cluster))
        assert sup.state is HealthState.SAFE_MODE
        assert policy.solver_resets == 0
        assert sup.counters["supervisor_retries"] == 0

    def test_safe_decision_projects_last_known_good(self):
        cluster = paper_cluster()
        good = {"rung": "warm"}
        policy = _ScriptedPolicy(
            cluster, [good, DegradedOperationError("dead")])
        sup = PolicySupervisor(policy)
        first = sup.decide(_obs(cluster))
        second = sup.decide(_obs(cluster))
        # Same loads, unchanged capacity: the projection of the last good
        # allocation is that allocation.
        np.testing.assert_allclose(second.u, first.u, atol=1e-9)

    def test_perf_snapshot_merges_policy_and_supervisor_counters(self):
        cluster = paper_cluster()
        mpc = CostMPCPolicy(cluster, MPCPolicyConfig(dt=30.0))
        sup = PolicySupervisor(mpc)
        sup.decide(_obs(cluster, loads=(5000.0,) * 5))
        counters = sup.perf_snapshot()["counters"]
        assert counters["supervisor_state_nominal"] == 1
        assert counters["qp_solves"] == 1  # wrapped policy's counter

    def test_cluster_required(self):
        class Bare:
            name = "bare"

            def reset(self):
                pass

            def decide(self, obs):
                raise NotImplementedError

        with pytest.raises(ValueError):
            PolicySupervisor(Bare())

    def test_validation(self):
        cluster = paper_cluster()
        policy = _ScriptedPolicy(cluster, [{}])
        with pytest.raises(ValueError):
            PolicySupervisor(policy, max_retries=-1)
        with pytest.raises(ValueError):
            PolicySupervisor(policy, recovery_periods=0)


class TestSolverDeadlines:
    def _hard_qp(self, n=40, seed=7):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n, n))
        P = M @ M.T + np.eye(n) * 1e-3
        q = rng.standard_normal(n)
        A = np.vstack([np.eye(n), -np.eye(n)])
        b = np.full(2 * n, 1.0)
        return P, q, A, b

    def test_active_set_raises_deadline_exceeded(self):
        from repro.optim.qp_activeset import solve_qp
        P, q, A, b = self._hard_qp()
        with pytest.raises(DeadlineExceededError):
            solve_qp(P, q, A_ineq=A, b_ineq=b, deadline_seconds=1e-9)

    def test_admm_returns_best_iterate_on_deadline(self):
        from repro.optim.qp_admm import solve_qp_admm
        P, q, A, b = self._hard_qp()
        res = solve_qp_admm(P, q, A=A, u=b,
                            l=np.full(b.shape, -np.inf),
                            deadline_seconds=1e-9)
        assert res.meta["deadline_exceeded"] == 1
        assert np.all(np.isfinite(res.x))

    def test_config_rejects_nonpositive_deadline(self):
        with pytest.raises(ConfigurationError):
            MPCPolicyConfig(dt=30.0, deadline_seconds=0.0)


class TestLadderInPolicy:
    def _scenario(self):
        return paper_scenario(dt=60.0, duration=600.0, start_hour=12.0)

    def test_healthy_ladder_matches_plain_policy(self):
        sc = self._scenario()
        plain = run_simulation(sc, CostMPCPolicy(
            sc.cluster, MPCPolicyConfig(dt=60.0)))
        sc2 = self._scenario()
        laddered = run_simulation(sc2, CostMPCPolicy(
            sc2.cluster, MPCPolicyConfig(dt=60.0, fallback_ladder=True)))
        np.testing.assert_allclose(laddered.allocations, plain.allocations,
                                   rtol=1e-9)
        counters = laddered.perf["counters"]
        assert counters["ladder_rung_warm"] == laddered.n_periods
        assert counters.get("ladder_failures_warm", 0) == 0

    def test_injected_faults_fall_to_reference_rung(self):
        sc = self._scenario()
        policy = CostMPCPolicy(sc.cluster, MPCPolicyConfig(
            dt=60.0, fallback_ladder=True))

        seen = set()

        def always_fail(stage, lane, period):
            # every QP solve fails; the reference LP rung is left alone
            seen.add((lane, period))
            if stage != "lane_reference":
                raise ConvergenceError(f"injected at {stage}")

        policy.solver_fault_hook = always_fail
        run = run_simulation(sc, policy)
        # the scalar policy calls the batched hook signature as lane 0
        assert seen == {(0, k) for k in range(run.n_periods)}
        counters = run.perf["counters"]
        assert counters["ladder_rung_reference"] == run.n_periods
        assert counters["ladder_failures_warm"] == run.n_periods
        assert counters["ladder_failures_cold"] == run.n_periods
        assert counters["ladder_failures_admm"] == run.n_periods
        assert np.all(np.isfinite(run.allocations))
        np.testing.assert_allclose(run.workloads.sum(axis=1),
                                   run.loads.sum(axis=1), rtol=1e-6)

    def test_rung_lands_in_diagnostics(self):
        sc = self._scenario()
        policy = CostMPCPolicy(sc.cluster, MPCPolicyConfig(
            dt=60.0, fallback_ladder=True))
        run = run_simulation(sc, policy)
        assert run.diagnostics[0]["rung"] == "warm"


class TestSupervisedClosedLoop:
    def test_simultaneous_total_outage_enters_safe_mode_not_crash(self):
        # Every IDC at available_fraction=0 mid-run: the plain loop
        # raises CapacityError (see test_sim_faults), the supervised
        # loop sheds and survives.
        sc = paper_scenario(dt=60.0, duration=600.0, start_hour=12.0)
        start = sc.start_time + 180.0
        faults = [FleetOutage(name, start, start + 120.0, 0.0)
                  for name in sc.cluster.idc_names]
        sc = sc.__class__(**{**sc.__dict__, "faults": faults})
        policy = CostMPCPolicy(sc.cluster, MPCPolicyConfig(
            dt=60.0, fallback_ladder=True))
        sup = PolicySupervisor(policy, sc.cluster)
        run = run_simulation(sc, sup)
        counters = run.perf["counters"]
        assert counters["supervisor_state_safe_mode"] >= 1
        assert counters["supervisor_shed_events"] >= 1
        assert np.all(np.isfinite(run.allocations))
        # After restoration the loop recovers to NOMINAL.
        assert sup.state is HealthState.NOMINAL
        assert counters["supervisor_recoveries"] >= 1
        # Outside the blackout all load is served.
        for k in (0, 1, 2, run.n_periods - 1):
            assert run.workloads[k].sum() == pytest.approx(
                run.loads[k].sum(), rel=1e-6)

    def test_chaos_grade_faults_keep_cost_close_to_fault_free(self):
        # Acceptance criterion: chaos injection on the paper scenario
        # finishes with no exception, no NaN, rung counters in perf, and
        # a cost within 15% of the fault-free run.
        sc = paper_scenario(dt=300.0, duration=6 * 3600.0, start_hour=9.0)
        baseline = run_simulation(sc, CostMPCPolicy(
            sc.cluster, MPCPolicyConfig(dt=300.0)))

        sc2 = paper_scenario(dt=300.0, duration=6 * 3600.0, start_hour=9.0)
        from repro.sim import PriceFeedDropout, SensorGap
        t0 = sc2.start_time
        faults = [
            FleetOutage("michigan", t0 + 3600.0, t0 + 7200.0, 0.5),
            PriceFeedDropout("minnesota", t0 + 1800.0, t0 + 5400.0),
            SensorGap(1, t0 + 9000.0, t0 + 12600.0),
        ]
        sc2 = sc2.__class__(**{**sc2.__dict__, "faults": faults})
        policy = CostMPCPolicy(sc2.cluster, MPCPolicyConfig(
            dt=300.0, fallback_ladder=True, deadline_seconds=10.0))
        # Simulated deadline blowouts, the fault class the ladder itself
        # must handle.  Each QP attempt — warm (the shared solve's
        # ``batch_qp`` scan), cold, admm — advances the call counter, so
        # 30 and 31 knock out two consecutive rungs of one period.
        fail_at = {5, 17, 30, 31}

        calls = {"n": -1}

        def flaky(stage, lane, period):
            if stage in ("batch_qp", "lane_cold", "lane_admm"):
                calls["n"] += 1
                if calls["n"] in fail_at:
                    raise DeadlineExceededError("injected blowout")

        policy.solver_fault_hook = flaky
        sup = PolicySupervisor(policy, sc2.cluster)
        run = run_simulation(sc2, sup)

        assert np.all(np.isfinite(run.allocations))
        assert np.all(np.isfinite(run.cost_usd))
        counters = run.perf["counters"]
        assert counters["ladder_failures_warm"] == 3
        assert counters["ladder_rung_cold"] == 2
        assert counters["ladder_rung_admm"] == 1
        assert counters["telemetry_price_dropouts"] > 0
        assert counters["telemetry_load_gaps"] > 0
        assert sup.state is HealthState.NOMINAL
        fault_free = float(baseline.cost_usd.sum())
        chaotic = float(run.cost_usd.sum())
        assert abs(chaotic - fault_free) <= 0.15 * fault_free
