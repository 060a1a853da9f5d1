"""The three in-process workloads: paper_day, mc_1000 and fleet_1000.

Each workload builds its inputs from the seed, warms up, runs one
monitored *gate* unit and then timed units.  Every call into the
program goes through a ``repro`` module attribute looked up at call
time, so a traced run's proxies (``tracer.Proxies``) see it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import repro.core as core
import repro.pricing as pricing
import repro.sim as sim
import repro.verify as verify

__all__ = ["UnitResult", "PaperDay", "MonteCarlo", "FleetDay", "WORKLOADS"]


@dataclass
class UnitResult:
    """What one unit produced.

    ``signature`` is compared bit for bit between the gate and every
    timed unit; ``cost`` is checked against the golden value.
    ``counters`` are the program's own counters for the per-layer
    ratios.  ``elapsed`` overrides the harness's outside timing when the
    workload times its own unit boundary (the daemon's
    submit-to-completed).
    """

    cost: float
    signature: object
    attempted: int
    failed: int
    counters: dict = field(default_factory=dict)
    elapsed: float | None = None
    extra: dict = field(default_factory=dict)


def same_signature(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    return a == b


class Workload:
    """The protocol ``run.py`` drives every workload through."""

    name = ""
    rel_tol = 1e-9
    #: Fewest timed units per phase, whatever ``--seconds`` says.
    min_units = 1

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = int(seed)
        self.smoke = bool(smoke)

    def setup(self) -> None:
        """Build inputs from the seed and run the warm-up."""

    def gate(self) -> UnitResult:
        """One untimed unit under the invariant monitor."""
        raise NotImplementedError

    def unit(self, lap=None) -> UnitResult:
        """One timed unit.  ``lap`` (the harness's ``Stopwatch.lap``)
        may be called between two parts of a long unit, to end a timed
        segment there."""
        raise NotImplementedError

    def check(self, result: UnitResult, gate: UnitResult) -> list:
        """Problems with one timed unit; it must reproduce the gate."""
        if not same_signature(result.signature, gate.signature):
            return [f"output differs from the gate unit (cost "
                    f"{result.cost!r} vs {gate.cost!r})"]
        return []

    def begin_timed(self) -> None:
        pass

    def end_timed(self) -> None:
        pass

    def totals(self, units: list) -> tuple[int, int, list]:
        """``(attempted, failed, latencies)`` pooled over the timed units.

        Latencies are per-request seconds; only a workload that serves
        requests (``daemon_day``) has any.
        """
        return (sum(u.attempted for u in units),
                sum(u.failed for u in units), [])

    def enable_tracing(self, recorder) -> None:
        import tracer
        self._proxies = tracer.Proxies(recorder).install()

    def collect_spans(self, recorder) -> list:
        proxies = getattr(self, "_proxies", None)
        if proxies is not None:
            proxies.remove()
        return list(recorder.spans)

    def close(self) -> dict:
        """Release resources; returns close-time facts (daemon RSS)."""
        return {}


# ---------------------------------------------------------------------------
# paper_day: the paper's full controller over one day
# ---------------------------------------------------------------------------
class PaperDay(Workload):
    """``paper_scenario(dt=300, duration=86400, start_hour=0)`` under the
    cost MPC with budgets and the fallback ladder; seed > 0 runs the
    Monte-Carlo replica of that day instead."""

    name = "paper_day"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.duration = 7200.0 if smoke else 86400.0

    def scenario(self, duration: float):
        if self.seed == 0:
            return sim.paper_scenario(dt=300.0, duration=duration,
                                      start_hour=0.0)
        return sim.monte_carlo_scenarios(
            1, seed=self.seed, dt=300.0, duration=duration,
            lead_seconds=25200.0)[0]

    @staticmethod
    def policy(scenario):
        return core.CostMPCPolicy(scenario.cluster, core.MPCPolicyConfig(
            dt=300.0, r_weight=0.01, fallback_ladder=True,
            budgets_watts=sim.PAPER_BUDGETS_WATTS))

    def setup(self) -> None:
        self.inputs = self.scenario(self.duration)
        warm = self.scenario(3600.0)
        sim.run_simulation(warm, self.policy(warm))

    def _run(self, monitor=None, scenario=None) -> UnitResult:
        if scenario is None:
            scenario = self.scenario(self.duration)
        result = sim.run_simulation(scenario, self.policy(scenario),
                                    monitor=monitor)
        degraded = sum(
            1 for d in result.diagnostics
            if d.get("rung", "warm") != "warm" or d.get("shed_requests", 0))
        return UnitResult(
            cost=result.total_cost_usd, signature=result.cost_usd.copy(),
            attempted=result.n_periods, failed=degraded,
            counters=dict(result.perf.get("counters", {})))

    def gate(self) -> UnitResult:
        # The Sec. V-C budgets are sized for the Table I loads; a replica
        # whose total load is higher cannot meet them, so budget
        # satisfaction is checked on the paper's own day only.
        monitor = verify.InvariantMonitor(
            budgets_watts=sim.PAPER_BUDGETS_WATTS if self.seed == 0
            else None)
        out = self._run(monitor, self.inputs)
        out.extra["monitor_violations"] = monitor.n_violations
        return out

    def unit(self, lap=None) -> UnitResult:
        return self._run()


# ---------------------------------------------------------------------------
# mc_1000: the batched Monte Carlo
# ---------------------------------------------------------------------------
class MonteCarlo(Workload):
    """``run_batch(monte_carlo_scenarios(1000, seed), MPCPolicyConfig(
    dt=30), warm_start="waterfill")``: the paper's 10-minute window."""

    name = "mc_1000"
    rel_tol = 1e-6

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.n_lanes = 16 if smoke else 1000

    def _batch(self, n_lanes: int, monitors=None, scenarios=None):
        if scenarios is None:
            scenarios = sim.monte_carlo_scenarios(n_lanes, seed=self.seed)
        perf = sim.BatchPerfStats(n_lanes)
        results = sim.run_batch(scenarios, core.MPCPolicyConfig(dt=30.0),
                                warm_start="waterfill", perf=perf,
                                monitors=monitors)
        return results, perf

    def setup(self) -> None:
        self.inputs = sim.monte_carlo_scenarios(self.n_lanes, seed=self.seed)
        self._batch(16)

    def _run(self, monitors=None, scenarios=None) -> UnitResult:
        results, perf = self._batch(self.n_lanes, monitors, scenarios)
        costs = np.array([r.total_cost_usd for r in results])
        rollup = perf.rollup().counters
        shared = {}
        for r in results:
            for key, value in r.perf.get("counters", {}).items():
                if key.startswith("batch_"):
                    shared[key] = max(shared.get(key, 0), int(value))
        failures = shared.get("batch_batch_solve_failures", 0)
        return UnitResult(
            cost=float(costs.sum()), signature=costs,
            attempted=len(results),
            failed=int(rollup.get("batch_scalar_fallback", 0)) + failures,
            counters=shared)

    def gate(self) -> UnitResult:
        rng = np.random.default_rng(self.seed)
        sampled = rng.choice(self.n_lanes, size=min(16, self.n_lanes),
                             replace=False)
        monitors: list = [None] * self.n_lanes
        for lane in sampled:
            monitors[int(lane)] = verify.InvariantMonitor()
        out = self._run(monitors, scenarios=self.inputs)
        out.extra["monitor_violations"] = sum(
            monitors[int(lane)].n_violations for lane in sampled)
        return out

    def unit(self, lap=None) -> UnitResult:
        return self._run()


# ---------------------------------------------------------------------------
# fleet_1000: 1000 mixed-policy lanes on one shared market for a day
# ---------------------------------------------------------------------------
class FleetDay(Workload):
    """A 1000-lane mpc/lp/static fleet on one ``SharedMarket`` (γ=0.05,
    nominal 5 MW per lane) for 288 five-minute periods from midnight."""

    name = "fleet_1000"
    rel_tol = 1e-6
    GAMMA = 0.05
    #: A day takes about 10 s; the timed unit laps the harness's
    #: stopwatch every this many periods, so that the speed scaling
    #: follows the machine through the day.
    LAP_PERIODS = 24

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.n_lanes = 16 if smoke else 1000
        self.n_periods = 12 if smoke else 288

    def _loads(self, n_lanes: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        base = np.asarray(sim.PAPER_PORTAL_LOADS, dtype=float)
        return base * np.clip(
            1.0 + 0.1 * rng.standard_normal((n_lanes, base.size)), 0.5, 1.3)

    def _fleet(self, n_lanes: int, grid_monitor=None, loads=None):
        traces = pricing.paper_price_traces()
        market = pricing.SharedMarket({
            name: pricing.RegionMarketConfig(
                trace=traces[name], demand_sensitivity=self.GAMMA,
                nominal_power_mw=5.0 * n_lanes)
            for name, _fleet, _mu in sim.PAPER_IDC_SPECS})
        if loads is None:
            loads = self._loads(n_lanes)
        return sim.SharedMarketFleet(
            sim.paper_cluster(), market, loads,
            policy_mix=("mpc", "lp", "static"), dt=300.0, start_time=0.0,
            grid_monitor=grid_monitor)

    def setup(self) -> None:
        self.inputs = self._loads(self.n_lanes)
        self._fleet(16).run(12)

    def _run(self, grid_monitor=None, loads=None, lap=None) -> UnitResult:
        fleet = self._fleet(self.n_lanes, grid_monitor, loads)
        # a run() without durability is this step() loop and a result()
        for k in range(1, self.n_periods + 1):
            fleet.step()
            if lap is not None and k % self.LAP_PERIODS == 0 \
                    and k < self.n_periods:
                lap()
        result = fleet.result()
        nonconverged = int((~result.clearing_converged).sum())
        return UnitResult(
            cost=result.total_cost_usd, signature=result.cost_usd.copy(),
            attempted=result.n_periods, failed=0,
            counters=dict(result.perf.get("counters", {})),
            extra={"clearing_nonconverged": nonconverged})

    def gate(self) -> UnitResult:
        monitor = verify.GridMonitor()
        out = self._run(monitor, self.inputs)
        # Without limits the grid monitor flags only non-converged
        # clearings: a finding this workload reports, not a failure.
        # Its count must agree with the fleet's own record.
        flagged = monitor.counters()["grid_clearing_nonconverged"]
        out.extra["monitor_violations"] = int(
            flagged != out.extra["clearing_nonconverged"])
        return out

    def unit(self, lap=None) -> UnitResult:
        return self._run(lap=lap)

    def check(self, result: UnitResult, gate: UnitResult) -> list:
        problems = super().check(result, gate)
        got = result.extra["clearing_nonconverged"]
        want = gate.extra["clearing_nonconverged"]
        if got != want:
            problems.append(f"{got} non-converged clearings, {want} in "
                            "the gate")
        return problems


WORKLOADS = {w.name: w for w in (PaperDay, MonteCarlo, FleetDay)}
