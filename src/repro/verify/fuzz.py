"""Seeded closed-loop scenario fuzzing with shrinking.

Every future perf PR changes the solvers under the MPC; the fuzzer is
the mechanical adversary that keeps them honest.  From one integer seed
it deterministically generates a complete scenario — per-region hourly
price traces (with occasional violent steps, like the paper's 7:00
Wisconsin spike), piecewise-constant portal workload profiles (including
zero-workload portals), optional power budgets, optional fleet outages
(reusing :mod:`repro.sim.faults`), MPC horizons/weights/backend — then
runs the full closed loop with

* the :class:`~repro.verify.monitor.InvariantMonitor` attached,
* per-step KKT certificates enabled on the MPC,
* a differential-oracle cross-check on a sample of the captured QPs,

and reports an :class:`Outcome`.  A failing seed is *shrunk*: the spec
is simplified transformation by transformation (drop faults, drop
budgets, halve the run, flatten traces, …) as long as it keeps failing,
ending in a minimal reproduction dict small enough to commit under
``tests/seeds/`` as a permanent regression test.

Generation is loads-conservative by construction: total offered workload
is clamped to 85 % of the worst-case (deepest-outage) latency-bounded
capacity, so every generated scenario is servable and a conservation or
budget violation is a real bug, not an impossible ask.  Budgets, when
generated, are sized from the optimal allocation under *peak* loads, so
a budget-respecting allocation always exists; budgets and faults are
never combined in one seed for the same reason.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..core import CostMPCPolicy, MPCPolicyConfig
from ..core.reference_opt import solve_optimal_allocation
from ..datacenter import IDCCluster, IDCConfig, LinearPowerModel
from ..exceptions import (
    ConfigurationError,
    ConvergenceError,
    DeadlineExceededError,
    ReproError,
)
from ..pricing import PriceTrace, RealTimeMarket, RegionMarketConfig
from ..pricing.traces import paper_price_traces
from ..resilience import (
    CrashInjector,
    HealthState,
    PolicySupervisor,
    SimulatedCrashError,
)
from ..sim.engine import run_simulation
from ..sim.faults import (
    ActuationLag,
    CommandDrop,
    FleetOutage,
    PartialApply,
    PriceFeedDropout,
    SensorGap,
)
from ..sim.scenario import (
    PAPER_IDC_SPECS,
    PAPER_IDLE_WATTS,
    PAPER_LATENCY_BOUND,
    PAPER_PEAK_WATTS,
    PAPER_PORTAL_LOADS,
    Scenario,
)
from ..workload import PortalSet
from ..workload.portal import PortalWorkload
from .monitor import InvariantMonitor
from .oracles import cross_check_qp

__all__ = ["generate_spec", "generate_batch_specs",
           "generate_batch_chaos_spec", "build_scenario", "run_spec",
           "run_batch_chaos_seed", "shrink", "fuzz_many", "Outcome"]

#: Offered load is kept below this fraction of worst-case capacity.
_CAPACITY_HEADROOM = 0.85

#: Chaos runs keep the last this-many periods fault-free so the
#: supervisor's bounded-window recovery (DEGRADED/SAFE_MODE → RECOVERING
#: → NOMINAL) can be asserted rather than hoped for.
_CHAOS_RECOVERY_MARGIN = 6

#: Seed perturbation for the chaos fault injector's own RNG stream, so
#: injected solver faults are independent of the scenario draws.
_CHAOS_SEED_SALT = 0xC4A05


@dataclass
class Outcome:
    """Verdict of one fuzzed closed-loop run."""

    spec: dict
    ok: bool = True
    error: str | None = None
    violations: list[dict] = field(default_factory=list)
    certificate_failures: int = 0
    certificates_checked: int = 0
    oracle_failures: list[str] = field(default_factory=list)
    oracle_problems: int = 0
    monitor_summary: str = ""
    chaos: bool = False
    recovered: bool = True
    final_state: str = ""
    nan_detected: bool = False
    rung_counters: dict = field(default_factory=dict)
    crash_resume: dict = field(default_factory=dict)
    batch: bool = False
    lane_states: list = field(default_factory=list)
    quarantined_lanes: list = field(default_factory=list)
    healthy_lanes_bitexact: bool = True

    def to_dict(self) -> dict:
        out = {
            "spec": self.spec, "ok": self.ok, "error": self.error,
            "violations": self.violations,
            "certificate_failures": self.certificate_failures,
            "certificates_checked": self.certificates_checked,
            "oracle_failures": self.oracle_failures,
            "oracle_problems": self.oracle_problems,
        }
        if self.chaos:
            out.update({
                "chaos": True,
                "recovered": self.recovered,
                "final_state": self.final_state,
                "nan_detected": self.nan_detected,
                "rung_counters": self.rung_counters,
                "crash_resume": self.crash_resume,
            })
        if self.batch:
            out.update({
                "batch": True,
                "lane_states": self.lane_states,
                "quarantined_lanes": self.quarantined_lanes,
                "healthy_lanes_bitexact": self.healthy_lanes_bitexact,
            })
        return out

    def describe(self) -> str:
        if self.ok:
            if self.batch:
                return (f"seed {self.spec.get('seed')}: OK (batch chaos: "
                        f"{len(self.lane_states)} lanes, "
                        f"{len(self.quarantined_lanes)} quarantined, "
                        f"healthy lanes bit-exact)")
            if self.chaos:
                rungs = sum(v for k, v in self.rung_counters.items()
                            if k.startswith("ladder_rung_"))
                return (f"seed {self.spec.get('seed')}: OK (chaos: "
                        f"{rungs} ladder decisions, final state "
                        f"{self.final_state or 'nominal'})")
            return (f"seed {self.spec.get('seed')}: OK "
                    f"({self.certificates_checked} certificates, "
                    f"{self.oracle_problems} oracle problems)")
        parts = []
        if self.error:
            parts.append(f"error: {self.error}")
        if self.nan_detected:
            parts.append("NaN in result arrays")
        if self.chaos and not self.recovered:
            parts.append(f"did not recover (final state "
                         f"{self.final_state!r})")
        if self.batch and not self.healthy_lanes_bitexact:
            parts.append("healthy lanes perturbed by faulted lanes")
        if self.batch and not self.recovered:
            parts.append(f"lane states: {self.lane_states}")
        if self.violations:
            parts.append(f"{len(self.violations)} invariant violation(s), "
                         f"first: {self.violations[0]['message']}")
        if self.certificate_failures:
            parts.append(f"{self.certificate_failures} certificate "
                         "failure(s)")
        if self.oracle_failures:
            parts.append(f"oracle: {self.oracle_failures[0]}")
        return f"seed {self.spec.get('seed')}: FAIL — " + "; ".join(parts)


# ---------------------------------------------------------------------------
# Spec generation
# ---------------------------------------------------------------------------
def _worst_case_capacity(faults: list[dict]) -> float:
    """Aggregate latency-bounded capacity under the deepest outages."""
    frac = {name: 1.0 for name, _m, _mu in PAPER_IDC_SPECS}
    for f in faults:
        frac[f["idc"]] = min(frac[f["idc"]], f["available_fraction"])
    total = 0.0
    for name, fleet, mu in PAPER_IDC_SPECS:
        servers = int(frac[name] * fleet)
        total += max(mu * servers - 1.0 / PAPER_LATENCY_BOUND, 0.0)
    return total


def generate_spec(seed: int, *, chaos: bool = False) -> dict:
    """Deterministically generate one scenario spec from an integer seed.

    The returned dict is plain JSON data — every array is explicit, so a
    failing spec can be shrunk and committed verbatim.

    With ``chaos=True`` the spec additionally carries a ``"chaos"`` block
    (injected solver-fault / deadline-exhaustion rates, price-feed
    dropouts, workload-sensor gaps, and possibly a total single-IDC
    outage) and drops budgets — chaos runs assert survival and recovery,
    and a budget sized for the healthy fleet is unfalsifiable under
    injected faults.  Every fault window ends at least
    ``_CHAOS_RECOVERY_MARGIN`` periods before the run does, so the
    supervisor is *expected* to finish NOMINAL.
    """
    rng = np.random.default_rng(int(seed))
    dt = float(rng.choice([30.0, 60.0, 120.0]))
    n_periods = (int(rng.integers(16, 31)) if chaos
                 else int(rng.integers(8, 25)))
    start_hour = float(np.round(rng.uniform(0.0, 22.0), 3))

    # Prices: the paper's traces, rescaled per region, occasionally with
    # an extra synthetic step (the 7:00-spike failure mode, relocated).
    base = paper_price_traces()
    prices_hourly: dict[str, list[float]] = {}
    for name, _fleet, _mu in PAPER_IDC_SPECS:
        scale = float(rng.uniform(0.5, 1.5))
        hourly = np.clip(base[name].hourly * scale, 2.0, 180.0)
        if rng.random() < 0.4:
            hour = int(rng.integers(0, 24))
            factor = float(rng.uniform(1.8, 3.5))
            hourly = hourly.copy()
            hourly[hour:] = np.clip(hourly[hour:] * factor, 2.0, 300.0)
        prices_hourly[name] = [float(np.round(v, 2)) for v in hourly]

    # Disturbance dimension: budgets or faults, never both (a budget
    # sized for the healthy fleet has no feasibility guarantee under an
    # outage, so combining them would make violations unfalsifiable).
    roll = rng.random()
    budget_fraction = None
    hard_budgets = False
    budget_mode = "lp"
    faults: list[dict] = []
    # Chaos: fault windows must clear early enough to assert recovery.
    last_fault_period = (n_periods - _CHAOS_RECOVERY_MARGIN if chaos
                         else n_periods)
    if not chaos and roll < 0.35:
        budget_fraction = float(np.round(rng.uniform(1.02, 1.4), 3))
        hard_budgets = bool(rng.random() < 0.5)
        budget_mode = "clamp" if rng.random() < 0.3 else "lp"
    elif roll < 0.65:
        idc = str(rng.choice([name for name, _m, _mu in PAPER_IDC_SPECS]))
        a = int(rng.integers(1, max(2, last_fault_period - 2)))
        b = int(rng.integers(a + 1, last_fault_period + 1))
        faults = [{"idc": idc, "start_period": a, "end_period": b,
                   "available_fraction":
                       float(np.round(rng.uniform(0.6, 0.9), 3))}]
    if chaos and rng.random() < 0.4:
        # A mid-run *total* outage of one IDC: available_fraction 0.0
        # forces the surviving sites to absorb everything.
        idc = str(rng.choice([name for name, _m, _mu in PAPER_IDC_SPECS]))
        a = int(rng.integers(2, max(3, last_fault_period - 3)))
        b = min(a + int(rng.integers(2, 5)), last_fault_period)
        faults.append({"idc": idc, "start_period": a, "end_period": b,
                       "available_fraction": 0.0})

    # Portal workloads: rescaled Table I loads, piecewise constant with
    # at most one step, occasionally a dead portal (zero workload).
    n_portals = len(PAPER_PORTAL_LOADS)
    traces = []
    for i, nominal in enumerate(PAPER_PORTAL_LOADS):
        level = nominal * float(rng.uniform(0.2, 1.0))
        if rng.random() < 0.15:
            level = 0.0
        trace = np.full(n_periods, level)
        if rng.random() < 0.4 and n_periods > 2:
            at = int(rng.integers(1, n_periods))
            trace[at:] = level * float(rng.uniform(0.5, 1.5))
        traces.append(trace)
    load_matrix = np.vstack(traces)

    # Capacity guard: clamp the worst period's total offered load.
    capacity = _worst_case_capacity(faults)
    worst_total = float(load_matrix.sum(axis=0).max())
    if worst_total > _CAPACITY_HEADROOM * capacity:
        load_matrix *= _CAPACITY_HEADROOM * capacity / worst_total
    portal_traces = [[float(np.round(v, 1)) for v in row]
                     for row in load_matrix]

    horizon_pred = int(rng.integers(3, 11))
    horizon_ctrl = int(rng.integers(1, min(horizon_pred, 4) + 1))
    spec = {
        "seed": int(seed),
        "dt": dt,
        "n_periods": n_periods,
        "start_hour": start_hour,
        "prices_hourly": prices_hourly,
        "portal_traces": portal_traces,
        "budget_fraction": budget_fraction,
        "hard_budgets": hard_budgets,
        "budget_mode": budget_mode,
        "faults": faults,
        "horizon_pred": horizon_pred,
        "horizon_ctrl": horizon_ctrl,
        "r_weight": float(np.round(10.0 ** rng.uniform(-3, -1), 5)),
        "backend": str(rng.choice(["active_set", "admm"])),
    }
    if chaos:
        names = [name for name, _m, _mu in PAPER_IDC_SPECS]
        n_portals = len(PAPER_PORTAL_LOADS)

        def window() -> tuple[int, int]:
            a = int(rng.integers(1, max(2, last_fault_period - 1)))
            b = int(rng.integers(a + 1, last_fault_period + 1))
            return a, b

        price_dropouts = []
        for _ in range(int(rng.integers(0, 3))):
            a, b = window()
            price_dropouts.append({"idc": str(rng.choice(names)),
                                   "start_period": a, "end_period": b})
        sensor_gaps = []
        for _ in range(int(rng.integers(0, 3))):
            a, b = window()
            sensor_gaps.append({"portal": int(rng.integers(0, n_portals)),
                                "start_period": a, "end_period": b})
        actuation_faults = []
        for _ in range(int(rng.integers(0, 3))):
            a, b = window()
            kind = str(rng.choice(["drop", "lag", "partial"]))
            entry = {"kind": kind, "idc": str(rng.choice(names)),
                     "start_period": a, "end_period": b}
            if kind == "lag":
                entry["delay_periods"] = int(rng.integers(1, 3))
            elif kind == "partial":
                entry["fraction"] = float(np.round(rng.uniform(0.3, 0.8), 3))
            actuation_faults.append(entry)
        spec["chaos"] = {
            "solver_fault_rate": float(np.round(rng.uniform(0.05, 0.3), 3)),
            "deadline_exhaust_rate":
                float(np.round(rng.uniform(0.0, 0.15), 3)),
            "price_dropouts": price_dropouts,
            "sensor_gaps": sensor_gaps,
            "actuation_faults": actuation_faults,
            "quiet_after_period": int(last_fault_period),
            # Every chaos run is also a durability drill: kill the loop
            # mid-run and require the checkpoint/WAL resume to finish it.
            "crash_at_period": int(rng.integers(2, n_periods - 1)),
            "checkpoint_every": int(rng.integers(1, 5)),
        }
    return spec


#: Seed salt for the per-lane noise stream of :func:`generate_batch_specs`,
#: independent of the base geometry draws.
_BATCH_SEED_SALT = 0xBA7C4


def generate_batch_specs(seed: int, n_lanes: int, *,
                         telemetry_faults: bool = False,
                         demand_coupled: bool = False,
                         actuation_faults: bool = False) -> list[dict]:
    """A fleet of structurally identical, batch-compatible scenario specs.

    Draws ONE base geometry (dt, period count, horizons, weights, traces)
    from ``seed`` via :func:`generate_spec` and strips its budgets and
    outages: :func:`build_scenario` sizes budgets from each lane's own
    loads and prices, while :func:`repro.sim.run_batch` runs every lane
    under one config, and the fleet's faults are drawn per lane below.
    It then emits ``n_lanes`` variations that scale
    every region's hourly prices and every portal's workload trace by
    lane-specific factors, capacity-guarded like the base generator.
    All lanes therefore share a :func:`repro.sim.batch_signature` and
    ride :func:`repro.sim.run_batch` as one group, while differing in
    exactly the per-lane vectors the batched controller must keep
    isolated.

    With ``telemetry_faults=True`` every third lane carries a price-feed
    dropout or workload-sensor gap window — telemetry faults are
    batch-compatible (they only change what that lane's controller
    sees), so the differential fuzz check covers the per-lane
    :class:`~repro.resilience.TelemetryGuard` path too.

    With ``demand_coupled=True`` every second lane carries a
    demand-sensitive market (γ drawn per lane) — γ > 0 lanes batch
    through :class:`repro.pricing.LaneMarketBatch` and may share a
    group with γ = 0 lanes, so the differential check covers the
    vectorized clearing path against the scalar engine too.

    With ``actuation_faults=True`` every fifth lane carries a
    standalone actuation-fault window (command drop / lag / partial
    apply).  They pass that lane's commands through the plant's
    actuation channel and ride the group like every other lane — the
    batch chaos runner asserts that every lane ran batched.

    Each spec runs through :func:`build_scenario` as usual.
    """
    if n_lanes < 1:
        raise ConfigurationError("need at least one lane")
    base = generate_spec(int(seed))
    base["budget_fraction"] = None
    base["hard_budgets"] = False
    base["faults"] = []

    rng = np.random.default_rng([int(seed), _BATCH_SEED_SALT])
    n_periods = int(base["n_periods"])
    names = [name for name, _m, _mu in PAPER_IDC_SPECS]
    capacity = _worst_case_capacity([])
    specs = []
    for lane in range(n_lanes):
        spec = json.loads(json.dumps(base))  # deep copy, plain data only
        spec["lane"] = lane
        for name in names:
            scale = float(np.clip(1.0 + 0.1 * rng.standard_normal(),
                                  0.5, 1.5))
            spec["prices_hourly"][name] = [
                float(np.round(v * scale, 2))
                for v in spec["prices_hourly"][name]]
        loads = np.asarray(spec["portal_traces"], dtype=float)
        scales = np.clip(1.0 + 0.15 * rng.standard_normal(loads.shape[0]),
                         0.3, 1.2)
        loads = loads * scales[:, None]
        worst = float(loads.sum(axis=0).max())
        if worst > _CAPACITY_HEADROOM * capacity:
            loads *= _CAPACITY_HEADROOM * capacity / worst
        spec["portal_traces"] = [[float(np.round(v, 1)) for v in row]
                                 for row in loads]
        if demand_coupled and lane % 2 == 0:
            spec["demand_sensitivity"] = \
                float(np.round(rng.uniform(0.1, 0.8), 3))
        if telemetry_faults and lane % 3 == 0 and n_periods > 4:
            a = int(rng.integers(1, n_periods - 2))
            b = int(rng.integers(a + 1, n_periods))
            if rng.random() < 0.5:
                spec["telemetry"] = {"price_dropouts": [
                    {"idc": str(rng.choice(names)),
                     "start_period": a, "end_period": b}]}
            else:
                spec["telemetry"] = {"sensor_gaps": [
                    {"portal": int(rng.integers(0, loads.shape[0])),
                     "start_period": a, "end_period": b}]}
        if actuation_faults and lane % 5 == 4 and n_periods > 4:
            a = int(rng.integers(1, n_periods - 2))
            b = int(rng.integers(a + 1, n_periods))
            kind = str(rng.choice(["drop", "lag", "partial"]))
            entry = {"kind": kind, "idc": str(rng.choice(names)),
                     "start_period": a, "end_period": b}
            if kind == "lag":
                entry["delay_periods"] = int(rng.integers(1, 3))
            elif kind == "partial":
                entry["fraction"] = float(np.round(rng.uniform(0.3, 0.8),
                                                   3))
            spec["actuation"] = [entry]
        specs.append(spec)
    return specs


# ---------------------------------------------------------------------------
# Scenario construction
# ---------------------------------------------------------------------------
def _spec_faults(spec: dict, start_time: float, dt: float) -> list:
    """The fault objects of a spec, in spec order.

    Outages (``faults``), then the standalone telemetry (``telemetry``)
    and actuation (``actuation``) faults of fleet specs, then the
    ``chaos`` block's telemetry and actuation faults.  Every fault rides
    the plant the same way: telemetry changes only what the lane's
    controller sees, an outage its available fleet, an actuation fault
    its applied server counts.
    """
    def window(f: dict) -> tuple[float, float]:
        return (start_time + f["start_period"] * dt,
                start_time + f["end_period"] * dt)

    def actuation(f: dict):
        kind = f.get("kind", "drop")
        if kind == "drop":
            return CommandDrop(f["idc"], *window(f))
        if kind == "lag":
            return ActuationLag(f["idc"], *window(f),
                                delay_periods=int(f.get("delay_periods", 1)))
        if kind == "partial":
            return PartialApply(f["idc"], *window(f),
                                fraction=float(f.get("fraction", 0.5)))
        raise ConfigurationError(f"unknown actuation fault kind {kind!r}")

    def telemetry(block: dict) -> list:
        return ([PriceFeedDropout(f["idc"], *window(f))
                 for f in block.get("price_dropouts", [])]
                + [SensorGap(int(f["portal"]), *window(f))
                   for f in block.get("sensor_gaps", [])])

    chaos = spec.get("chaos") or {}
    return ([FleetOutage(f["idc"], *window(f), f["available_fraction"])
             for f in spec.get("faults", [])]
            + telemetry(spec.get("telemetry") or {})
            + [actuation(f) for f in spec.get("actuation") or []]
            + telemetry(chaos)
            + [actuation(f) for f in chaos.get("actuation_faults", [])])


def build_scenario(spec: dict) -> tuple[Scenario, MPCPolicyConfig]:
    """Materialize a spec into a runnable scenario + MPC configuration."""
    configs = []
    for name, fleet, mu in PAPER_IDC_SPECS:
        configs.append(IDCConfig(
            name=name, region=name, max_servers=fleet, service_rate=mu,
            latency_bound=PAPER_LATENCY_BOUND,
            power_model=LinearPowerModel.from_idle_peak(
                PAPER_IDLE_WATTS, PAPER_PEAK_WATTS, service_rate=mu),
        ))
    portals = PortalSet(portals=[
        PortalWorkload(name=f"portal-{i + 1}",
                       trace=np.asarray(trace, dtype=float))
        for i, trace in enumerate(spec["portal_traces"])
    ])
    cluster = IDCCluster.from_configs(configs, portals)
    market = RealTimeMarket({
        name: RegionMarketConfig(
            trace=PriceTrace(region=name, hourly=np.asarray(
                spec["prices_hourly"][name], dtype=float)),
            demand_sensitivity=float(spec.get("demand_sensitivity", 0.0)),
            nominal_power_mw=5.0)
        for name, _fleet, _mu in PAPER_IDC_SPECS
    })
    dt = float(spec["dt"])
    start_time = float(spec["start_hour"]) * 3600.0

    budgets = None
    if spec.get("budget_fraction") is not None:
        # Size budgets from the optimal allocation under *peak* loads so
        # a budget-respecting allocation provably exists at every period.
        peak_loads = np.asarray(spec["portal_traces"], dtype=float) \
            .max(axis=1)
        prices0 = np.array([
            market.price(name, start_time)
            for name, _f, _m in PAPER_IDC_SPECS])
        alloc = solve_optimal_allocation(cluster, prices0, peak_loads)
        budgets = (np.maximum(alloc.powers_watts_relaxed, PAPER_IDLE_WATTS)
                   * float(spec["budget_fraction"]))

    faults = _spec_faults(spec, start_time, dt)
    chaos = spec.get("chaos")

    scenario = Scenario(
        cluster=cluster, market=market, dt=dt,
        duration=spec["n_periods"] * dt, start_time=start_time,
        budgets_watts=budgets, faults=faults or None,
        name=f"fuzz-{spec.get('seed', '?')}")
    config = MPCPolicyConfig(
        dt=dt,
        horizon_pred=int(spec["horizon_pred"]),
        horizon_ctrl=int(spec["horizon_ctrl"]),
        r_weight=float(spec["r_weight"]),
        budgets_watts=budgets,
        budget_mode=spec.get("budget_mode", "lp"),
        hard_budget_constraints=bool(spec.get("hard_budgets", False)),
        backend=spec.get("backend", "active_set"),
        # Chaos injects solver failures on purpose: route every solve
        # through the fallback ladder under a (generous) deadline budget
        # instead of certifying optimality of solves meant to fail.
        certify=not chaos,
        capture_problems=0 if chaos else 8,
        fallback_ladder=bool(chaos),
        deadline_seconds=10.0 if chaos else None,
    )
    return scenario, config


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------
class _ChaosInjector:
    """Probabilistic solver-fault hook of both MPC policies.

    Installed as the ``solver_fault_hook`` (signature ``hook(stage,
    lane, period)``) of :class:`~repro.core.CostMPCPolicy` (a one-lane
    run is lane 0) or of the batched policy that
    :func:`repro.sim.run_batch` builds; the policy calls it once per
    lane and period before the shared solve, and again before each
    solver rung of an ejected lane.  Three behaviours, checked in
    order:

    1. **Crash** — at ``crash_at_period`` the first hook call raises
       :class:`~repro.resilience.SimulatedCrashError` (``crash=True``;
       the scalar drill kills its loop with a
       :class:`~repro.resilience.CrashInjector` instead).  The crash
       check runs *before* any fault draw, so it fires regardless of
       which lane's scan reaches it first and before any state mutates.
    2. **Hot lane** (batch drills) — one designated lane fails
       *deterministically* at every stage inside its window, so its
       ladder falls through to the hold projection period after period
       and the permanent scalar-quarantine demotion is exercised, not
       left to chance.
    3. **Background faults** — counter-mode draws keyed on
       ``(seed, period, lane, call)`` raise
       :class:`~repro.exceptions.ConvergenceError` or
       :class:`~repro.exceptions.DeadlineExceededError` at the spec's
       rates.  Statelessness across periods means a resumed run replays
       exactly the faults the killed run saw from the checkpoint on —
       the WAL digest verification depends on that.

    Injection stops at ``quiet_after_period`` so every non-quarantined
    lane is *required* to finish NOMINAL.  ``injected_lanes`` records
    which lanes were ever poisoned — their complement is the healthy
    set whose bit-exactness against a fault-free baseline the runner
    asserts.
    """

    def __init__(self, seed: int, chaos: dict, *, crash: bool) -> None:
        self.seed = int(seed) ^ _CHAOS_SEED_SALT
        self.fault_rate = float(chaos.get("solver_fault_rate", 0.0))
        self.deadline_rate = float(chaos.get("deadline_exhaust_rate", 0.0))
        self.quiet_after_period = int(chaos.get("quiet_after_period", 0))
        crash_at = chaos.get("crash_at_period")
        self.crash_at_period = (int(crash_at)
                                if crash and crash_at is not None else None)
        self.hot_lane = chaos.get("hot_lane")
        self.hot_start = int(chaos.get("hot_start_period", 1))
        self.injected = 0
        self.injected_lanes: set[int] = set()
        self._calls: dict[tuple[int, int], int] = {}

    def __call__(self, stage: str, lane: int, period: int) -> None:
        lane, period = int(lane), int(period)
        if self.crash_at_period is not None \
                and period >= self.crash_at_period:
            raise SimulatedCrashError(
                f"chaos: crash at period {period}")
        if period >= self.quiet_after_period:
            return
        if self.hot_lane is not None and lane == int(self.hot_lane) \
                and period >= self.hot_start:
            self.injected += 1
            self.injected_lanes.add(lane)
            raise ConvergenceError(
                f"chaos: hot lane {lane} forced failure at "
                f"stage {stage!r}")
        key = (period, lane)
        call = self._calls.get(key, 0)
        self._calls[key] = call + 1
        r = np.random.default_rng(
            [self.seed, period, lane, call]).random()
        if r < self.fault_rate:
            self.injected += 1
            self.injected_lanes.add(lane)
            raise ConvergenceError(
                f"chaos: forced non-convergence at stage {stage!r}")
        if r < self.fault_rate + self.deadline_rate:
            self.injected += 1
            self.injected_lanes.add(lane)
            raise DeadlineExceededError(
                f"chaos: simulated deadline exhaustion at "
                f"stage {stage!r}")


def _make_chaos_stack(spec: dict):
    """Fresh (scenario, supervisor-wrapped policy) pair for a chaos spec."""
    scenario, config = build_scenario(spec)
    policy = CostMPCPolicy(scenario.cluster, config)
    policy.solver_fault_hook = _ChaosInjector(spec.get("seed", 0),
                                              spec["chaos"], crash=False)
    return scenario, PolicySupervisor(policy, scenario.cluster,
                                      recovery_periods=3)


def _run_chaos_with_crash(spec: dict, mon: InvariantMonitor,
                          crash_at: int):
    """Kill a chaos run mid-flight, then resume it from its checkpoint.

    Phase 1 runs the full stack under a :class:`CrashInjector` with a
    write-ahead log and periodic checkpoints; phase 2 rebuilds *every*
    component from scratch (fresh scenario, policy, supervisor, fault
    injector — as a restarted process would) and resumes from the WAL.
    The engine verifies each re-executed decision against the logged
    digests, so a non-deterministic resume fails the seed.  Returns the
    final result and the phase that produced it.
    """
    import os
    import shutil
    import tempfile

    chaos = spec["chaos"]
    every = int(chaos.get("checkpoint_every", 2))
    tmpdir = tempfile.mkdtemp(prefix="repro-chaos-")
    wal_path = os.path.join(tmpdir, "run.wal")
    try:
        scenario, supervisor = _make_chaos_stack(spec)
        crashed = True
        try:
            result = run_simulation(
                scenario, CrashInjector(supervisor, crash_at_period=crash_at),
                monitor=mon, wal_path=wal_path, checkpoint_every=every)
            crashed = False  # crash period beyond the (shrunk) run
        except SimulatedCrashError:
            pass
        if not crashed:
            return result, supervisor
        scenario2, supervisor2 = _make_chaos_stack(spec)
        result = run_simulation(scenario2, supervisor2, monitor=mon,
                                resume_from=wal_path,
                                checkpoint_every=every)
        return result, supervisor2
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def run_spec(spec: dict, *, oracle_samples: int = 2,
             monitor: InvariantMonitor | None = None) -> Outcome:
    """Run one spec through the full verification stack.

    The run fails when the invariant monitor records any violation, any
    per-step KKT certificate fails, the differential oracle finds a
    cross-backend disagreement on a sampled captured QP, or the
    simulation itself raises.

    A chaos spec (``spec["chaos"]`` present) instead runs the policy
    under a :class:`~repro.resilience.PolicySupervisor` with an injected
    solver-fault hook (plus any actuation faults the spec carries); when
    the spec schedules a crash (``chaos["crash_at_period"]``), the run is
    killed at that period and resumed from its checkpoint + write-ahead
    log by a freshly built stack.  It fails when the loop raises
    (including a resume that diverges from the WAL), any result array
    contains NaN, the monitor records a violation, or the supervisor has
    not returned to NOMINAL by the end of the run.
    """
    chaos = spec.get("chaos")
    outcome = Outcome(spec=spec, chaos=bool(chaos))
    supervisor = None
    try:
        if monitor is not None:
            mon = monitor
        elif chaos:
            # Chaos decisions may come from the ADMM rung (first-order
            # accurate) or clip tiny negative QP entries at zero, so the
            # conservation check runs at a correspondingly looser — but
            # still tight — tolerance.
            mon = InvariantMonitor(conservation_rtol=1e-5)
        else:
            mon = InvariantMonitor()
        if chaos:
            crash_at = chaos.get("crash_at_period")
            if crash_at is not None:
                result, supervisor = _run_chaos_with_crash(
                    spec, mon, int(crash_at))
            else:
                scenario, supervisor = _make_chaos_stack(spec)
                result = run_simulation(scenario, supervisor, monitor=mon)
        else:
            scenario, config = build_scenario(spec)
            policy = CostMPCPolicy(scenario.cluster, config)
            result = run_simulation(scenario, policy, monitor=mon)
    except ReproError as exc:
        outcome.ok = False
        outcome.error = f"{type(exc).__name__}: {exc}"
        return outcome

    outcome.violations = [v.to_dict() for v in mon.violations]
    outcome.monitor_summary = mon.summary()
    counters = result.perf.get("counters", {})
    outcome.certificates_checked = int(counters.get(
        "certificates_checked", 0))
    outcome.certificate_failures = int(counters.get(
        "certificate_failures", 0))

    if chaos:
        outcome.nan_detected = any(
            np.any(np.isnan(np.asarray(arr, dtype=float)))
            for arr in (result.allocations, result.powers_watts,
                        result.servers, result.workloads,
                        result.cost_usd, result.energy_mwh))
        outcome.final_state = supervisor.state.value
        outcome.recovered = supervisor.state is HealthState.NOMINAL
        outcome.rung_counters = {
            k: int(v) for k, v in counters.items()
            if k.startswith(("ladder_", "supervisor_"))}
        outcome.crash_resume = {
            k: int(counters[k]) for k in (
                "resumed_from_period", "checkpoints_written",
                "wal_tail_replayed", "wal_tail_mismatches")
            if k in counters}
        outcome.ok = (not outcome.violations
                      and not outcome.nan_detected
                      and outcome.recovered
                      and not outcome.crash_resume.get(
                          "wal_tail_mismatches", 0))
        return outcome

    captured = policy.captured_problems
    if oracle_samples > 0 and captured:
        step = max(1, len(captured) // oracle_samples)
        sampled = captured[::step][:oracle_samples]
        outcome.oracle_problems = len(sampled)
        for problem, _res in sampled:
            report = cross_check_qp(problem)
            if not report.ok:
                outcome.oracle_failures.extend(report.failures())

    outcome.ok = (not outcome.violations
                  and outcome.certificate_failures == 0
                  and not outcome.oracle_failures)
    return outcome


# ---------------------------------------------------------------------------
# Batch (fleet) chaos
# ---------------------------------------------------------------------------
#: Seed salt for the batch chaos block draws, independent of both the
#: scenario stream and the chaos injector stream.
_BATCH_CHAOS_SALT = 0xF1EE7

def generate_batch_chaos_spec(seed: int, n_lanes: int = 6) -> dict:
    """Deterministic batch chaos drill spec from one integer seed.

    Wraps :func:`generate_batch_specs` (with actuation-fault lanes
    included, so the plant's actuation channel is always exercised) in a
    fleet-level ``"chaos"`` block: background solver-fault and
    deadline-exhaustion rates, an optional deterministic *hot lane*
    driven toward quarantine, a mandatory mid-run crash, and the
    checkpoint cadence of the durability drill.  Fault injection goes
    quiet ``_CHAOS_RECOVERY_MARGIN`` periods before the end so recovery
    to NOMINAL is asserted, not hoped for.
    """
    specs = generate_batch_specs(int(seed), int(n_lanes),
                                 actuation_faults=True)
    n_periods = int(specs[0]["n_periods"])
    rng = np.random.default_rng([int(seed), _BATCH_CHAOS_SALT])
    quiet = max(2, n_periods - _CHAOS_RECOVERY_MARGIN)
    hot_lane = (int(rng.integers(0, len(specs)))
                if rng.random() < 0.6 else None)
    chaos = {
        "solver_fault_rate": float(np.round(rng.uniform(0.05, 0.25), 3)),
        "deadline_exhaust_rate":
            float(np.round(rng.uniform(0.0, 0.1), 3)),
        "quiet_after_period": int(quiet),
        "crash_at_period": int(rng.integers(1, n_periods)),
        "checkpoint_every": int(rng.integers(1, 4)),
        "hot_lane": hot_lane,
        "hot_start_period": 1,
    }
    return {"seed": int(seed), "n_lanes": int(n_lanes),
            "specs": specs, "chaos": chaos}


def run_batch_chaos_seed(seed: int, *, n_lanes: int = 6) -> Outcome:
    """One fleet chaos drill: inject, crash, resume, verify isolation.

    Runs the fleet twice through :func:`repro.sim.run_batch`: once
    fault-free but equally armed — a hook that never fires, so the
    baseline runs the same lane-isolated solve mode — and once under a
    :class:`_ChaosInjector` with the durable control plane armed
    (sharded WAL + periodic fleet checkpoints).  The chaos run is
    killed by its scheduled crash and resumed from disk by a second
    ``run_batch`` call, whose replayed periods are digest-verified
    against the WAL.  The seed passes only if

    * every lane — the actuation-fault lanes included — ran batched
      (``mpc_batch``) in one group,
    * every lane ends NOMINAL or cleanly quarantined,
    * every lane the injector never touched is *bit-identical* to the
      baseline (allocations and cost),
    * the resume replay produced zero WAL digest mismatches, and
    * no result array contains NaN.

    The injector's ``lane`` is the scenario index: the group holds
    every lane.
    """
    import os
    import shutil
    import tempfile

    from ..sim.batch import run_batch

    full = generate_batch_chaos_spec(int(seed), n_lanes=int(n_lanes))
    chaos = full["chaos"]
    specs = full["specs"]
    outcome = Outcome(spec={"seed": int(seed), "n_lanes": int(n_lanes),
                            "chaos": chaos},
                      chaos=True, batch=True)
    built = [build_scenario(sp) for sp in specs]
    scens = [b[0] for b in built]
    config = built[0][1]

    tmpdir = tempfile.mkdtemp(prefix="repro-batch-chaos-")
    wal = os.path.join(tmpdir, "fleet.wal")
    every = int(chaos.get("checkpoint_every", 2))
    try:
        # The isolation guarantee is relative to an *equally armed*
        # fault-free baseline: arming switches the shared QP into its
        # lane-decoupled mode (see solve_qp_admm_batch), so the quiet
        # baseline must arm the same machinery with a hook that never
        # fires.
        baseline = run_batch(scens, config,
                             solver_fault_hook=lambda *a: None)
        injector = _ChaosInjector(seed, chaos, crash=True)
        crashed = True
        try:
            results = run_batch(
                scens, config, solver_fault_hook=injector,
                checkpoint_every=every, wal_path=wal, wal_shards=2)
            crashed = False
        except SimulatedCrashError:
            pass
        faulted = set(injector.injected_lanes)
        if crashed:
            resumer = _ChaosInjector(seed, chaos, crash=False)
            results = run_batch(
                scens, config, solver_fault_hook=resumer,
                checkpoint_every=every, wal_path=wal, wal_shards=2,
                resume_from=wal)
            faulted |= set(resumer.injected_lanes)
        outcome.crash_resume["crashed"] = int(crashed)
    except ReproError as exc:
        outcome.ok = False
        outcome.error = f"{type(exc).__name__}: {exc}"
        return outcome
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    if chaos.get("hot_lane") is not None:
        faulted.add(int(chaos["hot_lane"]))

    outcome.lane_states = [r.perf.get("health_state", "nominal")
                           for r in results]
    outcome.quarantined_lanes = [
        i for i, state in enumerate(outcome.lane_states)
        if state == "quarantined"]
    outcome.recovered = all(state in ("nominal", "quarantined")
                            for state in outcome.lane_states)
    bad = sorted({s for s in outcome.lane_states
                  if s not in ("nominal", "quarantined")})
    outcome.final_state = ",".join(bad) if bad else "nominal"

    routing_ok = all(r.policy_name == "mpc_batch" for r in results)
    if not routing_ok:
        outcome.error = "a lane did not run batched"

    healthy = [i for i in range(len(scens)) if i not in faulted]
    outcome.healthy_lanes_bitexact = all(
        np.array_equal(results[i].allocations, baseline[i].allocations)
        and np.array_equal(np.asarray(results[i].cost_usd),
                           np.asarray(baseline[i].cost_usd))
        for i in healthy)

    outcome.nan_detected = any(
        np.any(np.isnan(np.asarray(arr, dtype=float)))
        for r in results
        for arr in (r.allocations, r.powers_watts, r.cost_usd))

    counters: dict[str, int] = {}
    for r in results:
        for k, v in r.perf.get("counters", {}).items():
            if k.startswith(("ladder_", "supervisor_", "quarantine_")):
                counters[k] = counters.get(k, 0) + int(v)
    outcome.rung_counters = counters
    for r in results:
        lane_counters = r.perf.get("counters", {})
        outcome.certificates_checked += int(
            lane_counters.get("certificates_checked", 0))
        outcome.certificate_failures += int(
            lane_counters.get("certificate_failures", 0))
    group_counters = results[0].perf.get("counters", {})
    for k in ("batch_resumed_from_period", "batch_checkpoints_written",
              "batch_wal_tail_replayed", "batch_wal_tail_mismatches"):
        if k in group_counters:
            outcome.crash_resume[k.removeprefix("batch_")] = \
                int(group_counters[k])

    outcome.ok = (outcome.recovered
                  and outcome.healthy_lanes_bitexact
                  and routing_ok
                  and not outcome.nan_detected
                  and outcome.certificate_failures == 0
                  and not outcome.crash_resume.get(
                      "wal_tail_mismatches", 0))
    return outcome


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------
def _shrink_candidates(spec: dict) -> list[tuple[str, dict]]:
    """Ordered simplifications of a failing spec (coarsest first)."""
    out: list[tuple[str, dict]] = []

    def variant(name: str, **changes) -> None:
        cand = json.loads(json.dumps(spec))  # deep copy via JSON
        cand.update(changes)
        out.append((name, cand))

    chaos = spec.get("chaos")
    if chaos:
        variant("drop_chaos", chaos=None)
        if chaos.get("solver_fault_rate") or chaos.get(
                "deadline_exhaust_rate"):
            calm = dict(chaos)
            calm["solver_fault_rate"] = 0.0
            calm["deadline_exhaust_rate"] = 0.0
            variant("drop_solver_faults", chaos=calm)
        if chaos.get("price_dropouts") or chaos.get("sensor_gaps"):
            quiet = dict(chaos)
            quiet["price_dropouts"] = []
            quiet["sensor_gaps"] = []
            variant("drop_telemetry_faults", chaos=quiet)
        if chaos.get("crash_at_period") is not None:
            uninterrupted = dict(chaos)
            uninterrupted["crash_at_period"] = None
            variant("drop_crash", chaos=uninterrupted)
        if chaos.get("actuation_faults"):
            healthy = dict(chaos)
            healthy["actuation_faults"] = []
            variant("drop_actuation_faults", chaos=healthy)
    if spec.get("faults"):
        variant("drop_faults", faults=[])
    if spec.get("budget_fraction") is not None:
        variant("drop_budgets", budget_fraction=None, hard_budgets=False)
    if spec.get("hard_budgets"):
        variant("soft_budgets", hard_budgets=False)
    if spec["n_periods"] > 2:
        half = max(2, spec["n_periods"] // 2)
        cand = json.loads(json.dumps(spec))
        cand["n_periods"] = half
        cand["portal_traces"] = [t[:half] for t in cand["portal_traces"]]
        cand["faults"] = [f for f in cand.get("faults", [])
                          if f["start_period"] < half]
        for f in cand.get("faults", []):
            f["end_period"] = min(f["end_period"], half)
        out.append(("halve_periods", cand))
    if spec.get("backend") != "active_set":
        variant("backend_active_set", backend="active_set")
    flat_loads = [[t[0]] * spec["n_periods"]
                  for t in spec["portal_traces"]]
    if flat_loads != spec["portal_traces"]:
        variant("flatten_loads", portal_traces=flat_loads)
    start = int(float(spec["start_hour"]))
    flat_prices = {
        name: [hourly[start % len(hourly)]] * len(hourly)
        for name, hourly in spec["prices_hourly"].items()
    }
    if flat_prices != spec["prices_hourly"]:
        variant("flatten_prices", prices_hourly=flat_prices)
    if spec["horizon_pred"] > 2:
        pred = max(2, spec["horizon_pred"] // 2)
        variant("shrink_horizon", horizon_pred=pred,
                horizon_ctrl=min(spec["horizon_ctrl"], pred))
    return out


def shrink(spec: dict, *, is_failing=None, max_rounds: int = 20) -> dict:
    """Greedily minimize a failing spec while it keeps failing.

    Parameters
    ----------
    spec:
        A spec for which the check currently fails.
    is_failing:
        Predicate ``spec -> bool``; defaults to
        ``not run_spec(spec).ok``.  Injectable for tests and for
        shrinking against a specific failure mode.
    max_rounds:
        Bound on accepted simplification rounds.

    Returns
    -------
    dict
        The minimal still-failing spec (possibly the input unchanged).
    """
    if is_failing is None:
        def is_failing(s: dict) -> bool:
            return not run_spec(s, oracle_samples=0).ok

    current = json.loads(json.dumps(spec))
    for _ in range(max_rounds):
        for _name, candidate in _shrink_candidates(current):
            if is_failing(candidate):
                current = candidate
                break
        else:
            break
    return current


# ---------------------------------------------------------------------------
# Batch driver
# ---------------------------------------------------------------------------
def fuzz_many(n_seeds: int, base_seed: int = 0, *,
              oracle_samples: int = 2,
              shrink_failures: bool = True,
              chaos: bool = False,
              batch: bool = False) -> dict:
    """Run ``n_seeds`` consecutive seeds; shrink whatever fails.

    Returns a JSON-able report: per-seed outcomes, the failure count,
    and a minimal repro spec per failure (ready for ``tests/seeds/``).
    With ``chaos=True`` every seed runs in chaos mode (injected solver
    faults, telemetry dropouts, total outages — see
    :func:`generate_spec`) and the report aggregates the fallback-rung
    counters across seeds.  With ``batch=True`` (chaos-only) every seed
    is a fleet drill via :func:`run_batch_chaos_seed` — lane isolation,
    quarantine, crash/resume — and the report additionally aggregates
    lane health states; batch failures are not shrunk (the failing unit
    is the fleet interaction, not one lane's spec).
    """
    if batch and not chaos:
        raise ConfigurationError(
            "batch fuzzing is chaos-only: pass chaos=True "
            "(CLI: --chaos --batch)")
    outcomes: list[Outcome] = []
    shrunk: list[dict] = []
    for k in range(int(n_seeds)):
        seed = int(base_seed) + k
        if batch:
            outcome = run_batch_chaos_seed(seed)
        else:
            outcome = run_spec(generate_spec(seed, chaos=chaos),
                               oracle_samples=oracle_samples)
        outcomes.append(outcome)
        if not outcome.ok and shrink_failures and not batch:
            shrunk.append(shrink(outcome.spec))
    n_failed = sum(1 for o in outcomes if not o.ok)
    report = {
        "n_seeds": int(n_seeds),
        "base_seed": int(base_seed),
        "n_failed": n_failed,
        "outcomes": [o.to_dict() for o in outcomes],
        "minimal_repros": shrunk,
        "certificates_checked": sum(o.certificates_checked
                                    for o in outcomes),
        "oracle_problems": sum(o.oracle_problems for o in outcomes),
    }
    if chaos:
        totals: dict[str, int] = {}
        for o in outcomes:
            for k, v in o.rung_counters.items():
                totals[k] = totals.get(k, 0) + v
        report["chaos"] = True
        report["rung_counters"] = totals
        report["unrecovered"] = sum(1 for o in outcomes if not o.recovered)
    if batch:
        states: dict[str, int] = {}
        for o in outcomes:
            for s in o.lane_states:
                states[s] = states.get(s, 0) + 1
        report["batch"] = True
        report["lane_states"] = states
        report["lanes_quarantined"] = sum(len(o.quarantined_lanes)
                                          for o in outcomes)
        report["healthy_lanes_perturbed"] = sum(
            1 for o in outcomes if not o.healthy_lanes_bitexact)
    return report
