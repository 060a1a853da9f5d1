"""Wire protocol of the control-plane service.

A *run spec* is the JSON document a client POSTs to ``/runs``.  This
module is the single place it is validated and compiled into live
objects — the daemon, the chaos harness and the in-process tests all
build their scenarios and policies through the same two factories
(:func:`build_scalar_run` / :func:`build_fleet`), which is what makes
the service's crash-resume *verifiable*: a restarted daemon reconstructs
a bit-identical controller from the persisted spec.

Scalar specs reuse the CLI's scenario vocabulary (``paper`` /
``price-step`` with ``dt``/``duration``/``start_hour``/… knobs); fleet
specs mirror the shared-market herding study
(:class:`repro.sim.fleet.SharedMarketFleet`).
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, field

__all__ = [
    "ProtocolError",
    "RunSpec",
    "build_fleet",
    "build_scalar_run",
    "spec_from_dict",
]

#: Scenario factories a scalar spec may name.
SCENARIO_KINDS = ("paper", "price-step")

#: Allocation policies a scalar spec may name (CLI vocabulary).
POLICY_NAMES = ("mpc", "optimal", "static", "uniform", "greedy")

#: Resume modes for a submitted run (see :func:`spec_from_dict`).
RESUME_MODES = ("never", "auto", "force")

_RUN_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class ProtocolError(ValueError):
    """A malformed run spec or request body (HTTP 400)."""


def validate_run_id(run_id: str) -> str:
    """Run ids become directory names; keep them boring and safe."""
    if not isinstance(run_id, str) or not _RUN_ID.match(run_id):
        raise ProtocolError(
            f"run_id {run_id!r} must match {_RUN_ID.pattern}")
    return run_id


@dataclass
class RunSpec:
    """Validated description of one service-managed run.

    Attributes
    ----------
    kind:
        ``"scalar"`` (one :func:`repro.sim.run_simulation` loop) or
        ``"fleet"`` (a :class:`~repro.sim.fleet.SharedMarketFleet` on a
        shared demand-coupled market).
    scenario, policy:
        Scalar-run knobs (ignored for fleets); see
        :func:`build_scalar_run` for keys and defaults.
    fleet:
        Fleet-run knobs (ignored for scalar); see :func:`build_fleet`.
    checkpoint_every, wal_fsync_every, wal_shards:
        Durability cadence.  The service keeps the control plane armed
        at all times — ``checkpoint_every`` may not be disabled, only
        widened.
    resume:
        ``"never"`` — refuse to touch an existing run directory;
        ``"auto"`` — resume from the WAL when one exists, else start
        fresh (an orphaned checkpoint without its WAL is a *conflict*,
        per the durability layer's fail-fast rule);
        ``"force"`` — discard any prior WAL/checkpoint and start over.
    """

    kind: str = "scalar"
    scenario: dict = field(default_factory=dict)
    policy: dict = field(default_factory=dict)
    fleet: dict = field(default_factory=dict)
    checkpoint_every: int = 1
    wal_fsync_every: int = 1
    wal_shards: int = 1
    resume: str = "never"

    def to_dict(self) -> dict:
        """JSON-serializable copy (what the run directory persists)."""
        return asdict(self)


_TOP_KEYS = {"kind", "scenario", "policy", "fleet", "checkpoint_every",
             "wal_fsync_every", "wal_shards", "resume", "run_id"}
_SCENARIO_KEYS = {"name", "dt", "duration", "start_hour", "budgets",
                  "hard_budgets", "feedback"}
_POLICY_KEYS = {"name", "r_weight", "supervised", "fallback_ladder",
                "deadline_seconds", "predict_loads"}
_FLEET_KEYS = {"n_lanes", "n_periods", "dt", "gamma", "policy_mix",
               "stagger", "seed", "load_noise", "nominal_power_mw",
               "r_weight", "start_hour"}
#: Numeric keys (in any section) that must also be strictly positive.
_POSITIVE_KEYS = {"dt", "duration", "r_weight", "deadline_seconds"}


def _check_keys(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ProtocolError(
            f"unknown {where} key(s) {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}")


def _check_numbers(mapping: dict, where: str) -> None:
    """Every number must be finite, and ``_POSITIVE_KEYS`` positive.

    Python's ``json`` parses ``NaN`` and ``Infinity``; such a value would
    otherwise reach the controller and fail its control thread.
    """
    for key, value in mapping.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if not math.isfinite(value):
            raise ProtocolError(f"{where}.{key} must be finite, got {value!r}")
        if key in _POSITIVE_KEYS and value <= 0:
            raise ProtocolError(
                f"{where}.{key} must be positive, got {value!r}")


def spec_from_dict(payload: dict) -> RunSpec:
    """Validate a client payload into a :class:`RunSpec`.

    Strict by design: unknown keys, wrong types and out-of-range values
    are all :class:`ProtocolError` (HTTP 400), never silently ignored —
    a typo in a chaos drill must not demote the run to defaults.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("run spec must be a JSON object")
    _check_keys(payload, _TOP_KEYS, "run spec")
    kind = payload.get("kind", "scalar")
    if kind not in ("scalar", "fleet"):
        raise ProtocolError(f"kind must be 'scalar' or 'fleet', got {kind!r}")
    scenario = payload.get("scenario", {})
    policy = payload.get("policy", {})
    fleet = payload.get("fleet", {})
    for name, section, allowed in (("scenario", scenario, _SCENARIO_KEYS),
                                   ("policy", policy, _POLICY_KEYS),
                                   ("fleet", fleet, _FLEET_KEYS)):
        if not isinstance(section, dict):
            raise ProtocolError(f"{name} must be a JSON object")
        _check_keys(section, allowed, name)
        _check_numbers(section, name)
    if scenario.get("name", "paper") not in SCENARIO_KINDS:
        raise ProtocolError(
            f"scenario.name must be one of {SCENARIO_KINDS}")
    if policy.get("name", "mpc") not in POLICY_NAMES:
        raise ProtocolError(f"policy.name must be one of {POLICY_NAMES}")
    resume = payload.get("resume", "never")
    if resume not in RESUME_MODES:
        raise ProtocolError(f"resume must be one of {RESUME_MODES}")
    spec = RunSpec(
        kind=kind, scenario=dict(scenario), policy=dict(policy),
        fleet=dict(fleet),
        checkpoint_every=_positive_int(
            payload.get("checkpoint_every", 1), "checkpoint_every"),
        wal_fsync_every=_positive_int(
            payload.get("wal_fsync_every", 1), "wal_fsync_every"),
        wal_shards=_positive_int(payload.get("wal_shards", 1), "wal_shards"),
        resume=resume,
    )
    return spec


def _positive_int(value, name: str) -> int:
    try:
        ivalue = int(value)
    except (TypeError, ValueError):
        raise ProtocolError(f"{name} must be an integer, got {value!r}")
    if ivalue < 1:
        raise ProtocolError(f"{name} must be >= 1, got {ivalue}")
    return ivalue


# ---------------------------------------------------------------------------
# Compilation: spec -> live objects
# ---------------------------------------------------------------------------
def build_scalar_run(spec: RunSpec):
    """Compile a scalar spec into ``(scenario, policy, supervisor)``.

    ``policy`` is the object handed to the engine — the
    :class:`~repro.resilience.PolicySupervisor` wrapper when supervision
    is on (the default for MPC), else the bare policy.  ``supervisor``
    is that wrapper (or ``None``), kept separate so ``/readyz`` can read
    the health machine without unwrapping.

    Supervision + fallback ladder do not perturb a fault-free
    trajectory (the warm rung *is* the nominal solve), so the service's
    golden-day runs stay bit-exact against the fixture.
    """
    from ..baselines import (
        GreedyPricePolicy,
        OptimalInstantaneousPolicy,
        StaticProportionalPolicy,
        UniformPolicy,
    )
    from ..core import CostMPCPolicy, MPCPolicyConfig
    from ..resilience import PolicySupervisor
    from ..sim import (
        PAPER_BUDGETS_WATTS,
        paper_scenario,
        price_step_scenario,
    )

    sc = spec.scenario
    dt = float(sc.get("dt", 300.0))
    duration = float(sc.get("duration", 86400.0))
    with_budgets = bool(sc.get("budgets", False))
    feedback = float(sc.get("feedback", 0.0))
    if sc.get("name", "paper") == "price-step":
        scenario = price_step_scenario(dt=dt, duration=duration,
                                       with_budgets=with_budgets,
                                       demand_sensitivity=feedback)
    else:
        scenario = paper_scenario(dt=dt, duration=duration,
                                  start_hour=float(sc.get("start_hour", 6.0)),
                                  with_budgets=with_budgets,
                                  demand_sensitivity=feedback)

    pc = spec.policy
    name = pc.get("name", "mpc")
    if name == "mpc":
        deadline = pc.get("deadline_seconds")
        policy = CostMPCPolicy(scenario.cluster, MPCPolicyConfig(
            dt=dt,
            r_weight=float(pc.get("r_weight", 0.01)),
            budgets_watts=PAPER_BUDGETS_WATTS if with_budgets else None,
            hard_budget_constraints=bool(sc.get("hard_budgets", False)),
            fallback_ladder=bool(pc.get("fallback_ladder", True)),
            deadline_seconds=None if deadline is None else float(deadline),
        ))
    elif name == "optimal":
        policy = OptimalInstantaneousPolicy(scenario.cluster)
    elif name == "static":
        policy = StaticProportionalPolicy(scenario.cluster)
    elif name == "uniform":
        policy = UniformPolicy(scenario.cluster)
    else:
        policy = GreedyPricePolicy(scenario.cluster)

    supervisor = None
    if bool(pc.get("supervised", name == "mpc")):
        supervisor = PolicySupervisor(policy, scenario.cluster)
        policy = supervisor
    return scenario, policy, supervisor


def build_fleet(spec: RunSpec):
    """Compile a fleet spec into ``(fleet, n_periods)``.

    The construction mirrors the herding study: a representative paper
    cluster per lane, one :class:`~repro.pricing.SharedMarket` whose
    regions carry the paper price traces with demand sensitivity
    ``gamma``, and per-lane portal loads jittered by ``load_noise``
    around the Table I constants (seeded — a restarted daemon rebuilds
    the identical fleet).
    """
    import numpy as np

    from ..core import MPCPolicyConfig
    from ..pricing import RegionMarketConfig, SharedMarket, paper_price_traces
    from ..sim import PAPER_IDC_SPECS, PAPER_PORTAL_LOADS, paper_cluster
    from ..sim.fleet import SharedMarketFleet

    fs = spec.fleet
    n_lanes = _positive_int(fs.get("n_lanes", 24), "fleet.n_lanes")
    n_periods = _positive_int(fs.get("n_periods", 16), "fleet.n_periods")
    dt = float(fs.get("dt", 300.0))
    gamma = float(fs.get("gamma", 0.05))
    stagger = _positive_int(fs.get("stagger", 1), "fleet.stagger")
    seed = int(fs.get("seed", 0))
    load_noise = float(fs.get("load_noise", 0.1))
    nominal = fs.get("nominal_power_mw")
    nominal = 5.0 * n_lanes if nominal is None else float(nominal)
    mix = tuple(fs.get("policy_mix", ("mpc", "lp", "static")))

    traces = paper_price_traces()
    market = SharedMarket({
        name: RegionMarketConfig(trace=traces[name],
                                 demand_sensitivity=gamma,
                                 nominal_power_mw=nominal)
        for name, _fleet, _mu in PAPER_IDC_SPECS})
    rng = np.random.default_rng(seed)
    loads = np.asarray(PAPER_PORTAL_LOADS) * np.clip(
        1.0 + load_noise * rng.standard_normal(
            (n_lanes, len(PAPER_PORTAL_LOADS))), 0.5, 1.3)
    fleet = SharedMarketFleet(
        paper_cluster(), market, loads, policy_mix=mix,
        config=MPCPolicyConfig(dt=dt,
                               r_weight=float(fs.get("r_weight", 0.01))),
        stagger=stagger, dt=dt,
        start_time=float(fs.get("start_hour", 6.0)) * 3600.0)
    return fleet, n_periods
