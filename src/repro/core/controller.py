"""The paper's contribution: the two-time-scale electricity-cost MPC.

The controller wires together everything Sec. IV describes:

* the state-space cost model of Sec. IV-A (:mod:`repro.core.model`),
* the slow server-sleep loop of Sec. IV-B (eq. 35, folded into the
  prediction model per eq. 36),
* the constrained MPC of Sec. IV-C (horizon operators from
  :mod:`repro.control`, constraints from :mod:`repro.core.constraints`),
* the optimal control reference of Sec. IV-D, the closed-form
  :class:`~repro.core.reference_opt.Waterfill` of the instantaneous
  cost LP, with the peak-shaving budgets (:mod:`repro.core.peak_shaving`).

Power demand smoothing comes from the ``r_weight`` penalty on the
allocation increments ΔU; peak shaving from clamping the reference power
trajectory at the per-IDC budgets before integrating it into the
cumulative-energy references the MPC tracks.

One implementation serves every width: :class:`~repro.core.
BatchCostMPCPolicy` advances ``S`` lanes, and :class:`CostMPCPolicy`
here is its one-lane view.  This module holds the tuning both share
(:class:`MPCPolicyConfig`) and the hard-budget fold of the capacity rows
(:func:`budgeted_capacity_rhs`).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from ..control.mpc import Backend
from ..datacenter.cluster import IDCCluster
from ..exceptions import CheckpointError, ConfigurationError, ModelError
from ..sim.policy import AllocationDecision, PolicyObservation
from ..sim.profiling import BatchPerfStats, PerfStats
from .peak_shaving import normalize_budgets
# solve_optimal_allocation (the period-0 operating point) stays
# importable from the controller's module, its Sec. IV home.
from .reference_opt import Waterfill, solve_optimal_allocation  # noqa: F401

__all__ = ["MPCPolicyConfig", "CostMPCPolicy", "budgeted_capacity_rhs"]


@dataclass
class MPCPolicyConfig:
    """Tuning of the cost MPC (defaults reproduce the paper's figures).

    Attributes
    ----------
    dt:
        Control (sampling) period ``Ts`` in seconds.
    horizon_pred, horizon_ctrl:
        β₁ and β₂.
    q_weight:
        Tracking weight on the cumulative-energy outputs.
    r_weight:
        Penalty on allocation increments ΔU — the smoothing knob.  Larger
        values trade electricity cost for lower power volatility (the
        Q/R compromise of eq. 37).
    budgets_watts:
        Per-IDC peak budgets (None entries = unconstrained; every given
        budget must be positive and not NaN).
    budget_mode:
        How budgets shape the reference: ``"lp"`` (default) solves the
        reference LP *with* the budget rows, so the reference trajectory
        is itself feasible and budget-respecting (a step whose load the
        budgets cannot carry falls back to the clamp); ``"clamp"``
        applies the paper's verbatim rule (clamp the unconstrained
        optimum at the budget), which leaves the workload displaced by
        the clamp to be absorbed as a tracking compromise.  The ablation
        benchmark compares the two.
    hard_budget_constraints:
        Extension beyond the paper: additionally impose the budgets as
        *hard* per-step inequality rows on the allocation (power is
        affine in ``U``, so ``P_j ≤ P^b_j`` is a linear constraint).
        Reference tracking alone approaches the budget asymptotically
        from above after a disturbance; the hard rows pin it immediately
        (softened automatically when momentarily infeasible).  They fold
        into the shared capacity right-hand side
        (:func:`budgeted_capacity_rhs`), so they change no matrix.
    backend:
        Each lane's QP solver.  ``"admm"`` (default): the shared,
        polished batched ADMM (:func:`repro.optim.solve_qp_admm_batch`),
        whose stragglers fall to the exact active-set solve;
        ``"active_set"``: every lane runs the exact active-set solve.
    warm_start_solver:
        Seed each period's batched ADMM solve with the previous
        period's iterate, shifted one step.  Consecutive MPC optima are
        close by construction — that is what ``r_weight`` enforces — so
        the polish usually lands on the exact vertex at the first
        iteration.  Disable only to benchmark cold-start behavior.
    power_schedule_watts:
        Optional ``(T, N)`` per-period power schedule to *track instead
        of* the reference LP — e.g. a day-ahead commitment.  It replaces
        each lane's ``(β₁, N)`` reference rows (row ``k + 1 + s`` at step
        ``s`` of period ``k``; rows past the end repeat the last row),
        still clamped at the budgets, so the MPC holds each IDC as close
        to its committed power as workload conservation allows.
    certify:
        Check a KKT optimality certificate on every lane's QP (see
        :mod:`repro.verify`): exact solutions (active set or polish) at
        the exact tolerance, ADMM-finished ones at 50× it.  Failures
        never block the loop; they are counted in the lane's perf
        counters (``certificates_checked`` / ``certificate_failures``).
    capture_problems:
        Keep lane 0's first this many QPs (as
        :class:`repro.verify.QPProblem` instances, exposed through
        :attr:`CostMPCPolicy.captured_problems`) for offline
        differential cross-checking.
    fallback_ladder:
        Arm the degradation ladder of :mod:`repro.resilience`: the
        shared solve is the ``warm`` rung, and a lane it fails (or every
        lane, when the shared solve itself fails) falls through its own
        cold exact solve → batched ADMM iterate → reference LP → hold
        projection instead of raising.  The winning rung is reported in
        ``diagnostics["rung"]`` and per-rung counters
        (``ladder_rung_*`` / ``ladder_failures_*`` / ``ladder_skipped_*``)
        land in the perf snapshot.  Off by default: a solver failure
        then raises.
    deadline_seconds:
        Per-control-step wall-clock budget, one per period for the whole
        batch.  It arms the ladder as ``fallback_ladder`` does; once it
        is spent, ejected lanes skip their solver rungs and the
        solver-free projection rung answers.  ``None`` = unbounded.
    """

    dt: float = 30.0
    horizon_pred: int = 8
    horizon_ctrl: int = 3
    q_weight: float = 1.0
    r_weight: float = 0.01
    budgets_watts: np.ndarray | list | None = None
    budget_mode: Literal["lp", "clamp"] = "lp"
    hard_budget_constraints: bool = False
    backend: str = "admm"
    warm_start_solver: bool = True
    power_schedule_watts: np.ndarray | None = None
    certify: bool = False
    capture_problems: int = 0
    fallback_ladder: bool = False
    deadline_seconds: float | None = None

    def __post_init__(self) -> None:
        for name in ("dt", "q_weight", "r_weight"):
            check_positive(getattr(self, name), name)
        if self.deadline_seconds is not None:
            check_positive(self.deadline_seconds, "deadline_seconds")
        if self.horizon_ctrl > self.horizon_pred or self.horizon_ctrl < 1:
            raise ConfigurationError("need 1 <= horizon_ctrl <= horizon_pred")
        if self.budget_mode not in ("lp", "clamp"):
            raise ConfigurationError("budget_mode must be 'lp' or 'clamp'")
        if self.budgets_watts is not None:
            raw = self.budgets_watts
            raw = [raw] if np.ndim(raw) == 0 else list(raw)
            try:
                normalize_budgets(raw, len(raw))
            except ModelError as exc:
                raise ConfigurationError(f"budgets_watts: {exc}") from None
        if self.backend not in get_args(Backend):
            raise ConfigurationError(
                f"backend must be one of {get_args(Backend)}, "
                f"got {self.backend!r}")
        if self.capture_problems < 0:
            raise ConfigurationError("capture_problems must be >= 0")


def check_positive(value: float, name: str) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is finite and > 0.

    ``value <= 0`` alone lets NaN through (every comparison with NaN is
    false), and an infinite weight or period breaks the QP silently.
    """
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(
            f"{name} must be positive and finite, got {value!r}")


class CostMPCPolicy:
    """Dynamic electricity-cost control with smoothing and peak shaving.

    The one-lane view of :class:`~repro.core.BatchCostMPCPolicy`: each
    period is a :meth:`~repro.core.BatchCostMPCPolicy.decide_batch` call
    of width one, so a single run and a 1000-lane fleet run the same
    controller.  This adapter supplies the scalar
    :class:`~repro.sim.policy.Policy` interface the engine, the policy
    supervisor and the service use.
    """

    #: bumped when the snapshot layout changes incompatibly.
    SNAPSHOT_VERSION = 3

    def __init__(self, cluster: IDCCluster,
                 config: MPCPolicyConfig | None = None) -> None:
        from .batch_controller import BatchCostMPCPolicy

        self.cluster = cluster
        self.config = config or MPCPolicyConfig()
        self.name = "mpc"
        self._lane = BatchCostMPCPolicy(cluster, self.config,
                                        n_scenarios=1, warm_start="exact")
        self.reset()

    @property
    def solver_fault_hook(self):
        """Fault-injection hook ``hook(stage, lane, period)``, lane 0.

        Chaos testing installs a hook here, production leaves it None.
        Deliberately outside :meth:`reset`: the engine resets the policy
        at run start, and an installed hook must survive that.
        """
        return self._lane.solver_fault_hook

    @solver_fault_hook.setter
    def solver_fault_hook(self, hook) -> None:
        self._lane.solver_fault_hook = hook

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return to the pre-simulation state.

        The builder's discretization cache deliberately survives — its
        entries are pure functions of (prices, dt) and stay valid
        across runs.
        """
        self._lane.reset()
        self._lane.perf = BatchPerfStats(1)

    def reset_solver_state(self) -> None:
        """Drop carried solver state (the ADMM warm-start iterate).

        Called by the policy supervisor before retrying a failed period:
        a stale warm start is the most common way one bad solve poisons
        the next.  Deliberately narrow: the controller's *dynamic* state
        ([C̄, E], the pending integration) must never be cleared by a
        retry — losing it silently desynchronizes the internal model
        from the plant.  Recovering that state is what
        :meth:`snapshot`/:meth:`restore` are for.
        """
        self._lane.reset_solver_state()

    def snapshot(self) -> dict:
        """Picklable copy of every piece of carried state.

        The lane's closed-loop state, warm-start iterate, adapted ADMM
        penalty and health machine
        (:meth:`~repro.core.BatchCostMPCPolicy.snapshot`) plus the perf
        counters, so a restored run solves the identical iterate path.
        The installed ``solver_fault_hook`` is *not* captured: hooks are
        process-local wiring, re-installed by whoever owns the restored
        policy.
        """
        return {"version": self.SNAPSHOT_VERSION,
                "lane": self._lane.snapshot(),
                "perf": copy.deepcopy(self._lane.perf)}

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot`; the snapshot stays reusable.

        The restored policy continues bit-exact from the captured
        period.  Raises :class:`~repro.exceptions.CheckpointError` on a
        snapshot from an incompatible layout version.
        """
        if state.get("version") != self.SNAPSHOT_VERSION:
            raise CheckpointError(
                f"policy snapshot version {state.get('version')!r} not "
                f"supported (expected {self.SNAPSHOT_VERSION})")
        self._lane.restore(state["lane"])
        self._lane.perf = copy.deepcopy(state["perf"])

    def perf_snapshot(self) -> dict:
        """Perf counters + stage timings accumulated since :meth:`reset`.

        The lane's shared stages and counters merged with its own, plus
        the model builder's discretization cache totals, so one dict
        describes the whole policy stack.  The simulation engine
        attaches this to :attr:`repro.sim.SimulationResult.perf`.
        """
        perf = PerfStats()
        perf.merge(self._lane.perf.shared)
        perf.merge(self._lane.perf.lane(0))
        perf.update_counters({
            "model_cache_hits": self._lane.builder.cache_stats["hits"],
            "model_cache_misses": self._lane.builder.cache_stats["misses"],
        })
        return perf.as_dict()

    @property
    def captured_problems(self) -> list:
        """QPs captured for the differential oracles (``capture_problems``).

        A list of (:class:`repro.verify.QPProblem`, solution ΔU) pairs,
        oldest first.
        """
        return list(self._lane.captured)

    # ------------------------------------------------------------------
    def decide(self, obs: PolicyObservation) -> AllocationDecision:
        """One receding-horizon step: references, MPC solve, server counts.

        Reconciles the pending integration with the servers the plant
        applied, then runs the lane's batched step on the cluster's
        available fleet.  Returns the allocation to apply now plus
        per-step diagnostics (QP status, softening flag, the reference
        powers tracked).
        """
        lane = self._lane
        lane.reconcile_actuation(np.asarray(obs.prev_servers)[None])
        available = [[idc.available_servers for idc in self.cluster.idcs]]
        predicted_loads = predicted_prices = None
        if obs.predicted_loads is not None:
            predicted_loads = np.atleast_2d(
                np.asarray(obs.predicted_loads, dtype=float))[None]
        if obs.predicted_prices is not None:
            predicted_prices = np.atleast_2d(
                np.asarray(obs.predicted_prices, dtype=float))[None]
        return lane.decide_batch(obs.period, obs.prices, obs.loads,
                                 predicted_loads, predicted_prices,
                                 available=available).lane(0)


def budgeted_capacity_rhs(cluster: IDCCluster, config: MPCPolicyConfig,
                          available: np.ndarray | None = None) -> np.ndarray:
    """The capacity rows' right-hand side ``φ`` with the hard budget rows.

    ``φ`` is the waterfill's capacity at the ``available`` fleet (eq.
    33; ``(N,)`` or one row per lane).  With
    ``config.hard_budget_constraints`` each finite power budget becomes
    a workload cap: the relaxed eq. 36 server count makes the power
    affine in ``λ_j`` (:meth:`Waterfill.budget_caps`), so ``P_j ≤
    P^b_j`` becomes ``λ_j ≤ cap_j``, with one server's ``b0_j`` kept in
    reserve for the integer ceiling the plant applies.  Folding the cap
    into ``φ`` rather than appending a parallel inequality row keeps the
    QP constraint matrix full rank.
    """
    wf = Waterfill(cluster, available)
    if not config.hard_budget_constraints:
        return wf.caps
    budgets = normalize_budgets(config.budgets_watts, cluster.n_idcs)
    caps = wf.budget_caps(budgets, margin_servers=1.0)
    return np.minimum(wf.caps, np.maximum(caps, 0.0))
