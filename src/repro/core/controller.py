"""The paper's contribution: the two-time-scale electricity-cost MPC.

:class:`CostMPCPolicy` wires together everything Sec. IV describes:

* the state-space cost model of Sec. IV-A (:mod:`repro.core.model`),
* the slow server-sleep loop of Sec. IV-B (eq. 35, folded into the
  prediction model per eq. 36),
* the constrained MPC of Sec. IV-C (generic engine in
  :mod:`repro.control.mpc`, constraints from
  :mod:`repro.core.constraints`),
* the optimal control reference of Sec. IV-D, the closed-form
  :class:`~repro.core.reference_opt.Waterfill` of the instantaneous
  cost LP, with the peak-shaving budgets (:mod:`repro.core.peak_shaving`).

Power demand smoothing comes from the ``r_weight`` penalty on the
allocation increments ΔU; peak shaving from clamping the reference power
trajectory at the per-IDC budgets before integrating it into the
cumulative-energy references the MPC tracks.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from ..control import ModelPredictiveController, integrate_rates
from ..control.mpc import Backend, InputConstraintSet
from ..datacenter.cluster import IDCCluster
from ..exceptions import (
    CapacityError,
    ConfigurationError,
    ModelError,
)
from ..resilience import DeadlineBudget, FallbackLadder, Rung, \
    project_allocation
from ..sim.policy import AllocationDecision, PolicyObservation
from ..sim.profiling import PerfStats
from .constraints import build_constraints, capacity_rhs
from .model import CostModelBuilder
from .peak_shaving import normalize_budgets
from .reference_opt import Waterfill, solve_optimal_allocation

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
        (softened automatically when momentarily infeasible).  Both
        policies fold the rows into the capacity right-hand side
        (:func:`budgeted_capacity_rhs`); the batched policy folds them
        once into its shared constraint stack.
    backend:
        QP backend (``"active_set"`` or ``"admm"``).
    warm_start_solver:
        Thread each period's QP solution (and its active set)
        into the next period's solve.  Consecutive MPC optima are close
        by construction — that is what ``r_weight`` enforces — so this
        skips the phase-1 feasibility LP and most working-set iterations
        without changing the optimum (the QP is strictly convex).
        Disable only to benchmark cold-start behavior.
    power_schedule_watts:
        Optional ``(T, N)`` per-period power schedule to *track instead
        of* the reference LP — e.g. a day-ahead commitment.  The MPC
        then holds each IDC as close to its committed power as the
        workload-conservation constraint allows (budgets still clamp);
        rows past the end of the schedule repeat the last row.
    certify:
        Check a KKT optimality certificate on every QP solve (see
        :mod:`repro.verify`).  Failures never block the loop; they are
        counted in the perf counters (``certificates_checked`` /
        ``certificate_failures``).
    capture_problems:
        Keep up to this many solved QPs (as
        :class:`repro.verify.QPProblem` instances, exposed through
        :attr:`CostMPCPolicy.captured_problems`) for offline
        differential cross-checking.
    fallback_ladder:
        Run every MPC solve through the degradation ladder of
        :mod:`repro.resilience` (warm → cold restart → ADMM → reference
        LP → hold-and-project).  A rung failure falls to the next rung
        instead of raising, the winning rung is reported in
        ``diagnostics["rung"]`` and per-rung counters
        (``ladder_rung_*`` / ``ladder_failures_*`` / ``ladder_skipped_*``)
        land in the perf snapshot.  Off by default: the nominal path then
        behaves exactly as before, raising on solver failure.  Batched,
        it arms the per-lane ladder (cold → batched ADMM iterate →
        reference LP → hold) and lane health machines of
        :class:`~repro.core.BatchCostMPCPolicy`: a lane whose solve
        fails, or every lane when the shared solve fails, is served by
        its ladder instead of raising.
    deadline_seconds:
        Per-control-step wall-clock budget shared by all ladder rungs
        (and threaded into the plain solve when the ladder is off).  On
        exhaustion, solver rungs are skipped and the solver-free
        projection rung answers.  ``None`` = unbounded.  Batched, it is
        one budget per period for the whole batch and arms the per-lane
        ladder as ``fallback_ladder`` does: once it is spent, lanes
        ejected from the shared solve skip their solver rungs.
    """

    dt: float = 30.0
    horizon_pred: int = 8
    horizon_ctrl: int = 3
    q_weight: float = 1.0
    r_weight: float = 0.01
    budgets_watts: np.ndarray | list | None = None
    budget_mode: Literal["lp", "clamp"] = "lp"
    hard_budget_constraints: bool = False
    backend: str = "active_set"
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
    """Dynamic electricity-cost control with smoothing and peak shaving."""

    def __init__(self, cluster: IDCCluster,
                 config: MPCPolicyConfig | None = None) -> None:
        self.cluster = cluster
        self.config = config or MPCPolicyConfig()
        self.builder = CostModelBuilder(cluster)
        self.name = "mpc"
        self._budgets = normalize_budgets(self.config.budgets_watts,
                                          cluster.n_idcs)
        #: fault-injection hook ``hook(stage, lane, period)``, the
        #: batched policy's signature; each period :meth:`decide` binds
        #: ``lane=0`` and the period for the MPC core's
        #: ``fault_hook(stage)``.  Chaos testing installs a hook here,
        #: production leaves it None.  Deliberately outside reset(): the
        #: engine resets the policy at run start, and an installed hook
        #: must survive that.
        self.solver_fault_hook = None
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return to the pre-simulation state.

        The builder's discretization cache deliberately survives — its
        entries are pure functions of (prices, dt) and stay valid
        across runs.
        """
        self._x = self.builder.initial_state()
        self._u_prev: np.ndarray | None = None
        self._pending: tuple[np.ndarray, np.ndarray] | None = None
        self._mpc: ModelPredictiveController | None = None
        self.perf = PerfStats()

    def reset_solver_state(self) -> None:
        """Drop carried solver state (warm starts, working sets).

        Called by the policy supervisor before retrying a failed period:
        a stale warm start is the most common way one bad solve poisons
        the next.  The model cache survives — its entries are pure
        functions of their keys.  Deliberately narrow: the controller's
        *dynamic* state (``_x``, ``_pending``) and any predictor history must never be cleared by a
        retry — losing them silently desynchronizes the internal model
        from the plant.  Recovering that state is what
        :meth:`snapshot`/:meth:`restore` are for.
        """
        if self._mpc is not None:
            self._mpc.reset_warm_start()

    #: bumped when the snapshot layout changes incompatibly.
    SNAPSHOT_VERSION = 1

    def snapshot(self) -> dict:
        """Deep, picklable copy of every piece of carried state.

        Captures the dynamic state ([C̄, E], the previous allocation and
        the pending integration pair), the full MPC core (warm start,
        working set, factorization caches — so a restored run solves the
        identical iterate path, not just the identical optimum) and the
        perf counters.  The installed
        ``solver_fault_hook`` is *not* captured: hooks are process-local
        wiring, re-installed by whoever owns the restored policy.
        """
        mpc_copy = None
        if self._mpc is not None:
            hook = self._mpc.fault_hook
            self._mpc.fault_hook = None
            try:
                mpc_copy = copy.deepcopy(self._mpc)
            finally:
                self._mpc.fault_hook = hook
        return {
            "version": self.SNAPSHOT_VERSION,
            "x": self._x.copy(),
            "u_prev": None if self._u_prev is None else self._u_prev.copy(),
            "pending": None if self._pending is None else
                (self._pending[0].copy(), self._pending[1].copy()),
            "mpc": mpc_copy,
            "perf": copy.deepcopy(self.perf),
        }

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot`; the snapshot stays reusable.

        The restored policy continues bit-exact from the captured
        period.  Raises :class:`~repro.exceptions.CheckpointError` on a
        snapshot from an incompatible layout version.
        """
        if state.get("version") != self.SNAPSHOT_VERSION:
            from ..exceptions import CheckpointError
            raise CheckpointError(
                f"policy snapshot version {state.get('version')!r} not "
                f"supported (expected {self.SNAPSHOT_VERSION})")
        self._x = state["x"].copy()
        self._u_prev = (None if state["u_prev"] is None
                        else state["u_prev"].copy())
        self._pending = (None if state["pending"] is None else
                         (state["pending"][0].copy(),
                          state["pending"][1].copy()))
        self._mpc = copy.deepcopy(state["mpc"])
        self.perf = copy.deepcopy(state["perf"])

    def on_availability_change(self) -> None:
        """React to the fleet's availability changing under the policy.

        The engine calls this when an outage starts, deepens or clears.
        The MPC warm start silently assumes fixed availability and is
        dropped: the constraint stack's capacity rows — and with a total
        outage, its *row pattern* — change.  The reference needs nothing:
        its :class:`Waterfill` reads the available fleet every period.
        """
        self.reset_solver_state()
        self.perf.count("availability_resets")

    def perf_snapshot(self) -> dict:
        """Perf counters + stage timings accumulated since :meth:`reset`.

        Folds in the MPC core's solver/cache statistics and the model
        builder's discretization cache totals, so one dict describes the
        whole policy stack.  The simulation engine attaches this to
        :attr:`repro.sim.SimulationResult.perf`.
        """
        if self._mpc is not None:
            self.perf.update_counters(self._mpc.stats)
        self.perf.update_counters({
            "model_cache_hits": self.builder.cache_stats["hits"],
            "model_cache_misses": self.builder.cache_stats["misses"],
        })
        return self.perf.as_dict()

    @property
    def captured_problems(self) -> list:
        """QPs captured for the differential oracles (``capture_problems``).

        A list of (:class:`repro.verify.QPProblem`,
        :class:`repro.optim.OptimizeResult`) pairs, oldest first.
        """
        return [] if self._mpc is None else list(self._mpc.captured)

    # ------------------------------------------------------------------
    # internal state integration (mirrors the plant deterministically)
    # ------------------------------------------------------------------
    def _reconcile_actuation(self, obs: PolicyObservation) -> None:
        """Adopt the server counts the plant *actually* ran last period.

        The eq.-35 command can be dropped, delayed or partially applied
        by the actuation layer (:mod:`repro.sim.faults`); the engine
        reports the applied counts back through ``obs.prev_servers``.
        When they differ from what this policy commanded, the pending
        integration pair is rewritten to the plant's truth, so the internal [C̄, E] state integrates
        the power that was actually drawn — not the power that was
        merely ordered.  A faithful plant makes this a no-op.
        """
        if self._pending is None:
            return
        applied = np.asarray(obs.prev_servers).astype(int).ravel()
        u_pending, m_pending = self._pending
        if applied.size != m_pending.size:
            return
        commanded = m_pending.astype(int)
        if np.array_equal(applied, commanded):
            return
        self._pending = (u_pending, applied.copy())
        self.perf.count("actuation_reconciliations")
        self.perf.count("actuation_server_gap",
                        int(np.abs(applied - commanded).sum()))

    def _integrate_pending(self, prices: np.ndarray) -> None:
        """Advance [C̄, E] by the period that just elapsed."""
        if self._pending is None:
            return
        u, m = self._pending
        powers_mw = self.builder.powers_mw(u, m)
        # paper cost state: dC = Σ Pr_j · E_j(MWh) dt
        self._x[0] += float(
            np.sum(prices * (self._x[1:] / 3600.0))) * self.config.dt
        self._x[1:] += powers_mw * self.config.dt
        self._pending = None

    # ------------------------------------------------------------------
    # reference construction (Sec. IV-D + peak shaving)
    # ------------------------------------------------------------------
    def _reference_powers_mw(self, prices: np.ndarray,
                             loads_seq: np.ndarray,
                             period: int = 0,
                             prices_seq: np.ndarray | None = None
                             ) -> np.ndarray:
        """Budget-handled power targets, shape (β₁, N).

        One capped :class:`Waterfill` call over the β₁ horizon steps.
        ``prices_seq`` optionally supplies *forecast* prices per horizon
        step (from the engine's price forecaster); the reference LP is
        then solved against each step's expected prices, which is what
        makes the MPC ramp *before* an anticipated price change.  The
        waterfill is built each period so it sees the fleet available
        now (outages change it).
        """
        beta1 = self.config.horizon_pred
        steps = np.arange(beta1)
        schedule = self.config.power_schedule_watts
        if schedule is not None:
            schedule = np.atleast_2d(np.asarray(schedule, dtype=float))
            idx = np.minimum(period + 1 + steps, schedule.shape[0] - 1)
            refs = schedule[idx] / 1e6
            return np.minimum(refs, self._budgets / 1e6)
        totals = loads_seq[np.minimum(steps, loads_seq.shape[0] - 1)] \
            .sum(axis=1)
        if prices_seq is not None:
            prices = prices_seq[np.minimum(steps, prices_seq.shape[0] - 1)]
        return Waterfill(self.cluster).reference_powers_watts(
            prices, totals, self._budgets, self.config.budget_mode) / 1e6

    # ------------------------------------------------------------------
    def _loads_sequence(self, obs: PolicyObservation) -> np.ndarray:
        """Per-step portal loads over the control horizon, shape (β₂, C)."""
        if obs.predicted_loads is not None:
            seq = np.atleast_2d(np.asarray(obs.predicted_loads, dtype=float))
            rows = [obs.loads]  # step 0 uses the *measured* loads
            for s in range(1, self.config.horizon_ctrl):
                rows.append(seq[min(s - 1, seq.shape[0] - 1)])
            return np.vstack(rows)
        return np.tile(obs.loads, (self.config.horizon_ctrl, 1))

    # ------------------------------------------------------------------
    def decide(self, obs: PolicyObservation) -> AllocationDecision:
        """One receding-horizon step: references, MPC solve, server counts.

        Returns the allocation to apply now plus per-step diagnostics
        (QP status, softening flag, the reference powers tracked).
        """
        cfg = self.config
        prices = np.asarray(obs.prices, dtype=float).ravel()

        # 0. reconcile against the plant, then account for the period
        #    that just elapsed
        self._reconcile_actuation(obs)
        self._integrate_pending(prices)

        # 1. warm start at the optimal operating point (first period;
        #    the figures begin at the 6H optimal operating point)
        if self._u_prev is None:
            alloc = solve_optimal_allocation(self.cluster, prices,
                                             obs.loads)
            self._u_prev = alloc.u

        # 2. rebuild the prediction model when prices changed — the
        #    builder memoizes, so an unchanged period returns the
        #    identical object and the MPC skips its horizon restacking
        with self.perf.stage("model"):
            model = self.builder.discrete(prices, cfg.dt)
            constraints = self._make_constraints(obs)
            if self._mpc is None:
                self._mpc = ModelPredictiveController(
                    model, cfg.horizon_pred, cfg.horizon_ctrl,
                    q_weight=cfg.q_weight, r_weight=cfg.r_weight,
                    constraints=constraints, backend=cfg.backend,
                    warm_start=cfg.warm_start_solver,
                    certify=cfg.certify,
                    capture_limit=cfg.capture_problems)
            else:
                self._mpc.update_model(model)
                self._mpc.constraints = constraints
            hook, period = self.solver_fault_hook, int(obs.period)
            self._mpc.fault_hook = None if hook is None else \
                (lambda stage: hook(stage, 0, period))

        # 3. references from the optimizer, clamped at the budgets
        loads_seq = self._loads_sequence(obs)
        prices_seq = None
        if obs.predicted_prices is not None:
            prices_seq = np.atleast_2d(
                np.asarray(obs.predicted_prices, dtype=float))
        with self.perf.stage("reference"):
            ref_powers = self._reference_powers_mw(prices, loads_seq,
                                                   period=obs.period,
                                                   prices_seq=prices_seq)
            reference = integrate_rates(self._x[1:], ref_powers, cfg.dt)

        # 4. solve the MPC step — through the degradation ladder when
        #    configured, else the plain (raise-on-failure) path
        with self.perf.stage("mpc_solve"):
            if cfg.fallback_ladder:
                step = self._solve_with_ladder(obs, prices, reference)
            else:
                step = self._mpc_step(reference, cfg.deadline_seconds)
        u = step["u"]

        # 5. slow loop: integer server counts for the commanded
        #    allocation (eq. 35, folded into the model per eq. 36)
        servers = self._servers_for_loads(self.cluster.idc_workloads(u))

        self._u_prev = u
        self._pending = (u.copy(), servers.copy())

        diagnostics = {
            "reference_powers_mw": ref_powers[0].copy(),
            "powers_mw": self.builder.powers_mw(u, servers),
        }
        diagnostics.update(
            {k: v for k, v in step.items() if k != "u"})
        return AllocationDecision(u=u, servers=servers,
                                  diagnostics=diagnostics)

    # ------------------------------------------------------------------
    # degradation ladder (repro.resilience)
    # ------------------------------------------------------------------
    def _mpc_step(self, reference: np.ndarray,
                  deadline_seconds: float | None) -> dict:
        """One MPC solve packaged as a ladder-rung result dict."""
        sol = self._mpc.control(self._x, self._u_prev, reference,
                                deadline_seconds=deadline_seconds)
        return {
            "u": np.maximum(sol.u, 0.0),
            "qp_status": sol.status,
            "qp_iterations": sol.solver_iterations,
            "softened": sol.softened,
            "mpc_cost": sol.cost,
        }

    def _rung_cold(self, reference: np.ndarray,
                   deadline_seconds: float | None) -> dict:
        self._mpc.reset_warm_start()
        return self._mpc_step(reference, deadline_seconds)

    def _rung_admm(self, reference: np.ndarray,
                   deadline_seconds: float | None) -> dict:
        saved = self._mpc.backend
        self._mpc.backend = "admm"
        self._mpc.reset_warm_start()
        try:
            return self._mpc_step(reference, deadline_seconds)
        finally:
            self._mpc.backend = saved

    def _rung_reference(self, obs: PolicyObservation,
                        prices: np.ndarray) -> dict:
        alloc = solve_optimal_allocation(
            self.cluster, prices, np.asarray(obs.loads, dtype=float))
        return {"u": alloc.u, "qp_status": "reference_lp"}

    def _rung_hold(self, obs: PolicyObservation) -> dict:
        u_prev = (self._u_prev if self._u_prev is not None
                  else np.asarray(obs.prev_u, dtype=float))
        u, shed = project_allocation(self.cluster, u_prev, obs.loads)
        return {"u": u, "qp_status": "hold_projection",
                "shed_requests": float(shed)}

    def _solve_with_ladder(self, obs: PolicyObservation,
                           prices: np.ndarray,
                           reference: np.ndarray) -> dict:
        """Run the MPC step through the warm→cold→ADMM→LP→hold ladder.

        Returns the winning rung's result dict with the rung name and
        accumulated failures attached; per-rung counters go to
        ``self.perf``.  The terminal projection rung cannot fail (it
        sheds instead), so this only raises under injected faults that
        break *every* rung — which is exactly what the policy
        supervisor's SAFE_MODE handles.
        """
        ladder = FallbackLadder([
            Rung("warm", lambda dl: self._mpc_step(reference, dl)),
            Rung("cold", lambda dl: self._rung_cold(reference, dl)),
            Rung("admm", lambda dl: self._rung_admm(reference, dl)),
            Rung("reference", lambda dl: self._rung_reference(obs, prices)),
            Rung("hold", lambda dl: self._rung_hold(obs),
                 needs_solver=False),
        ], count=self.perf.count)
        outcome = ladder.run(DeadlineBudget(self.config.deadline_seconds))
        step = dict(outcome.value)
        step["rung"] = outcome.rung
        if outcome.failures:
            step["ladder_failures"] = list(outcome.failures)
        if outcome.rung in ("reference", "hold"):
            # The MPC did not produce this allocation; its carried
            # solution no longer matches what the plant will apply.
            self._mpc.reset_warm_start()
        return step

    def _servers_for_loads(self, lam: np.ndarray) -> np.ndarray:
        """Eq. 35 per IDC, capped at the fleet size.

        A softened MPC step may route more workload than an IDC's fleet
        can serve within the latency bound; the slow loop then turns on
        the whole fleet and the resulting QoS violation is visible in
        the recorded latencies rather than hidden by an exception.
        """
        out = np.empty(self.cluster.n_idcs, dtype=int)
        for j, (idc, l) in enumerate(zip(self.cluster.idcs, lam)):
            try:
                out[j] = idc.servers_for(float(l))
            except CapacityError:
                out[j] = idc.available_servers
        return out

    def _make_constraints(self, obs: PolicyObservation) -> InputConstraintSet:
        cs = build_constraints(self.cluster, self._loads_sequence(obs))
        cs.b_ineq = budgeted_capacity_rhs(self.cluster, self.config)
        return cs


def budgeted_capacity_rhs(cluster: IDCCluster,
                          config: MPCPolicyConfig) -> np.ndarray:
    """The capacity rows' right-hand side ``φ`` with the hard budget rows.

    With ``config.hard_budget_constraints`` each finite power budget
    becomes a workload cap: the relaxed eq. 36 server count makes the
    power affine in ``λ_j`` (:meth:`Waterfill.budget_caps`), so ``P_j ≤
    P^b_j`` becomes ``λ_j ≤ cap_j``, with one server's ``b0_j`` kept in
    reserve for the integer ceiling the plant applies.  Folding the cap
    into ``φ`` rather than appending a parallel inequality row keeps the
    QP constraint matrix full rank.  Both MPC policies call this.
    """
    phi = capacity_rhs(cluster)
    if not config.hard_budget_constraints:
        return phi
    budgets = normalize_budgets(config.budgets_watts, cluster.n_idcs)
    caps = Waterfill(cluster).budget_caps(budgets, margin_servers=1.0)
    return np.minimum(phi, np.maximum(caps, 0.0))
