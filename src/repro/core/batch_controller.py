"""The electricity-cost MPC of Sec. IV, for one lane or a fleet.

:class:`BatchCostMPCPolicy` advances ``S`` *independent* scenarios of
the paper's controller as stacked tensors in one process;
:class:`repro.core.CostMPCPolicy` is its one-lane view.  The key
structural facts that make this cheap:

* The C-projected horizon operators ``Θ, F_x, F_u, f_w`` of the eq. 36
  cumulative-energy model (:func:`repro.control.build_horizon`) are
  *price-invariant* — the state matrix has only its cost row nonzero, so
  ``A² = 0`` and the energy-output projections collapse to constants.
  One structural build therefore serves every scenario; only the linear
  term, the constraint right-hand sides, and the states vary per lane.
* The stacked-QP Hessian ``P = 2Θ'QΘ + 2R`` and the ΔU-space constraint
  matrix are likewise shared, so the batched ADMM solver
  (:func:`repro.optim.solve_qp_admm_batch`) runs every scenario's
  iterates through **one** Cholesky factorization, with per-lane
  vectors as the only per-scenario state.
* The reference LP, power budgets included, has a closed-form
  waterfill solution (:class:`repro.core.reference_opt.Waterfill`), so
  all lanes' reference powers over the whole horizon come from one
  vectorized call — against the observed or the forecast prices.  A
  configured power schedule replaces those rows.
* Hard budget rows fold into the shared capacity right-hand side
  (:func:`repro.core.controller.budgeted_capacity_rhs`), so they change
  no matrix.

The config's ``backend`` picks each lane's solver: ``"admm"`` is the
shared polished batched solve, whose stragglers fall to the exact
active-set :class:`repro.control.ModelPredictiveController` one lane at
a time; ``"active_set"`` sends every lane through that exact solve.
``certify`` checks a KKT certificate on every lane's QP and
``capture_problems`` keeps lane 0's first QPs.  The config's
``fallback_ladder`` and ``deadline_seconds`` arm the per-lane ladder and
health machines (see :class:`BatchCostMPCPolicy`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..control import ModelPredictiveController, build_horizon, \
    integrate_rates_batch, move_selector
from ..control.mpc import InputConstraintSet
from ..datacenter.cluster import IDCCluster
from ..exceptions import (
    CapacityError,
    ConfigurationError,
    ConvergenceError,
    DegradedOperationError,
    SolverError,
)
from ..optim import prepare_batch_admm, solve_qp_admm_batch
from ..resilience.deadline import DeadlineBudget
from ..resilience.fleet import FleetHealth
from ..resilience.ladder import FallbackLadder, Rung, project_allocation
from ..sim.policy import AllocationDecision
from ..sim.profiling import BatchPerfStats
from .constraints import capacity_matrix, conservation_matrix
from .controller import MPCPolicyConfig, budgeted_capacity_rhs
from .model import CostModelBuilder
from .peak_shaving import normalize_budgets
from .reference_opt import (
    Waterfill,
    solve_optimal_allocation,
    solve_optimal_allocation_batch,
)

__all__ = ["BatchAllocationDecision", "BatchCostMPCPolicy"]

#: KKT residual tolerance of an exact (active-set or polished) solve;
#: a lane ADMM finished unpolished is judged at 50x, its first-order
#: accuracy.
_CERTIFY_TOL = 1e-5


@dataclass
class BatchAllocationDecision:
    """One control period's decisions for all ``S`` scenarios.

    Attributes
    ----------
    u:
        Allocations, shape ``(S, N·C)``.
    servers:
        Integer server commands, shape ``(S, N)``.
    powers_mw:
        Model power draw of the commanded operating point, ``(S, N)``.
    reference_powers_mw:
        First-step reference power targets, ``(S, N)``.
    qp_converged, qp_iterations, mpc_cost:
        The shared QP solve's per-lane outcome, ``(S,)`` each.
    lane_diagnostics:
        The diagnostics of the lanes an exact solve or the ladder
        decided, by lane; they replace those lanes' array entries.
    """

    u: np.ndarray
    servers: np.ndarray
    powers_mw: np.ndarray
    reference_powers_mw: np.ndarray
    qp_converged: np.ndarray
    qp_iterations: np.ndarray
    mpc_cost: np.ndarray
    lane_diagnostics: dict

    @cached_property
    def diagnostics(self) -> list:
        """Per-lane diagnostics dicts (one-lane views share the keys).

        Built on first access: the fleet never reads them, so it does
        not pay for building ``S`` dicts every period.
        """
        refs = self.reference_powers_mw.copy()
        powers = self.powers_mw.copy()
        solver = _diagnostic_dicts(self.qp_converged, self.qp_iterations,
                                   self.mpc_cost, self.lane_diagnostics)
        return [{"reference_powers_mw": ref, "powers_mw": pw, **diag}
                for ref, pw, diag in zip(refs, powers, solver)]

    def lane(self, index: int) -> AllocationDecision:
        """The scalar-engine view of one lane's decision."""
        return AllocationDecision(u=self.u[index],
                                  servers=self.servers[index],
                                  diagnostics=self.diagnostics[index])


def _diagnostic_dicts(converged, iterations, cost, lanes: dict) -> list:
    """One diagnostics dict per lane of a shared solve's outcome arrays;
    a lane in ``lanes`` gets its own dict instead."""
    return [lanes[s] if s in lanes else
            {"qp_status": "optimal" if ok else "straggler",
             "qp_iterations": it, "softened": False, "mpc_cost": c}
            for s, (ok, it, c) in enumerate(zip(converged.tolist(),
                                                iterations.tolist(),
                                                cost.tolist()))]


class BatchCostMPCPolicy:
    """``S`` independent cost-MPC controllers advanced in lockstep.

    Parameters
    ----------
    cluster:
        A *representative* cluster: every batched scenario must share its
        structure (IDC count, portals, power coefficients, service
        rates, latency bounds, fleet sizes) — the batch engine groups
        scenarios by exactly that signature.  Each lane's *available*
        fleet is an argument of :meth:`decide_batch`, not read from it.
    config:
        The shared controller tuning.
    n_scenarios:
        The batch width ``S``.
    perf:
        Optional shared :class:`repro.sim.BatchPerfStats`; one is
        created when omitted.
    warm_start:
        Period-0 warm-start construction.  ``"exact"`` (default) solves
        the reference LP per lane with the simplex, so every lane starts
        from the *identical vertex* a one-lane run starts from —
        required for batched-vs-looped trajectory equivalence, because
        the LP optimum is split-degenerate and the closed loop is
        split-sensitive.  ``"waterfill"`` uses the vectorized greedy
        solution (same per-IDC totals, canonical per-portal split) —
        equally optimal and ~1000× cheaper at Monte-Carlo widths, for
        sweeps that never compare against looped runs step-by-step.

    Lane fault isolation
    --------------------
    Setting :attr:`solver_fault_hook` (the callable
    ``hook(stage, lane, period)``, raising a
    :class:`~repro.exceptions.SolverError` subclass to inject a fault),
    or the config's ``fallback_ladder`` or ``deadline_seconds``, arms
    the per-lane resilience path.  The shared solve is then the ladder's
    first rung (``warm``, counted batch-wide); a lane it fails, or that
    the hook poisons, is re-derived through its own
    :class:`~repro.resilience.FallbackLadder` (``cold`` exact active-set
    solve → ``admm`` batched iterate → ``reference`` waterfill LP →
    ``hold`` feasibility projection).  Faulted
    lanes are **not** removed from the shared tensors — every GEMM row
    depends only on that lane's own rows plus shared matrices, so
    keeping the shapes fixed is what keeps healthy lanes bit-identical
    to a fault-free run.  Each lane's
    :class:`~repro.resilience.fleet.FleetHealth` machine is advanced,
    and in a batch of two or more, after ``FleetHealth.quarantine_after``
    consecutive ladder periods the lane is quarantined: permanently
    served by the exact solve, never again eligible to poison the shared
    step.  A lone lane has no shared step to protect and is never
    quarantined.  The deadline is one
    :class:`~repro.resilience.DeadlineBudget` per :meth:`decide_batch`;
    once it is spent, ejected lanes skip the solver rungs of their
    ladder.  All ``ladder_*``/``supervisor_*`` lane counters fold into
    the lane slots of :class:`~repro.sim.BatchPerfStats`.  Unarmed,
    this machinery is completely inert.
    """

    def __init__(self, cluster: IDCCluster,
                 config: MPCPolicyConfig | None = None,
                 n_scenarios: int = 1,
                 perf: BatchPerfStats | None = None,
                 warm_start: str = "exact") -> None:
        self.cluster = cluster
        self.config = config or MPCPolicyConfig()
        #: optional fault-injection hook ``hook(stage, lane, period)``;
        #: raising a SolverError subclass poisons that lane for the
        #: period.  Anything else (e.g. SimulatedCrashError) propagates.
        self.solver_fault_hook = None
        if n_scenarios < 1:
            raise ConfigurationError("n_scenarios must be >= 1")
        if warm_start not in ("exact", "waterfill"):
            raise ConfigurationError(
                f"warm_start must be 'exact' or 'waterfill', "
                f"got {warm_start!r}")
        self.warm_start = warm_start
        self.n_scenarios = int(n_scenarios)
        self.builder = CostModelBuilder(cluster)
        self.name = "mpc_batch"
        self._budgets = normalize_budgets(self.config.budgets_watts,
                                          cluster.n_idcs)
        schedule = self.config.power_schedule_watts
        self._schedule = None if schedule is None else \
            np.atleast_2d(np.asarray(schedule, dtype=float))
        self._n, self._c = cluster.n_idcs, cluster.n_portals
        self._ops: dict | None = None
        #: every lane's whole fleet, the availability when none is given
        self._full = np.tile([idc.config.max_servers for idc in cluster.idcs],
                             (self.n_scenarios, 1))
        self._avail = None
        self.perf = perf if perf is not None \
            else BatchPerfStats(self.n_scenarios)
        self.reset()
        wf = self._waterfill
        self._b1, self._b0, self._mu = wf.b1, wf.b0, wf.mu

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return every lane to the pre-simulation state."""
        S = self.n_scenarios
        self._X = np.tile(self.builder.initial_state(), (S, 1))
        self._U_prev: np.ndarray | None = None
        self._pending: tuple[np.ndarray, np.ndarray] | None = None
        self._ops: dict | None = None
        self._warm: tuple[np.ndarray, np.ndarray] | None = None
        self._fallback: ModelPredictiveController | None = None
        self._restored_rho: float | None = None
        self._restored_rho_lanes: np.ndarray | None = None
        self._health = FleetHealth(S) if S > 1 else \
            FleetHealth(1, quarantine_after=None)
        self._adopt_availability(None)
        #: lane 0's first ``config.capture_problems`` QPs, as
        #: (:class:`repro.verify.QPProblem`, solution ΔU) pairs.
        self.captured: list = []

    def reset_solver_state(self) -> None:
        """Drop the carried ADMM warm-start iterate of every lane."""
        self._warm = None

    def _adopt_availability(self, available) -> None:
        """Run on each lane's available fleet ``(S, N)`` (default: whole).

        A change rebuilds the waterfill, the eq. 35 caps and ``φ`` (one
        shared row while the lanes agree); after period 0 the changed
        lane drops its ADMM warm iterate, which assumed the old
        constraint geometry, and counts an ``availability_resets``.
        """
        avail = self._full if available is None else \
            np.asarray(available).astype(int).reshape(self._full.shape)
        if np.array_equal(avail, self._avail):
            return
        if self._U_prev is not None:
            for lane in np.flatnonzero((avail != self._avail).any(axis=1)):
                self.perf.lane(int(lane)).count("availability_resets")
                if self._warm is not None:
                    self._warm[0][lane] = 0.0
                    self._warm[1][lane] = 0.0
        self._avail = avail.copy()
        rows = avail[0] if (avail == avail[0]).all() else avail
        self._waterfill = Waterfill(self.cluster, rows)
        self._phi = np.broadcast_to(
            budgeted_capacity_rhs(self.cluster, self.config, rows),
            avail.shape)

    def _capacity_error(self, lane: int) -> CapacityError:
        return CapacityError(
            f"lane {lane}: offered workload exceeds the latency-bounded "
            f"capacity of its available fleet by "
            f"{float(self._shortfall[lane]):.1f} req/s")

    def reconcile_actuation(self, applied_servers: np.ndarray) -> None:
        """Adopt the server counts the plant *actually* ran last period.

        The eq.-35 command can be dropped, delayed or partially applied
        by the actuation layer (:mod:`repro.sim.faults`).  Where the
        applied counts ``(S, N)`` differ from the commanded ones, the
        pending integration is rewritten to the plant's truth, so each
        lane's [C̄, E] state integrates the power that was actually
        drawn.  A faithful plant makes this a no-op.
        """
        if self._pending is None:
            return
        U, commanded = self._pending
        applied = np.asarray(applied_servers).astype(int) \
            .reshape(commanded.shape)
        if np.array_equal(applied, commanded):
            return
        self._pending = (U, applied.copy())
        gaps = np.abs(applied - commanded).sum(axis=1)
        for lane in np.flatnonzero(gaps):
            lane_perf = self.perf.lane(int(lane))
            lane_perf.count("actuation_reconciliations")
            lane_perf.count("actuation_server_gap", int(gaps[lane]))

    # ------------------------------------------------------------------
    # durable control plane: the mutable-state envelope
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Picklable copy of every piece of mutable per-lane state.

        Captures the closed-loop state ``X``, the committed allocation
        ``U_prev``, the pending cost integration (with its server
        commands), the ADMM warm-start iterate (which affects future
        iterates bit-wise and therefore *must* survive a resume) and the
        lane health machines.  The shared
        operator stack is rebuilt deterministically from cluster + config
        *except* for the adapted ADMM penalty: :class:`BatchADMMSetup` is
        stateful on purpose (the tuned ``rho`` carries across control
        periods), so the scalar ``admm_rho`` is captured and re-applied on
        restore — without it a resumed run re-adapts from the default and
        the iterates diverge.  The lanes' last available fleets ride
        along too.  The exact fallback controller is stateless across
        calls and stays excluded.
        """
        return {
            "avail": self._avail.copy(),
            "admm_rho": None if self._ops is None
            else float(self._ops["setup"].rho),
            "admm_rho_lanes": None if (
                self._ops is None
                or self._ops["setup"].rho_lanes is None)
            else self._ops["setup"].rho_lanes.copy(),
            "X": self._X.copy(),
            "U_prev": None if self._U_prev is None else self._U_prev.copy(),
            "pending": None if self._pending is None else
                (self._pending[0].copy(), self._pending[1].copy()),
            "warm": None if self._warm is None else
                (self._warm[0].copy(), self._warm[1].copy()),
            "health": self._health.snapshot(),
        }

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot`; the policy continues bit-exact."""
        self._U_prev = None     # the saved fleets are adopted, not a change
        self._adopt_availability(state["avail"])
        self._X = np.asarray(state["X"], dtype=float).copy()
        up = state["U_prev"]
        self._U_prev = None if up is None else np.asarray(up).copy()
        pend = state["pending"]
        self._pending = None if pend is None else \
            (np.asarray(pend[0]).copy(), np.asarray(pend[1]).copy())
        warm = state["warm"]
        self._warm = None if warm is None else \
            (np.asarray(warm[0]).copy(), np.asarray(warm[1]).copy())
        rho = state.get("admm_rho")
        if rho is not None:
            if self._ops is not None:
                self._ops["setup"].set_rho(float(rho))
                self._restored_rho = None
            else:
                # the operator stack is built lazily on the first solve;
                # stash the adapted penalty until then.
                self._restored_rho = float(rho)
        lanes = state.get("admm_rho_lanes")
        if lanes is not None:
            lanes = np.asarray(lanes, dtype=float).copy()
            if self._ops is not None:
                self._ops["setup"].rho_lanes = lanes
                self._restored_rho_lanes = None
            else:
                self._restored_rho_lanes = lanes
        self._health.restore(state["health"])

    @property
    def health(self) -> FleetHealth:
        """The per-lane health machines (read-mostly)."""
        return self._health

    def lane_health(self) -> list[str]:
        """Current per-lane health labels (``"quarantined"`` wins)."""
        return [self._health.label(s) for s in range(self.n_scenarios)]

    # ------------------------------------------------------------------
    # vectorized state updates
    # ------------------------------------------------------------------
    def _idc_workloads(self, U: np.ndarray) -> np.ndarray:
        """Per-IDC totals ``λ_j`` for stacked allocations, ``(S, N)``."""
        return U.reshape(-1, self._n, self._c).sum(axis=2)

    def _powers_mw(self, lam: np.ndarray, servers: np.ndarray) -> np.ndarray:
        """Model power (MW) of stacked operating points, ``(S, N)``."""
        return (self._b1 * lam + self._b0 * np.round(servers)) * 1e-6

    def _servers_for_loads(self, lam: np.ndarray) -> np.ndarray:
        """Eq. 35 per (lane, IDC), capped at the available fleet.

        A softened MPC step may route more workload than an IDC's fleet
        can serve within the latency bound; the slow loop then turns on
        the whole fleet and the resulting QoS violation is visible in
        the recorded latencies rather than hidden by an exception.
        """
        wf = self._waterfill
        m = np.ceil(lam / self._mu + wf.inv_d / self._mu - 1e-9)
        m = np.maximum(m, 1.0)
        return np.where(m > wf.fleet, wf.fleet, m).astype(int)

    def _integrate_pending(self, prices: np.ndarray) -> None:
        """Advance every lane's [C̄, E] by the period that just elapsed."""
        if self._pending is None:
            return
        U, M = self._pending
        powers_mw = self._powers_mw(self._idc_workloads(U), M)
        dt = self.config.dt
        # paper cost state: dC = Σ Pr_j · E_j(MWh) dt
        self._X[:, 0] += np.sum(prices * (self._X[:, 1:] / 3600.0),
                                axis=1) * dt
        self._X[:, 1:] += powers_mw * dt
        self._pending = None

    # ------------------------------------------------------------------
    # shared structural operators (built once per batch)
    # ------------------------------------------------------------------
    def _shared_operators(self, prices_row: np.ndarray) -> dict:
        """Horizon/Hessian/constraint stacks shared by every lane.

        Valid because the eq. 36 cumulative-energy horizon projections
        are price-invariant (see the module docstring); the
        representative lane's prices only seed the builder's cache key.
        """
        if self._ops is not None:
            return self._ops
        cfg = self.config
        model = self.builder.discrete(prices_row, cfg.dt)
        H = build_horizon(model, cfg.horizon_pred, cfg.horizon_ctrl)
        ny, nu = H.n_outputs, H.n_inputs
        ndu = nu * cfg.horizon_ctrl
        q_diag = np.full(cfg.horizon_pred * ny, cfg.q_weight)
        ThetaT_2Q = 2.0 * (H.Theta.T * q_diag)
        P = ThetaT_2Q @ H.Theta + 2.0 * cfg.r_weight * np.eye(ndu)
        P = 0.5 * (P + P.T)
        Hc = conservation_matrix(self.cluster)
        Psi = capacity_matrix(self.cluster)
        eq_blocks, in_blocks = [], []
        for i in range(cfg.horizon_ctrl):
            T = move_selector(nu, cfg.horizon_ctrl, i)
            eq_blocks.append(Hc @ T)
            in_blocks.append(Psi @ T)
            in_blocks.append(-T)           # lower bound U >= 0
        A_eq_stack = np.vstack(eq_blocks)
        A_in_stack = np.vstack(in_blocks)
        A_box = np.vstack([A_eq_stack, A_in_stack])
        with self.perf.shared.stage("batch_factorize"):
            setup = prepare_batch_admm(P, A_box,
                                       n_eq=A_eq_stack.shape[0])
        if self._restored_rho is not None:
            # re-apply a checkpointed adapted penalty (see snapshot()).
            setup.set_rho(self._restored_rho)
            self._restored_rho = None
        if self._restored_rho_lanes is not None:
            setup.rho_lanes = self._restored_rho_lanes
            self._restored_rho_lanes = None
        self._ops = {
            "horizon": H, "ny": ny, "nu": nu, "ndu": ndu,
            "q_diag": q_diag, "ThetaT_2Q": ThetaT_2Q, "P": P,
            "Hc": Hc, "Psi": Psi,
            "A_box": A_box, "n_eq": A_eq_stack.shape[0],
            "n_in": A_in_stack.shape[0], "setup": setup,
        }
        return self._ops

    # ------------------------------------------------------------------
    # reference construction (Sec. IV-D + peak shaving)
    # ------------------------------------------------------------------
    def _reference_powers_mw(self, prices: np.ndarray,
                             loads_seq: np.ndarray, period: int = 0,
                             predicted_prices: np.ndarray | None = None,
                             uniform: bool = False) -> np.ndarray:
        """Reference power targets for all lanes, shape ``(S, β₁, N)``.

        Every (lane, horizon step) row goes through **one** capped
        waterfill call; ``predicted_prices`` ``(S, H, N)`` replaces the
        observed prices by each step's forecast, which is what makes the
        MPC ramp *before* an anticipated price change.  ``uniform``
        marks that every step shares the lane's measured loads and
        prices, collapsing the rows to one per lane.  A configured power
        schedule replaces the rows (row ``period + 1 + step``, the last
        row repeating), still clamped at the budgets.  A row's load is
        capped at its lane's capacity.
        """
        S = self.n_scenarios
        beta1 = self.config.horizon_pred
        steps = np.arange(beta1)
        if self._schedule is not None:
            idx = np.minimum(period + 1 + steps, self._schedule.shape[0] - 1)
            refs = np.minimum(self._schedule[idx] / 1e6, self._budgets / 1e6)
            return np.broadcast_to(refs, (S, beta1, self._n))
        n_steps = 1 if uniform else beta1
        rows = np.minimum(np.arange(n_steps), loads_seq.shape[1] - 1)
        wf = self._waterfill
        if n_steps > 1 and wf.fleet.ndim == 2:
            wf = Waterfill(self.cluster,
                           np.repeat(self._avail, n_steps, axis=0))
        totals = np.minimum(loads_seq[:, rows].sum(axis=2).reshape(-1),
                            wf.caps.sum(axis=-1))
        if predicted_prices is None:
            prices = np.repeat(prices, n_steps, axis=0)
        else:
            prices = predicted_prices[
                :, np.minimum(steps, predicted_prices.shape[1] - 1)]
            prices = prices.reshape(-1, self._n)
        out = wf.reference_powers_watts(
            prices, totals, self._budgets, self.config.budget_mode) / 1e6
        out = out.reshape(S, n_steps, self._n)
        if uniform:
            return np.repeat(out, beta1, axis=1)
        return out

    def _loads_sequence(self, loads: np.ndarray,
                        predicted_loads: np.ndarray | None) -> np.ndarray:
        """Per-step portal loads over the horizon, shape ``(S, β₂, C)``."""
        S, b2 = self.n_scenarios, self.config.horizon_ctrl
        if predicted_loads is None:
            return np.broadcast_to(loads[:, None, :],
                                   (S, b2, self._c)).copy()
        seq = np.asarray(predicted_loads, dtype=float)
        if seq.ndim == 2:
            seq = seq[:, None, :]
        out = np.empty((S, b2, self._c))
        out[:, 0] = loads               # step 0 uses the *measured* loads
        for step in range(1, b2):
            out[:, step] = seq[:, min(step - 1, seq.shape[1] - 1)]
        return out

    # ------------------------------------------------------------------
    # the batched QP hot path + per-lane exact solve
    # ------------------------------------------------------------------
    def _fallback_solve(self, ops: dict, lane: int, prices_lane: np.ndarray,
                        loads_seq_lane: np.ndarray, ref_lane: np.ndarray):
        """Exact active-set solve of one lane's MPC step."""
        if self._overloaded[lane]:
            raise self._capacity_error(lane)
        cfg = self.config
        model = self.builder.discrete(prices_lane, cfg.dt)
        cs = InputConstraintSet(A_eq=ops["Hc"], b_eq=loads_seq_lane,
                                A_ineq=ops["Psi"], b_ineq=self._phi[lane],
                                lower=0.0)
        if self._fallback is None:
            self._fallback = ModelPredictiveController(
                model, cfg.horizon_pred, cfg.horizon_ctrl,
                q_weight=np.full(ops["ny"], cfg.q_weight),
                r_weight=cfg.r_weight, constraints=cs,
                backend="active_set", warm_start=False)
        else:
            self._fallback.update_model(model)
            self._fallback.constraints = cs
        return self._fallback.control(self._X[lane], self._U_prev[lane],
                                      ref_lane)

    @staticmethod
    def _exact_diag(sol) -> dict:
        """Diagnostics of an exact solve (an :class:`MPCSolution`)."""
        return {"qp_status": str(sol.status),
                "qp_iterations": int(sol.solver_iterations),
                "softened": bool(sol.softened), "mpc_cost": float(sol.cost)}

    def _solve(self, ops: dict, period: int, prices: np.ndarray,
               loads_seq: np.ndarray, refs: np.ndarray
               ) -> tuple[np.ndarray, tuple]:
        """One stacked QP step; returns (new allocations, diagnostics).

        With the ``"admm"`` backend every lane runs the shared batched
        solve and its stragglers the exact one; with ``"active_set"``
        every lane runs the exact one.  The diagnostics are the
        ``(qp_converged, qp_iterations, mpc_cost, lane_diagnostics)`` of
        :class:`BatchAllocationDecision`.
        """
        cfg = self.config
        S, nu, ndu = self.n_scenarios, ops["nu"], ops["ndu"]
        H = ops["horizon"]
        free = H.free_response_batch(self._X, self._U_prev)
        targets = refs.reshape(S, -1) - free
        Qlin = -(targets @ ops["ThetaT_2Q"].T)
        c0 = (targets ** 2 * ops["q_diag"]).sum(axis=1)

        over = self._overloaded
        if over.any():
            # An overloaded lane has no feasible QP and is ejected to its
            # ladder; scaled onto its capacity, its rows converge like
            # any other lane's instead of running the iteration limit.
            totals = loads_seq[over].sum(axis=2, keepdims=True)
            cap = self._phi[over].sum(axis=1)
            loads_seq = loads_seq.copy()
            loads_seq[over] *= np.minimum(1.0, cap[:, None, None] / totals)
        HU = self._U_prev @ ops["Hc"].T                       # (S, C)
        lamU = self._idc_workloads(self._U_prev)              # (S, N)
        b_eq = (loads_seq - HU[:, None, :]).reshape(S, -1)
        step_in = np.concatenate([self._phi - lamU, self._U_prev], axis=1)
        b_in = np.tile(step_in, (1, cfg.horizon_ctrl))
        U_box = np.concatenate([b_eq, b_in], axis=1)
        self.perf.shared.count("qp_solves")

        lane_diags: dict[int, dict] = {}
        if cfg.backend == "admm":
            L = np.concatenate(
                [b_eq, np.full((S, b_in.shape[1]), -np.inf)], axis=1)
            X0 = Y0 = None
            if cfg.warm_start_solver and self._warm is not None:
                prev_X, prev_Y = self._warm
                X0 = np.zeros((S, ndu))
                if cfg.horizon_ctrl > 1:
                    X0[:, :ndu - nu] = prev_X[:, nu:]
                Y0 = prev_Y
            # Lockstep mode is compared step-for-step against looped
            # one-lane runs; under demand feedback (γ > 0) a solver-
            # tolerance split difference compounds through the price, so
            # exact mode runs the iterates an order tighter.  Monte-Carlo
            # mode keeps the fast default.
            eps = 1e-8 if self.warm_start == "exact" else 1e-6
            res = solve_qp_admm_batch(ops["P"], Qlin, ops["A_box"], L,
                                      U_box, eps_abs=eps, eps_rel=eps,
                                      X0=X0, Y0=Y0, setup=ops["setup"],
                                      lane_isolated=self.lane_isolated)
            if cfg.warm_start_solver:
                self._warm = (res.X.copy(), res.Y.copy())
            self.perf.shared.count("qp_iterations",
                                   int(res.iterations.max()))
            self.perf.shared.count("qp_polished", int(res.polished.sum()))

            U_new = np.maximum(self._U_prev + res.X[:, :nu], 0.0)
            # Exact conservation repair: ADMM meets the Σ_j u_ij = L_i
            # rows only to solver tolerance (~1e-6 relative), while the
            # active-set path satisfies them to machine precision —
            # enough of a gap for the invariant monitor to flag stressed
            # periods.  Rescaling each portal's split onto its observed
            # load closes it without moving the split proportions the QP
            # chose.
            target = loads_seq[:, 0, :]
            split = U_new.reshape(S, self._n, self._c)
            sums = split.sum(axis=1)
            scale = np.divide(target, sums, out=np.ones_like(sums),
                              where=sums > 0)
            U_new = (split * scale[:, None, :]).reshape(S, nu)
            outcome = (res.converged, res.iterations, res.fun + c0)
            X, exact = res.X, res.polished.copy()
            solved = res.converged.copy()
            exact_lanes = np.flatnonzero(~res.converged)
        else:
            U_new = self._U_prev.copy()
            outcome = (np.zeros(S, dtype=bool), np.zeros(S, dtype=int),
                       np.full(S, np.nan))
            X, exact = np.empty((S, ndu)), np.ones(S, dtype=bool)
            solved = np.ones(S, dtype=bool)
            exact_lanes = np.arange(S)
        solved &= ~over
        for lane in exact_lanes[~over[exact_lanes]]:
            lane = int(lane)
            sol = self._fallback_solve(ops, lane, prices[lane],
                                       loads_seq[lane], refs[lane])
            U_new[lane] = np.maximum(sol.u, 0.0)
            diag = lane_diags[lane] = self._exact_diag(sol)
            X[lane], exact[lane] = sol.du_sequence.ravel(), True
            solved[lane] = not sol.softened
            if cfg.backend == "admm":
                diag["straggler_fallback"] = True
                self.perf.lane(lane).count("straggler_fallbacks")
                if self._warm is not None:
                    # the batched iterate diverged — don't carry it
                    self._warm[0][lane] = 0.0
                    self._warm[1][lane] = 0.0
            else:
                self.perf.shared.count("qp_iterations",
                                       int(sol.solver_iterations))
        if cfg.certify:
            checked = np.flatnonzero(solved)
        else:
            checked = [0] if solved[0] and \
                len(self.captured) < cfg.capture_problems else []
        for lane in checked:
            self._verify_lane(ops, int(lane), period, Qlin[lane],
                              U_box[lane], X[lane], bool(exact[lane]))
        return U_new, (*outcome, lane_diags)

    def _verify_lane(self, ops: dict, lane: int, period: int,
                     q: np.ndarray, upper: np.ndarray, x: np.ndarray,
                     exact: bool) -> None:
        """KKT certificate and capture of one lane's box QP.

        The box QP ``l ≤ A x ≤ u`` splits into the equality rows (the
        leading ``n_eq``, where ``l = u``) and the ``≤`` rows.  An exact
        solution (active set or polish) is judged at the exact
        tolerance, an ADMM-finished one at 50×; multipliers are
        recovered by the certificate itself.
        """
        # Imported lazily: repro.verify pulls in the policy layer for its
        # fuzzer, so a module-level import would be circular.
        from ..verify.certificates import check_kkt_qp
        from ..verify.problems import QPProblem
        cfg, n_eq, A = self.config, ops["n_eq"], ops["A_box"]
        rows = dict(A_eq=A[:n_eq], b_eq=upper[:n_eq],
                    A_ineq=A[n_eq:], b_ineq=upper[n_eq:])
        if lane == 0 and len(self.captured) < cfg.capture_problems:
            self.captured.append((
                QPProblem(P=ops["P"], q=q.copy(), label=f"mpc-step-{period}",
                          **{k: v.copy() for k, v in rows.items()}),
                x.copy()))
        if cfg.certify:
            certificate = check_kkt_qp(
                ops["P"], q, x, **rows,
                tol=_CERTIFY_TOL if exact else 50.0 * _CERTIFY_TOL)
            lane_perf = self.perf.lane(lane)
            lane_perf.count("certificates_checked")
            if not certificate.ok:
                lane_perf.count("certificate_failures")

    # ------------------------------------------------------------------
    # lane fault isolation: fault scan, per-lane ladder, quarantine
    # ------------------------------------------------------------------
    @property
    def _armed(self) -> bool:
        """Whether the per-lane resilience path is active at all."""
        return (self.lane_isolated or self.config.fallback_ladder
                or self.config.deadline_seconds is not None
                or self._health.any_touched)

    @property
    def lane_isolated(self) -> bool:
        """Whether the shared solve runs in lane-decoupled mode.

        Keyed off the fault hook alone, the chaos seam: a configured
        ladder or deadline keeps the polished shared solve.  Not keyed
        off the health state either: bit-exact lane isolation only
        holds if every period — including the fault-free ones before
        the first injection — ran the decoupled iteration.  The
        guarantee is therefore relative to an equally hooked, fault-free
        baseline (e.g. a hook that never fires); the unhooked path keeps
        the cheaper compacted shared-rho loop.
        """
        return self.solver_fault_hook is not None

    def _scan_faults(self, period: int) -> dict[int, str]:
        """Fire the fault hook once per live lane; collect poisonings.

        Runs *before* any state mutation so an injected
        :class:`~repro.resilience.SimulatedCrashError` (which is not a
        SolverError and therefore propagates) models a crash that never
        decided this period.
        """
        poisoned: dict[int, str] = {}
        hook = self.solver_fault_hook
        if hook is None:
            return poisoned
        for s in range(self.n_scenarios):
            if self._health.quarantined[s]:
                continue        # already off the shared solve path
            try:
                hook("batch_qp", s, period)
            except SolverError as exc:
                poisoned[s] = f"{type(exc).__name__}: {exc}"
        return poisoned

    def _hold(self, lane: int, target: np.ndarray, lane_perf) -> tuple:
        """The hold projection of one lane (the ladder's last rung)."""
        u, shed = project_allocation(self.cluster, self._U_prev[lane],
                                     target, self._avail[lane])
        if shed > 0.0:
            lane_perf.count("supervisor_shed_events")
        return u, {"qp_status": "hold_projection", "qp_iterations": 0,
                   "softened": False, "mpc_cost": float("nan"),
                   "shed_requests": float(shed)}

    def _eject_lane(self, ops: dict, lane: int, period: int,
                    prices: np.ndarray, loads_seq: np.ndarray,
                    refs: np.ndarray, batched_row: np.ndarray | None,
                    budget: DeadlineBudget, lane_perf):
        """Re-derive one faulted lane's decision through its ladder.

        Returns ``(u, diag, outcome)`` with ``outcome`` the health-
        machine event: ``"degraded"`` when a solver-backed rung served
        the lane, ``"safe"`` when it fell all the way to the hold
        projection.  The fault hook is re-fired per solver rung (stages
        ``lane_cold``/``lane_admm``/``lane_reference``) so persistent
        faults walk the whole ladder.
        """
        hook = self.solver_fault_hook
        target = loads_seq[lane, 0]

        def rung_cold(_deadline):
            if hook is not None:
                hook("lane_cold", lane, period)
            sol = self._fallback_solve(ops, lane, prices[lane],
                                       loads_seq[lane], refs[lane])
            return np.maximum(sol.u, 0.0), self._exact_diag(sol)

        def rung_admm(_deadline):
            if self._overloaded[lane]:
                raise self._capacity_error(lane)
            if batched_row is None or not np.all(np.isfinite(batched_row)):
                raise ConvergenceError("no usable batched iterate")
            if hook is not None:
                hook("lane_admm", lane, period)
            return batched_row, {"qp_status": "admm_iterate",
                                 "qp_iterations": 0, "softened": False,
                                 "mpc_cost": float("nan")}

        def rung_reference(_deadline):
            if hook is not None:
                hook("lane_reference", lane, period)
            alloc = solve_optimal_allocation(
                self.cluster, prices[lane], target,
                available=self._avail[lane])
            return np.maximum(alloc.u, 0.0), {
                "qp_status": "reference_lp", "qp_iterations": 0,
                "softened": False, "mpc_cost": float("nan")}

        ladder = FallbackLadder(
            [Rung("cold", rung_cold),
             Rung("admm", rung_admm),
             Rung("reference", rung_reference),
             Rung("hold", lambda _deadline: self._hold(lane, target,
                                                       lane_perf),
                  needs_solver=False)],
            count=lane_perf.count)
        try:
            out = ladder.run(budget)
        except DegradedOperationError as exc:
            # unreachable unless even the projection raised; keep the
            # lane's last committed allocation and let the invariant
            # monitor surface the conservation gap.
            diag = {"qp_status": "ladder_exhausted", "qp_iterations": 0,
                    "softened": False, "mpc_cost": float("nan"),
                    "rung": "none", "ladder_error": str(exc)}
            return np.maximum(self._U_prev[lane], 0.0), diag, "safe"
        u, diag = out.value
        diag["rung"] = out.rung
        if out.failures:
            diag["ladder_failures"] = [name for name, _ in out.failures]
        return u, diag, "safe" if out.rung == "hold" else "degraded"

    def _quarantine_solve(self, ops: dict, lane: int, prices: np.ndarray,
                          loads_seq: np.ndarray, refs: np.ndarray,
                          lane_perf):
        """A quarantined lane's period: exact solve, no ladder.

        Quarantine is the permanent demotion — the lane stays inside
        the shared tensors for shape stability, but its decision always
        comes from the exact active-set path (hold projection if even
        that fails).  The fault hook is deliberately not consulted:
        the lane is already off the shared solve path.
        """
        lane_perf.count("quarantine_periods")
        try:
            sol = self._fallback_solve(ops, lane, prices[lane],
                                       loads_seq[lane], refs[lane])
            return np.maximum(sol.u, 0.0), {
                **self._exact_diag(sol), "rung": "cold", "quarantined": True}
        except (SolverError, CapacityError):
            u, diag = self._hold(lane, loads_seq[lane, 0], lane_perf)
            diag.update(rung="hold", quarantined=True)
            return u, diag

    # ------------------------------------------------------------------
    def demand_response(self, prices: np.ndarray,
                        loads: np.ndarray) -> np.ndarray:
        """Bid-curve demand (MW) each lane would draw at candidate prices.

        Simultaneous market clearing needs the controllers'
        price→demand map *without* advancing any lane's closed-loop
        state, so it iterates against the same budget-handled waterfill
        that anchors the reference trajectory: the demand the
        controller is steering toward at those prices.  (The shared-
        market fleet computes the same budget-free bids from its own
        :class:`~repro.core.reference_opt.Waterfill`, memoized by cost
        order.)
        (The committed :meth:`decide_batch` draw then differs only by
        the ΔU smoothing — which is exactly the mitigation knob the
        herding study turns.)  When the market moves under the fleet
        no operator rebuild is needed either: the horizon projections
        are price-invariant (module docstring), and the per-period
        price refresh enters :meth:`decide_batch` purely through the
        linear term and the reference.

        ``prices`` may be one shared row ``(N,)`` — a cleared market —
        or per-lane rows ``(S, N)``; ``loads`` is ``(S, C)``.  Returns
        ``(S, N)`` megawatts.
        """
        totals = np.minimum(np.asarray(loads, dtype=float).sum(axis=1),
                            self._waterfill.caps.sum(axis=-1))
        return self._waterfill.reference_powers_watts(
            prices, totals, self._budgets, self.config.budget_mode) * 1e-6

    # ------------------------------------------------------------------
    def decide_batch(self, period: int, prices: np.ndarray,
                     loads: np.ndarray,
                     predicted_loads: np.ndarray | None = None,
                     predicted_prices: np.ndarray | None = None,
                     available: np.ndarray | None = None
                     ) -> BatchAllocationDecision:
        """One receding-horizon step for all lanes.

        Parameters
        ----------
        period:
            The control period index (shared across lanes — batched
            scenarios march in lockstep).
        prices, loads:
            Stacked observed prices ``(S, N)`` and portal loads
            ``(S, C)`` — what each lane's controller *sees* (the batch
            engine applies telemetry gap-filling before this call).
        predicted_loads:
            Optional stacked forecasts ``(S, horizon, C)``.
        predicted_prices:
            Optional stacked price forecasts ``(S, horizon, N)``; step
            ``s`` of the reference is solved against row ``s``.
        available:
            Each lane's available servers ``(S, N)`` (default: its whole
            fleet), bounding its capacity rows, waterfill and eq. 35.

        A lane whose load exceeds its fleet's latency-bounded capacity
        raises a :class:`CapacityError` naming it — or, armed, is
        ejected to its own ladder, whose hold rung sheds the excess and
        declares it in ``shed_requests``.
        """
        cfg = self.config
        S = self.n_scenarios
        prices = np.asarray(prices, dtype=float).reshape(S, self._n)
        loads = np.asarray(loads, dtype=float).reshape(S, self._c)
        if predicted_prices is not None:
            predicted_prices = np.asarray(
                predicted_prices, dtype=float).reshape(S, -1, self._n)

        # Fault scan first — before any state mutation — so an injected
        # crash models a process that never decided this period.
        armed = self._armed
        poisoned = self._scan_faults(period) if armed else {}
        budget = DeadlineBudget(cfg.deadline_seconds)

        self._adopt_availability(available)
        self._integrate_pending(prices)

        self._shortfall = loads.sum(axis=1) \
            - self._waterfill.caps.sum(axis=-1)
        self._overloaded = over = self._shortfall > 1e-6
        for lane in np.flatnonzero(over):
            if not armed:
                raise self._capacity_error(int(lane))
            poisoned.setdefault(int(lane), str(self._capacity_error(lane)))
        if self._U_prev is None:
            # Per-lane simplex in "exact" mode, not the batched
            # waterfill: the LP optimum is split-degenerate (any
            # per-portal split with the same per-IDC totals is optimal)
            # and the closed loop is split-sensitive (the ΔU penalty is
            # anchored at the warm start), so every lane must start from
            # the exact vertex a one-lane run starts from or the
            # trajectories diverge.  An overloaded lane has no LP optimum
            # and starts from the hold projection.  Period 0 only —
            # every later step warm-starts from U_prev.
            avail = self._avail
            U = self._U_prev = np.empty((S, self.cluster.n_allocations))
            if self.warm_start == "waterfill":
                U[~over] = solve_optimal_allocation_batch(
                    self.cluster, prices[~over], loads[~over],
                    avail[~over]).u
            for s in range(S):
                if over[s]:
                    U[s] = project_allocation(self.cluster, np.zeros(
                        U.shape[1]), loads[s], avail[s])[0]
                elif self.warm_start == "exact":
                    U[s] = solve_optimal_allocation(
                        self.cluster, prices[s], loads[s],
                        available=avail[s]).u

        with self.perf.shared.stage("model"):
            ops = self._shared_operators(prices[0])
        loads_seq = self._loads_sequence(loads, predicted_loads)
        with self.perf.shared.stage("reference"):
            power_refs = self._reference_powers_mw(
                prices, loads_seq, period, predicted_prices,
                uniform=predicted_loads is None and predicted_prices is None)
            refs = integrate_rates_batch(self._X[:, 1:], power_refs, cfg.dt)
        with self.perf.shared.stage("mpc_solve"):
            if armed:
                U_new, diags = self._armed_step(
                    ops, period, prices, loads_seq, refs, poisoned, budget)
            else:
                U_new, diags = self._solve(ops, period, prices, loads_seq,
                                           refs)

        lam_new = self._idc_workloads(U_new)
        servers = self._servers_for_loads(lam_new)
        self._U_prev = U_new
        self._pending = (U_new.copy(), servers.copy())

        powers_mw = self._powers_mw(lam_new, servers)
        converged, iterations, cost, lane_diags = diags
        return BatchAllocationDecision(
            u=U_new, servers=servers, powers_mw=powers_mw,
            reference_powers_mw=power_refs[:, 0], qp_converged=converged,
            qp_iterations=iterations, mpc_cost=cost,
            lane_diagnostics=lane_diags)

    def _armed_step(self, ops: dict, period: int, prices: np.ndarray,
                    loads_seq: np.ndarray, refs: np.ndarray,
                    poisoned: dict[int, str], budget: DeadlineBudget
                    ) -> tuple[np.ndarray, tuple]:
        """The shared solve as the ladder's ``warm`` rung, then ejections.

        The shared solve always runs (the deadline bounds the per-lane
        rungs only).  If it fails, every lane ejects; otherwise the
        poisoned and quarantined lanes do.  Each lane counts its own
        ``warm`` outcome: served, or failed and ejected.
        """
        S = self.n_scenarios
        shared = FallbackLadder(
            [Rung("warm", lambda _deadline: self._solve(
                ops, period, prices, loads_seq, refs))])
        eject: dict[int, str] = dict(poisoned)
        try:
            U_new, shared_diags = shared.run().value
            diags = _diagnostic_dicts(*shared_diags)
            batched_ok = True
        except DegradedOperationError as exc:
            # the *shared* step failed — every lane ejects
            batched_ok = False
            self.perf.shared.count("batch_solve_failures")
            U_new = self._U_prev.copy()
            diags = [{"qp_status": "batch_failed", "qp_iterations": 0,
                      "softened": False, "mpc_cost": float("nan")}
                     for _ in range(S)]
            for s in range(S):
                eject.setdefault(s, str(exc))
        quarantined = self._health.quarantined
        for s in range(S):
            if quarantined[s]:
                eject.setdefault(s, "quarantined")
            elif s in eject:
                self.perf.lane(s).count("ladder_failures_warm")
            else:
                self.perf.lane(s).count("ladder_rung_warm")
                diags[s]["rung"] = "warm"
        outcomes: dict[int, str] = {}
        for lane in sorted(eject):
            lane = int(lane)
            lane_perf = self.perf.lane(lane)
            if self._health.quarantined[lane]:
                u, diag = self._quarantine_solve(
                    ops, lane, prices, loads_seq, refs, lane_perf)
            else:
                batched_row = U_new[lane].copy() if batched_ok else None
                u, diag, outcome = self._eject_lane(
                    ops, lane, period, prices, loads_seq, refs,
                    batched_row, budget, lane_perf)
                outcomes[lane] = outcome
                diag["fault"] = eject[lane]
            U_new[lane] = u
            diags[lane] = diag
            if self._warm is not None and diag.get("rung") != "admm":
                # the committed decision diverged from the batched
                # iterate — don't carry that iterate forward
                self._warm[0][lane] = 0.0
                self._warm[1][lane] = 0.0
        for s in range(S):
            self._health.observe(s, outcomes.get(s, "clean"))
        for s in self._health.touched:
            self.perf.lane(s).update_counters(self._health.counters[s])
            self.perf.note_lane_health(s, self._health.label(s))
        return U_new, (np.zeros(S, dtype=bool), np.zeros(S, dtype=int),
                       np.full(S, np.nan), dict(enumerate(diags)))
