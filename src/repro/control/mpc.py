"""Generic condensed model predictive controller.

This is the control-theoretic core behind the paper's Sec. IV-C: at every
sampling instant, minimize

    Σ_{s=1}^{β₁} ||y(k+s|k) − r(k+s|k)||²_Q  +  Σ_{t=0}^{β₂-1} ||Δu(k+t|k)||²_R

over the stacked input increments ΔU subject to per-step linear input
constraints, then apply only the first move (receding horizon).  The
``R`` term is exactly the paper's *power demand smoothing through
penalizing inputs*; the reference trajectory carries the peak-shaving
budget clamp.

The quadratic program is solved by the package's own active-set solver
(exact) or the ADMM solver, selectable per controller.  When the
constraint set turns out infeasible — which happens in closed loop when a
workload surge makes the latency bound and conservation constraint clash
— the controller *softens* the inequalities with heavily penalized slack
variables rather than failing, which is the standard industrial MPC
recourse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from ..exceptions import ConvergenceError, DeadlineExceededError, \
    InfeasibleProblemError, ModelError
from ..optim import (
    boxed_constraints,
    prepare_batch_admm,
    solve_qp,
    solve_qp_admm,
)
from ..optim.linalg import KKTFactorCache
from .horizon import HorizonMatrices, build_horizon, move_selector
from .statespace import DiscreteStateSpace

__all__ = ["InputConstraintSet", "MPCSolution", "ModelPredictiveController"]

Backend = Literal["active_set", "admm"]


@dataclass
class InputConstraintSet:
    """Per-step linear constraints on the input vector ``u``.

    Every constraint is enforced at each of the β₂ steps of the control
    horizon.  Right-hand sides may be a single vector (time invariant) or
    a ``(β₂, m)`` array for known time-varying limits — the paper's
    portal-workload equality ``H U = h`` uses the time-varying form when a
    workload forecast is available.

    Attributes
    ----------
    A_eq, b_eq:
        Equality constraints ``A_eq @ u == b_eq`` (workload conservation).
    A_ineq, b_ineq:
        Inequalities ``A_ineq @ u <= b_ineq`` (latency/capacity, eq. 31).
    lower:
        Optional element-wise lower bound on ``u`` (eq. 34 uses
        ``lower = 0``).
    """

    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    A_ineq: np.ndarray | None = None
    b_ineq: np.ndarray | None = None
    lower: np.ndarray | float | None = None

    def rhs_at(self, b, step: int) -> np.ndarray:
        """Right-hand side for a given horizon step (handles 1-D/2-D)."""
        b = np.asarray(b, dtype=float)
        if b.ndim == 1:
            return b
        return b[min(step, b.shape[0] - 1)]


@dataclass
class MPCSolution:
    """Result of one MPC step.

    Attributes
    ----------
    u:
        Input to apply now (first move), length ``n_inputs``.
    du_sequence:
        Planned increments, shape ``(β₂, n_inputs)``.
    u_sequence:
        Planned absolute inputs over the control horizon.
    predicted_outputs:
        Model-predicted outputs under the plan, shape ``(β₁, n_outputs)``.
    cost:
        Optimal objective value (least-squares scale).
    status:
        Solver status string.
    softened:
        True when inequality constraints had to be relaxed with slacks.
    solver_iterations:
        Iterations used by the QP backend.
    """

    u: np.ndarray
    du_sequence: np.ndarray
    u_sequence: np.ndarray
    predicted_outputs: np.ndarray
    cost: float
    status: str
    softened: bool = False
    solver_iterations: int = 0


class ModelPredictiveController:
    """Receding-horizon tracking controller for affine discrete systems.

    Parameters
    ----------
    model:
        The prediction model (``Φ, G, C, w``).  Use
        :meth:`update_model` when the slow loop changes the offset.
    horizon_pred, horizon_ctrl:
        β₁ and β₂ of the paper (β₂ ≤ β₁).
    q_weight:
        Output tracking weight: scalar, per-output vector, or matrix.
    r_weight:
        Input-increment penalty (the smoothing knob): scalar, per-input
        vector, or matrix.  Must be positive definite for a strictly
        convex QP.
    constraints:
        Optional :class:`InputConstraintSet`.
    backend:
        ``"active_set"`` (default) or ``"admm"``.
    soften_infeasible:
        Retry with slack-relaxed inequalities when the QP is infeasible.
    slack_penalty:
        Quadratic penalty on constraint slacks in the softened problem,
        *relative* to the largest Hessian entry (keeps the softened QP
        well scaled regardless of the tracking weights).
    warm_start:
        Reuse the previous :meth:`control` solution to start the next
        solve (shifted one step, per the receding-horizon coherence the
        ``R`` penalty enforces).  For the active-set backend this skips
        the phase-1 feasibility LP — the dominant cost of a cold solve —
        and seeds the working set; for ADMM it seeds ``x``.  The
        QP is strictly convex, so warm and cold solves reach the same
        optimum (within solver tolerance); disable only for benchmarking
        cold performance.
    """

    def __init__(self, model: DiscreteStateSpace, horizon_pred: int,
                 horizon_ctrl: int, q_weight=1.0, r_weight=1.0,
                 constraints: InputConstraintSet | None = None,
                 backend: Backend = "active_set",
                 soften_infeasible: bool = True,
                 slack_penalty: float = 1e4,
                 warm_start: bool = True) -> None:
        self.model = model
        self.horizon_pred = int(horizon_pred)
        self.horizon_ctrl = int(horizon_ctrl)
        self.constraints = constraints
        if backend not in get_args(Backend):
            raise ModelError(
                f"backend must be one of {get_args(Backend)}, "
                f"got {backend!r}")
        self.backend = backend
        self.soften_infeasible = bool(soften_infeasible)
        self.slack_penalty = float(slack_penalty)
        self.warm_start = bool(warm_start)
        self._Q = self._expand_weight(q_weight, model.n_outputs, "q_weight")
        self._R = self._expand_weight(r_weight, model.n_inputs, "r_weight")
        if np.any(np.linalg.eigvalsh(self._R) <= 0):
            raise ModelError("r_weight must be positive definite")
        # Stacked weights depend only on the horizons — built once.
        self._Q_stack = np.kron(np.eye(self.horizon_pred), self._Q)
        self._R_stack = np.kron(np.eye(self.horizon_ctrl), self._R)
        self._horizon: HorizonMatrices = build_horizon(
            model, self.horizon_pred, self.horizon_ctrl)
        #: perf counters, exposed through the policy layer's PerfStats.
        self.stats: dict[str, int] = {
            "qp_solves": 0, "qp_iterations": 0,
            "warm_start_hits": 0, "warm_start_misses": 0,
            "warm_start_rejections": 0,
            "horizon_rebuilds": 1, "horizon_reuses": 0,
            "constraint_cache_hits": 0, "constraint_cache_misses": 0,
            "softened_solves": 0,
            # linear-algebra kernel counters (see repro.optim.linalg):
            # incremental O(n²) working-set factorization changes vs
            # from-scratch refactorizations vs dense fallback steps.
            "kkt_updates": 0, "kkt_refactorizations": 0,
            "kkt_dense_steps": 0,
        }
        self._qp_quad = None         # (Theta id, 2Θ'Q, P) objective cache
        self._con_cache: dict | None = None
        self._warm: dict | None = None
        #: (P, A, setup) of the last ADMM solve, see :meth:`_admm_setup`
        self._admm: tuple | None = None
        self._kkt_cache = KKTFactorCache()

    @staticmethod
    def _expand_weight(w, size: int, name: str) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if w.ndim == 0:
            return float(w) * np.eye(size)
        if w.ndim == 1:
            if w.size != size:
                raise ModelError(f"{name} vector must have {size} entries")
            return np.diag(w)
        if w.shape != (size, size):
            raise ModelError(f"{name} matrix must be {size}x{size}")
        return 0.5 * (w + w.T)

    def update_model(self, model: DiscreteStateSpace) -> None:
        """Swap the prediction model (e.g. new prices).

        Exploits temporal coherence: a receding-horizon caller passes a
        model every period, but consecutive models are usually identical
        (piecewise-constant prices).  The horizon stacking is rebuilt
        only when the model matrices ``Φ, G, C, w`` actually changed.
        """
        if (model.n_inputs != self.model.n_inputs
                or model.n_outputs != self.model.n_outputs
                or model.n_states != self.model.n_states):
            raise ModelError("replacement model changes dimensions")
        old = self.model
        self.model = model
        if model is old:
            self.stats["horizon_reuses"] += 1
            return
        if (np.array_equal(model.Phi, old.Phi)
                and np.array_equal(model.G, old.G)
                and np.array_equal(model.C, old.C)
                and np.array_equal(model.w, old.w)):
            self.stats["horizon_reuses"] += 1
            return
        self._horizon = build_horizon(model, self.horizon_pred,
                                      self.horizon_ctrl)
        self._qp_quad = None
        self.stats["horizon_rebuilds"] += 1

    # ------------------------------------------------------------------
    # Constraint stacking
    # ------------------------------------------------------------------
    @staticmethod
    def _constraint_signature(cs: InputConstraintSet) -> tuple:
        """Value-based key over everything the *A-side* stacks depend on.

        Right-hand sides (``b_eq``, ``b_ineq``) are deliberately absent:
        they vary per period (loads, server capacities) but only enter the
        stacked RHS vectors, which are always rebuilt.
        """
        parts = []
        for M in (cs.A_eq, cs.A_ineq, cs.lower):
            if M is None:
                parts.append(None)
            else:
                M = np.asarray(M, dtype=float)
                parts.append((M.shape, M.tobytes()))
        return tuple(parts)

    def _constraint_structure(self, cs: InputConstraintSet) -> dict:
        """Cached ΔU-space A-side stacks + normalized per-step operands.

        The stacked ``A`` blocks (``A_eq @ T_i``, ``A_ineq @ T_i`` and the
        lower-bound selectors ``−T_i``) depend only on the constraint
        matrices and the horizon — never on ``u_prev`` — so they are
        built once per distinct constraint set and reused every period.
        """
        sig = self._constraint_signature(cs)
        cached = self._con_cache
        if cached is not None and cached["sig"] == sig:
            self.stats["constraint_cache_hits"] += 1
            return cached
        self.stats["constraint_cache_misses"] += 1
        nu = self.model.n_inputs
        A_eq = (np.atleast_2d(np.asarray(cs.A_eq, dtype=float))
                if cs.A_eq is not None else None)
        A_in = (np.atleast_2d(np.asarray(cs.A_ineq, dtype=float))
                if cs.A_ineq is not None else None)
        lo = (np.broadcast_to(np.asarray(cs.lower, dtype=float), (nu,)).copy()
              if cs.lower is not None else None)
        eq_blocks, in_blocks = [], []
        for i in range(self.horizon_ctrl):
            T = move_selector(nu, self.horizon_ctrl, i)
            if A_eq is not None:
                eq_blocks.append(A_eq @ T)
            if A_in is not None:
                in_blocks.append(A_in @ T)
            if lo is not None:
                in_blocks.append(-T)
        structure = {
            "sig": sig,
            "A_eq": A_eq, "A_ineq": A_in, "lower": lo,
            "A_eq_stack": np.vstack(eq_blocks) if eq_blocks else None,
            "A_in_stack": np.vstack(in_blocks) if in_blocks else None,
        }
        self._con_cache = structure
        return structure

    def _stack_constraints(self, u_prev: np.ndarray):
        """Translate per-step input constraints into ΔU-space matrices.

        The A-side comes from :meth:`_constraint_structure`'s cache; only
        the right-hand sides depend on ``u_prev`` (and per-step loads) and
        are rebuilt here.
        """
        cs = self.constraints
        if cs is None:
            return None, None, None, None
        st = self._constraint_structure(cs)
        A_eq, A_in, lo = st["A_eq"], st["A_ineq"], st["lower"]
        Aeq_u = A_eq @ u_prev if A_eq is not None else None
        Ain_u = A_in @ u_prev if A_in is not None else None
        b_eq_rows, b_in_rows = [], []
        for i in range(self.horizon_ctrl):
            if A_eq is not None:
                b_eq_rows.append(cs.rhs_at(cs.b_eq, i) - Aeq_u)
            if A_in is not None:
                b_in_rows.append(cs.rhs_at(cs.b_ineq, i) - Ain_u)
            if lo is not None:
                b_in_rows.append(u_prev - lo)
        b_eq = np.concatenate(b_eq_rows) if b_eq_rows else None
        b_in = np.concatenate(b_in_rows) if b_in_rows else None
        return st["A_eq_stack"], b_eq, st["A_in_stack"], b_in

    # ------------------------------------------------------------------
    # QP assembly and solve
    # ------------------------------------------------------------------
    def _solve(self, P, q, A_eq, b_eq, A_in, b_in, max_iter: int = 500,
               x0=None, working_set0=None, use_cache: bool = True,
               deadline_seconds: float | None = None):
        if self.backend == "active_set":
            return solve_qp(P, q, A_eq=A_eq, b_eq=b_eq,
                            A_ineq=A_in, b_ineq=b_in, max_iter=max_iter,
                            x0=x0, working_set0=working_set0,
                            kkt_cache=self._kkt_cache if use_cache else None,
                            deadline_seconds=deadline_seconds)
        A, low, high = boxed_constraints(q.size, A_eq, b_eq, A_in, b_in)
        setup = None
        if use_cache and A.size:
            setup = self._admm_setup(P, A, 0 if A_eq is None
                                     else A_eq.shape[0])
        return solve_qp_admm(P, q, A, low, high, x0=x0, setup=setup,
                             deadline_seconds=deadline_seconds)

    def _admm_setup(self, P, A, n_eq: int):
        """The ADMM setup of ``(P, A)``, rebuilt only when they change.

        The matrices are compared by value (an O(n²) check, negligible
        next to the scaling and factorization the setup holds), so a
        receding-horizon loop with unchanged prices reuses one setup.
        """
        kept = self._admm
        if (kept is None or kept[0].shape != P.shape
                or kept[1].shape != A.shape
                or not np.array_equal(kept[0], P)
                or not np.array_equal(kept[1], A)):
            # built at solve_qp_admm's default initial penalty
            kept = (P.copy(), A.copy(),
                    prepare_batch_admm(P, A, n_eq=n_eq, rho=1.0))
            self._admm = kept
        return kept[2]

    def _solve_softened(self, P, q, A_eq, b_eq, A_in, b_in,
                        deadline_seconds: float | None = None):
        """Relax inequalities with quadratically penalized slacks ≥ 0."""
        n = q.size
        m = 0 if A_in is None else A_in.shape[0]
        if m == 0:
            raise InfeasibleProblemError(
                "equality constraints alone are infeasible; cannot soften")
        # Scale the slack penalty to the Hessian so the softened problem
        # stays numerically solvable: an absolute penalty 6+ orders of
        # magnitude above the tracking curvature makes both QP backends
        # grind.  'slack_penalty' is therefore a *relative* factor.
        penalty = self.slack_penalty * max(float(np.abs(P).max()), 1e-12)
        P_big = np.zeros((n + m, n + m))
        P_big[:n, :n] = P
        P_big[n:, n:] = 2.0 * penalty * np.eye(m)
        q_big = np.concatenate([q, np.zeros(m)])
        A_eq_big = None if A_eq is None else np.hstack(
            [A_eq, np.zeros((A_eq.shape[0], m))])
        # A_in x − s <= b_in  and  −s <= 0
        A_in_big = np.vstack([
            np.hstack([A_in, -np.eye(m)]),
            np.hstack([np.zeros((m, n)), -np.eye(m)]),
        ])
        b_in_big = np.concatenate([b_in, np.zeros(m)])
        # The softened problem is much larger (one slack per inequality
        # row) and highly degenerate.  Try the configured backend with a
        # proportionally larger budget; if the active-set method still
        # cycles on a degenerate vertex, fall back to ADMM.
        try:
            res = self._solve(P_big, q_big, A_eq_big, b_eq,
                              A_in_big, b_in_big,
                              max_iter=max(2000, 20 * (n + m)),
                              use_cache=False,
                              deadline_seconds=deadline_seconds)
        except DeadlineExceededError:
            raise
        except ConvergenceError:
            A, low, high = boxed_constraints(n + m, A_eq_big, b_eq,
                                             A_in_big, b_in_big)
            res = solve_qp_admm(P_big, q_big, A, low, high,
                                deadline_seconds=deadline_seconds)
        res.x = res.x[:n]
        return res

    def control(self, x, u_prev, reference,
                deadline_seconds: float | None = None) -> MPCSolution:
        """Compute the next input for state ``x`` and reference trajectory.

        Parameters
        ----------
        x:
            Current state estimate.
        u_prev:
            Input applied at the previous step (ΔU is measured from it).
        reference:
            Target outputs over the prediction horizon: shape
            ``(β₁, n_outputs)``, or a single output vector to hold
            constant, or a scalar for single-output models.
        deadline_seconds:
            Optional wall-clock budget threaded into every QP backend
            call this step makes.  On expiry the active-set path raises
            :class:`repro.exceptions.DeadlineExceededError` (propagated —
            a blown deadline must surface to the fallback ladder, not be
            retried with a slower method); the ADMM path returns its best
            iterate with ``meta["deadline_exceeded"]`` set.
        """
        x = np.asarray(x, dtype=float).ravel()
        u_prev = np.asarray(u_prev, dtype=float).ravel()
        ny = self.model.n_outputs
        ref = np.asarray(reference, dtype=float)
        if ref.ndim == 0:
            ref = np.full((self.horizon_pred, ny), float(ref))
        elif ref.ndim == 1:
            if ref.size == ny:
                ref = np.tile(ref, (self.horizon_pred, 1))
            elif ref.size == self.horizon_pred and ny == 1:
                ref = ref.reshape(-1, 1)
            else:
                raise ModelError("reference vector has incompatible size")
        if ref.shape != (self.horizon_pred, ny):
            raise ModelError(
                f"reference must have shape ({self.horizon_pred}, {ny})")

        H = self._horizon
        free = H.free_response(x, u_prev)
        target = ref.ravel() - free

        # QP objective: P = 2 Θ'QΘ + 2R depends only on (Θ, Q, R) — cached
        # until the horizon is rebuilt; q tracks the per-step target.
        if self._qp_quad is None or self._qp_quad[0] is not H.Theta:
            ThetaT_2Q = 2.0 * (H.Theta.T @ self._Q_stack)
            P = ThetaT_2Q @ H.Theta + 2.0 * self._R_stack
            P = 0.5 * (P + P.T)
            self._qp_quad = (H.Theta, ThetaT_2Q, P)
        _, ThetaT_2Q, P = self._qp_quad
        q = -(ThetaT_2Q @ target)
        c0 = float(target @ self._Q_stack @ target)

        A_eq, b_eq, A_in, b_in = self._stack_constraints(u_prev)
        x0, working_set0 = self._warm_start_point(A_eq, b_eq, A_in, b_in)
        softened = False
        try:
            res = self._solve(P, q, A_eq, b_eq, A_in, b_in,
                              x0=x0, working_set0=working_set0,
                              deadline_seconds=deadline_seconds)
        except InfeasibleProblemError:
            if not self.soften_infeasible:
                raise
            res = self._solve_softened(P, q, A_eq, b_eq, A_in, b_in,
                                       deadline_seconds=deadline_seconds)
            softened = True
        except DeadlineExceededError:
            # Out of time: escalating to a *slower* recovery method would
            # only dig deeper; the fallback ladder owns what happens next.
            raise
        except ConvergenceError:
            # Degenerate vertex made the active set cycle: fall back to
            # ADMM, which trades exactness for unconditional progress.
            A, low, high = boxed_constraints(q.size, A_eq, b_eq,
                                             A_in, b_in)
            res = solve_qp_admm(P, q, A, low, high,
                                deadline_seconds=deadline_seconds)
        self._store_warm_state(
            res, softened,
            rows=(0 if A_eq is None else A_eq.shape[0],
                  0 if A_in is None else A_in.shape[0]))
        self.stats["qp_solves"] += 1
        self.stats["qp_iterations"] += res.iterations
        for key in ("kkt_updates", "kkt_refactorizations",
                    "kkt_dense_steps"):
            self.stats[key] += int(res.meta.get(key, 0))
        if softened:
            self.stats["softened_solves"] += 1

        dU = res.x.reshape(self.horizon_ctrl, self.model.n_inputs)
        u_seq = u_prev + np.cumsum(dU, axis=0)
        predicted = H.predict(x, u_prev, res.x)
        return MPCSolution(
            u=u_seq[0].copy(), du_sequence=dU, u_sequence=u_seq,
            predicted_outputs=predicted, cost=float(res.fun + c0),
            status=res.status, softened=softened,
            solver_iterations=res.iterations,
        )

    # ------------------------------------------------------------------
    # Warm-start plumbing
    # ------------------------------------------------------------------
    def _warm_start_point(self, A_eq, b_eq, A_in, b_in):
        """Pick a feasible start from the previous period's solution.

        Candidates, in order: the previous ΔU shifted one step (the plan's
        tail, feasible whenever loads/capacities are unchanged), the
        unshifted previous ΔU, and zero increments (feasible whenever
        ``u_prev`` itself still satisfies the per-step constraints).  The
        first feasible candidate is returned together with the previous
        working set (active set).  ADMM gets the primal candidate alone:
        its polish reads the active set off the first iterate, and the
        previous period's dual, stale after a price or capacity change,
        would mislead that guess.

        The stored working set indexes *rows* of the stacked constraints,
        so it is only meaningful while the row counts are unchanged.
        When the stack grows or shrinks between periods (a budget
        toggling on/off mid-day changes the inequality count) the stale
        working set is dropped *here* — counted as a
        ``warm_start_rejections`` — rather than handed to the solver,
        where out-of-range indices would fail.  The primal candidate is
        still tried: it lives in ΔU space, which is unchanged.
        """
        if not self.warm_start:
            return None, None
        warm = self._warm
        ndu = self.model.n_inputs * self.horizon_ctrl
        if warm is None or warm["x"].size != ndu:
            return None, None
        rows_now = (0 if A_eq is None else A_eq.shape[0],
                    0 if A_in is None else A_in.shape[0])
        working_set = warm.get("working_set")
        if warm.get("rows") != rows_now:
            working_set = None
            self.stats["warm_start_rejections"] += 1
        prev = warm["x"]
        shifted = np.zeros(ndu)
        nu = self.model.n_inputs
        if self.horizon_ctrl > 1:
            shifted[:ndu - nu] = prev[nu:]
        for cand in (shifted, prev, np.zeros(ndu)):
            if self._point_feasible(cand, A_eq, b_eq, A_in, b_in):
                self.stats["warm_start_hits"] += 1
                return cand, working_set
        self.stats["warm_start_misses"] += 1
        return None, None

    @staticmethod
    def _point_feasible(x, A_eq, b_eq, A_in, b_in,
                        tol: float = 1e-7) -> bool:
        if A_eq is not None and np.any(np.abs(A_eq @ x - b_eq) > tol):
            return False
        if A_in is not None and np.any(A_in @ x - b_in > tol):
            return False
        return True

    def _store_warm_state(self, res, softened: bool,
                          rows: tuple[int, int] = (0, 0)) -> None:
        """Remember the solution for the next period's warm start.

        ``rows`` records the constraint-stack shape (equality rows,
        inequality rows) the working set was computed against;
        :meth:`_warm_start_point` rejects it when the next period's
        stack has a different row count.
        """
        if softened:
            # The softened problem has extra slack variables; its
            # working set does not map back onto the nominal rows.
            self._warm = None
            return
        self._warm = {
            "x": res.x.copy(),
            "working_set": res.working_set,
            "rows": rows,
        }
