"""OSQP-style ADMM solver for convex quadratic programs.

Solves::

    minimize    0.5 * x @ P @ x + q @ x
    subject to  l <= A @ x <= u

using the operator-splitting iteration of Stellato et al. (OSQP, 2020).
This is the MPC controller's default backend (see
``repro.core.batch_controller``): one shared factorization serves every
lane, and its active-set polish lands on the exact vertex the active-set
solver returns, which the ablation benchmark compares against.

The two-sided constraint form is convenient: equality constraints are
rows with ``l == u`` and one-sided inequalities use an infinite bound.
A helper converts from the ``A_eq/A_ineq`` convention used elsewhere.

There is one iteration, :func:`solve_qp_admm_batch`, which solves a
whole *batch* of problems that share ``(P, A)`` — the fleet-scale
Monte-Carlo hot path.  The dual block of its KKT matrix is eliminated:
one Cholesky factorization of the Schur complement ``P + σI + AᵀρA`` is
shared across all scenarios; the iterates are stacked ``(S, n)`` /
``(S, m)`` tensors advanced by level-3 BLAS, with per-scenario residual
checks and lane freezing so converged scenarios stop paying for
stragglers, and an active-set polish that lands lanes near their
optimum on the exact vertex instead of grinding ADMM to its tolerance.
:func:`solve_qp_admm` is the single-problem entry point: a batch of one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .result import OptimizeResult, Status

__all__ = ["solve_qp_admm", "solve_qp_admm_batch", "boxed_constraints",
           "BatchQPResult", "BatchADMMSetup", "prepare_batch_admm"]


def boxed_constraints(n: int, A_eq=None, b_eq=None, A_ineq=None, b_ineq=None):
    """Stack equality and ``<=`` constraints into ``l <= A x <= u`` form."""
    blocks = []
    lows = []
    highs = []
    if A_eq is not None and np.size(A_eq):
        A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
        b_eq = np.asarray(b_eq, dtype=float).ravel()
        blocks.append(A_eq)
        lows.append(b_eq)
        highs.append(b_eq)
    if A_ineq is not None and np.size(A_ineq):
        A_ineq = np.atleast_2d(np.asarray(A_ineq, dtype=float))
        b_ineq = np.asarray(b_ineq, dtype=float).ravel()
        blocks.append(A_ineq)
        lows.append(np.full(b_ineq.size, -np.inf))
        highs.append(b_ineq)
    if not blocks:
        return np.zeros((0, n)), np.zeros(0), np.zeros(0)
    return np.vstack(blocks), np.concatenate(lows), np.concatenate(highs)


def solve_qp_admm(P, q, A=None, l=None, u=None, rho: float = 1.0,
                  sigma: float = 1e-6, alpha: float = 1.6,
                  eps_abs: float = 1e-7, eps_rel: float = 1e-7,
                  max_iter: int = 20_000, x0=None, y0=None,
                  setup: BatchADMMSetup | None = None,
                  deadline_seconds: float | None = None
                  ) -> OptimizeResult:
    """Solve ``min 0.5 x'Px + q'x  s.t.  l <= Ax <= u`` by ADMM.

    A batch of one through :func:`solve_qp_admm_batch`: Ruiz scaling,
    adaptive ``rho`` and the active-set polish included.  The leading
    ``l == u`` rows get the stiff equality penalty.

    Parameters
    ----------
    rho, sigma, alpha:
        Initial ADMM penalty, regularization and over-relaxation.
    eps_abs, eps_rel:
        Absolute/relative tolerances on the primal and dual residuals.
    x0, y0:
        Warm-start primal iterate and constraint dual; one of the wrong
        length is ignored.  ``z`` is seeded with ``clip(A x0, l, u)``.
        The polish reads its first active-set guess off the iterate
        these start, so a start near the optimum mostly ends the solve
        at iteration 1.
    setup:
        Optional :func:`prepare_batch_admm` state of this ``(P, A)``
        (same ``sigma``; ``n_eq`` the leading run of ``l == u`` rows,
        the equality rows of :func:`boxed_constraints`), reused across
        calls to skip the scaling and the factorization.  It is
        re-armed to ``rho`` first, so the solve is a pure function of
        its arguments whatever the setup solved before.
    deadline_seconds:
        Optional wall-clock budget.  ADMM always has a best-so-far
        iterate, so on expiry the solve *returns* it (status
        ``iteration_limit``, ``meta["deadline_exceeded"] = 1``) instead
        of raising — the caller decides whether a truncated iterate is
        acceptable.

    Returns
    -------
    OptimizeResult
        ``status`` is ``optimal`` on convergence (by residuals or by an
        accepted polish), otherwise ``iteration_limit``; the best
        iterate is returned either way.  ``dual_ineq`` is the dual of
        every row of ``A``.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    P = 0.5 * (P + P.T)
    q = np.asarray(q, dtype=float).ravel()
    n = q.size
    if A is None or np.size(A) == 0:
        x = np.linalg.solve(P + sigma * np.eye(n), -q)
        return OptimizeResult(x=x, fun=float(0.5 * x @ P @ x + q @ x),
                              status=Status.OPTIMAL, iterations=0)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    l = np.asarray(l, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    if setup is None:
        eq = l == u
        setup = BatchADMMSetup(P, A, n_eq=eq.size if eq.all()
                               else int(np.argmin(eq)), rho=rho, sigma=sigma)
    else:
        setup.set_rho(rho)
    x0 = None if x0 is None or np.size(x0) != n else x0
    y0 = None if y0 is None or np.size(y0) != A.shape[0] else y0
    res = solve_qp_admm_batch(P, q[None], A, l, u, alpha=alpha,
                              eps_abs=eps_abs, eps_rel=eps_rel,
                              max_iter=max_iter, X0=x0, Y0=y0,
                              setup=setup, deadline_seconds=deadline_seconds)
    optimal = bool(res.converged[0])
    return OptimizeResult(
        x=res.X[0], fun=float(res.fun[0]),
        status=Status.OPTIMAL if optimal else Status.ITERATION_LIMIT,
        iterations=int(res.iterations[0]), dual_ineq=res.Y[0],
        message="" if optimal else
        ("ADMM deadline expired; returning best iterate"
         if res.deadline_exceeded
         else "ADMM hit iteration limit; returning best iterate"),
        meta={"deadline_exceeded": int(res.deadline_exceeded)},
    )


@dataclass
class BatchQPResult:
    """Stacked result of :func:`solve_qp_admm_batch`.

    ``X``/``Y`` hold every scenario's primal iterate and constraint
    dual; ``iterations`` records the iteration at which each lane's
    residuals converged (the last iteration run for stragglers, whose
    ``converged`` entry is ``False`` — callers re-solve those lanes
    through an exact scalar backend).  ``polished`` marks the converged
    lanes whose solution came from the active-set polish rather than
    from the ADMM iterate itself.  ``deadline_exceeded`` is set when
    the wall-clock budget stopped the solve with stragglers left.
    """

    X: np.ndarray
    Y: np.ndarray
    fun: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    polished: np.ndarray
    deadline_exceeded: bool = False

    @property
    def n_stragglers(self) -> int:
        return int(np.sum(~self.converged))


class BatchADMMSetup:
    """Shared, mutable state of the batched ADMM across solves.

    Holds the Ruiz-equilibrated problem matrices, the diagonal scalings
    ``(D, E, c)``, the per-constraint penalty vector (equality rows get
    ``rho_eq_scale × rho``, the OSQP convention) and the Cholesky factor
    of the reduced KKT matrix.  The MPC problem is badly scaled — portal
    workloads are O(1e4) req/s while the energy-cost rows of the Hessian
    are O(1e-6) — and unequilibrated ADMM needs thousands of iterations
    where the scaled iteration needs tens.

    The setup is *stateful on purpose*: :func:`solve_qp_admm_batch`
    adapts ``rho`` from the observed primal/dual residual balance and
    re-factors in place (an O(n³) = 45³ triviality next to one batched
    iteration), so the tuned penalty carries over to the next control
    period instead of being re-learned every solve.  The single-problem
    :func:`solve_qp_admm` re-arms it to the caller's ``rho`` instead.
    It also memoises the polish's active-set factors
    (``active_factors``); those are derived from ``(P, A)`` alone, so a
    memo hit changes no result.
    """

    def __init__(self, P, A, n_eq: int = 0, rho: float = 0.1,
                 sigma: float = 1e-6, rho_eq_scale: float = 1e3,
                 scaling_iters: int = 10) -> None:
        P = np.atleast_2d(np.asarray(P, dtype=float))
        A = np.atleast_2d(np.asarray(A, dtype=float))
        n = P.shape[0]
        m = A.shape[0]
        self.n = n
        self.m = m
        self.n_eq = int(n_eq)
        self.sigma = float(sigma)
        self.rho_eq_scale = float(rho_eq_scale)

        # Modified Ruiz equilibration of [[P, Aᵀ], [A, 0]] plus OSQP's
        # cost normalization: iterate D/E toward unit ∞-norm rows/cols.
        P_s = P.copy()
        A_s = A.copy()
        D = np.ones(n)
        E = np.ones(m)
        c = 1.0
        for _ in range(int(scaling_iters)):
            col_p = np.max(np.abs(P_s), axis=0) if n else np.zeros(0)
            col_a = np.max(np.abs(A_s), axis=0) if m else np.zeros(n)
            col = np.maximum(col_p, col_a)
            d = np.where(col > 1e-12, 1.0 / np.sqrt(np.maximum(col, 1e-12)),
                         1.0)
            row = np.max(np.abs(A_s), axis=1) if m else np.zeros(0)
            e = np.where(row > 1e-12, 1.0 / np.sqrt(np.maximum(row, 1e-12)),
                         1.0)
            P_s = d[:, None] * P_s * d[None, :]
            A_s = e[:, None] * A_s * d[None, :]
            D *= d
            E *= e
            mean_col = float(np.mean(np.max(np.abs(P_s), axis=0)))
            gamma = 1.0 / max(mean_col, 1e-12)
            P_s *= gamma
            c *= gamma
        self.P_s = P_s
        self.A_s = A_s
        self.A_sT = np.ascontiguousarray(A_s.T)
        self.D = D
        self.E = E
        self.c = c
        self.refactorizations = 0
        pattern = np.ones(m)
        pattern[:self.n_eq] = self.rho_eq_scale
        self.rho_pattern = pattern
        # per-lane penalties for the lane-isolated solve mode; carried
        # across solves exactly like the shared scalar ``rho``.
        self.rho_lanes: np.ndarray | None = None
        self._lane_kinv_cache: dict[float, np.ndarray] = {}
        self._polish_ops = None
        # (rows, chol) of the polish's active sets by packed set; derived
        # from the rho-free Schur complement, so it lives as long as the
        # setup and is never checkpointed
        self.active_factors: dict[bytes, tuple] = {}
        self._set_rho(float(rho))

    def _set_rho(self, rho: float) -> None:
        import scipy.linalg as sla
        self.rho = float(rho)
        rho_vec = np.full(self.m, self.rho)
        rho_vec[:self.n_eq] *= self.rho_eq_scale
        self.rho_vec = rho_vec
        self.rho_inv = 1.0 / rho_vec
        K = self.P_s + self.sigma * np.eye(self.n) \
            + self.A_s.T @ (rho_vec[:, None] * self.A_s)
        self.factor = sla.cho_factor(K)
        # Explicit inverse of the reduced KKT: after equilibration K is
        # well conditioned, and one GEMM against K⁻¹ on an (S, n) block
        # beats two batched triangular solves at these sizes.
        kinv = sla.cho_solve(self.factor, np.eye(self.n))
        self.Kinv = np.ascontiguousarray(0.5 * (kinv + kinv.T))
        self.refactorizations += 1

    def set_rho(self, rho: float) -> None:
        """Force the penalty to ``rho`` (re-factoring if it changed).

        The durable control plane uses this to re-apply a checkpointed
        adapted rho to a freshly rebuilt setup — the adaptation history
        is part of the solver's bit-exact trajectory.
        """
        if float(rho) != self.rho:
            self._set_rho(float(rho))

    def maybe_adapt_rho(self, ratio: float) -> bool:
        """OSQP rho rule: adopt ``rho × ratio`` when off by more than 5×."""
        new_rho = float(np.clip(self.rho * ratio, 1e-6, 1e6))
        if new_rho > 5.0 * self.rho or new_rho < self.rho / 5.0:
            self._set_rho(new_rho)
            return True
        return False

    def lane_kinv(self, rho: float) -> np.ndarray:
        """Reduced-KKT inverse for a single lane's penalty ``rho``.

        The lane-isolated solve mode adapts ``rho`` per lane, so each
        lane needs its own ``K(ρ)⁻¹``.  Results are memoised by exact
        penalty value — warm-started periods re-enter with the same
        adapted penalties, so steady state pays zero factorizations.
        """
        import scipy.linalg as sla
        rho = float(rho)
        hit = self._lane_kinv_cache.get(rho)
        if hit is not None:
            return hit
        rho_vec = rho * self.rho_pattern
        K = self.P_s + self.sigma * np.eye(self.n) \
            + self.A_s.T @ (rho_vec[:, None] * self.A_s)
        kinv = sla.cho_solve(sla.cho_factor(K), np.eye(self.n))
        kinv = np.ascontiguousarray(0.5 * (kinv + kinv.T))
        self.refactorizations += 1
        if len(self._lane_kinv_cache) >= 64:
            self._lane_kinv_cache.clear()
        self._lane_kinv_cache[rho] = kinv
        return kinv

    def polish_operators(self):
        """``(P_s⁻¹, A_s P_s⁻¹, M = A_s P_s⁻¹ A_sᵀ)`` for the polish.

        The Schur complement ``M`` of the equality-constrained KKT
        system depends only on the scaled ``(P, A)``, not on ``rho``, so
        it is built once, on first use.  ``None`` when ``P_s`` is not
        safely positive definite (or there are no constraints): the
        polish then stays off and every lane finishes by ADMM.
        """
        import scipy.linalg as sla
        if self._polish_ops is None:
            self._polish_ops = False
            try:
                chol, _ = sla.cho_factor(self.P_s)
            except np.linalg.LinAlgError:
                chol = None
            if chol is not None and self.m:
                piv = np.diag(chol) ** 2
                if piv.min() > 1e-10 * piv.max():
                    pinv = sla.cho_solve((chol, False), np.eye(self.n))
                    pinv = 0.5 * (pinv + pinv.T)
                    a_pinv = self.A_s @ pinv
                    M = a_pinv @ self.A_sT
                    self._polish_ops = (pinv, a_pinv, 0.5 * (M + M.T))
        return self._polish_ops or None


def prepare_batch_admm(P, A, n_eq: int = 0, rho: float = 0.1,
                       sigma: float = 1e-6,
                       scaling_iters: int = 10) -> BatchADMMSetup:
    """Build the shared :class:`BatchADMMSetup` for a scenario batch.

    ``n_eq`` marks how many *leading* rows of ``A`` are equalities
    (``l == u``); those rows get the stiffer OSQP equality penalty.
    """
    return BatchADMMSetup(P, A, n_eq=n_eq, rho=rho, sigma=sigma,
                          scaling_iters=scaling_iters)


def solve_qp_admm_batch(P, Q, A, L, U, rho: float = 0.1,
                        sigma: float = 1e-6, alpha: float = 1.6,
                        eps_abs: float = 1e-6, eps_rel: float = 1e-6,
                        max_iter: int = 20_000, X0=None, Y0=None,
                        setup: BatchADMMSetup | None = None,
                        n_eq: int = 0,
                        adaptive_rho: bool = True,
                        lane_isolated: bool = False,
                        deadline_seconds: float | None = None
                        ) -> BatchQPResult:
    """Solve ``S`` QPs sharing ``(P, A)`` with stacked ADMM iterates.

    Each scenario ``s`` solves ``min 0.5 x'Px + Q[s]'x`` subject to
    ``L[s] <= A x <= U[s]`` — identical Hessian and constraint matrix,
    per-scenario linear terms and bounds.  This is exactly the fleet
    Monte-Carlo structure: the condensed MPC operators are shared across
    price/workload noise (see ``repro.core.batch_controller``) while the
    targets and right-hand sides vary per lane.

    The iteration is OSQP's update with the dual block of the KKT
    matrix eliminated (the Schur complement ``P + σI + AᵀρA``), applied
    to all lanes at once — the shared Cholesky back-solve runs on an
    ``(n, S)`` right-hand-side block (level-3 BLAS), the projection/dual
    steps are elementwise on ``(S, m)`` tensors — with three OSQP
    refinements:

    * **Ruiz equilibration** of ``(P, A)`` with cost normalization (the
      raw MPC stack mixes req/s-scale constraint rows with 1e-6-scale
      cost curvature; unscaled ADMM crawls),
    * a **per-constraint penalty** with stiff equality rows,
    * **shared adaptive rho** — the penalty follows the primal/dual
      residual balance aggregated across active lanes, re-factoring the
      45×45 reduced KKT in place (trivial next to one batched sweep).

    Residuals are checked *unscaled* per lane (iteration 1, then every
    5); converged lanes are frozen — their iterates stop changing and
    stop costing work — so one straggler cannot perturb or slow the
    rest.

    Lanes finish by an **active-set polish** (OSQP's "polish"):
    primal-dual active-set rounds on the active rows guessed from the
    lane's ``(z, y)``, solved on the set alone through the setup's
    memoised active-set factors, accepted only if the polished point
    passes the same unscaled stopping test with correctly signed
    multipliers.  A set with dependent rows keeps its equality rows and
    an independent subset of its ``≤`` rows, and each lane drops rows
    that its kept rows' solution satisfies (:func:`_solve_active`).  At
    the iteration-1 check every lane that has not met the stop tries at
    once (a warm start from the previous period mostly names the
    optimal active set already).  A lane refused there tries again each
    time its residuals reach a further decade inside the trigger band:
    within ``1e-2·(1 + scale)``, then ``1e-3·(1 + scale)``, and so on
    down to the stop — at most ``1 + log10(1e-2 / eps)`` attempts in
    all.  An accepted lane is an exact vertex
    (``BatchQPResult.polished``); a refused one carries on by ADMM from
    its untouched iterate.  The ``lane_isolated`` mode never polishes.

    Parameters
    ----------
    P, A:
        Shared Hessian ``(n, n)`` and constraint matrix ``(m, n)``.
    Q:
        Per-scenario linear terms, shape ``(S, n)``.
    L, U:
        Constraint bounds, shape ``(S, m)`` (or ``(m,)`` to share).
    X0, Y0:
        Optional per-scenario warm starts (unscaled), shapes ``(S, n)``
        / ``(S, m)``.
    setup:
        Optional precomputed (and reused) :func:`prepare_batch_admm`
        state; built here from ``(P, A, n_eq, rho, sigma)`` when absent.
    n_eq:
        Leading equality-row count, used only when ``setup`` is absent.
    adaptive_rho:
        Adapt the shared penalty from the residual balance (on by
        default; disable for bitwise-reproducible iterate studies).
    lane_isolated:
        Run the *lane-decoupled* variant of the iteration: every tensor
        keeps its full ``(S, ·)`` shape for the whole solve (converged
        lanes are masked-frozen, not compacted away) and the penalty
        adapts **per lane** from that lane's own residual balance (one
        ``K(ρ_lane)⁻¹`` GEMV per lane per iteration, memoised on the
        setup).  Every operation is then a deterministic function of
        the lane's own row — one lane's data, faults, or convergence
        timing cannot perturb another lane's iterates *bitwise*.  The
        fleet resilience path arms this mode so healthy lanes stay
        bit-identical to a fault-free (equally armed) baseline while
        faulted lanes are ejected; the default shared mode keeps the
        cheaper compacted hot loop and shared adaptive rho.
    deadline_seconds:
        Optional wall-clock budget, checked at every residual check
        *before* the polish.  On expiry the solve stops: lanes that met
        the stopping test at that check count as converged, the rest
        return their iterate as stragglers.
    """
    t_start = time.monotonic()
    P = np.atleast_2d(np.asarray(P, dtype=float))
    P = 0.5 * (P + P.T)
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    A = np.atleast_2d(np.asarray(A, dtype=float))
    S, n = Q.shape
    m = A.shape[0]
    L = np.broadcast_to(np.asarray(L, dtype=float), (S, m))
    U = np.broadcast_to(np.asarray(U, dtype=float), (S, m))
    if setup is None:
        setup = BatchADMMSetup(P, A, n_eq=n_eq, rho=rho, sigma=sigma)

    A_s = setup.A_s
    D, E, c = setup.D, setup.E, setup.c
    Einv = 1.0 / E
    sigma = setup.sigma

    # scale the per-lane data into equilibrated coordinates
    Qs = (Q * D) * c
    Ls = L * E
    Us = U * E
    if X0 is not None:
        X = np.array(X0, dtype=float).reshape(S, n) / D
    else:
        X = np.zeros((S, n))
    Z = np.clip(X @ A_s.T, Ls, Us)
    if Y0 is not None:
        Y = np.array(Y0, dtype=float).reshape(S, m) * (c * Einv)
    else:
        Y = np.zeros((S, m))

    def expired() -> bool:
        return deadline_seconds is not None and \
            time.monotonic() - t_start > deadline_seconds

    if lane_isolated:
        return _solve_batch_isolated(P, setup, Q, Qs, Ls, Us, X, Z, Y,
                                     alpha, eps_abs, eps_rel, max_iter,
                                     adaptive_rho, expired)

    iters = np.full(S, max_iter, dtype=int)
    converged = np.zeros(S, dtype=bool)
    polished = np.zeros(S, dtype=bool)
    tried = np.full(S, -1.0)        # the last band decade tried in
    polish = setup.polish_operators() is not None
    q_norm = np.max(np.abs(Q), axis=1) if n else np.zeros(S)

    # Compacted working blocks: frozen lanes are *removed* from the
    # iterate tensors (their final values scattered back into X/Z/Y)
    # instead of being masked per iteration — the hot loop then runs
    # gather-free on contiguous arrays.
    idx = np.arange(S)
    x, z, y = X, Z, Y
    qs, q_u, qn = Qs, Q, q_norm
    ls, us = Ls, Us
    # hot-loop scratch (sliced to the live lane count after compaction);
    # every elementwise step below runs in place to keep the per-iteration
    # cost memory-bound on three GEMMs, not on a dozen (S, m) temporaries.
    BM = np.empty((S, m))
    BN = np.empty((S, n))
    BN2 = np.empty((S, n))
    it = 0
    out_of_time = False
    while idx.size and it < max_iter:
        it += 1
        k = idx.size
        rho_vec = setup.rho_vec
        bm, bn, bn2 = BM[:k], BN[:k], BN2[:k]
        np.multiply(z, rho_vec, out=bm)
        bm -= y
        np.matmul(bm, A_s, out=bn)           # rhs = Aᵀ(ρz − y)
        np.multiply(x, sigma, out=bn2)
        bn += bn2
        bn -= qs
        np.matmul(bn, setup.Kinv, out=bn2)   # x̃ = K⁻¹ rhs  (K⁻¹ symmetric)
        np.matmul(bn2, setup.A_sT, out=bm)   # z̃ = A x̃
        x *= 1.0 - alpha
        bn2 *= alpha
        x += bn2
        z *= 1.0 - alpha                     # z becomes z_relax below
        bm *= alpha
        z += bm
        np.multiply(y, setup.rho_inv, out=bm)
        bm += z
        np.clip(bm, ls, us, out=bm)          # bm is z_next
        z -= bm                              # z_relax − z_next
        z *= rho_vec
        y += z
        np.copyto(z, bm)

        if it % 5 == 0 or it == 1:
            r_prim, r_dual, prim_scale, dual_scale = _unscaled_residuals(
                setup, x, z, y, q_u, qn)
            done = (r_prim <= eps_abs + eps_rel * prim_scale) & \
                (r_dual <= eps_abs + eps_rel * dual_scale)
            out_of_time = expired()
            if polish and not out_of_time:
                # the decade of the trigger band the lane's residuals are
                # in: 0 just inside ``_POLISH_TRIGGER``, one more for
                # every further tenth, negative outside
                with np.errstate(divide="ignore"):
                    decade = np.floor(np.log10(_POLISH_TRIGGER / np.maximum(
                        r_prim / (1.0 + prim_scale),
                        r_dual / (1.0 + dual_scale))))
                if it == 1:
                    # a warm start mostly names the optimal active set
                    # already: every unfinished lane tries it at once
                    cand = np.flatnonzero(~done)
                else:
                    # a refused lane tries again each time its residuals
                    # reach a decade of the band it has not tried in
                    cand = np.flatnonzero(~done & (decade > tried[idx]))
                tried[idx[cand]] = np.maximum(decade[cand], -1.0)
                for lo in range(0, cand.size, _POLISH_CHUNK):
                    ch = cand[lo:lo + _POLISH_CHUNK]
                    ok, xp, zp, yp = _polish_lanes(
                        setup, z[ch], y[ch], qs[ch], q_u[ch], qn[ch],
                        ls[ch], us[ch], eps_abs, eps_rel)
                    acc = ch[ok]
                    x[acc], z[acc], y[acc] = xp[ok], zp[ok], yp[ok]
                    done[acc] = True
                    polished[idx[acc]] = True
            live = ~done
            if np.any(done):
                lanes = idx[done]
                iters[lanes] = it
                converged[lanes] = True
                X[lanes], Z[lanes], Y[lanes] = x[done], z[done], y[done]
                idx = idx[live]
                x, z, y = x[live], z[live], y[live]
                qs, q_u, qn = qs[live], q_u[live], qn[live]
                ls, us = ls[live], us[live]
            if out_of_time:
                break
            if adaptive_rho and idx.size:
                num = r_prim[live] / np.maximum(prim_scale[live], 1e-12)
                den = r_dual[live] / np.maximum(dual_scale[live], 1e-12)
                ratio = np.sqrt(np.maximum(num, 1e-12)
                                / np.maximum(den, 1e-12))
                agg = float(np.exp(np.mean(np.log(ratio))))
                setup.maybe_adapt_rho(agg)
    if idx.size:        # stragglers: scatter the last iterate back
        X[idx], Z[idx], Y[idx] = x, z, y
        iters[idx] = it

    # unscale the returned iterates: x = D x̄, y = E ȳ / c
    X = X * D
    Y = Y * (E / c)
    PX = X @ P
    fun = 0.5 * np.einsum("sn,sn->s", X, PX) \
        + np.einsum("sn,sn->s", Q, X)
    return BatchQPResult(X=X, Y=Y, fun=fun, iterations=iters,
                         converged=converged, polished=polished,
                         deadline_exceeded=bool(out_of_time and idx.size))


#: Polish trigger: a lane whose unscaled residuals fall within this
#: share of ``1 + scale`` is close enough for its ``(z, y)`` to name the
#: optimal active set; a refused lane tries again at every further
#: decade inside it.
_POLISH_TRIGGER = 1e-2
#: Primal-dual active-set rounds per polish attempt.
_POLISH_ROUNDS = 6
#: Slack/multiplier band within which a row keeps its active status.
_PDAS_TOL = 1e-9
#: Lanes per polish call.  The iteration-1 attempt hands over every
#: unfinished lane of the batch at once; the chunk bounds the polish's
#: ``(k, m)`` work arrays, and so the solver's peak RSS, whatever the
#: batch width.
_POLISH_CHUNK = 128
#: Smallest Cholesky pivot, relative to its row's diagonal, of an
#: active set the polish treats as linearly independent.
_DEPENDENT_PIVOT = 1e-10
#: Active-set factors a setup keeps (:func:`_solve_active`); the memo is
#: emptied when it reaches this many sets.
_ACTIVE_MEMO_CAP = 128


def _unscaled_residuals(setup: BatchADMMSetup, x, z, y, q_u, qn):
    """Per-lane primal/dual residuals and their scales, unscaled.

    ``x, z, y`` are Ruiz-scaled iterates ``(k, ·)``; ``q_u`` the
    original linear terms and ``qn`` their ∞-norms.  Returns
    ``(r_prim, r_dual, prim_scale, dual_scale)``, each ``(k,)`` — the
    quantities of the OSQP stopping test ``r ≤ eps_abs + eps_rel·scale``.
    """
    A_s, P_s = setup.A_s, setup.P_s
    Einv = 1.0 / setup.E
    cD = setup.c * setup.D
    m = A_s.shape[0]
    Ax = (x @ A_s.T) * Einv
    z_u = z * Einv
    Px = (x @ P_s) / cD
    Aty = (y @ A_s) / cD
    r_prim = np.max(np.abs(Ax - z_u), axis=1) if m else \
        np.zeros(x.shape[0])
    r_dual = np.max(np.abs(Px + q_u + Aty), axis=1)
    prim_scale = np.maximum(
        np.max(np.abs(Ax), axis=1) if m else 0.0,
        np.max(np.abs(z_u), axis=1) if m else 0.0)
    dual_scale = np.maximum(
        np.maximum(np.max(np.abs(Px), axis=1),
                   np.max(np.abs(Aty), axis=1) if m else 0.0),
        qn)
    return r_prim, r_dual, prim_scale, dual_scale


def _polish_lanes(setup: BatchADMMSetup, z, y, qs, q_u, qn, ls, us,
                  eps_abs: float, eps_rel: float):
    """Active-set polish of ``k`` lanes (OSQP's "polish" step).

    Works in Ruiz-scaled coordinates as a primal-dual active-set
    (semismooth Newton) iteration.  The first active set is read off
    the lane's ADMM ``(z, y)``: equality rows always, a one-sided row
    when its dual outweighs its slack.  The equality-constrained QP of
    an active set ``a`` has the solution ``x = x_u − P⁻¹A_aᵀy_a`` with
    the unconstrained minimizer ``x_u = −P⁻¹q``, so each round works on
    the set alone: with ``w = A x_u`` (once per lane) it solves the
    Schur complement ``M_aa y_a = w_a − b_a`` (:func:`_solve_active`,
    which also picks a dependent set's dropped rows per lane from the
    rows' sides), reads ``A x = w − M y`` and re-reads the active set
    from the multipliers and violations; a lane whose set stops moving
    leaves the rounds.  ``x`` itself is formed once, after the last round.
    The caller hands lanes over in chunks of ``_POLISH_CHUNK``, which
    bounds every work array here to ``(chunk, m)``.  A lane is accepted
    only if the polished ``(x, clip(Ax), y)`` passes the ADMM loop's own
    unscaled stopping test and its multipliers carry the right sign to
    the same tolerance.  Returns ``(ok, x, z, y)``; rows of rejected
    lanes are meaningless.
    """
    pinv, a_pinv, M = setup.polish_operators()
    k, m = z.shape
    eq = ls == us
    upper = eq | (us - z < y)
    lower = ~upper & (z - ls < -y)
    x_u = -(qs @ pinv)
    w = x_u @ setup.A_sT
    Yp = np.empty((k, m))
    # the rounds run on compacted copies of the lanes whose set still
    # moves; ``idx`` maps them back to the chunk, whose ``upper`` and
    # ``lower`` keep the sets behind ``Yp``
    idx = np.arange(k)
    up, dn, wt, ut, lt, et = upper, lower, w, us, ls, eq
    with np.errstate(all="ignore"):
        for _ in range(_POLISH_ROUNDS):
            # inactive rows of rhs are never read
            yk = _solve_active(M, up | dn, wt - np.where(up, ut, lt),
                               setup.active_factors,
                               np.where(dn, -1.0, np.where(et, 0.0, 1.0)),
                               setup.n_eq)
            Yp[idx] = yk
            upper[idx], lower[idx] = up, dn
            ax = wt - yk @ M
            # PDAS: a row is active when its multiplier or its violation
            # points outside the bound.  A weakly active row (zero
            # multiplier on its bound) keeps its status, or rounding
            # would toggle it every round.
            tol = _PDAS_TOL * (1.0 + np.abs(ax))
            s_up = yk + (ax - ut)
            s_dn = yk + (ax - lt)
            new_up = et | np.where(up, s_up > -tol, s_up > tol)
            new_dn = ~new_up & np.where(dn, s_dn < tol, s_dn < -tol)
            moved = np.any(new_up != up, axis=1) | \
                np.any(new_dn != dn, axis=1)
            if not moved.any():
                break
            idx = idx[moved]
            up, dn = new_up[moved], new_dn[moved]
            wt, ut, lt, et = wt[moved], ut[moved], lt[moved], et[moved]
        X = x_u - Yp @ a_pinv
        Z = np.clip(X @ setup.A_sT, ls, us)
        r_prim, r_dual, prim_scale, dual_scale = _unscaled_residuals(
            setup, X, Z, Yp, q_u, qn)
        # multiplier signs (inactive rows are exactly 0): y ≥ 0 on
        # upper-active one-sided rows, y ≤ 0 on lower-active ones
        y_u = Yp * (setup.E / setup.c)
        wrong = np.where(upper & ~eq, -y_u, np.where(lower, y_u, 0.0))
        tol_d = eps_abs + eps_rel * dual_scale
        ok = (r_prim <= eps_abs + eps_rel * prim_scale) & \
            (r_dual <= tol_d) & (np.max(wrong, axis=1) <= tol_d)
    return ok, X, Z, Yp


def _solve_active(M, act, rhs, memo: dict, side=None, n_eq: int = 0):
    """Solve ``M[a, a] y[a] = rhs[a]`` for each lane's active rows ``a``.

    Lanes of one fleet mostly share their active set, so lanes are
    grouped by set and each set's factor is back-solved for all of its
    lanes together.  The factor of a set is ``(rows, chol, dropped,
    coef)`` from :func:`_set_factor`; ``memo`` (the setup's
    ``active_factors``) keeps it across rounds, chunks and solves,
    keyed by the packed set, and is emptied when it reaches
    ``_ACTIVE_MEMO_CAP`` sets.  A hit returns the factor a miss would
    compute, so the memo changes no result.  Rows outside the solved
    rows — inactive ones and the dropped rows of a dependent set — get
    ``y = 0``.

    ``side`` (``(k, m)``: ``+1`` on ``≤`` rows active at their upper
    bound, ``−1`` at their lower bound, ``0`` on equality rows) lets a
    lane of a dependent set choose its own dropped rows: when the kept
    rows' solution violates a dropped row's bound, :func:`_swap_dropped`
    exchanges it for a kept row the solution then satisfies, and the
    lane is solved on that set instead.  ``n_eq`` is the count of
    leading equality rows, which a set keeps first.
    """
    from scipy.linalg.lapack import dpotrs
    packed = np.packbits(act, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    groups: dict[bytes, list] = {}
    for lane, key in enumerate(keys.tolist()):
        groups.setdefault(key, []).append(lane)
    y = np.zeros(rhs.shape)
    swapped: list[tuple[int, np.ndarray]] = []
    for key, lanes in groups.items():
        factor = memo.get(key)
        if factor is None:
            factor = _set_factor(M, np.flatnonzero(act[lanes[0]]), n_eq)
            if len(memo) >= _ACTIVE_MEMO_CAP:
                memo.clear()
            memo[key] = factor
        rows, chol, dropped, coef = factor
        if not rows.size:
            continue
        lanes = np.asarray(lanes)
        sub = rhs.take(lanes, 0)
        if side is not None and coef is not None:
            # the dropped rows' ``A x − b`` at the kept rows' solution
            rhs_d = sub.take(dropped, 1)
            gap = rhs_d - sub.take(rows, 1) @ coef
            bad = np.any(side.take(lanes, 0).take(dropped, 1) * gap
                         > _PDAS_TOL * (1.0 + np.abs(rhs_d)), axis=1)
            stay = np.ones(lanes.size, dtype=bool)
            for i in np.flatnonzero(bad):
                kept = _swap_dropped(M, rows, dropped, coef, sub[i],
                                     side[lanes[i]])
                if kept is not None:
                    swapped.append((int(lanes[i]), kept))
                    stay[i] = False
            lanes, sub = lanes[stay], sub[stay]
            if not lanes.size:
                continue
        sol, _ = dpotrs(chol, sub.take(rows, 1).T)
        y[lanes[:, None], rows] = sol.T
    if swapped:
        lanes = np.array([lane for lane, _ in swapped])
        sets = np.zeros((lanes.size, act.shape[1]), dtype=bool)
        for j, (_, kept) in enumerate(swapped):
            sets[j, kept] = True
        y[lanes] = _solve_active(M, sets, rhs[lanes], memo, n_eq=n_eq)
    return y


def _set_factor(M, rows, n_eq: int):
    """Memo entry ``(kept, chol, dropped, coef)`` of the active set ``rows``.

    ``(kept, chol)`` is :func:`_active_factor`'s; ``dropped`` are the
    set's rows outside ``kept`` and ``coef = M_kk⁻¹ M_kd`` their
    coefficients on the kept rows (row ``d`` of ``A`` is ``coefᵀ`` times
    the kept rows), empty for an independent set.
    """
    from scipy.linalg.lapack import dpotrs
    kept, chol = _active_factor(M, rows, n_eq)
    if kept.size == rows.size:
        return kept, chol, kept[:0], None
    dropped = np.setdiff1d(rows, kept)
    coef = None
    if kept.size:
        coef, _ = dpotrs(chol, M[kept[:, None], dropped])
    return kept, chol, dropped, coef


def _swap_dropped(M, rows, dropped, coef, rhs, side):
    """Kept rows of one lane whose solution satisfies every dropped row.

    Row ``d`` of a dependent set is ``A_d = Σ_k T_kd A_k`` over the kept
    rows, so at their solution it reads ``A_d x − b_d = g_d`` with
    ``g_d = rhs_d − T_dᵀ rhs_k`` (``rhs = w − b``).  A dropped row with
    a violated bound (``side_d·g_d > 0``) is swapped in for a kept
    one-sided row ``k`` with ``side_k·T_kd·g_d > 0``: the null vector
    ``v = e_d − T_d`` of the set has ``ρ = vᵀb = −g_d``, and dropping
    ``k`` leaves it at ``b_k − ρ/v_k``, inside its bound.  The largest
    row-scaled ``|T_kd|`` is taken, a simplex basis exchange updates
    ``T``, and the swaps repeat until no dropped row is violated (at
    most the set's size times).  A feasible QP always has such a row
    for one null vector.  Returns the new kept rows, or ``None`` when
    the first violated row has no candidate (the lane keeps the
    default set).
    """
    root = np.sqrt(np.diag(M))
    kept, drop, T = rows.copy(), dropped.copy(), coef.copy()
    rhs_k, rhs_d = rhs[kept], rhs[drop]
    changed = False
    for _ in range(rows.size + dropped.size):
        gap = rhs_d - rhs_k @ T
        viol = side[drop] * gap
        q = int(np.argmax(viol))
        if viol[q] <= _PDAS_TOL * (1.0 + abs(rhs_d[q])):
            break
        col = T[:, q].copy()
        score = np.where(side[kept] * col * gap[q] > 0.0,
                         np.abs(col) * root[kept], 0.0)
        p = int(np.argmax(score))
        if score[p] <= np.sqrt(_DEPENDENT_PIVOT) * root[drop[q]]:
            break
        piv = col[p]
        row = T[p] / piv
        T -= np.outer(col, row)
        T[p] = row
        T[:, q] = -col / piv
        T[p, q] = 1.0 / piv
        kept[p], drop[q] = drop[q], kept[p]
        rhs_k[p], rhs_d[q] = rhs_d[q], rhs_k[p]
        changed = True
    return kept if changed else None


def _active_factor(M, rows, n_eq: int = 0):
    """``(rows, chol)`` with ``chol`` the upper Cholesky of ``M[rows, rows]``.

    A set whose rows are (nearly) linearly dependent — a Cholesky pivot
    below ``_DEPENDENT_PIVOT`` of its row's own diagonal, e.g. a
    duplicated constraint or capacity rows that sum to the conservation
    rows — has no unique multipliers, and an independent subset is
    kept.  The equality rows (``rows < n_eq``) come first: all of them
    are kept unless they are dependent among themselves, when LAPACK's
    pivoted Cholesky ``dpstrf`` of their unit-diagonal-scaled block
    keeps a rank-revealing subset.  The ``≤`` rows are then pivoted on
    their Schur complement with respect to the kept equality rows, and
    the leading pivots down to the same threshold are kept.  So a
    conservation row is never dropped for a ``≤`` row that depends on
    it; which ``≤`` rows a lane drops is then its own choice
    (:func:`_swap_dropped`).
    """
    from scipy.linalg.lapack import dpotrf, dtrtrs
    if not rows.size:
        return rows, None
    block = M[rows[:, None], rows]
    diag = np.diag(block)
    chol, info = dpotrf(block)
    with np.errstate(all="ignore"):
        if info == 0 and np.min(np.diag(chol) ** 2 / diag) > _DEPENDENT_PIVOT:
            return rows, chol
        root = np.sqrt(np.maximum(diag, 0.0))
        inv = np.where(root > 0.0, 1.0 / root, 0.0)
    B = inv[:, None] * block * inv[None, :]
    ne = int(np.count_nonzero(rows < n_eq))
    keep = _pivoted(B[:ne, :ne])
    ineq = np.arange(ne, rows.size)
    S = B[ne:, ne:]
    if keep.size:
        # S − Wᵀ W with RᵀW = B_ei, R the kept equality rows' factor
        R, _ = dpotrf(B[keep[:, None], keep])
        W, _ = dtrtrs(R, B[keep[:, None], ineq], trans=1)
        S = S - W.T @ W
    keep = np.concatenate([keep, ineq[_pivoted(S)]])
    if not keep.size:
        return rows[:0], None
    kept = rows[keep]
    # in pivot order the factor's pivots are those the rank test passed
    chol, _ = dpotrf(M[kept[:, None], kept])
    return kept, chol


def _pivoted(B):
    """Indices of the rank-revealing leading pivots of ``B``, a block
    (or Schur complement) of a unit-diagonal matrix: all of them in
    order when plain Cholesky passes the ``_DEPENDENT_PIVOT`` test, else
    ``dpstrf``'s pivots down to it."""
    from scipy.linalg.lapack import dpotrf, dpstrf
    if not B.shape[0] or np.max(np.diag(B)) <= _DEPENDENT_PIVOT:
        # dpstrf takes its first pivot whatever its size
        return np.zeros(0, dtype=int)
    chol, info = dpotrf(B)
    if info == 0 and np.min(np.diag(chol)) ** 2 > _DEPENDENT_PIVOT:
        return np.arange(B.shape[0])
    _fac, piv, rank, _ = dpstrf(B, tol=_DEPENDENT_PIVOT)
    return piv[:rank] - 1


def _solve_batch_isolated(P, setup: BatchADMMSetup, Q, Qs, Ls, Us,
                          X, Z, Y, alpha: float, eps_abs: float,
                          eps_rel: float, max_iter: int,
                          adaptive_rho: bool, expired) -> BatchQPResult:
    """Lane-decoupled batched ADMM (``lane_isolated=True``).

    Bit-exact lane isolation needs two departures from the compacted
    hot loop, both rooted in how BLAS rounds:

    * **No compaction.**  Removing a converged lane changes the GEMM
      shapes mid-solve, and a GEMM's blocking (hence its per-row
      rounding) depends on those shapes — so one lane's convergence
      *timing* perturbs every other live lane bitwise.  Here the
      tensors keep their full ``(S, ·)`` shape; converged lanes are
      frozen by *recording* their iterate and letting their rows keep
      iterating harmlessly (every elementwise op and fixed-shape GEMM
      is row-local).
    * **Per-lane rho.**  The shared adaptive penalty aggregates the
      residual balance across lanes (a geometric mean), so one faulted
      lane's residuals steer every lane's rho schedule.  Here each lane
      adapts its own penalty from its own residuals; the x-update runs
      one ``(n,) @ K(ρ_lane)⁻¹`` GEMV per lane — shape-constant per
      lane, therefore bitwise independent of every other lane.

    Per-lane penalties persist on ``setup.rho_lanes`` across solves
    (the same statefulness contract as the shared scalar rho), and the
    per-rho KKT inverses are memoised on the setup, so warm-started
    periods pay no refactorizations.
    """
    A_s = setup.A_s
    D, E, c = setup.D, setup.E, setup.c
    sigma = setup.sigma
    S, n = Qs.shape
    m = A_s.shape[0]
    pattern = setup.rho_pattern

    if setup.rho_lanes is not None and setup.rho_lanes.shape[0] == S:
        rho_l = setup.rho_lanes.copy()
    else:
        rho_l = np.full(S, setup.rho)
    rho_vec_l = rho_l[:, None] * pattern[None, :]
    rho_inv_l = 1.0 / rho_vec_l
    kinv_l = [setup.lane_kinv(r) for r in rho_l]

    iters = np.full(S, max_iter, dtype=int)
    converged = np.zeros(S, dtype=bool)
    frozen = np.zeros(S, dtype=bool)
    q_norm = np.max(np.abs(Q), axis=1) if n else np.zeros(S)
    Xf, Zf, Yf = X.copy(), Z.copy(), Y.copy()    # recorded lane outputs

    x, z, y = X, Z, Y
    bm = np.empty((S, m))
    bn = np.empty((S, n))
    bn2 = np.empty((S, n))
    it = 0
    out_of_time = False
    while not frozen.all() and it < max_iter:
        it += 1
        np.multiply(z, rho_vec_l, out=bm)
        bm -= y
        np.matmul(bm, A_s, out=bn)               # rhs = Aᵀ(ρz − y)
        np.multiply(x, sigma, out=bn2)
        bn += bn2
        bn -= Qs
        for i in range(S):                       # per-lane x̃ = K⁻¹ rhs
            np.matmul(bn[i], kinv_l[i], out=bn2[i])
        np.matmul(bn2, setup.A_sT, out=bm)       # z̃ = A x̃
        x *= 1.0 - alpha
        bn2 *= alpha
        x += bn2
        z *= 1.0 - alpha                         # z becomes z_relax below
        bm *= alpha
        z += bm
        np.multiply(y, rho_inv_l, out=bm)
        bm += z
        np.clip(bm, Ls, Us, out=bm)              # bm is z_next
        z -= bm                                  # z_relax − z_next
        z *= rho_vec_l
        y += z
        np.copyto(z, bm)

        if it % 5 == 0 or it == 1:
            r_prim, r_dual, prim_scale, dual_scale = _unscaled_residuals(
                setup, x, z, y, Q, q_norm)
            done = (r_prim <= eps_abs + eps_rel * prim_scale) & \
                (r_dual <= eps_abs + eps_rel * dual_scale)
            newly = done & ~frozen
            if np.any(newly):
                iters[newly] = it
                converged[newly] = True
                Xf[newly], Zf[newly], Yf[newly] = \
                    x[newly], z[newly], y[newly]
                frozen |= newly
            out_of_time = expired()
            if out_of_time:
                break
            if adaptive_rho and not frozen.all():
                for i in np.nonzero(~frozen)[0]:
                    num = r_prim[i] / max(prim_scale[i], 1e-12)
                    den = r_dual[i] / max(dual_scale[i], 1e-12)
                    ratio = float(np.sqrt(max(num, 1e-12)
                                          / max(den, 1e-12)))
                    new_rho = float(np.clip(rho_l[i] * ratio, 1e-6, 1e6))
                    if new_rho > 5.0 * rho_l[i] or \
                            new_rho < rho_l[i] / 5.0:
                        rho_l[i] = new_rho
                        rho_vec_l[i] = new_rho * pattern
                        rho_inv_l[i] = 1.0 / rho_vec_l[i]
                        kinv_l[i] = setup.lane_kinv(new_rho)
    strag = ~frozen
    if np.any(strag):       # stragglers keep their final iterate
        Xf[strag], Zf[strag], Yf[strag] = x[strag], z[strag], y[strag]
        iters[strag] = it
    setup.rho_lanes = rho_l

    Xo = Xf * D
    Yo = Yf * (E / c)
    PX = Xo @ P
    fun = 0.5 * np.einsum("sn,sn->s", Xo, PX) \
        + np.einsum("sn,sn->s", Q, Xo)
    return BatchQPResult(X=Xo, Y=Yo, fun=fun, iterations=iters,
                         converged=converged,
                         polished=np.zeros(S, dtype=bool),
                         deadline_exceeded=bool(out_of_time
                                                and np.any(strag)))
