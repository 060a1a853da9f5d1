"""Incremental linear-algebra kernels for the active-set QP.

The paper's fast loop solves one condensed MPC QP per control period.
Its working set changes by a row or two between iterations and between
periods, so this module keeps the KKT factorizations incremental and
reusable instead of refactoring them in O(n³):

``UpdatableCholesky``
    A Cholesky factor ``M = L Lᵀ`` that supports rank-one *update*
    (``M + v vᵀ``), rank-one *downdate* (``M − v vᵀ``), bordered
    *extension* (append one row/column) and *deletion* (remove one
    row/column) — each in O(n²) instead of an O(n³) refactorization.
    Downdates and extensions can destroy positive definiteness (dependent
    constraint rows, round-off); those raise
    :class:`~repro.exceptions.FactorizationError` so callers can fall back
    to a fresh factorization.

``IncrementalKKT``
    The range-space (Schur-complement) KKT stepper behind the active-set
    QP.  ``P`` is factored once per solve; the working-set Schur
    complement ``S = A_w P⁻¹ A_wᵀ`` is kept factored *incrementally* as
    constraints enter and leave the working set, so each working-set
    change costs O(n²) instead of the dense O((n+m)³) KKT solve per
    iteration.  A diagonal condition estimate guards against drift: when
    it trips, the caller refactorizes from scratch.

``KKTFactorCache``
    Keeps the factored :class:`IncrementalKKT` across the receding-
    horizon loop's solves, which share their constraint matrices.

All kernels are cross-validated against dense numpy/scipy paths in
``tests/test_optim_linalg.py``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from ..exceptions import FactorizationError

__all__ = ["UpdatableCholesky", "IncrementalKKT", "KKTFactorCache"]


class UpdatableCholesky:
    """Lower-triangular Cholesky factor with O(n²) modifications.

    Parameters
    ----------
    M:
        Symmetric positive-definite matrix to factor.  Only the lower
        triangle is referenced.

    Raises
    ------
    FactorizationError
        When ``M`` is not positive definite (also from :meth:`update`,
        :meth:`downdate`, :meth:`append` and :meth:`delete` when the
        modified matrix would not be).
    """

    #: relative floor on a pivot before the factor is declared indefinite.
    _PIVOT_RTOL = 1e-13

    def __init__(self, M) -> None:
        M = np.atleast_2d(np.asarray(M, dtype=float))
        try:
            self.L = np.linalg.cholesky(0.5 * (M + M.T))
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(
                f"matrix is not positive definite: {exc}") from exc

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.L.shape[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``M x = b`` via two triangular solves (O(n²))."""
        b = np.asarray(b, dtype=float)
        y = sla.solve_triangular(self.L, b, lower=True)
        return sla.solve_triangular(self.L.T, y, lower=False)

    def solve_half(self, b: np.ndarray) -> np.ndarray:
        """Solve ``L w = b`` only (one forward substitution)."""
        return sla.solve_triangular(self.L, np.asarray(b, dtype=float),
                                    lower=True)

    def diag_condition(self) -> float:
        """Cheap condition estimate: ``(max diag(L) / min diag(L))²``.

        The true 2-norm condition number is bounded below by this ratio;
        it is exact for diagonal matrices and a standard O(n) trigger for
        refactorization in updated factors.
        """
        d = np.abs(np.diag(self.L))
        lo = float(d.min())
        if lo == 0.0:
            return np.inf
        return float((d.max() / lo) ** 2)

    # ------------------------------------------------------------------
    def update(self, v: np.ndarray) -> None:
        """Rank-one update: refactor ``M + v vᵀ`` in place (O(n²)).

        Uses the LINPACK ``dchud`` Givens sweep; an update of a positive
        definite matrix is always positive definite, so this cannot fail.
        """
        L = self.L
        v = np.asarray(v, dtype=float).copy()
        n = self.n
        for k in range(n):
            lkk = L[k, k]
            r = float(np.hypot(lkk, v[k]))
            c = r / lkk
            s = v[k] / lkk
            L[k, k] = r
            if k + 1 < n:
                L[k + 1:, k] = (L[k + 1:, k] + s * v[k + 1:]) / c
                v[k + 1:] = c * v[k + 1:] - s * L[k + 1:, k]

    def downdate(self, v: np.ndarray) -> None:
        """Rank-one downdate: refactor ``M − v vᵀ`` in place (O(n²)).

        Raises :class:`FactorizationError` — leaving the factor untouched
        — when the downdated matrix is indefinite or numerically on the
        edge; callers should then refactorize the explicit matrix.
        """
        L = self.L.copy()
        v = np.asarray(v, dtype=float).copy()
        n = self.n
        for k in range(n):
            lkk = L[k, k]
            r2 = lkk * lkk - v[k] * v[k]
            if r2 <= (self._PIVOT_RTOL * lkk) ** 2 or not np.isfinite(r2):
                raise FactorizationError(
                    "rank-one downdate leaves the matrix indefinite "
                    f"(pivot {k}: {r2:.3e})")
            r = float(np.sqrt(r2))
            c = r / lkk
            s = v[k] / lkk
            L[k, k] = r
            if k + 1 < n:
                L[k + 1:, k] = (L[k + 1:, k] - s * v[k + 1:]) / c
                v[k + 1:] = c * v[k + 1:] - s * L[k + 1:, k]
        self.L = L

    # ------------------------------------------------------------------
    def append(self, col: np.ndarray, diag: float) -> None:
        """Extend the factor for the bordered matrix ``[[M, c], [cᵀ, d]]``.

        O(n²): one forward solve plus a square root.  Raises
        :class:`FactorizationError` when the bordered matrix is not
        positive definite (``c`` dependent on the existing rows).
        """
        col = np.asarray(col, dtype=float).ravel()
        if col.size != self.n:
            raise ValueError(f"border column must have {self.n} entries")
        w = self.solve_half(col) if self.n else np.zeros(0)
        d2 = float(diag) - float(w @ w)
        if d2 <= self._PIVOT_RTOL * max(abs(float(diag)), 1.0):
            raise FactorizationError(
                f"bordered extension is not positive definite ({d2:.3e})")
        n = self.n
        L_new = np.zeros((n + 1, n + 1))
        L_new[:n, :n] = self.L
        L_new[n, :n] = w
        L_new[n, n] = np.sqrt(d2)
        self.L = L_new

    def delete(self, index: int) -> None:
        """Remove row/column ``index`` from the factored matrix (O(n²)).

        Deleting a principal row/column of an SPD matrix keeps it SPD, so
        this cannot fail: the trailing block absorbs the removed column
        through a (always-definite) rank-one update.
        """
        n = self.n
        if not 0 <= index < n:
            raise ValueError(f"index {index} out of range for n={n}")
        L = self.L
        # Partition at the deleted index: the leading block and the
        # off-diagonal strip survive unchanged; the trailing factor must
        # absorb the deleted column l32 as a rank-one update.
        l32 = L[index + 1:, index].copy()
        keep = np.concatenate([np.arange(index), np.arange(index + 1, n)])
        L_new = L[np.ix_(keep, keep)].copy()
        self.L = L_new
        if l32.size:
            tail = UpdatableCholesky.__new__(UpdatableCholesky)
            tail.L = self.L[index:, index:]
            tail.update(l32)  # writes through the view

    def matrix(self) -> np.ndarray:
        """Reconstruct the factored matrix ``L Lᵀ`` (for validation)."""
        return self.L @ self.L.T


class IncrementalKKT:
    """Incrementally factored KKT stepper for the active-set QP.

    Solves, for the current working-set matrix ``A_w`` (equalities first,
    then active inequalities in insertion order)::

        minimize 0.5 pᵀ P p + gᵀ p   s.t.  A_w p = 0

    via the range-space method: with ``h = −P⁻¹ g`` and
    ``S = A_w P⁻¹ A_wᵀ``, the multipliers solve ``S λ = A_w h`` and the
    step is ``p = h − P⁻¹A_wᵀ λ``.  ``P`` is factored once; ``S`` is kept
    factored across working-set changes through bordered extensions
    (constraint enters) and deletions (constraint leaves), each O(n²+m²).

    ``updates`` counts incremental O(n²) working-set changes;
    ``refactorizations`` counts from-scratch rebuilds of the ``S`` factor
    (initial build, condition-guard trips, recovery after a failed
    extension).  The ratio is the observable evidence that the
    incremental path engages.
    """

    def __init__(self, P: np.ndarray, cond_limit: float = 1e12) -> None:
        self._Pfac = UpdatableCholesky(P)
        self.cond_limit = float(cond_limit)
        self.updates = 0
        self.refactorizations = 0
        self._rows = np.zeros((0, self._Pfac.n))   # A_w, row-major
        self._B = np.zeros((self._Pfac.n, 0))      # P⁻¹ A_wᵀ, column per row
        self._S: UpdatableCholesky | None = None

    @property
    def n_rows(self) -> int:
        return self._rows.shape[0]

    def solve_P(self, b: np.ndarray) -> np.ndarray:
        """Solve ``P x = b`` against the cached factor."""
        return self._Pfac.solve(b)

    # ------------------------------------------------------------------
    def set_rows(self, rows: np.ndarray) -> None:
        """Refactor the Schur complement for a whole new working set.

        Raises :class:`FactorizationError` when the rows are (numerically)
        dependent — the caller should then use a dense fallback step.
        """
        rows = np.asarray(rows, dtype=float).reshape(-1, self._Pfac.n)
        self.refactorizations += 1
        if rows.shape[0] == 0:
            self._rows = rows
            self._B = np.zeros((self._Pfac.n, 0))
            self._S = None
            return
        B = self._Pfac.solve(rows.T)
        S = rows @ B
        fac = UpdatableCholesky(S)  # may raise
        self._rows, self._B, self._S = rows, B, fac

    def add_row(self, a: np.ndarray) -> None:
        """Activate one constraint row (O(n²) bordered extension).

        On :class:`FactorizationError` (dependent row) the state is left
        unchanged and the error propagates.
        """
        a = np.asarray(a, dtype=float).ravel()
        b = self._Pfac.solve(a)
        if self.n_rows == 0:
            self._S = UpdatableCholesky([[float(a @ b)]])
        else:
            self._S.append(self._rows @ b, float(a @ b))  # may raise
        self._rows = np.vstack([self._rows, a])
        self._B = np.hstack([self._B, b[:, None]])
        self.updates += 1
        self._check_condition()

    def remove_row(self, pos: int) -> None:
        """Deactivate the constraint at position ``pos`` (O(m²))."""
        self._S.delete(pos)
        keep = [i for i in range(self.n_rows) if i != pos]
        self._rows = self._rows[keep]
        self._B = self._B[:, keep]
        if self.n_rows == 0:
            self._S = None
        self.updates += 1
        self._check_condition()

    def _check_condition(self) -> None:
        if self._S is not None and self._S.diag_condition() > self.cond_limit:
            # Drift guard: rebuild the Schur factor from the explicit
            # matrix.  May raise FactorizationError on true degeneracy,
            # which the solver turns into a dense fallback step.
            self.set_rows(self._rows)

    # ------------------------------------------------------------------
    def step(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(p, λ)`` for the equality-constrained subproblem.

        One pass of iterative refinement (O(n²), same factors) follows the
        range-space solve: the Schur complement squares the conditioning
        of ``P``, and the refinement restores dense-KKT-level accuracy on
        the ill-scaled Hessians the softened MPC produces.
        """
        g = np.asarray(g, dtype=float)
        h = self._Pfac.solve(-g)
        if self.n_rows == 0:
            return h, np.empty(0)
        A, B = self._rows, self._B
        lam = self._S.solve(A @ h)
        p = h - B @ lam
        # Refinement: residuals of  P p + Aᵀλ = −g,  A p = 0.
        Pp = self._Pfac.L @ (self._Pfac.L.T @ p)
        res1 = Pp + g + A.T @ lam
        res2 = A @ p
        h2 = self._Pfac.solve(-res1)
        dlam = self._S.solve(A @ h2 + res2)
        p = p + h2 - B @ dlam
        lam = lam + dlam
        return p, lam


class KKTFactorCache:
    """Reusable :class:`IncrementalKKT` state across active-set solves.

    In a receding-horizon loop consecutive QPs share ``(P, A_eq,
    A_ineq)`` — only the right-hand sides move — and the warm-started
    working set usually matches the previous optimum's exactly.  Caching
    the factored KKT object then skips both the O(n³) Cholesky of ``P``
    *and* the Schur-complement rebuild: a warm solve does no
    factorization work at all, only O(n²) updates when the active set
    actually drifts.  Matrices are compared by value (O(n²) — negligible
    against refactorization), so callers need not track identity.
    """

    def __init__(self) -> None:
        self._P: np.ndarray | None = None
        self._A_eq: np.ndarray | None = None
        self._A_ineq: np.ndarray | None = None
        self._kkt: IncrementalKKT | None = None
        self._rows_key: tuple | None = None
        self.hits = 0
        self.misses = 0

    def lookup(self, P: np.ndarray, A_eq: np.ndarray, A_ineq: np.ndarray
               ) -> tuple[IncrementalKKT, tuple] | None:
        """Return ``(kkt, rows_key)`` when the problem matrices match."""
        if (self._kkt is not None
                and self._P.shape == P.shape and np.array_equal(self._P, P)
                and self._A_eq.shape == A_eq.shape
                and np.array_equal(self._A_eq, A_eq)
                and self._A_ineq.shape == A_ineq.shape
                and np.array_equal(self._A_ineq, A_ineq)):
            self.hits += 1
            return self._kkt, self._rows_key
        self.misses += 1
        return None

    def store(self, P: np.ndarray, A_eq: np.ndarray, A_ineq: np.ndarray,
              kkt: IncrementalKKT, rows_key: tuple) -> None:
        self._P = P.copy()
        self._A_eq = A_eq.copy()
        self._A_ineq = A_ineq.copy()
        self._kkt = kkt
        self._rows_key = rows_key
