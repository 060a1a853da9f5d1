"""Differential oracles: one problem, every solver, one verdict.

Solver rewrites (incremental KKT factorizations, warm starts) must not
change *answers*.  The oracle harness therefore takes a
captured :class:`~repro.verify.problems.QPProblem` or
:class:`~repro.verify.problems.LPProblem` and

1. solves it with **every** in-house backend — the active-set QP cold,
   the active-set QP warm-started from its own solution (exercising the
   incremental-KKT reuse path) and ADMM; for LPs the two-phase revised
   simplex,
2. solves it with an **external reference** — ``scipy.optimize.linprog``
   (HiGHS) for LPs, ``scipy.optimize.minimize(trust-constr)`` for QPs,
3. attaches a KKT :class:`~repro.verify.certificates.Certificate` to
   every in-house solution,

and asserts that all objective values agree to tolerance.  Objectives —
not iterates — are compared across backends because degenerate problems
have non-unique optimizers; the certificate pins down per-solution
optimality regardless.

Infeasibility must agree too: when the in-house solver reports an empty
feasible set, the scipy reference is asked the same question and a
disagreement is a finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import (
    ConvergenceError,
    InfeasibleProblemError,
    UnboundedProblemError,
)
from ..optim import boxed_constraints, linprog, solve_qp, solve_qp_admm
from .certificates import Certificate, check_kkt_lp, check_kkt_qp
from .problems import LPProblem, QPProblem

__all__ = ["BackendRun", "OracleReport", "cross_check_qp", "cross_check_lp",
           "cross_check"]

#: In-house QP backends exercised by :func:`cross_check_qp`.
QP_BACKENDS = ("active_set", "active_set_warm", "admm")


@dataclass
class BackendRun:
    """One backend's answer to a captured problem."""

    backend: str
    status: str = ""
    objective: float = np.nan
    x: np.ndarray | None = None
    certificate: Certificate | None = None
    error: str | None = None
    infeasible: bool = False

    @property
    def ok(self) -> bool:
        if self.error is not None:
            return False
        if self.infeasible:
            return True  # agreement on infeasibility is judged globally
        return self.certificate is None or self.certificate.ok


@dataclass
class OracleReport:
    """Verdict of a differential cross-check on one problem.

    ``agree`` covers both regimes: all solvers found the same objective
    (within tolerance), or all solvers agreed the problem is infeasible.
    ``ok`` additionally requires every in-house solution to carry a
    passing KKT certificate.
    """

    kind: str
    label: str
    runs: list[BackendRun] = field(default_factory=list)
    agree: bool = False
    objective_spread: float = np.nan
    reference_objective: float | None = None
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.agree and all(r.ok for r in self.runs)

    def failures(self) -> list[str]:
        out = []
        if not self.agree:
            out.append(f"disagreement: {self.message}")
        for r in self.runs:
            if r.error is not None:
                out.append(f"{r.backend}: {r.error}")
            elif r.certificate is not None and not r.certificate.ok:
                out.append(f"{r.backend}: certificate {r.certificate.message}")
        return out

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        tag = "OK" if self.ok else "FAIL"
        return (f"[{tag} {self.kind} {self.label or 'unlabelled'}] "
                f"spread={self.objective_spread:.3e} "
                + "; ".join(self.failures()))


def _rel_spread(values: list[float]) -> float:
    lo, hi = min(values), max(values)
    return (hi - lo) / (1.0 + abs(lo))


# ---------------------------------------------------------------------------
# QP
# ---------------------------------------------------------------------------
def _scipy_qp_reference(p: QPProblem) -> tuple[float | None, bool]:
    """(objective, infeasible) from scipy's trust-constr, or (None, False)
    when scipy could not produce a verdict."""
    from scipy.optimize import LinearConstraint, minimize

    constraints = []
    if p.A_eq is not None and p.A_eq.size:
        constraints.append(LinearConstraint(p.A_eq, p.b_eq, p.b_eq))
    if p.A_ineq is not None and p.A_ineq.size:
        constraints.append(
            LinearConstraint(p.A_ineq, -np.inf, p.b_ineq))
    P_sym = 0.5 * (p.P + p.P.T)
    res = minimize(
        lambda x: 0.5 * x @ P_sym @ x + p.q @ x,
        np.zeros(p.n),
        jac=lambda x: P_sym @ x + p.q,
        hess=lambda x: P_sym,
        method="trust-constr", constraints=constraints,
        options={"gtol": 1e-9, "xtol": 1e-12, "maxiter": 2000},
    )
    if not res.success and res.status not in (1, 2):  # pragma: no cover
        return None, False
    # trust-constr does not prove infeasibility; check the point it found.
    x = res.x
    feas = True
    if p.A_eq is not None and p.A_eq.size:
        feas &= bool(np.all(np.abs(p.A_eq @ x - p.b_eq)
                            <= 1e-5 * (1 + np.abs(p.b_eq))))
    if p.A_ineq is not None and p.A_ineq.size:
        feas &= bool(np.all(p.A_ineq @ x - p.b_ineq
                            <= 1e-5 * (1 + np.abs(p.b_ineq))))
    if not feas:
        return None, True
    return float(res.fun), False


def _scipy_feasibility(A_eq, b_eq, A_ineq, b_ineq, n: int) -> bool:
    """Is the polyhedron nonempty, per scipy's HiGHS phase-1?"""
    import scipy.optimize as sopt

    res = sopt.linprog(
        np.zeros(n), A_ub=A_ineq, b_ub=b_ineq, A_eq=A_eq, b_eq=b_eq,
        bounds=[(None, None)] * n, method="highs")
    return res.status == 0


def cross_check_qp(problem: QPProblem, obj_tol: float = 1e-4,
                   cert_tol: float = 1e-5,
                   scipy_reference: bool = True) -> OracleReport:
    """Differentially verify one QP across every backend.

    Parameters
    ----------
    problem:
        The captured QP.
    obj_tol:
        Relative tolerance on the cross-backend objective spread (the
        ADMM iterates carry ~1e-7 residuals, which on badly scaled
        problems moves the objective in the 1e-6..1e-5 range).
    cert_tol:
        Tolerance handed to :func:`check_kkt_qp` for the exact
        (active-set) solutions; the first-order ADMM solutions are
        certified at ``50×`` this tolerance.
    scipy_reference:
        Also solve with scipy's trust-constr and include it in the
        agreement check.
    """
    p = problem
    report = OracleReport(kind="qp", label=p.label)
    runs: dict[str, BackendRun] = {}

    def _add(name: str, **kw) -> BackendRun:
        run = BackendRun(backend=name, **kw)
        runs[name] = run
        report.runs.append(run)
        return run

    # -- active-set, cold --------------------------------------------------
    infeasible = False
    try:
        cold = solve_qp(p.P, p.q, A_eq=p.A_eq, b_eq=p.b_eq,
                        A_ineq=p.A_ineq, b_ineq=p.b_ineq)
        cert = check_kkt_qp(p.P, p.q, cold.x, p.A_eq, p.b_eq,
                            p.A_ineq, p.b_ineq, dual_eq=cold.dual_eq,
                            dual_ineq=cold.dual_ineq, tol=cert_tol)
        _add("active_set", status=cold.status, objective=cold.fun,
             x=cold.x, certificate=cert)
    except InfeasibleProblemError:
        infeasible = True
        cold = None
        _add("active_set", status="infeasible", infeasible=True)
    except (ConvergenceError, UnboundedProblemError) as exc:
        cold = None
        _add("active_set", error=f"{type(exc).__name__}: {exc}")

    if infeasible:
        # Infeasibility claims are checked against scipy's phase-1; the
        # remaining backends cannot detect infeasibility and are skipped.
        if scipy_reference:
            feasible = _scipy_feasibility(p.A_eq, p.b_eq,
                                          p.A_ineq, p.b_ineq, p.n)
            report.agree = not feasible
            report.message = ("" if report.agree else
                              "active_set says infeasible, scipy found a "
                              "feasible point")
        else:
            report.agree = True
        report.objective_spread = 0.0
        return report

    # -- active-set, warm-started from its own solution --------------------
    if cold is not None:
        try:
            warm = solve_qp(p.P, p.q, A_eq=p.A_eq, b_eq=p.b_eq,
                            A_ineq=p.A_ineq, b_ineq=p.b_ineq,
                            x0=cold.x, working_set0=cold.working_set)
            cert = check_kkt_qp(p.P, p.q, warm.x, p.A_eq, p.b_eq,
                                p.A_ineq, p.b_ineq, dual_eq=warm.dual_eq,
                                dual_ineq=warm.dual_ineq, tol=cert_tol)
            _add("active_set_warm", status=warm.status, objective=warm.fun,
                 x=warm.x, certificate=cert)
        except (ConvergenceError, InfeasibleProblemError) as exc:
            _add("active_set_warm", error=f"{type(exc).__name__}: {exc}")

    # -- ADMM --------------------------------------------------------------
    A, low, high = boxed_constraints(p.n, p.A_eq, p.b_eq, p.A_ineq, p.b_ineq)
    try:
        res = solve_qp_admm(p.P, p.q, A, low, high)
        if res.status != "optimal":
            _add("admm", status=res.status,
                 error=f"ADMM did not converge ({res.message})")
        else:
            # First-order method: certify at a looser tolerance, and let
            # the checker recover multipliers (the boxed dual has a
            # different shape than the eq/ineq split).
            cert = check_kkt_qp(p.P, p.q, res.x, p.A_eq, p.b_eq,
                                p.A_ineq, p.b_ineq, tol=50 * cert_tol)
            _add("admm", status=res.status, objective=res.fun, x=res.x,
                 certificate=cert)
    except (ConvergenceError, np.linalg.LinAlgError) as exc:
        _add("admm", error=f"{type(exc).__name__}: {exc}")

    # -- scipy reference ---------------------------------------------------
    if scipy_reference:
        ref_obj, ref_infeasible = _scipy_qp_reference(p)
        if ref_infeasible:
            _add("scipy_trust_constr",
                 error="scipy ended infeasible where in-house solvers "
                       "found a feasible optimum")
        elif ref_obj is not None:
            report.reference_objective = ref_obj
            _add("scipy_trust_constr", status="optimal", objective=ref_obj)

    objectives = [r.objective for r in report.runs
                  if r.error is None and np.isfinite(r.objective)]
    if len(objectives) >= 2:
        report.objective_spread = _rel_spread(objectives)
        report.agree = report.objective_spread <= obj_tol
        if not report.agree:
            pairs = ", ".join(f"{r.backend}={r.objective:.9g}"
                              for r in report.runs if r.error is None)
            report.message = (f"objective spread "
                              f"{report.objective_spread:.3e} > {obj_tol:g} "
                              f"({pairs})")
    elif objectives:
        report.objective_spread = 0.0
        report.agree = True
    else:
        report.message = "no backend produced a solution"
    return report


# ---------------------------------------------------------------------------
# LP
# ---------------------------------------------------------------------------
def cross_check_lp(problem: LPProblem, obj_tol: float = 1e-6,
                   cert_tol: float = 1e-6,
                   scipy_reference: bool = True) -> OracleReport:
    """Differentially verify one LP: in-house simplex vs scipy HiGHS.

    Objectives are compared (LP optimizers are routinely non-unique);
    the in-house solution additionally gets a KKT certificate with
    NNLS-recovered multipliers.
    """
    p = problem
    report = OracleReport(kind="lp", label=p.label)
    ours_infeasible = ours_unbounded = False
    try:
        res = linprog(p.c, A_ub=p.A_ub, b_ub=p.b_ub, A_eq=p.A_eq,
                      b_eq=p.b_eq, bounds=p.bounds)
        cert = check_kkt_lp(p.c, res.x, A_ub=p.A_ub, b_ub=p.b_ub,
                            A_eq=p.A_eq, b_eq=p.b_eq, bounds=p.bounds,
                            tol=cert_tol)
        report.runs.append(BackendRun(
            backend="simplex", status=res.status, objective=res.fun,
            x=res.x, certificate=cert))
    except InfeasibleProblemError:
        ours_infeasible = True
        report.runs.append(BackendRun(backend="simplex",
                                      status="infeasible", infeasible=True))
    except (UnboundedProblemError, ConvergenceError) as exc:
        ours_unbounded = isinstance(exc, UnboundedProblemError)
        if not ours_unbounded:
            report.runs.append(BackendRun(
                backend="simplex", error=f"{type(exc).__name__}: {exc}"))
        else:
            report.runs.append(BackendRun(backend="simplex",
                                          status="unbounded"))

    if not scipy_reference:
        report.agree = not any(r.error for r in report.runs)
        report.objective_spread = 0.0
        return report

    import scipy.optimize as sopt

    bounds = p.bounds
    if bounds is not None and len(bounds) == 2 \
            and not hasattr(bounds[0], "__len__"):
        bounds = [tuple(bounds)] * p.n
    ref = sopt.linprog(p.c, A_ub=p.A_ub, b_ub=p.b_ub, A_eq=p.A_eq,
                       b_eq=p.b_eq, bounds=bounds, method="highs")
    if ours_infeasible or ref.status == 2:
        report.agree = ours_infeasible and ref.status == 2
        report.objective_spread = 0.0
        if not report.agree:
            report.message = (f"infeasibility disagreement: "
                              f"simplex={'infeasible' if ours_infeasible else 'solved'}, "
                              f"scipy status={ref.status}")
        return report
    if ours_unbounded or ref.status == 3:
        report.agree = ours_unbounded and ref.status == 3
        report.objective_spread = 0.0
        if not report.agree:
            report.message = (f"unboundedness disagreement: "
                              f"simplex={'unbounded' if ours_unbounded else 'solved'}, "
                              f"scipy status={ref.status}")
        return report
    if ref.status != 0:  # pragma: no cover - HiGHS numerical failure
        report.agree = True
        report.message = f"scipy reference unusable (status {ref.status})"
        return report

    report.reference_objective = float(ref.fun)
    report.runs.append(BackendRun(backend="scipy_highs", status="optimal",
                                  objective=float(ref.fun), x=ref.x))
    objectives = [r.objective for r in report.runs
                  if r.error is None and np.isfinite(r.objective)]
    report.objective_spread = _rel_spread(objectives)
    report.agree = report.objective_spread <= obj_tol
    if not report.agree:
        report.message = (f"objective spread {report.objective_spread:.3e} "
                          f"> {obj_tol:g}")
    return report


def cross_check(problem: QPProblem | LPProblem, **kwargs) -> OracleReport:
    """Dispatch on problem type."""
    if isinstance(problem, QPProblem):
        return cross_check_qp(problem, **kwargs)
    if isinstance(problem, LPProblem):
        return cross_check_lp(problem, **kwargs)
    raise TypeError(f"expected QPProblem or LPProblem, got {type(problem)}")
