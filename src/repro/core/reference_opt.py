"""Optimal-allocation reference (Sec. IV-D, following Rao et al. 2010).

The MPC tracks references derived from the per-step cost-minimizing
linear program

    min_{m, λ}  Σ_j Pr_j · P_j(λ_j, m_j) = Σ_j Pr_j (b1_j λ_j + b0_j m_j)

subject to workload conservation (eq. 2), the latency bound (eq. 15,
linearized as ``λ_j ≤ μ_j m_j − 1/D_j``), fleet bounds ``0 ≤ m_j ≤ M_j``
and ``λ ≥ 0`` — with ``m`` relaxed to be continuous and ceiled
afterwards, exactly as the paper's optimal baseline does.

Optionally, per-IDC power-budget rows ``b1_j λ_j + b0_j m_j ≤ P^b_j``
are added (budget-aware variant, an extension the ablation benchmarks
compare with the paper's reference-clamping rule).

The LP is solved two ways:

* :class:`Waterfill` is its closed form for the per-IDC totals ``λ_j``,
  budgets included (they are workload caps).  It is the MPC's reference
  on every path, scalar and batched.
* :func:`solve_optimal_allocation` runs the package's own revised
  simplex and returns the per-portal split.  It is the optimal
  baseline, the MPC's period-0 warm start, the fallback ladder's
  reference rung and the oracle the closed form is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datacenter.cluster import IDCCluster
from ..exceptions import InfeasibleProblemError, ModelError
from ..optim import linprog
from .constraints import capacity_matrix, conservation_matrix

__all__ = ["OptimalAllocation", "BatchOptimalAllocation", "Waterfill",
           "solve_optimal_allocation", "solve_optimal_allocation_batch"]


@dataclass
class OptimalAllocation:
    """Solution of the reference LP.

    Attributes
    ----------
    u:
        Flat allocation vector (IDC-grouped ordering).
    lambda_matrix:
        The ``(C, N)`` allocation matrix ``λ_ij``.
    servers_continuous:
        Relaxed server counts from the LP.
    servers:
        Integer server counts after ceiling (what the plant applies).
    idc_workloads:
        Per-IDC totals ``λ_j``.
    powers_watts:
        Per-IDC power with the *integer* server counts.
    powers_watts_relaxed:
        Per-IDC power with the relaxed counts (the LP's own optimum).
    cost_rate_usd_per_hour:
        Σ_j Pr_j · P_j in $/h (prices $/MWh × power MW).
    """

    u: np.ndarray
    lambda_matrix: np.ndarray
    servers_continuous: np.ndarray
    servers: np.ndarray
    idc_workloads: np.ndarray
    powers_watts: np.ndarray
    powers_watts_relaxed: np.ndarray
    cost_rate_usd_per_hour: float


def solve_optimal_allocation(cluster: IDCCluster, prices: np.ndarray,
                             loads: np.ndarray,
                             budgets_watts: np.ndarray | None = None,
                             available: np.ndarray | None = None
                             ) -> OptimalAllocation:
    """Solve the instantaneous cost-minimization LP.

    Parameters
    ----------
    cluster:
        The IDC cluster (provides b-coefficients, μ, D, fleet sizes).
    prices:
        Per-IDC electricity prices in $/MWh (must be positive for the
        problem to be well posed — zero prices make servers free).
    loads:
        Portal workloads ``[L₁, …, L_C]`` in requests/second.
    budgets_watts:
        Optional per-IDC peak-power budgets added as LP rows (entries of
        ``None``/``inf`` mean unconstrained).
    available:
        Optional per-IDC available servers (default: the cluster's).

    Raises
    ------
    InfeasibleProblemError
        When the workload cannot be served within capacity (or within
        the budgets in the budget-aware variant).
    """
    n, c = cluster.n_idcs, cluster.n_portals
    prices = np.asarray(prices, dtype=float).ravel()
    loads = np.asarray(loads, dtype=float).ravel()
    if prices.size != n:
        raise ModelError(f"need {n} prices, got {prices.size}")
    if loads.size != c:
        raise ModelError(f"need {c} portal loads, got {loads.size}")
    if np.any(loads < 0):
        raise ModelError("portal workloads cannot be negative")

    wf = Waterfill(cluster, available)
    b1, b0, mu, inv_d, fleet = wf.b1, wf.b0, wf.mu, wf.inv_d, wf.fleet

    nvar = n * c + n  # [U, m]
    cost = np.zeros(nvar)
    for j in range(n):
        cost[j * c:(j + 1) * c] = prices[j] * b1[j]
        cost[n * c + j] = prices[j] * b0[j]

    # equality: H U = loads
    H = conservation_matrix(cluster)
    A_eq = np.hstack([H, np.zeros((c, n))])
    b_eq = loads

    # inequality: Psi U - mu_j m_j <= -1/D_j; an IDC with no available
    # servers has 1/D_j = 0 (Waterfill.inv_d), so its row reads
    # Psi_j U <= 0: it serves nothing
    Psi = capacity_matrix(cluster)
    A_ub = np.hstack([Psi, -np.diag(mu)])
    b_ub = -inv_d

    if budgets_watts is not None:
        budgets = np.asarray(
            [np.inf if b is None else float(b) for b in budgets_watts],
            dtype=float)
        if budgets.size != n:
            raise ModelError(f"need {n} budgets, got {budgets.size}")
        rows = []
        rhs = []
        for j in range(n):
            if np.isfinite(budgets[j]):
                row = np.zeros(nvar)
                row[j * c:(j + 1) * c] = b1[j]
                row[n * c + j] = b0[j]
                rows.append(row)
                rhs.append(budgets[j])
        if rows:
            A_ub = np.vstack([A_ub, np.array(rows)])
            b_ub = np.concatenate([b_ub, np.array(rhs)])

    bounds = [(0.0, None)] * (n * c) + [
        (0.0, float(fleet[j])) for j in range(n)
    ]

    try:
        res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                      bounds=bounds)
    except InfeasibleProblemError as exc:
        raise InfeasibleProblemError(
            "reference LP infeasible — offered workload exceeds the "
            "latency-bounded capacity (or the power budgets)"
        ) from exc
    if not res.success:
        raise InfeasibleProblemError(
            f"reference LP did not reach optimality: {res.status}")

    u = np.maximum(res.x[:n * c], 0.0)
    m_cont = res.x[n * c:]
    m_int = np.minimum(np.ceil(m_cont - 1e-9), fleet).astype(int)
    lam = cluster.idc_workloads(u)
    powers_int = b1 * lam + b0 * m_int
    powers_relaxed = b1 * lam + b0 * m_cont
    cost_rate = float(np.sum(prices * powers_int) / 1e6)  # $/MWh × MW = $/h

    return OptimalAllocation(
        u=u,
        lambda_matrix=cluster.vector_to_matrix(u),
        servers_continuous=m_cont,
        servers=m_int,
        idc_workloads=lam,
        powers_watts=powers_int,
        powers_watts_relaxed=powers_relaxed,
        cost_rate_usd_per_hour=cost_rate,
    )


class Waterfill:
    """The reference LP's optimum in closed form, per IDC only.

    With the latency constraint active at the optimum (``μ_j m_j = λ_j +
    1/D_j`` — idle servers cost money), eliminating ``m`` leaves the
    effective cost rate ``Pr_j (b1_j + b0_j/μ_j)`` per unit workload,
    and the reference LP reduces to *waterfilling* each scenario's total
    offered load into the IDCs in increasing effective-cost order, up to
    each IDC's capacity ``μ_j M_j − 1/D_j``.  This reproduces the
    simplex solution's per-IDC totals ``λ_j`` (and hence the reference
    powers) to solver precision.

    Power budgets are caps too: at the active latency bound the budget
    row ``b1_j λ_j + b0_j m_j ≤ P^b_j`` reads ``λ_j ≤ (P^b_j −
    b0_j/(μ_j D_j)) / (b1_j + b0_j/μ_j)``, so the budgeted LP is the same
    fill under the smaller of the two caps (:meth:`budget_caps`).
    :meth:`reference_powers_watts` is the MPC's reference on every path,
    scalar and batched, with both budget modes.

    The fleet's clearing bids, the MPC's reference powers and the LP
    chasers' draw need only ``λ`` — not the per-portal split — so this
    computes just that.  :func:`solve_optimal_allocation_batch` builds
    on it, so the two agree bit for bit.  The *available* fleet is
    ``available`` — ``(N,)`` for every row, or ``(R, N)`` per row — or
    else the cluster's.
    """

    def __init__(self, cluster: IDCCluster,
                 available: np.ndarray | None = None) -> None:
        idcs = cluster.idcs
        self.b1 = np.array([idc.config.power_model.b1 for idc in idcs])
        self.b0 = np.array([idc.config.power_model.b0 for idc in idcs])
        self.mu = np.array([idc.config.service_rate for idc in idcs])
        latency = np.array([idc.config.latency_bound for idc in idcs])
        self.fleet = np.array([idc.available_servers for idc in idcs]
                              if available is None else available, dtype=float)
        # An IDC with no available servers serves nothing, so it holds
        # no server at the latency bound: its 1/D_j and idle power are 0.
        live = self.fleet > 0
        self.inv_d = live / latency
        #: workload capacity per IDC
        self.caps = np.maximum(self.mu * self.fleet - self.inv_d, 0.0)
        #: effective cost per unit workload, per unit price
        self.rate = self.b1 + self.b0 / self.mu
        #: power of an idle IDC held at the latency bound, b0/(μD)
        self.idle_watts = live * self.b0 / (self.mu * latency)

    def order(self, prices: np.ndarray) -> np.ndarray:
        """IDC indices, cheapest first, along the last axis of ``prices``."""
        return np.argsort(prices * self.rate, axis=-1, kind="stable")

    def budget_caps(self, budgets_watts: np.ndarray,
                    margin_servers: float = 0.0) -> np.ndarray:
        """Per-IDC workload ceilings equivalent to the power budgets.

        ``(P^b_j − b0_j/(μ_j D_j) − margin·b0_j) / (b1_j + b0_j/μ_j)``;
        ``margin_servers`` reserves power for that many extra servers
        (the integer ceiling the plant applies).  Infinite budgets give
        infinite caps; a negative cap means the budget cannot even hold
        the IDC idle at the latency bound.
        """
        with np.errstate(divide="ignore"):
            return (budgets_watts - (self.idle_watts
                                     + margin_servers * self.b0)) / self.rate

    def _fill(self, prices: np.ndarray, totals: np.ndarray,
              caps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(λ, remaining)``: the fill under ``caps`` and each row's load
        left over once every IDC is at its cap."""
        remaining = np.asarray(totals, dtype=float)
        order = self.order(np.asarray(prices, dtype=float))
        lam = np.zeros((remaining.shape[0], caps.shape[-1]))
        if caps.ndim == 2:
            caps = caps.T             # per-row caps, one row per IDC
        if order.ndim == 1:
            for j in order:
                take = np.minimum(remaining, caps[j])
                lam[:, j] = take
                remaining = remaining - take
        else:
            rows = np.arange(lam.shape[0])
            for j in order.T:
                take = np.minimum(remaining,
                                  caps[j] if caps.ndim == 1 else caps[j, rows])
                lam[rows, j] = take
                remaining = remaining - take
        return lam, remaining

    def workloads(self, prices: np.ndarray, totals: np.ndarray,
                  budgets_watts: np.ndarray | None = None) -> np.ndarray:
        """Per-IDC totals ``λ``, shape ``(S, N)``.

        ``prices`` is per lane ``(S, N)`` or one shared row ``(N,)`` (a
        cleared market, whose single cost order serves every lane);
        ``totals`` is each lane's offered load, ``(S,)``.  With
        ``budgets_watts`` (``inf`` = none) this solves the budgeted LP.

        Raises
        ------
        InfeasibleProblemError
            When any lane's total load exceeds the fleet capacity (or
            the capacity within the budgets).
        """
        caps = self.caps if budgets_watts is None else \
            np.minimum(self.caps, self.budget_caps(budgets_watts))
        if np.any(caps < 0):
            raise InfeasibleProblemError(
                "a power budget is below its IDC's idle power at the "
                "latency bound")
        lam, remaining = self._fill(prices, totals, caps)
        if np.any(remaining > 1e-6):
            bad = int(np.argmax(remaining))
            raise InfeasibleProblemError(
                f"scenario {bad}: offered workload exceeds the "
                "latency-bounded capacity by "
                f"{float(remaining[bad]):.1f} req/s")
        return lam

    def reference_powers_watts(self, prices: np.ndarray, totals: np.ndarray,
                               budgets_watts: np.ndarray,
                               budget_mode: str) -> np.ndarray:
        """The MPC's budget-handled reference powers (W), shape ``(S, N)``.

        ``budget_mode="clamp"`` is the paper's rule: the budget-free
        optimum clamped at the budgets.  ``"lp"`` is the budgeted LP's
        optimum; a row whose load the budget caps cannot carry (the LP
        is infeasible there) falls back to the clamp.

        Raises
        ------
        InfeasibleProblemError
            When any row's load exceeds the fleet capacity.
        """
        powers = self.powers_watts(self.workloads(prices, totals))
        if not np.any(np.isfinite(budgets_watts)):
            return powers
        clamped = np.minimum(powers, budgets_watts)
        if budget_mode == "clamp":
            return clamped
        caps = np.minimum(self.caps, self.budget_caps(budgets_watts))
        if np.any(caps < 0):
            return clamped
        lam, remaining = self._fill(prices, totals, caps)
        return np.where((remaining <= 1e-6)[:, None],
                        self.powers_watts(lam), clamped)

    def servers(self, lam: np.ndarray) -> np.ndarray:
        """Relaxed server counts at the active latency bound."""
        return (lam + self.inv_d) / self.mu

    def powers_watts(self, lam: np.ndarray) -> np.ndarray:
        """Per-IDC power (W) at the relaxed server counts."""
        return self.b1 * lam + self.b0 * self.servers(lam)


@dataclass
class BatchOptimalAllocation:
    """Stacked reference optima for ``S`` scenarios (see the batch solver).

    Every array carries the scenario axis first: ``u`` is ``(S, N·C)``,
    ``idc_workloads``/``servers_continuous``/``servers``/
    ``powers_watts_relaxed`` are ``(S, N)``.
    """

    u: np.ndarray
    idc_workloads: np.ndarray
    servers_continuous: np.ndarray
    servers: np.ndarray
    powers_watts_relaxed: np.ndarray


def solve_optimal_allocation_batch(cluster: IDCCluster, prices: np.ndarray,
                                   loads: np.ndarray,
                                   available: np.ndarray | None = None
                                   ) -> BatchOptimalAllocation:
    """Vectorized reference optimum for ``S`` (prices, loads) scenarios.

    The per-IDC totals come from the closed-form :class:`Waterfill` — a
    few vectorized passes over an ``(S, N)`` tensor instead of ``S``
    simplex solves.  Callers that need only those totals (or the
    powers) should use :class:`Waterfill` directly; this adds the
    per-portal split and the integer server counts.

    The per-portal split of ``u`` fills portals in index order within
    the cost order.  A vertex LP solution may split differently among
    equal-cost routings; all such splits share the same ``λ_j`` totals
    and therefore the same powers, costs, and server counts.
    ``available`` is each scenario's available fleet, ``(N,)`` or
    ``(S, N)`` (default: the cluster's).

    Raises
    ------
    InfeasibleProblemError
        When any scenario's total load exceeds the fleet capacity.
    """
    n, c = cluster.n_idcs, cluster.n_portals
    prices = np.atleast_2d(np.asarray(prices, dtype=float))
    loads = np.atleast_2d(np.asarray(loads, dtype=float))
    S = prices.shape[0]
    if prices.shape != (S, n) or loads.shape != (S, c):
        raise ModelError(
            f"need prices (S, {n}) and loads (S, {c}); got "
            f"{prices.shape} and {loads.shape}")
    if np.any(loads < 0):
        raise ModelError("portal workloads cannot be negative")

    wf = Waterfill(cluster, available)
    lam = wf.workloads(prices, loads.sum(axis=1))

    # Per-portal split: portals in index order fill the cost order.
    U = np.zeros((S, c, n))                           # λ_ij matrix layout
    rows = np.arange(S)
    rem_load = loads.copy()
    cap_left = np.broadcast_to(wf.caps, (S, n)).copy()
    for j in wf.order(prices).T:
        for i in range(c):
            take = np.minimum(rem_load[:, i], cap_left[rows, j])
            U[rows, i, j] = take
            rem_load[:, i] -= take
            cap_left[rows, j] -= take
    # flat IDC-grouped ordering, lane-wise cluster.matrix_to_vector
    u = U.transpose(0, 2, 1).reshape(S, n * c)

    m_cont = wf.servers(lam)
    m_int = np.minimum(np.ceil(m_cont - 1e-9), wf.fleet).astype(int)
    return BatchOptimalAllocation(
        u=u, idc_workloads=lam, servers_continuous=m_cont,
        servers=m_int, powers_watts_relaxed=wf.powers_watts(lam),
    )
