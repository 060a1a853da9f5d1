"""Input-constraint builders (eqs. 26–34 of the paper).

Three families of constraints restrict the allocation vector ``U``:

* **workload conservation** (eqs. 26–29): each portal's workload must be
  fully distributed, ``H U = h`` with ``h = [L₁, …, L_C]``;
* **latency capacity** (eqs. 30–33): each IDC's total assignment must
  respect the QoS bound, ``Ψ U ≤ φ`` with
  ``φ_j = μ_j (m_j − 1/(μ_j D_j)) = m_j μ_j − 1/D_j``;
* **nonnegativity** (eq. 34): ``U ≥ 0``.

The builders produce the per-step matrices; horizon stacking is handled
generically by :class:`repro.control.mpc.InputConstraintSet`.
"""

from __future__ import annotations

import numpy as np

from ..control.mpc import InputConstraintSet
from ..datacenter.cluster import IDCCluster
from ..datacenter.queueing import latency_capacity
from ..exceptions import ModelError

__all__ = [
    "conservation_matrix",
    "capacity_matrix",
    "capacity_rhs",
    "build_constraints",
]


def conservation_matrix(cluster: IDCCluster) -> np.ndarray:
    """``H ∈ ℜ^{C×NC}`` with ``(H U)_i = Σ_j λ_ij`` (eq. 27 structure)."""
    n, c = cluster.n_idcs, cluster.n_portals
    H = np.zeros((c, n * c))
    for i in range(c):
        for j in range(n):
            H[i, j * c + i] = 1.0
    return H


def capacity_matrix(cluster: IDCCluster) -> np.ndarray:
    """``Ψ ∈ ℜ^{N×NC}`` with ``(Ψ U)_j = λ_j`` (eq. 32 structure)."""
    n, c = cluster.n_idcs, cluster.n_portals
    Psi = np.zeros((n, n * c))
    for j in range(n):
        Psi[j, j * c:(j + 1) * c] = 1.0
    return Psi


def capacity_rhs(cluster: IDCCluster) -> np.ndarray:
    """``φ_j = m_j μ_j − 1/D_j`` (eq. 33) at ``m_j = M_j``, clipped at zero.

    ``M_j`` is each IDC's available **fleet size**: under eq. 36 the slow
    loop provisions whatever the allocation needs up to the fleet.
    """
    return np.array([
        latency_capacity(idc.available_servers, idc.config.service_rate,
                         idc.config.latency_bound)
        for idc in cluster.idcs
    ])


def build_constraints(cluster: IDCCluster,
                      loads: np.ndarray) -> InputConstraintSet:
    """Assemble the full constraint set for the MPC.

    Parameters
    ----------
    loads:
        Portal workloads — either one vector of length ``C`` (held
        constant over the horizon) or a ``(β₂, C)`` array of predicted
        workloads for known time-varying right-hand sides.

    The capacity bound is the fleet size (see :func:`capacity_rhs`).
    """
    loads = np.asarray(loads, dtype=float)
    c = cluster.n_portals
    if loads.ndim == 1:
        if loads.size != c:
            raise ModelError(f"loads must have {c} entries, got {loads.size}")
    elif loads.ndim == 2:
        if loads.shape[1] != c:
            raise ModelError(
                f"loads rows must have {c} entries, got {loads.shape[1]}")
    else:
        raise ModelError("loads must be a vector or (steps, C) array")
    if np.any(loads < 0):
        raise ModelError("portal workloads cannot be negative")

    return InputConstraintSet(
        A_eq=conservation_matrix(cluster),
        b_eq=loads,
        A_ineq=capacity_matrix(cluster),
        b_ineq=capacity_rhs(cluster),
        lower=0.0,
    )
