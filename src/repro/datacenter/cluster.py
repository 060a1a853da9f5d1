"""Multi-IDC cluster: the workload-allocation architecture of Fig. 1.

The cluster bundles ``N`` IDCs and ``C`` front-end portals, owns the
allocation-matrix conventions used everywhere else in the library, and
verifies the paper's *sleep (ON/OFF) controllability condition*: the
total offered workload must not exceed the sum of latency-bounded
capacities with every server on.

Allocation-vector convention
----------------------------
The flat control vector ``U`` of the state-space model stacks the
allocation matrix **grouped by IDC**::

    U = [λ_{1,1}, …, λ_{C,1},  λ_{1,2}, …, λ_{C,2},  …,  λ_{C,N}]

i.e. index ``j·C + i`` carries the share portal ``i`` sends to IDC
``j``.  :meth:`IDCCluster.matrix_to_vector` / :meth:`vector_to_matrix`
convert between this vector and the ``(C, N)`` matrix ``λ_ij``.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import CapacityError, ConfigurationError, ModelError
from ..workload.portal import PortalSet
from .idc import IDC, IDCConfig

__all__ = ["IDCCluster"]


class IDCCluster:
    """``N`` IDCs plus ``C`` portals with allocation bookkeeping."""

    def __init__(self, idcs: list[IDC], portals: PortalSet) -> None:
        if not idcs:
            raise ConfigurationError("cluster needs at least one IDC")
        names = [idc.config.name for idc in idcs]
        if len(set(names)) != len(names):
            raise ConfigurationError("IDC names must be unique")
        self.idcs = list(idcs)
        self.portals = portals

    @classmethod
    def from_configs(cls, configs: list[IDCConfig], portals: PortalSet,
                     initial_servers: list[int] | None = None) -> "IDCCluster":
        """Build a cluster, optionally with explicit initial server counts."""
        if initial_servers is None:
            idcs = [IDC(cfg) for cfg in configs]
        else:
            if len(initial_servers) != len(configs):
                raise ConfigurationError(
                    "initial_servers length must match configs")
            idcs = [IDC(cfg, m) for cfg, m in zip(configs, initial_servers)]
        return cls(idcs, portals)

    # -- dimensions ------------------------------------------------------
    @property
    def n_idcs(self) -> int:
        return len(self.idcs)

    @property
    def n_portals(self) -> int:
        return self.portals.n_portals

    @property
    def n_allocations(self) -> int:
        """Length of the flat allocation vector ``U`` (= N·C)."""
        return self.n_idcs * self.n_portals

    @property
    def idc_names(self) -> list[str]:
        return [idc.config.name for idc in self.idcs]

    @property
    def regions(self) -> list[str]:
        return [idc.config.region for idc in self.idcs]

    # -- allocation vector conventions ------------------------------------
    def matrix_to_vector(self, allocation: np.ndarray) -> np.ndarray:
        """Flatten a ``(C, N)`` allocation matrix into ``U`` (IDC-grouped)."""
        allocation = np.asarray(allocation, dtype=float)
        if allocation.shape != (self.n_portals, self.n_idcs):
            raise ModelError(
                f"allocation must be ({self.n_portals}, {self.n_idcs}), "
                f"got {allocation.shape}")
        return allocation.T.ravel().copy()

    def vector_to_matrix(self, u: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`matrix_to_vector`."""
        u = np.asarray(u, dtype=float).ravel()
        if u.size != self.n_allocations:
            raise ModelError(
                f"allocation vector must have {self.n_allocations} entries, "
                f"got {u.size}")
        return u.reshape(self.n_idcs, self.n_portals).T.copy()

    def idc_workloads(self, u: np.ndarray) -> np.ndarray:
        """Per-IDC totals ``λ_j = Σ_i λ_ij`` from the flat vector."""
        return self.vector_to_matrix(u).sum(axis=0)

    # -- applying an allocation --------------------------------------------
    def apply_allocation(self, u: np.ndarray) -> np.ndarray:
        """Route workload to IDCs; returns the per-IDC totals."""
        u = np.asarray(u, dtype=float).ravel()
        if np.any(u < -1e-9):
            raise ModelError("allocations must be nonnegative")
        loads = self.idc_workloads(np.maximum(u, 0.0))
        for idc, lam in zip(self.idcs, loads):
            idc.assign_workload(float(lam))
        return loads

    def powers_watts(self) -> np.ndarray:
        """Current per-IDC power draw."""
        return np.array([idc.power_watts() for idc in self.idcs])

    def server_counts(self) -> np.ndarray:
        return np.array([idc.servers_on for idc in self.idcs])

    # -- feasibility ---------------------------------------------------------
    def total_capacity(self) -> float:
        """Σ_j λ̄_j with all servers on (sleep controllability bound)."""
        return float(sum(idc.available_capacity for idc in self.idcs))

    def check_sleep_controllability(self, period: int = 0) -> None:
        """Raise :class:`CapacityError` if the offered load is unservable.

        Implements the paper's sleep (ON/OFF) controllability condition:
        ``Σ_i L_i ≤ Σ_j λ̄_j``.
        """
        offered = self.portals.total_at(period)
        capacity = self.total_capacity()
        if offered > capacity + 1e-9:
            raise CapacityError(
                f"offered workload {offered:.1f} req/s exceeds aggregate "
                f"latency-bounded capacity {capacity:.1f} req/s")

    def allocation_feasible(self, u: np.ndarray, period: int = 0,
                            atol: float = 1e-6) -> bool:
        """Whether ``u`` conserves portal workload and respects capacity."""
        try:
            mat = self.vector_to_matrix(u)
        except ModelError:
            return False
        if np.any(mat < -atol):
            return False
        loads = self.portals.loads_at(period)
        if not np.allclose(mat.sum(axis=1), loads, atol=max(atol, 1e-6),
                           rtol=1e-6):
            return False
        per_idc = mat.sum(axis=0)
        for idc, lam in zip(self.idcs, per_idc):
            if lam > idc.available_capacity + atol:
                return False
        return True
