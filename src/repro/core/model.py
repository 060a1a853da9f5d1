"""State-space electricity-cost model (Sec. IV-A of the paper).

Builds the affine system

    dX/dt = A X + B U + F V,    Y = W X

with state ``X = [C̄, E₁, …, E_N]``: the paper's cumulative cost state and
one cumulative-energy state per IDC.  ``U = vec(λ_ij)`` is the flat
allocation vector (IDC-grouped, see :mod:`repro.datacenter.cluster`) and
``V = [m₁, …, m_N]`` the active-server counts.

Internal units
--------------
* energy states ``E_j`` are in **megawatt-seconds** (1 MWs = 1 MJ) so the
  per-step energy increment equals the power in MW times ``Ts`` — this
  keeps the MPC Hessian well scaled;
* the cost state follows the paper's eq. 17 verbatim,
  ``dC̄/dt = Σ_j Pr_j · E_j(t)`` with ``Pr`` in $/MWh and ``E`` converted
  to MWh, hence the ``Pr_j / 3600`` entries in the first row of ``A``;
* ``B`` rows carry ``b1_j / 1e6`` (watts → MW) and ``F`` rows
  ``b0_j / 1e6``.

The sleep-substituted model
---------------------------
The slow loop's rule (eq. 35, relaxed to the continuous
``m_j = λ_j/μ_j + 1/(μ_j D_j)``) is substituted into the model, giving
the paper's eq. 36: ``G = Ḡ + Γ μ̄⁻¹ Ψ_λ`` plus the constant disturbance
``Ω = Γ [1/(μ_j D_j)]``.  The MPC therefore *predicts* the power effect
of server scaling instead of treating it as noise, and the model does
not depend on the server counts.  The output ``Y`` is the per-IDC
cumulative energies, which the MPC tracks.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..control import ContinuousStateSpace, DiscreteStateSpace, c2d
from ..datacenter.cluster import IDCCluster
from ..exceptions import ModelError

__all__ = ["CostModelBuilder", "POWER_SCALE"]

#: watts → MW, the scale applied to b0/b1 inside the model matrices.
POWER_SCALE = 1e-6

#: MWs → MWh inside the paper's cost integrand.
_COST_SCALE = 1.0 / 3600.0


@dataclass
class CostModelBuilder:
    """Constructs the Sec. IV-A matrices for a given cluster.

    The builder is stateless with respect to prices — they arrive per
    call because they change at run time (hourly price adjustments)
    while the structure (N, C, b-coefficients, μ, D) is fixed by the
    cluster.

    :meth:`discrete` memoizes its ZOH discretizations: the paper's price
    traces are piecewise-constant over many consecutive control periods,
    so the closed loop asks for the same model over and over.  The cache
    is a bounded LRU keyed on exactly the inputs the matrices depend on
    — ``(prices, dt)``; eq. 36 removes the server dependence, so server
    changes *correctly* hit the same entry.  Hit/miss totals are kept in
    ``cache_stats``.
    """

    cluster: IDCCluster
    cache_size: int = 64
    cache_stats: dict = field(default_factory=lambda: {"hits": 0,
                                                       "misses": 0})
    _discrete_cache: OrderedDict = field(default_factory=OrderedDict,
                                         repr=False)

    # -- matrix blocks ----------------------------------------------------
    def a_matrix(self, prices: np.ndarray) -> np.ndarray:
        """``A`` with the price row (eq. 19's first row)."""
        prices = self._check_prices(prices)
        n = self.cluster.n_idcs
        A = np.zeros((n + 1, n + 1))
        A[0, 1:] = prices * _COST_SCALE
        return A

    def b_matrix(self) -> np.ndarray:
        """``B``: row ``j+1`` sums IDC ``j``'s block of ``U`` times b1_j."""
        n, c = self.cluster.n_idcs, self.cluster.n_portals
        B = np.zeros((n + 1, n * c))
        for j, idc in enumerate(self.cluster.idcs):
            B[j + 1, j * c:(j + 1) * c] = idc.config.power_model.b1 * POWER_SCALE
        return B

    def f_matrix(self) -> np.ndarray:
        """``F``: maps server counts to idle-power energy rates."""
        n = self.cluster.n_idcs
        F = np.zeros((n + 1, n))
        for j, idc in enumerate(self.cluster.idcs):
            F[j + 1, j] = idc.config.power_model.b0 * POWER_SCALE
        return F

    def lambda_selector(self) -> np.ndarray:
        """``Ψ_λ ∈ ℜ^{N×NC}``: per-IDC workload totals ``λ_j = Ψ_λ U``."""
        n, c = self.cluster.n_idcs, self.cluster.n_portals
        S = np.zeros((n, n * c))
        for j in range(n):
            S[j, j * c:(j + 1) * c] = 1.0
        return S

    def w_matrix(self) -> np.ndarray:
        """Output matrix ``W``: the per-IDC cumulative energies."""
        n = self.cluster.n_idcs
        return np.hstack([np.zeros((n, 1)), np.eye(n)])

    # -- assembled models ------------------------------------------------
    def continuous(self, prices: np.ndarray) -> ContinuousStateSpace:
        """The continuous eq. 36 model at the current prices."""
        A = self.a_matrix(prices)
        F = self.f_matrix()
        # eq. 36: substitute m_j = λ_j/μ_j + 1/(μ_j D_j)
        mu_inv = np.diag([1.0 / idc.config.service_rate
                          for idc in self.cluster.idcs])
        G = self.b_matrix() + F @ mu_inv @ self.lambda_selector()
        omega = F @ np.array([
            1.0 / (idc.config.service_rate * idc.config.latency_bound)
            for idc in self.cluster.idcs
        ])
        return ContinuousStateSpace(A=A, B=G, C=self.w_matrix(), w=omega)

    def discrete(self, prices: np.ndarray, dt: float) -> DiscreteStateSpace:
        """ZOH discretization (eqs. 21–25) of :meth:`continuous`, memoized.

        Repeated calls with unchanged inputs return the *same* model
        object — downstream consumers (the MPC's ``update_model``) use
        that identity to skip their own rebuilds.  Callers must treat the
        returned model as immutable.
        """
        prices = self._check_prices(prices)
        key = (float(dt), prices.tobytes())
        cached = self._discrete_cache.get(key)
        if cached is not None:
            self._discrete_cache.move_to_end(key)
            self.cache_stats["hits"] += 1
            return cached
        self.cache_stats["misses"] += 1
        model = c2d(self.continuous(prices), dt)
        self._discrete_cache[key] = model
        if len(self._discrete_cache) > self.cache_size:
            self._discrete_cache.popitem(last=False)
        return model

    # -- state helpers ----------------------------------------------------
    def initial_state(self, cost: float = 0.0,
                      energies_mws: np.ndarray | None = None) -> np.ndarray:
        """State vector ``[C̄, E₁.., E_N]`` (energies in MW·s)."""
        n = self.cluster.n_idcs
        x = np.zeros(n + 1)
        x[0] = float(cost)
        if energies_mws is not None:
            e = np.asarray(energies_mws, dtype=float).ravel()
            if e.size != n:
                raise ModelError(f"energies must have {n} entries")
            x[1:] = e
        return x

    def powers_mw(self, u: np.ndarray, servers_on: np.ndarray) -> np.ndarray:
        """Per-IDC power in MW implied by allocation ``u`` and ``m``."""
        lam = self.cluster.idc_workloads(u)
        m = self._check_servers(servers_on)
        return np.array([
            idc.config.power_model.cluster_power(l, int(round(mj))) * POWER_SCALE
            for idc, l, mj in zip(self.cluster.idcs, lam, m)
        ])

    # -- validation --------------------------------------------------------
    def _check_prices(self, prices: np.ndarray) -> np.ndarray:
        prices = np.asarray(prices, dtype=float).ravel()
        if prices.size != self.cluster.n_idcs:
            raise ModelError(
                f"need {self.cluster.n_idcs} prices, got {prices.size}")
        return prices

    def _check_servers(self, servers_on: np.ndarray) -> np.ndarray:
        m = np.asarray(servers_on, dtype=float).ravel()
        if m.size != self.cluster.n_idcs:
            raise ModelError(
                f"need {self.cluster.n_idcs} server counts, got {m.size}")
        if np.any(m < 0):
            raise ModelError("server counts must be nonnegative")
        return m
