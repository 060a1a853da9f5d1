"""Demand-coupled real-time electricity markets.

Section I of the paper argues that large IDCs are *active* consumers:
their demand moves next period's wholesale price, and naive price-chasing
load balancing therefore creates a vicious cycle of demand, cost and
price.  This module implements that coupling so the closed-loop
experiments can exercise it:

``price_j(k) = base_j(k) · (1 + γ_j · (P_j(k-1) − P̄_j) / P̄_j)``

where ``base_j`` is the exogenous trace, ``P_j(k-1)`` the power the IDC
drew last period, ``P̄_j`` the nominal regional demand, and ``γ_j`` the
demand sensitivity (γ = 0 reproduces the pure-trace market used in the
main experiments).  Prices are floored to keep the model sane under
extreme shedding.

Three couplings live here:

* :class:`RealTimeMarket` — one lane's per-region market, the scalar
  engine's price source (lagged feedback against the lane's own demand).
* :class:`LaneMarketBatch` — a stack of per-lane markets cleared as
  ``(S, N)`` tensors, so the batched engine can advance demand-coupled
  lanes without splintering batch groups on γ (each lane still feeds
  back against *its own* demand history, exactly like ``S`` independent
  :class:`RealTimeMarket` instances).
* :class:`SharedMarket` — one regional market serving a whole fleet:
  the price responds to the *aggregate* demand of every participant.
  Clearing is either lagged (previous period's aggregate, the
  :class:`RealTimeMarket` convention) or *simultaneous*: a damped
  fixed-point iteration between the candidate price and the fleet's
  demand response, with a convergence guard
  (:func:`clear_fixed_point`).  The contraction modulus of that
  iteration — γ · (base/P̄) · |dD/dp| — is the stability bound the
  herding experiments sweep (:func:`clearing_contraction`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError, ConvergenceError
from .traces import PriceTrace

__all__ = ["RegionMarketConfig", "RealTimeMarket", "LaneMarketBatch",
           "SharedMarket", "clear_fixed_point", "clearing_contraction"]


@dataclass
class RegionMarketConfig:
    """Per-region market parameters.

    Attributes
    ----------
    trace:
        The exogenous hourly base price trace.
    demand_sensitivity:
        γ — relative price increase per unit relative demand increase
        above nominal.  0 disables the feedback.
    nominal_power_mw:
        P̄ — the demand level at which the base price applies.
    price_floor:
        Lower bound applied after the demand adjustment ($/MWh).
    """

    trace: PriceTrace
    demand_sensitivity: float = 0.0
    nominal_power_mw: float = 5.0
    price_floor: float = -50.0

    def __post_init__(self) -> None:
        if self.demand_sensitivity < 0:
            raise ConfigurationError("demand sensitivity must be >= 0")
        if self.nominal_power_mw <= 0:
            raise ConfigurationError("nominal power must be positive")


class RealTimeMarket:
    """Hourly-adjusted RTP market over a set of regions.

    The market is advanced by the simulation clock: :meth:`prices_at`
    returns the vector of effective prices at a given time, and
    :meth:`record_demand` feeds back the power each region's IDC drew so
    the *next* price query reflects it (one-period lag, as the paper
    describes: "when the power demand of an IDC is adjusted in one time
    instance, it affects the price levels ... for the next time
    instance").
    """

    def __init__(self, regions: dict[str, RegionMarketConfig]) -> None:
        if not regions:
            raise ConfigurationError("market needs at least one region")
        self.regions = dict(regions)
        self._region_names = list(self.regions)
        self._last_demand: dict[str, float] = {
            name: cfg.nominal_power_mw for name, cfg in self.regions.items()
        }
        self._history: list[dict[str, float]] = []

    @property
    def region_names(self) -> list[str]:
        return list(self._region_names)

    def base_price(self, region: str, t_seconds: float) -> float:
        """Exogenous trace price, before demand feedback."""
        return self.regions[region].trace.price_at_time(t_seconds)

    def price(self, region: str, t_seconds: float) -> float:
        """Effective price for ``region`` at ``t_seconds``."""
        cfg = self.regions[region]
        base = cfg.trace.price_at_time(t_seconds)
        if cfg.demand_sensitivity == 0.0:
            return base
        rel = (self._last_demand[region] - cfg.nominal_power_mw) \
            / cfg.nominal_power_mw
        adjusted = base * (1.0 + cfg.demand_sensitivity * rel)
        return float(max(adjusted, cfg.price_floor))

    def prices_at(self, t_seconds: float) -> np.ndarray:
        """Vector of effective prices in region order."""
        return np.array([
            self.price(name, t_seconds) for name in self._region_names
        ])

    def record_demand(self, demands_mw: np.ndarray | dict[str, float]) -> None:
        """Report the power drawn this period (region order or by name)."""
        if isinstance(demands_mw, dict):
            unknown = set(demands_mw) - set(self._region_names)
            if unknown:
                raise ConfigurationError(f"unknown regions: {sorted(unknown)}")
            self._last_demand.update(
                {k: float(v) for k, v in demands_mw.items()})
        else:
            demands_mw = np.asarray(demands_mw, dtype=float).ravel()
            if demands_mw.size != len(self._region_names):
                raise ConfigurationError(
                    f"expected {len(self._region_names)} demands, "
                    f"got {demands_mw.size}")
            for name, d in zip(self._region_names, demands_mw):
                self._last_demand[name] = float(d)
        self._history.append(dict(self._last_demand))

    @property
    def demand_history(self) -> list[dict[str, float]]:
        """Recorded demand reports, oldest first."""
        return list(self._history)

    def reset(self) -> None:
        """Forget demand history; prices revert to the base traces."""
        for name, cfg in self.regions.items():
            self._last_demand[name] = cfg.nominal_power_mw
        self._history.clear()


class LaneMarketBatch:
    """Vectorized clearing across a stack of per-lane markets.

    The batched fleet engine advances ``S`` independent scenarios as
    stacked tensors; when any lane carries a demand-sensitive market
    (γ > 0) its prices depend on its *own* demand history, so the whole
    stack must be cleared per period instead of precomputed from the
    traces.  This class lifts :meth:`RealTimeMarket.price` /
    :meth:`RealTimeMarket.record_demand` onto ``(S, N)`` arrays —
    numerically identical to ``S`` scalar markets queried lane by lane,
    one numpy expression per period instead of ``S · N`` Python calls.

    Construction snapshots each lane's (γ, P̄, floor, last-demand) state
    in *its cluster's region order*; :meth:`flush` writes the
    accumulated demand history back into the per-lane
    :class:`RealTimeMarket` objects so post-run inspection
    (``market.demand_history``, a later scalar resume) sees exactly
    what a looped run would have left behind.
    """

    def __init__(self, lanes) -> None:
        """``lanes`` — iterable of ``(market, region_order)`` pairs."""
        lanes = list(lanes)
        if not lanes:
            raise ConfigurationError("LaneMarketBatch needs at least one lane")
        self._markets = [m for m, _regions in lanes]
        self._regions = [list(regions) for _m, regions in lanes]
        n = len(self._regions[0])
        if any(len(r) != n for r in self._regions):
            raise ConfigurationError(
                "all lanes must expose the same number of regions")
        self.gamma = np.array([
            [m.regions[r].demand_sensitivity for r in regions]
            for m, regions in zip(self._markets, self._regions)])
        self.nominal = np.array([
            [m.regions[r].nominal_power_mw for r in regions]
            for m, regions in zip(self._markets, self._regions)])
        self.floor = np.array([
            [m.regions[r].price_floor for r in regions]
            for m, regions in zip(self._markets, self._regions)])
        self.last_demand = np.array([
            [m._last_demand[r] for r in regions]
            for m, regions in zip(self._markets, self._regions)])
        self._demand_log: list[np.ndarray] = []

    @property
    def any_coupled(self) -> bool:
        """Whether any lane needs per-period clearing (some γ > 0)."""
        return bool(np.any(self.gamma != 0.0))

    def effective_prices(self, base_prices: np.ndarray) -> np.ndarray:
        """Demand-adjusted prices for every lane, shape ``(S, N)``.

        Matches :meth:`RealTimeMarket.price` exactly: γ = 0 entries pass
        the base trace through untouched (no floor — the scalar path
        only floors the adjusted price), γ > 0 entries apply the lagged
        feedback and the floor.
        """
        base = np.asarray(base_prices, dtype=float)
        rel = (self.last_demand - self.nominal) / self.nominal
        adjusted = np.maximum(base * (1.0 + self.gamma * rel), self.floor)
        return np.where(self.gamma == 0.0, base, adjusted)

    def record_demand(self, demands_mw: np.ndarray) -> None:
        """Report every lane's drawn power (MW), shape ``(S, N)``."""
        self.last_demand = np.asarray(demands_mw, dtype=float).copy()
        self._demand_log.append(self.last_demand)

    def stability_bound(self, base_price, demand_slope) -> float:
        """Worst-(lane, region) contraction modulus, like
        :meth:`SharedMarket.stability_bound` (γ = 0 lanes contribute 0)."""
        return clearing_contraction(self.gamma, base_price, self.nominal,
                                    demand_slope)

    def require_stable(self, base_price, demand_slope,
                       damping: float = 1.0) -> None:
        """Raise :class:`ConvergenceError` outside the damped bound.

        Same contract as :meth:`SharedMarket.require_stable` — the
        per-lane lagged feedback is the ω = 1 sweep of the same map, so
        the fleet and lane markets share one stability semantics.
        """
        modulus = self.stability_bound(base_price, demand_slope)
        limit = (2.0 - damping) / damping
        if modulus >= limit:
            raise ConvergenceError(
                f"lane clearing contraction modulus {modulus:.3f} exceeds "
                f"the damped stability bound {limit:.3f}; lower gamma, "
                "raise nominal_power_mw, or increase damping")

    def snapshot(self) -> dict:
        """Picklable copy of the mutable clearing state (for the fleet
        checkpoint): the lagged demands plus the un-flushed log."""
        return {"last_demand": self.last_demand.copy(),
                "demand_log": [row.copy() for row in self._demand_log]}

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot`; a later :meth:`flush` writes the
        exact same history a crash-free run would have."""
        self.last_demand = np.asarray(state["last_demand"],
                                      dtype=float).copy()
        self._demand_log = [np.asarray(row, dtype=float).copy()
                            for row in state["demand_log"]]

    def flush(self) -> None:
        """Write demand state/history back into the per-lane markets."""
        for s, (market, regions) in enumerate(
                zip(self._markets, self._regions)):
            for j, region in enumerate(regions):
                market._last_demand[region] = float(self.last_demand[s, j])
            market._history.extend(
                {region: float(row[s, j])
                 for j, region in enumerate(regions)}
                for row in self._demand_log)
        self._demand_log = []


def clearing_contraction(gamma, base_price, nominal_mw, demand_slope) -> float:
    """Contraction modulus of the simultaneous-clearing fixed point.

    One clearing sweep maps a candidate price ``p`` to
    ``base · (1 + γ (D(p) − P̄) / P̄)``; its Lipschitz constant is
    ``γ · (base / P̄) · |dD/dp|``.  Below 1 the undamped iteration is a
    contraction and converges geometrically from any start; above 1 the
    price–demand loop is the paper's "vicious cycle" and only damping
    (or less price-chasing demand) restores convergence.  Inputs may be
    arrays (broadcast); the worst region's modulus is returned.
    """
    modulus = np.asarray(gamma, dtype=float) \
        * np.abs(np.asarray(base_price, dtype=float)) \
        / np.asarray(nominal_mw, dtype=float) \
        * np.abs(np.asarray(demand_slope, dtype=float))
    return float(np.max(modulus))


def check_clearing_controls(damping: float, tol: float,
                            max_iter: int) -> None:
    """Reject :func:`clear_fixed_point` controls that cannot clear.

    A nonpositive ``tol`` never declares convergence and ``max_iter < 1``
    never iterates, so both would report every period non-converged.
    """
    if not 0.0 < damping <= 1.0:
        raise ConfigurationError("damping must be in (0, 1]")
    if not 0.0 < tol < np.inf:
        raise ConfigurationError("tol must be positive and finite")
    if max_iter < 1:
        raise ConfigurationError("max_iter must be >= 1")


def clear_fixed_point(clear, demand_response, p0: np.ndarray, *,
                      damping: float = 0.5, tol: float = 1e-8,
                      max_iter: int = 60) -> tuple[np.ndarray, int, bool]:
    """Damped fixed-point iteration for simultaneous market clearing.

    Parameters
    ----------
    clear:
        ``clear(agg_demand_mw) -> prices`` — the market's price response
        to an aggregate demand vector (e.g. ``SharedMarket.clear``
        partially applied at the period's base prices).
    demand_response:
        ``demand_response(prices) -> agg_demand_mw`` — the fleet's
        aggregate demand at candidate prices.
    p0:
        Starting price vector (the previous period's cleared price is
        the natural warm start).
    damping:
        Relaxation weight ω ∈ (0, 1]: ``p ← (1−ω) p + ω clear(D(p))``.
        ω < 1 converges even somewhat beyond the undamped stability
        bound (modulus < (2−ω)/ω); ω = 1 is the undamped sweep.
    tol:
        Relative sup-norm price change declaring convergence.
    max_iter:
        Iteration guard; on expiry the last damped iterate is returned
        with ``converged=False`` (callers count and proceed — a
        persistent oscillation is a *finding* of the herding study, not
        an engine crash).

    Returns
    -------
    (prices, iterations, converged)
    """
    check_clearing_controls(damping, tol, max_iter)
    p = np.asarray(p0, dtype=float).copy()
    for it in range(1, max_iter + 1):
        p_next = (1.0 - damping) * p + damping * np.asarray(
            clear(demand_response(p)), dtype=float)
        gap = float(np.max(np.abs(p_next - p)))
        scale = max(float(np.max(np.abs(p_next))), 1.0)
        p = p_next
        if gap <= tol * scale:
            return p, it, True
    return p, max_iter, False


class SharedMarket:
    """A regional RTP market cleared against *aggregate* fleet demand.

    Where :class:`RealTimeMarket` couples one IDC cluster to its own
    demand, ``SharedMarket`` is the grid's view: ``N`` regions whose
    price responds to the summed draw of every participant —
    ``price_j = base_j · (1 + γ_j (ΣP_j − P̄_j) / P̄_j)``, floored.
    ``nominal_power_mw`` is therefore *fleet-scale* (the regional load
    at which the base trace applies), and the same γ that is harmless
    for one 5 MW cluster can destabilize a 1000-cluster fleet — the
    herding failure mode the fleet stepper reproduces.

    The market itself is stateless per period except for the lagged
    aggregate (:meth:`record_demand`); simultaneous clearing is driven
    from outside via :meth:`clear` + :func:`clear_fixed_point` because
    only the fleet knows its demand response.
    """

    def __init__(self, regions: dict[str, RegionMarketConfig]) -> None:
        if not regions:
            raise ConfigurationError("market needs at least one region")
        self.regions = dict(regions)
        self._region_names = list(self.regions)
        self.gamma = np.array([cfg.demand_sensitivity
                               for cfg in self.regions.values()])
        self.nominal = np.array([cfg.nominal_power_mw
                                 for cfg in self.regions.values()])
        self.floor = np.array([cfg.price_floor
                               for cfg in self.regions.values()])
        self.reset()

    @property
    def region_names(self) -> list[str]:
        return list(self._region_names)

    @property
    def n_regions(self) -> int:
        return len(self._region_names)

    def base_prices(self, t_seconds: float) -> np.ndarray:
        """Exogenous trace prices (region order), before any feedback."""
        return np.array([cfg.trace.price_at_time(t_seconds)
                         for cfg in self.regions.values()])

    def clear(self, base_prices: np.ndarray,
              agg_demand_mw: np.ndarray) -> np.ndarray:
        """Price response to an aggregate regional demand vector."""
        base = np.asarray(base_prices, dtype=float)
        rel = (np.asarray(agg_demand_mw, dtype=float) - self.nominal) \
            / self.nominal
        return np.maximum(base * (1.0 + self.gamma * rel), self.floor)

    def prices_at(self, t_seconds: float) -> np.ndarray:
        """Lagged effective prices (last recorded aggregate demand)."""
        return self.clear(self.base_prices(t_seconds), self._last_demand)

    def record_demand(self, agg_demand_mw: np.ndarray) -> None:
        """Report the fleet's summed regional draw for this period."""
        agg = np.asarray(agg_demand_mw, dtype=float).ravel()
        if agg.size != self.n_regions:
            raise ConfigurationError(
                f"expected {self.n_regions} regional demands, got {agg.size}")
        self._last_demand = agg.copy()
        self._history.append(self._last_demand)

    @property
    def demand_history(self) -> np.ndarray:
        """Recorded aggregate demands, shape ``(T, N)`` (oldest first)."""
        if not self._history:
            return np.zeros((0, self.n_regions))
        return np.array(self._history)

    def stability_bound(self, base_price, demand_slope) -> float:
        """Worst-region contraction modulus at the given operating point.

        See :func:`clearing_contraction`; < 1 means the undamped
        simultaneous clearing converges, ≥ 1 marks the herding regime.
        """
        return clearing_contraction(self.gamma, base_price, self.nominal,
                                    demand_slope)

    def require_stable(self, base_price, demand_slope,
                       damping: float = 1.0) -> None:
        """Raise :class:`ConvergenceError` outside the damped bound."""
        modulus = self.stability_bound(base_price, demand_slope)
        limit = (2.0 - damping) / damping
        if modulus >= limit:
            raise ConvergenceError(
                f"clearing contraction modulus {modulus:.3f} exceeds the "
                f"damped stability bound {limit:.3f}; lower gamma, raise "
                "nominal_power_mw, or increase damping")

    def snapshot(self) -> dict:
        """Picklable copy of the mutable clearing state (lagged
        aggregate + history) for the fleet checkpoint."""
        return {"last_demand": self._last_demand.copy(),
                "history": [row.copy() for row in self._history]}

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot`; clearing continues bit-exact."""
        self._last_demand = np.asarray(state["last_demand"],
                                       dtype=float).copy()
        self._history = [np.asarray(row, dtype=float).copy()
                         for row in state["history"]]

    def reset(self) -> None:
        """Forget the aggregate history; prices revert to the traces."""
        self._last_demand = self.nominal.copy()
        self._history: list[np.ndarray] = []
