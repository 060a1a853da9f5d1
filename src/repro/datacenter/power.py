"""Power and energy accounting.

Keeps the unit conversions in one place (the paper mixes MW and "MWH"
loosely; internally this library works in watts, seconds and dollars)
and provides the :class:`EnergyMeter` used by the simulator to integrate
per-IDC energy and electricity cost over a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ModelError

__all__ = [
    "watts_to_mw",
    "mw_to_watts",
    "joules_to_mwh",
    "mwh_to_joules",
    "EnergyMeter",
]

_JOULES_PER_MWH = 3.6e9


def watts_to_mw(watts: float) -> float:
    """Watts → megawatts."""
    return float(watts) / 1e6


def mw_to_watts(mw: float) -> float:
    """Megawatts → watts."""
    return float(mw) * 1e6


def joules_to_mwh(joules: float) -> float:
    """Joules → megawatt-hours."""
    return float(joules) / _JOULES_PER_MWH


def mwh_to_joules(mwh: float) -> float:
    """Megawatt-hours → joules."""
    return float(mwh) * _JOULES_PER_MWH


@dataclass
class EnergyMeter:
    """Integrates per-IDC power into energy and electricity cost.

    One :meth:`record` call per control period with the power drawn and
    the price in effect during that period; the meter accumulates

    * energy ``E_j = Σ P_j·Ts`` (joules),
    * the physically standard cost ``Σ price_j · P_j · Ts`` (dollars,
      price converted from $/MWh),
    * the paper's state-space cost ``Σ price_j · E_j(t) · Ts`` — the
      verbatim eq. 17 integrand (price × *accumulated energy*), reported
      separately so experiments can show both.
    """

    n_idcs: int
    energy_joules: np.ndarray = field(init=False)
    cost_usd: np.ndarray = field(init=False)
    paper_cost: np.ndarray = field(init=False)
    elapsed_seconds: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if self.n_idcs < 1:
            raise ModelError("need at least one IDC")
        self.energy_joules = np.zeros(self.n_idcs)
        self.cost_usd = np.zeros(self.n_idcs)
        self.paper_cost = np.zeros(self.n_idcs)

    @classmethod
    def stacked(cls, n_lanes: int, n_idcs: int) -> "EnergyMeter":
        """A meter over ``(n_lanes, n_idcs)``: one row per independent run.

        Its :meth:`record` takes ``(n_lanes, n_idcs)`` powers and prices;
        each row accumulates exactly as a one-run meter would.
        """
        if n_lanes < 1:
            raise ModelError("need at least one lane")
        meter = cls(n_idcs)
        for name in ("energy_joules", "cost_usd", "paper_cost"):
            setattr(meter, name, np.zeros((n_lanes, n_idcs)))
        return meter

    def record(self, powers_watts: np.ndarray, prices_usd_mwh: np.ndarray,
               dt_seconds: float) -> None:
        """Accumulate one control period."""
        shape = self.energy_joules.shape
        p = np.asarray(powers_watts, dtype=float)
        pr = np.asarray(prices_usd_mwh, dtype=float)
        if len(shape) == 1:
            p, pr = p.ravel(), pr.ravel()
        if p.shape != shape or pr.shape != shape:
            raise ModelError("powers/prices must have one entry per IDC "
                             "(per lane and IDC for a stacked meter)")
        if dt_seconds <= 0:
            raise ModelError("dt must be positive")
        if np.any(p < 0):
            raise ModelError("power cannot be negative")
        # paper cost uses the energy accumulated *before* this period
        self.paper_cost += pr * (self.energy_joules / _JOULES_PER_MWH) * dt_seconds
        energy_step = p * dt_seconds
        self.energy_joules += energy_step
        self.cost_usd += pr * (energy_step / _JOULES_PER_MWH)
        self.elapsed_seconds += dt_seconds

    @property
    def energy_mwh(self) -> np.ndarray:
        """Per-IDC energy in MWh."""
        return self.energy_joules / _JOULES_PER_MWH

    @property
    def total_cost_usd(self) -> float:
        """Total physical electricity cost across IDCs."""
        return float(self.cost_usd.sum())

    @property
    def total_paper_cost(self) -> float:
        """Total cost under the paper's eq. 17 convention."""
        return float(self.paper_cost.sum())
