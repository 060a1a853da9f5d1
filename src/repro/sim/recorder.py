"""Per-period metric recording for the lane-axis period loop.

:class:`LaneRecord` holds everything the analysis layer and the figure
benchmarks need, for ``S`` lanes at once: per-IDC power, server counts,
workloads, latencies, prices, portal loads, allocations, per-period
policy diagnostics and the :class:`~repro.datacenter.EnergyMeter`
integrals.  A scalar run is one lane.
"""

from __future__ import annotations

import numpy as np

from ..datacenter.power import EnergyMeter
from ..exceptions import ModelError
from .results import SimulationResult

__all__ = ["LaneRecord"]


class LaneRecord:
    """Columnar ``(S, T, ·)`` storage of ``S`` runs stepped in lockstep."""

    def __init__(self, n_lanes: int, n_periods: int, n_idcs: int,
                 n_portals: int, dt: float) -> None:
        if n_idcs < 1 or n_portals < 1:
            raise ModelError("need at least one IDC and one portal")
        if dt <= 0:
            raise ModelError("dt must be positive")
        n, c = (n_idcs,), (n_portals,)
        widths = {"times": (), "powers_watts": n, "servers": n,
                  "workloads": n, "latencies": n, "prices": n, "loads": c,
                  "allocations": (n_idcs * n_portals,)}
        # zeros, not empty: the record is pickled whole into checkpoints
        self.series = {name: np.zeros((n_lanes, n_periods) + width)
                       for name, width in widths.items()}
        self.diagnostics: list[list[dict]] = [[] for _ in range(n_lanes)]
        self.meter = EnergyMeter.stacked(n_lanes, n_idcs)
        self.dt = dt
        #: periods recorded so far
        self.n_periods = 0

    def record(self, k: int, diagnostics, **series) -> None:
        """Store period ``k`` for every lane and meter its cost.

        ``series`` holds one ``(S, ·)`` array per series (``times`` is
        ``(S,)``); ``diagnostics`` one dict per lane.
        """
        for name, value in series.items():
            self.series[name][:, k] = value
        for lane, diag in zip(self.diagnostics, diagnostics):
            lane.append(diag)
        self.meter.record(series["powers_watts"], series["prices"], self.dt)
        self.n_periods = k + 1

    def results(self, policy_name: str, scenarios,
                perfs) -> list[SimulationResult]:
        """Every lane's periods so far, one :class:`SimulationResult` each.

        Lane ``s`` takes its ``dt`` and IDC names from ``scenarios[s]``
        and its counters from ``perfs[s]``.
        """
        if self.n_periods == 0:
            raise ModelError("nothing recorded")
        m = self.meter
        # rows are copied: a view would keep the whole (S, N) array alive
        # once per lane
        energy_mwh = m.energy_mwh
        return [SimulationResult(
            policy_name=policy_name, dt=sc.dt,
            **{k: v[s, :self.n_periods] for k, v in self.series.items()},
            energy_mwh=energy_mwh[s].copy(), cost_usd=m.cost_usd[s].copy(),
            paper_cost=m.paper_cost[s].copy(),
            idc_names=sc.cluster.idc_names, diagnostics=self.diagnostics[s],
            perf=perf) for s, (sc, perf) in enumerate(zip(scenarios, perfs))]
