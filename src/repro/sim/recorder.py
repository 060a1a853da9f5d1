"""Per-period metric recording for the lane-axis period loop.

:class:`LaneRecord` holds everything the analysis layer and the figure
benchmarks need, for ``S`` lanes at once: per-IDC power, server counts,
workloads, latencies, prices, portal loads, allocations, per-period
policy diagnostics and the :class:`~repro.datacenter.EnergyMeter`
integrals.  A scalar run is one lane.

A checkpoint carries :meth:`LaneRecord.snapshot`, whose cost does not
grow with the periods recorded: the series go as their filled prefix,
the diagnostics as a pickle stream to which each checkpoint appends
only the periods recorded since the last one.
"""

from __future__ import annotations

import io
import pickle

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
        self._dims = (n_lanes, n_periods, n_idcs, n_portals)
        n, c = (n_idcs,), (n_portals,)
        widths = {"times": (), "powers_watts": n, "servers": n,
                  "workloads": n, "latencies": n, "prices": n, "loads": c,
                  "allocations": (n_idcs * n_portals,)}
        # only the filled prefix [:, :n_periods] is read or checkpointed
        self.series = {name: np.zeros((n_lanes, n_periods) + width)
                       for name, width in widths.items()}
        self.diagnostics: list[list[dict]] = [[] for _ in range(n_lanes)]
        self.meter = EnergyMeter.stacked(n_lanes, n_idcs)
        self.dt = dt
        #: periods recorded so far
        self.n_periods = 0
        # the diagnostics' pickle stream, written by snapshot() only: one
        # pickler, so its memo spans the chunks as one pickle's would
        self._diag_stream = io.BytesIO()
        self._pickler = None
        self._pickled = 0           # periods in the stream

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

    def snapshot(self) -> dict:
        """The periods recorded so far, for a checkpoint.

        The series go as their filled prefix ``[:, :n_periods]``, which
        the checkpoint pickles at once.  The diagnostics go as one pickle
        stream of per-interval chunks: each period's dicts are pickled
        once, by the first snapshot after they were recorded, so a run
        that never checkpoints never pays for it.
        """
        k = self.n_periods
        if self._pickler is None:
            self._pickler = pickle.Pickler(self._diag_stream,
                                           protocol=pickle.HIGHEST_PROTOCOL)
        if self._pickled < k:
            self._pickler.dump([lane[self._pickled:k]
                                for lane in self.diagnostics])
            self._pickled = k
        return {"dims": self._dims, "dt": self.dt, "n_periods": k,
                "meter": self.meter,
                "series": {name: v[:, :k] for name, v in self.series.items()},
                "diagnostics": self._diag_stream.getvalue()}

    @classmethod
    def from_snapshot(cls, state: dict) -> "LaneRecord":
        """The record a :meth:`snapshot` was taken of, ready to go on."""
        record = cls(*state["dims"], state["dt"])
        k = record.n_periods = state["n_periods"]
        for name, prefix in state["series"].items():
            record.series[name][:, :k] = prefix
        record.meter = state["meter"]
        stream = io.BytesIO(state["diagnostics"])
        unpickler = pickle.Unpickler(stream)
        while stream.tell() < len(state["diagnostics"]):
            for lane, chunk in zip(record.diagnostics, unpickler.load()):
                lane.extend(chunk)
        return record

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
