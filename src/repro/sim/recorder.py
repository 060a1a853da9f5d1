"""Per-period metric recording for the lane-axis period loop.

:class:`LaneRecord` holds everything the analysis layer and the figure
benchmarks need, for ``S`` lanes at once: per-IDC power, server counts,
workloads, latencies, prices, portal loads, allocations, per-period
policy diagnostics and the :class:`~repro.datacenter.EnergyMeter`
integrals.  A scalar run is one lane.

A checkpoint log starts with :meth:`LaneRecord.snapshot` — the series'
filled prefix and the diagnostics as one pickle stream, so its size
grows with the periods recorded — and goes on with :meth:`LaneRecord.chunk`
per delta: the periods recorded since the frame before, whose size does
not grow.  :meth:`RecordChunk.fold` adds a snapshot and its chunks up to
one snapshot of the whole.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass

import numpy as np

from ..datacenter.power import EnergyMeter
from ..exceptions import CheckpointError, ModelError
from .results import SimulationResult

__all__ = ["LaneRecord", "RecordChunk"]


@dataclass
class RecordChunk:
    """The periods ``[start, stop)`` a record gained since its last frame.

    ``series`` holds each series' columns ``[:, start:stop]``,
    ``diagnostics`` the pickle stream's bytes written since the last
    frame, and ``meter`` the meter's running integrals (a fixed size).
    """

    start: int
    stop: int
    series: dict
    diagnostics: bytes
    meter: EnergyMeter

    @staticmethod
    def fold(snapshot: dict, chunks: list["RecordChunk"]) -> dict:
        """``snapshot`` extended by ``chunks`` in order, as one snapshot."""
        k = snapshot["n_periods"]
        for chunk in chunks:
            if chunk.start != k:
                raise CheckpointError(
                    f"record chunk starts at period {chunk.start}, "
                    f"not {k}")
            k = chunk.stop
        return {**snapshot, "n_periods": k, "meter": chunks[-1].meter,
                "series": {name: np.concatenate(
                    [prefix] + [c.series[name] for c in chunks], axis=1)
                    for name, prefix in snapshot["series"].items()},
                "diagnostics": b"".join([snapshot["diagnostics"]] + [
                    c.diagnostics for c in chunks])}


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
        # the diagnostics' pickle stream, written by snapshot() and
        # chunk() only: one pickler, so its memo spans the chunks as one
        # pickle's would
        self._diag_stream = io.BytesIO()
        self._pickler = None
        self._pickled = 0           # periods in the stream
        # the periods and stream bytes the last frame carried up to
        self._framed = (0, 0)

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

    def _pickle_diagnostics(self) -> int:
        """Pickle the periods not yet in the stream; the stream's size."""
        k = self.n_periods
        if self._pickler is None:
            self._pickler = pickle.Pickler(self._diag_stream,
                                           protocol=pickle.HIGHEST_PROTOCOL)
        if self._pickled < k:
            self._pickler.dump([lane[self._pickled:k]
                                for lane in self.diagnostics])
            self._pickled = k
        return self._diag_stream.tell()

    def snapshot(self) -> dict:
        """The periods recorded so far, for a checkpoint's base frame.

        The series go as their filled prefix ``[:, :n_periods]``, which
        the checkpoint pickles at once.  The diagnostics go as one pickle
        stream of per-interval chunks: each period's dicts are pickled
        once, by the first snapshot or chunk after they were recorded, so
        a run that never checkpoints never pays for it.
        """
        k = self.n_periods
        self._framed = (k, self._pickle_diagnostics())
        return {"dims": self._dims, "dt": self.dt, "n_periods": k,
                "meter": self.meter,
                "series": {name: v[:, :k] for name, v in self.series.items()},
                "diagnostics": self._diag_stream.getvalue()}

    def chunk(self) -> RecordChunk:
        """The periods recorded since the last snapshot or chunk.

        Its size does not grow with the periods already recorded, so a
        checkpoint's delta frame costs the same late in a day as early.
        A restored record starts a fresh pickle stream, whose first frame
        must be a :meth:`snapshot`.
        """
        if self._framed is None:
            raise ModelError("a restored record's first frame is a "
                             "snapshot(), not a chunk()")
        (start, offset), k = self._framed, self.n_periods
        end = self._pickle_diagnostics()
        self._diag_stream.seek(offset)
        diagnostics = self._diag_stream.read()     # leaves it at the end
        self._framed = (k, end)
        return RecordChunk(
            start, k, {name: v[:, start:k] for name, v in self.series.items()},
            diagnostics, self.meter)

    @classmethod
    def from_snapshot(cls, state: dict) -> "LaneRecord":
        """The record a :meth:`snapshot` was taken of, ready to go on."""
        record = cls(*state["dims"], state["dt"])
        k = record.n_periods = state["n_periods"]
        for name, prefix in state["series"].items():
            record.series[name][:, :k] = prefix
        record.meter = state["meter"]
        record._framed = None       # its stream restarts from period 0
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
