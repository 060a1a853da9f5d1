"""Failure injection for closed-loop experiments.

Real IDC fleets lose capacity — rack failures, cooling events, rolling
maintenance.  A :class:`FleetOutage` marks a fraction of one IDC's
servers unavailable over a time window.  Availability is data: the
engine's plant turns each lane's outage windows into its ``(S, N)``
available servers every period (:func:`outage_availability`) and hands
them to the actuation channel, the plant's server check, the monitors
and the policy, whose capacity rows, waterfill caps and eq. 35 cap
follow them — so policies react by reallocating to the surviving sites.
No cluster object is mutated on the way (only a scalar run's own
cluster is told, for the policies that read it).

Telemetry faults model the *information* layer failing while the plant
keeps running: a :class:`PriceFeedDropout` blinds the controller to one
region's RTP feed, a :class:`SensorGap` silences one portal's workload
sensor.  The engine turns active telemetry faults into visibility masks
(:func:`telemetry_visibility`) and routes the masked streams through a
:class:`repro.resilience.TelemetryGuard`, so the policy decides on
gap-filled estimates while billing and invariant checking keep using the
true values.

Actuation faults model the *command* path failing: the eq.-35 server
ON/OFF order leaves the controller but does not reach the fleet intact.
A :class:`CommandDrop` loses the command entirely (the fleet holds its
previous counts), an :class:`ActuationLag` delivers it whole but several
periods late (server provisioning is not instantaneous — boots, drains,
health checks), and a :class:`PartialApply` lands only a fraction of the
ordered *change* (stragglers that refuse to drain or boot).  The plant
routes every lane's commands through one lane-vectorized
:class:`ActuationChannel` that applies the active faults per (lane,
IDC), tracks commanded-vs-applied counts, and feeds the applied truth
back to the policy so its reconciliation step can compensate — see
:meth:`repro.core.BatchCostMPCPolicy.reconcile_actuation`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..datacenter.cluster import IDCCluster
from ..exceptions import ConfigurationError

__all__ = ["ActuationChannel", "ActuationLag", "CommandDrop",
           "FleetOutage", "PartialApply", "PriceFeedDropout", "SensorGap",
           "outage_availability", "split_faults", "telemetry_visibility"]


class _Window:
    """A fault active over ``[start_seconds, end_seconds)``, absolute
    simulation times (the clock of ``Scenario.start_time``)."""

    def __post_init__(self) -> None:
        if self.end_seconds <= self.start_seconds:
            raise ConfigurationError("fault must end after it starts")

    def active_at(self, t_seconds: float) -> bool:
        """Whether the fault's window covers simulation time ``t_seconds``."""
        return self.start_seconds <= t_seconds < self.end_seconds


@dataclass(frozen=True)
class FleetOutage(_Window):
    """A capacity-loss event at one IDC.

    Attributes
    ----------
    idc_name:
        The affected IDC.
    start_seconds / end_seconds:
        Absolute simulation times (same clock as ``Scenario.start_time``)
        between which the outage is active; ``end`` is exclusive.
    available_fraction:
        Fraction of the fleet that stays usable during the outage
        (0 = total outage, 0.5 = half the fleet down).
    """

    idc_name: str
    start_seconds: float
    end_seconds: float
    available_fraction: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.available_fraction <= 1.0:
            raise ConfigurationError(
                "available_fraction must be in [0, 1]")


@dataclass(frozen=True)
class PriceFeedDropout(_Window):
    """An RTP price feed going dark for one IDC's market region.

    While active, the engine masks that IDC's price entry from the
    policy's observation; the telemetry guard substitutes a hold-last /
    staleness-decayed estimate.  The market itself (billing) always uses
    the true price — a blind controller still pays real money.
    """

    idc_name: str
    start_seconds: float
    end_seconds: float


@dataclass(frozen=True)
class SensorGap(_Window):
    """A front portal's workload sensor going silent.

    While active, the engine masks that portal's load measurement from
    the policy; the telemetry guard fills the gap with its AR
    predictor's forecast.  The recorder still logs the portal's *true*
    load, so a gap shows up as a routed-vs-offered discrepancy in the
    results rather than silently vanishing.
    """

    portal_index: int
    start_seconds: float
    end_seconds: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.portal_index < 0:
            raise ConfigurationError("portal_index must be >= 0")


@dataclass(frozen=True)
class CommandDrop(_Window):
    """An eq.-35 server command lost on the way to one IDC.

    While active, every server command for the IDC is dropped and the
    fleet holds the counts it was last running — the classic lost-RPC
    failure of a provisioning API.
    """

    idc_name: str
    start_seconds: float
    end_seconds: float


@dataclass(frozen=True)
class ActuationLag(_Window):
    """Server commands reaching one IDC ``delay_periods`` periods late.

    Models the real latency of provisioning: booting a server or
    draining its connections takes minutes, so the count the fleet runs
    in period ``k`` is the count ordered in period ``k - delay``.
    Commands issued before the window opened (or before the run started)
    fall back to the oldest known command.
    """

    idc_name: str
    start_seconds: float
    end_seconds: float
    delay_periods: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.delay_periods < 1:
            raise ConfigurationError("delay_periods must be >= 1")


@dataclass(frozen=True)
class PartialApply(_Window):
    """Only a fraction of the ordered server *change* lands at one IDC.

    With fraction ``f``, an order to move from ``m_prev`` to ``m_cmd``
    servers lands at ``m_prev + trunc(f · (m_cmd − m_prev))`` — the
    truncation toward zero means a partial actuator never overshoots the
    command, and a change too small to survive the fraction simply does
    not happen (stragglers that refuse to boot or drain).
    """

    idc_name: str
    start_seconds: float
    end_seconds: float
    fraction: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.fraction < 1.0:
            raise ConfigurationError(
                "fraction must be in [0, 1) — 1.0 is a healthy actuator")


class SplitFaults(NamedTuple):
    """The four fault families, partitioned by :func:`split_faults`."""

    outages: list
    price_faults: list
    sensor_faults: list
    actuation_faults: list


def split_faults(faults: list) -> SplitFaults:
    """Partition a mixed fault list into its four families.

    Returns a :class:`SplitFaults` named tuple ``(outages, price_faults,
    sensor_faults, actuation_faults)``.  Raises
    :class:`ConfigurationError` on an object of unknown type, so a
    typo'd fault never silently does nothing.
    """
    outages, price_faults, sensor_faults, actuation = [], [], [], []
    for fault in faults:
        if isinstance(fault, FleetOutage):
            outages.append(fault)
        elif isinstance(fault, PriceFeedDropout):
            price_faults.append(fault)
        elif isinstance(fault, SensorGap):
            sensor_faults.append(fault)
        elif isinstance(fault, (CommandDrop, ActuationLag, PartialApply)):
            actuation.append(fault)
        else:
            raise ConfigurationError(
                f"unknown fault type {type(fault).__name__!r}")
    return SplitFaults(outages, price_faults, sensor_faults, actuation)


def outage_availability(clusters, lane_faults, t_seconds) -> np.ndarray:
    """Each lane's available servers at its time, shape ``(S, N)``.

    Lane ``s`` reads its :class:`FleetOutage` windows from
    ``lane_faults[s]`` at ``t_seconds[s]`` against ``clusters[s]``.
    Overlapping outages on the same IDC compose by taking the *minimum*
    surviving fraction; an IDC with no active outage keeps its whole
    fleet.  Telemetry and actuation faults in the lists are ignored here
    (they do not change the fleet); an outage naming an unknown IDC, or
    an object of unknown fault type, raises
    :class:`ConfigurationError`.
    """
    t_seconds = np.broadcast_to(np.asarray(t_seconds, dtype=float),
                                (len(clusters),))
    out = np.empty((len(clusters), clusters[0].n_idcs), dtype=int)
    for s, (cluster, faults, t) in enumerate(
            zip(clusters, lane_faults, t_seconds)):
        fractions = dict.fromkeys(cluster.idc_names, 1.0)
        outages = split_faults(faults or []).outages
        for fault in outages:
            if fault.idc_name not in fractions:
                raise ConfigurationError(
                    f"outage references unknown IDC {fault.idc_name!r}")
        for fault in outages:
            if fault.active_at(t):
                fractions[fault.idc_name] = min(fractions[fault.idc_name],
                                                fault.available_fraction)
        out[s] = [int(fractions[idc.config.name] * idc.config.max_servers)
                  for idc in cluster.idcs]
    return out


def telemetry_visibility(cluster: IDCCluster, faults: list,
                         t_seconds: float):
    """Visibility masks for the price and load streams at time ``t``.

    Returns ``(prices_ok, loads_ok)`` boolean arrays (True = the sample
    arrived).  Raises :class:`ConfigurationError` when a telemetry fault
    references an unknown IDC or an out-of-range portal.
    """
    _, price_faults, sensor_faults, _ = split_faults(faults)
    name_index = {name: j for j, name in enumerate(cluster.idc_names)}
    prices_ok = np.ones(cluster.n_idcs, dtype=bool)
    loads_ok = np.ones(cluster.n_portals, dtype=bool)
    for fault in price_faults:
        if fault.idc_name not in name_index:
            raise ConfigurationError(
                f"price dropout references unknown IDC {fault.idc_name!r}")
        if fault.active_at(t_seconds):
            prices_ok[name_index[fault.idc_name]] = False
    for fault in sensor_faults:
        if fault.portal_index >= cluster.n_portals:
            raise ConfigurationError(
                f"sensor gap references portal {fault.portal_index} but "
                f"the cluster has {cluster.n_portals} portals")
        if fault.active_at(t_seconds):
            loads_ok[fault.portal_index] = False
    return prices_ok, loads_ok


class ActuationChannel:
    """The command path between the controllers and their fleets.

    One channel serves ``S`` lanes: :meth:`apply` takes the ``(S, N)``
    eq.-35 server commands and returns the counts each lane's fleet
    *actually* runs after that lane's active actuation faults.  Per
    (lane, IDC), faults compose in severity order — an active
    :class:`CommandDrop` wins over an :class:`ActuationLag`, which wins
    over a :class:`PartialApply`, and the first listed of overlapping
    faults of one kind wins — and the result is always clamped into
    ``[0, available]`` (a lagged or held command can name servers an
    outage has since taken away; the plant can only run what exists).

    The channel is deterministic state (previous applied counts plus a
    bounded command history for the lag model), so it checkpoints with
    :meth:`snapshot`/:meth:`restore` like every other stateful
    component.  Its counters are per lane (:meth:`lane_counters`).
    """

    #: severity of each actuation fault kind (0: none)
    _KINDS = {PartialApply: 1, ActuationLag: 2, CommandDrop: 3}

    def __init__(self, clusters, lane_faults) -> None:
        self.n_lanes, self.n_idcs = len(clusters), clusters[0].n_idcs
        windows = []
        for s, (cluster, faults) in enumerate(zip(clusters, lane_faults)):
            index = {name: j for j, name in enumerate(cluster.idc_names)}
            for fault in split_faults(faults or []).actuation_faults:
                if fault.idc_name not in index:
                    raise ConfigurationError(
                        f"actuation fault references unknown IDC "
                        f"{fault.idc_name!r}")
                windows.append((s, index[fault.idc_name], fault))
        # applied in order, later writes winning: by severity, and the
        # first listed fault of a kind last
        self._windows = sorted(windows[::-1],
                               key=lambda w: self._KINDS[type(w[2])])
        self._max_delay = max((getattr(f, "delay_periods", 0)
                               for _s, _j, f in windows), default=0)
        self.reset(np.zeros((self.n_lanes, self.n_idcs), dtype=int))

    def reset(self, servers_running: np.ndarray) -> None:
        """Start a run with the fleets at ``servers_running`` ``(S, N)``."""
        start = np.asarray(servers_running).astype(int).reshape(
            self.n_lanes, self.n_idcs)
        self._applied_prev = start.copy()
        # History of issued commands, oldest first; pre-filled with the
        # starting counts so an immediately active lag has a command to
        # deliver.
        self._history = deque([start.copy()], maxlen=self._max_delay + 1)
        self.counters = {name: np.zeros(self.n_lanes, dtype=int) for name in (
            "actuation_commands", "actuation_dropped_commands",
            "actuation_lagged_commands", "actuation_partial_commands",
            "actuation_clamped_commands", "actuation_faulted_periods")}

    def apply(self, commanded: np.ndarray, t_seconds,
              available: np.ndarray) -> np.ndarray:
        """Applied server counts ``(S, N)`` for one period's commands.

        ``t_seconds`` is each lane's clock ``(S,)`` and ``available``
        its available fleet ``(S, N)``.  A pure function of the channel
        state, the commands and the active fault windows — no
        randomness, so a resumed run replays the identical actuation
        trace.
        """
        shape = (self.n_lanes, self.n_idcs)
        commanded = np.asarray(commanded).astype(int).reshape(shape)
        t = np.broadcast_to(np.asarray(t_seconds, dtype=float),
                            (self.n_lanes,))
        history, prev = self._history, self._applied_prev
        history.append(commanded.copy())
        applied = commanded.copy()
        kind = np.zeros(shape, dtype=int)
        for s, j, f in self._windows:
            if not f.active_at(t[s]):
                continue
            if isinstance(f, PartialApply):
                delta = commanded[s, j] - prev[s, j]
                applied[s, j] = prev[s, j] + int(np.trunc(f.fraction * delta))
            elif isinstance(f, ActuationLag):
                idx = max(len(history) - 1 - f.delay_periods, 0)
                applied[s, j] = history[idx][s, j]
            else:
                applied[s, j] = prev[s, j]
            kind[s, j] = self._KINDS[type(f)]
        clamped = np.clip(applied, 0, np.reshape(available, shape))
        c = self.counters
        c["actuation_commands"] += self.n_idcs
        c["actuation_partial_commands"] += (kind == 1).sum(axis=1)
        c["actuation_lagged_commands"] += (kind == 2).sum(axis=1)
        c["actuation_dropped_commands"] += (kind == 3).sum(axis=1)
        c["actuation_clamped_commands"] += (clamped != applied).sum(axis=1)
        c["actuation_faulted_periods"] += (kind > 0).any(axis=1)
        self._applied_prev = clamped.copy()
        return clamped

    def lane_counters(self, lane: int) -> dict[str, int]:
        """Lane ``lane``'s counters as a plain dict."""
        return {name: int(v[lane]) for name, v in self.counters.items()}

    def snapshot(self) -> dict:
        """Picklable copy of the channel state (for checkpoints)."""
        return {
            "applied_prev": self._applied_prev.copy(),
            "history": [h.copy() for h in self._history],
            "counters": {k: v.copy() for k, v in self.counters.items()},
        }

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot`; the snapshot stays reusable."""
        self._applied_prev = np.asarray(state["applied_prev"]) \
            .astype(int).copy()
        self._history = deque(
            [np.asarray(h).astype(int).copy() for h in state["history"]],
            maxlen=self._max_delay + 1)
        self.counters = {k: np.asarray(v).copy()
                         for k, v in state["counters"].items()}
