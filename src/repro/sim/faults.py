"""Failure injection for closed-loop experiments.

Real IDC fleets lose capacity — rack failures, cooling events, rolling
maintenance.  A :class:`FleetOutage` marks a fraction of one IDC's
servers unavailable over a time window; the engine applies the active
outages at the start of every control period, and every capacity-aware
component (reference LP, MPC constraints, baselines, the sleep loop)
already reads ``IDC.available_servers``, so policies react by
reallocating to the surviving sites.

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
ordered *change* (stragglers that refuse to drain or boot).  The engine
routes commands through an :class:`ActuationChannel` that applies the
active faults per IDC, tracks commanded-vs-applied counts, and feeds the
applied truth back to the policy (``obs.prev_servers``) so its
reconciliation step can compensate — see
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
           "apply_faults", "split_faults", "telemetry_visibility"]


def _check_window(start_seconds: float, end_seconds: float) -> None:
    if end_seconds <= start_seconds:
        raise ConfigurationError("fault must end after it starts")


@dataclass(frozen=True)
class FleetOutage:
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
        _check_window(self.start_seconds, self.end_seconds)
        if not 0.0 <= self.available_fraction <= 1.0:
            raise ConfigurationError(
                "available_fraction must be in [0, 1]")

    def active_at(self, t_seconds: float) -> bool:
        """Whether the outage window covers simulation time ``t_seconds``."""
        return self.start_seconds <= t_seconds < self.end_seconds


@dataclass(frozen=True)
class PriceFeedDropout:
    """An RTP price feed going dark for one IDC's market region.

    While active, the engine masks that IDC's price entry from the
    policy's observation; the telemetry guard substitutes a hold-last /
    staleness-decayed estimate.  The market itself (billing) always uses
    the true price — a blind controller still pays real money.
    """

    idc_name: str
    start_seconds: float
    end_seconds: float

    def __post_init__(self) -> None:
        _check_window(self.start_seconds, self.end_seconds)

    def active_at(self, t_seconds: float) -> bool:
        """Whether the dropout window covers simulation time ``t_seconds``."""
        return self.start_seconds <= t_seconds < self.end_seconds


@dataclass(frozen=True)
class SensorGap:
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
        _check_window(self.start_seconds, self.end_seconds)
        if self.portal_index < 0:
            raise ConfigurationError("portal_index must be >= 0")

    def active_at(self, t_seconds: float) -> bool:
        """Whether the gap window covers simulation time ``t_seconds``."""
        return self.start_seconds <= t_seconds < self.end_seconds


@dataclass(frozen=True)
class CommandDrop:
    """An eq.-35 server command lost on the way to one IDC.

    While active, every server command for the IDC is dropped and the
    fleet holds the counts it was last running — the classic lost-RPC
    failure of a provisioning API.
    """

    idc_name: str
    start_seconds: float
    end_seconds: float

    def __post_init__(self) -> None:
        _check_window(self.start_seconds, self.end_seconds)

    def active_at(self, t_seconds: float) -> bool:
        """Whether the drop window covers simulation time ``t_seconds``."""
        return self.start_seconds <= t_seconds < self.end_seconds


@dataclass(frozen=True)
class ActuationLag:
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
        _check_window(self.start_seconds, self.end_seconds)
        if self.delay_periods < 1:
            raise ConfigurationError("delay_periods must be >= 1")

    def active_at(self, t_seconds: float) -> bool:
        """Whether the lag window covers simulation time ``t_seconds``."""
        return self.start_seconds <= t_seconds < self.end_seconds


@dataclass(frozen=True)
class PartialApply:
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
        _check_window(self.start_seconds, self.end_seconds)
        if not 0.0 <= self.fraction < 1.0:
            raise ConfigurationError(
                "fraction must be in [0, 1) — 1.0 is a healthy actuator")

    def active_at(self, t_seconds: float) -> bool:
        """Whether the window covers simulation time ``t_seconds``."""
        return self.start_seconds <= t_seconds < self.end_seconds


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


def apply_faults(cluster: IDCCluster, faults: list,
                 t_seconds: float) -> None:
    """Set every IDC's availability according to the active outages.

    Overlapping outages on the same IDC compose by taking the *minimum*
    surviving fraction.  IDCs with no active outage are fully restored.
    Telemetry faults in the list are ignored here (they affect what the
    policy *sees*, not the plant); unknown fault types raise
    :class:`ConfigurationError`.
    """
    outages = split_faults(faults).outages
    by_name = {idc.config.name: idc for idc in cluster.idcs}
    for fault in outages:
        if fault.idc_name not in by_name:
            raise ConfigurationError(
                f"outage references unknown IDC {fault.idc_name!r}")
    fractions = {name: 1.0 for name in by_name}
    for fault in outages:
        if fault.active_at(t_seconds):
            fractions[fault.idc_name] = min(fractions[fault.idc_name],
                                            fault.available_fraction)
    for name, idc in by_name.items():
        idc.set_availability(int(fractions[name] * idc.config.max_servers))


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
    """The command path between controller and fleet, faults included.

    The engine routes every eq.-35 server command through
    :meth:`apply`, which returns the counts the fleet *actually* runs
    after the active actuation faults.  Per IDC, faults compose in
    severity order — an active :class:`CommandDrop` wins over an
    :class:`ActuationLag`, which wins over a :class:`PartialApply` — and
    the result is always clamped into ``[0, available]`` (a lagged or
    held command can name servers an outage has since taken away; the
    plant can only run what exists).

    The channel is deterministic state (previous applied counts plus a
    bounded per-IDC command history for the lag model), so it
    checkpoints with :meth:`snapshot`/:meth:`restore` like every other
    stateful component.
    """

    def __init__(self, cluster: IDCCluster, faults: list) -> None:
        acts = split_faults(faults).actuation_faults
        names = set(cluster.idc_names)
        for fault in acts:
            if fault.idc_name not in names:
                raise ConfigurationError(
                    f"actuation fault references unknown IDC "
                    f"{fault.idc_name!r}")
        self._index = {name: j for j, name in enumerate(cluster.idc_names)}
        self.n_idcs = cluster.n_idcs
        self._drops = [f for f in acts if isinstance(f, CommandDrop)]
        self._lags = [f for f in acts if isinstance(f, ActuationLag)]
        self._partials = [f for f in acts if isinstance(f, PartialApply)]
        self._max_delay = max((f.delay_periods for f in self._lags),
                              default=0)
        self.reset(np.zeros(self.n_idcs, dtype=int))

    def reset(self, servers_running: np.ndarray) -> None:
        """Start a run with the fleet at ``servers_running`` counts."""
        start = np.asarray(servers_running).astype(int).ravel()
        self._applied_prev = start.copy()
        # History of issued commands, oldest first; pre-filled with the
        # starting counts so an immediately active lag has a command to
        # deliver.
        self._history = deque([start.copy()], maxlen=self._max_delay + 1)
        self.counters: dict[str, int] = {
            "actuation_commands": 0,
            "actuation_dropped_commands": 0,
            "actuation_lagged_commands": 0,
            "actuation_partial_commands": 0,
            "actuation_clamped_commands": 0,
            "actuation_faulted_periods": 0,
        }

    def apply(self, commanded: np.ndarray, t_seconds: float,
              available: np.ndarray) -> np.ndarray:
        """Applied server counts for one period's command.

        Pure function of the channel state, the command and the active
        fault windows — no randomness, so a resumed run replays the
        identical actuation trace.
        """
        commanded = np.asarray(commanded).astype(int).ravel()
        available = np.asarray(available).astype(int).ravel()
        self._history.append(commanded.copy())
        applied = commanded.copy()
        self.counters["actuation_commands"] += self.n_idcs
        faulted = False
        for name, j in self._index.items():
            if any(f.idc_name == name and f.active_at(t_seconds)
                   for f in self._drops):
                applied[j] = self._applied_prev[j]
                self.counters["actuation_dropped_commands"] += 1
                faulted = True
                continue
            lag = next((f for f in self._lags
                        if f.idc_name == name and f.active_at(t_seconds)),
                       None)
            if lag is not None:
                idx = max(len(self._history) - 1 - lag.delay_periods, 0)
                applied[j] = int(self._history[idx][j])
                self.counters["actuation_lagged_commands"] += 1
                faulted = True
                continue
            partial = next(
                (f for f in self._partials
                 if f.idc_name == name and f.active_at(t_seconds)), None)
            if partial is not None:
                delta = commanded[j] - self._applied_prev[j]
                landed = int(np.trunc(partial.fraction * delta))
                applied[j] = int(self._applied_prev[j] + landed)
                self.counters["actuation_partial_commands"] += 1
                faulted = True
        clamped = np.clip(applied, 0, available)
        self.counters["actuation_clamped_commands"] += \
            int(np.sum(clamped != applied))
        if faulted:
            self.counters["actuation_faulted_periods"] += 1
        self._applied_prev = clamped.copy()
        return clamped

    def snapshot(self) -> dict:
        """Picklable copy of the channel state (for checkpoints)."""
        return {
            "applied_prev": self._applied_prev.copy(),
            "history": [h.copy() for h in self._history],
            "counters": dict(self.counters),
        }

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot`; the snapshot stays reusable."""
        self._applied_prev = np.asarray(state["applied_prev"]) \
            .astype(int).copy()
        self._history = deque(
            [np.asarray(h).astype(int).copy() for h in state["history"]],
            maxlen=self._max_delay + 1)
        self.counters = dict(state["counters"])
