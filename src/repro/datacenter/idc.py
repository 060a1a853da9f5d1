"""Internet Data Center model.

An :class:`IDC` bundles the static configuration of one data center
(region, server fleet, service rate, latency bound, power model — the
Table II columns) with its dynamic state (active servers, assigned
workload) and exposes the derived quantities the controller and the
simulator need: power draw, latency, and latency-bounded capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import CapacityError, ConfigurationError, ModelError
from .queueing import latency_capacity, required_servers, simplified_latency
from .server import LinearPowerModel

__all__ = ["IDCConfig", "IDC"]


@dataclass(frozen=True)
class IDCConfig:
    """Static description of one IDC (a row of Table II).

    Attributes
    ----------
    name:
        Identifier, conventionally the region name.
    region:
        Electricity-market region used for price lookups.
    max_servers:
        ``M_j`` — fleet size.
    service_rate:
        ``μ_j`` — requests/second per server.
    latency_bound:
        ``D_j`` — the QoS latency bound in seconds.
    power_model:
        Per-server affine power model.
    """

    name: str
    region: str
    max_servers: int
    service_rate: float
    latency_bound: float
    power_model: LinearPowerModel

    def __post_init__(self) -> None:
        if self.max_servers < 1:
            raise ConfigurationError("max_servers must be >= 1")
        if self.service_rate <= 0:
            raise ConfigurationError("service_rate must be positive")
        if self.latency_bound <= 0:
            raise ConfigurationError("latency_bound must be positive")

    @property
    def max_capacity(self) -> float:
        """Latency-bounded workload capacity with every server on."""
        return latency_capacity(self.max_servers, self.service_rate,
                                self.latency_bound)

    @property
    def max_power_watts(self) -> float:
        """Power with all servers on at full utilization."""
        full_load = self.max_servers * self.service_rate
        return self.power_model.cluster_power(full_load, self.max_servers)


class IDC:
    """One data center's dynamic state on top of an :class:`IDCConfig`."""

    def __init__(self, config: IDCConfig, initial_servers: int | None = None):
        self.config = config
        self._available = config.max_servers
        if initial_servers is None:
            initial_servers = config.max_servers
        self._servers_on = 0
        self.set_servers(initial_servers)
        self._initial_servers = self._servers_on
        self._workload = 0.0

    def reset(self) -> None:
        """Back to the IDC as built: whole fleet usable, initial servers on."""
        self._available = self.config.max_servers
        self._servers_on = self._initial_servers

    # -- availability (failure injection) --------------------------------
    @property
    def available_servers(self) -> int:
        """Servers currently usable (≤ fleet size; reduced by outages)."""
        return self._available

    @property
    def available_capacity(self) -> float:
        """Latency-bounded capacity with every *available* server on."""
        return latency_capacity(self._available, self.config.service_rate,
                                self.config.latency_bound)

    def set_availability(self, count: int) -> None:
        """Mark only ``count`` servers as usable (e.g. a rack outage).

        Active servers are clamped down if they exceed the new limit.
        """
        count = int(count)
        if not 0 <= count <= self.config.max_servers:
            raise ConfigurationError(
                f"availability {count} outside [0, {self.config.max_servers}]"
                f" for IDC {self.config.name}")
        self._available = count
        if self._servers_on > count:
            self._servers_on = count

    # -- server (slow-loop) state --------------------------------------
    @property
    def initial_servers(self) -> int:
        """Active servers the IDC was built with (what :meth:`reset` restores)."""
        return self._initial_servers

    @property
    def servers_on(self) -> int:
        """``m_j`` — currently active servers."""
        return self._servers_on

    def set_servers(self, count: int) -> None:
        """Set the active server count, validated against availability."""
        count = int(count)
        if not 0 <= count <= self._available:
            raise ConfigurationError(
                f"server count {count} outside [0, {self._available}]"
                f" (available) for IDC {self.config.name}")
        self._servers_on = count

    def servers_for(self, workload: float) -> int:
        """Eq. 35: servers needed for ``workload`` under the QoS bound.

        Raises :class:`CapacityError` when the *available* fleet is too
        small.
        """
        m = required_servers(workload, self.config.service_rate,
                             self.config.latency_bound)
        if m > self._available:
            raise CapacityError(
                f"IDC {self.config.name} needs {m} servers for workload "
                f"{workload:.1f} but only {self._available} are available")
        return m

    # -- workload (fast-loop) state ------------------------------------
    @property
    def workload(self) -> float:
        """``λ_j`` — total assigned request rate."""
        return self._workload

    def assign_workload(self, workload: float) -> None:
        """Assign the aggregate workload routed to this IDC."""
        if workload < 0:
            raise ModelError("workload must be nonnegative")
        self._workload = float(workload)

    # -- derived quantities ----------------------------------------------
    @property
    def capacity(self) -> float:
        """Latency-bounded capacity with the current active servers."""
        return latency_capacity(self._servers_on, self.config.service_rate,
                                self.config.latency_bound)

    def power_watts(self, workload: float | None = None,
                    servers_on: int | None = None) -> float:
        """Power draw (eq. 7), defaulting to current state."""
        lam = self._workload if workload is None else float(workload)
        m = self._servers_on if servers_on is None else int(servers_on)
        return self.config.power_model.cluster_power(lam, m)

    def latency(self, workload: float | None = None) -> float:
        """Simplified average latency (eq. 14) at the current state."""
        lam = self._workload if workload is None else float(workload)
        return simplified_latency(lam, self._servers_on,
                                  self.config.service_rate)

    def meets_qos(self, workload: float | None = None) -> bool:
        """Whether the latency bound holds at the current server count."""
        lam = self._workload if workload is None else float(workload)
        try:
            return self.latency(lam) <= self.config.latency_bound + 1e-12
        except ModelError:
            return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IDC({self.config.name!r}, servers={self._servers_on}/"
                f"{self.config.max_servers}, workload={self._workload:.1f})")
