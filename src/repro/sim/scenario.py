"""Scenario configuration and the paper's experimental setup.

:func:`paper_scenario` reconstructs the Sec. V experiment verbatim:

* Table I — five front-end portals with workloads 30000, 15000, 15000,
  20000, 20000 requests/second;
* Table II — three IDCs (Michigan, Minnesota, Wisconsin) with
  μ = (2.0, 1.25, 1.75) req/s, fleets (30000, 40000, 20000), latency
  bound 1 ms, and 150 W idle / 285 W peak servers;
* Table III / Fig. 2 — the embedded hourly price traces, with the
  simulated window starting at 6:00 so the 7:00 price adjustment (the
  Wisconsin 19.06 → 77.97 spike) lands inside the run;
* Sec. V-C — optional power budgets 5.13, 10.26, 4.275 MW.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..datacenter import IDCCluster, IDCConfig, LinearPowerModel
from ..exceptions import ConfigurationError
from ..pricing import RealTimeMarket, RegionMarketConfig, paper_price_traces
from ..workload import PortalSet

__all__ = ["Scenario", "paper_scenario", "price_step_scenario",
           "monte_carlo_scenarios", "PAPER_BUDGETS_WATTS", "paper_cluster",
           "PAPER_PORTAL_LOADS", "PAPER_IDC_SPECS"]

#: Sec. V-C budgets, converted from the paper's "MWH" figures to watts.
PAPER_BUDGETS_WATTS = np.array([5.13e6, 10.26e6, 4.275e6])

#: Table I portal workloads (requests/second).
PAPER_PORTAL_LOADS = (30000.0, 15000.0, 15000.0, 20000.0, 20000.0)

#: Table II rows: (name, max_servers, service_rate).
PAPER_IDC_SPECS = (
    ("michigan", 30000, 2.0),
    ("minnesota", 40000, 1.25),
    ("wisconsin", 20000, 1.75),
)

PAPER_LATENCY_BOUND = 0.001   # 1 ms
PAPER_IDLE_WATTS = 150.0
PAPER_PEAK_WATTS = 285.0


@dataclass
class Scenario:
    """A complete closed-loop experiment description.

    Attributes
    ----------
    cluster:
        IDCs + portals (the plant).
    market:
        Price source; region order must match the cluster's IDCs.
    dt:
        Control period, seconds.
    duration:
        Total simulated span, seconds.
    start_time:
        Offset into the price traces, seconds (e.g. 6 h for the paper).
    budgets_watts:
        Optional per-IDC peak budgets (used by budget-aware policies and
        the violation metrics; ``None`` = unconstrained).
    faults:
        Optional list of :mod:`repro.sim.faults` events (outages,
        telemetry and actuation faults) the engine's plant applies.
    name:
        Label used in reports.
    """

    cluster: IDCCluster
    market: RealTimeMarket
    dt: float = 30.0
    duration: float = 600.0
    start_time: float = 6 * 3600.0
    budgets_watts: np.ndarray | None = None
    faults: list | None = None
    name: str = "scenario"

    def __post_init__(self) -> None:
        if self.dt <= 0 or self.duration <= 0:
            raise ConfigurationError("dt and duration must be positive")
        if self.duration < self.dt:
            raise ConfigurationError("duration must cover at least one period")
        market_regions = set(self.market.region_names)
        for region in self.cluster.regions:
            if region not in market_regions:
                raise ConfigurationError(
                    f"cluster region {region!r} missing from market")

    @property
    def n_periods(self) -> int:
        return int(np.floor(self.duration / self.dt))

    def prices_at(self, t_seconds: float) -> np.ndarray:
        """Per-IDC prices (cluster order) at absolute trace time."""
        return np.array([
            self.market.price(region, t_seconds)
            for region in self.cluster.regions
        ])

    def with_budgets(self, budgets_watts) -> "Scenario":
        """Copy of the scenario with different budgets."""
        return replace(self, budgets_watts=budgets_watts)


def paper_cluster(initial_servers: list[int] | None = None,
                  portal_loads=None) -> IDCCluster:
    """The Table I + Table II plant.

    ``portal_loads`` overrides the Table I constant portal rates (same
    portal count) — used by :func:`monte_carlo_scenarios` to build
    workload-perturbed copies of the paper plant.
    """
    configs = []
    for name, fleet, mu in PAPER_IDC_SPECS:
        configs.append(IDCConfig(
            name=name, region=name, max_servers=fleet, service_rate=mu,
            latency_bound=PAPER_LATENCY_BOUND,
            power_model=LinearPowerModel.from_idle_peak(
                PAPER_IDLE_WATTS, PAPER_PEAK_WATTS, service_rate=mu),
        ))
    if portal_loads is None:
        portal_loads = list(PAPER_PORTAL_LOADS)
    portals = PortalSet.constant(list(portal_loads))
    return IDCCluster.from_configs(configs, portals,
                                   initial_servers=initial_servers)


def paper_scenario(dt: float = 30.0, duration: float = 600.0,
                   start_hour: float = 6.0,
                   with_budgets: bool = False,
                   demand_sensitivity: float = 0.0) -> Scenario:
    """The Sec. V experiment.

    Parameters
    ----------
    dt, duration:
        Control period and simulated span (defaults: 30 s steps over the
        paper's 10-minute window).
    start_hour:
        Trace hour at which the run starts.  The default 6.0 puts the
        violent 7:00 price adjustment far outside a 10-minute window, so
        the *smoothing/shaving experiments* instead start shortly before
        7:00 — use :func:`price_step_scenario` for those; this default
        reproduces steady-state operation at the 6H prices.
    with_budgets:
        Attach the Sec. V-C budgets.
    demand_sensitivity:
        γ of the demand→price feedback (0 = pure traces, as the paper's
        main experiments).
    """
    cluster = paper_cluster()
    traces = paper_price_traces()
    market = RealTimeMarket({
        name: RegionMarketConfig(
            trace=traces[name],
            demand_sensitivity=demand_sensitivity,
            nominal_power_mw=5.0,
        )
        for name, _fleet, _mu in PAPER_IDC_SPECS
    })
    return Scenario(
        cluster=cluster,
        market=market,
        dt=dt,
        duration=duration,
        start_time=start_hour * 3600.0,
        budgets_watts=PAPER_BUDGETS_WATTS.copy() if with_budgets else None,
        name="paper",
    )


def price_step_scenario(dt: float = 30.0, duration: float = 600.0,
                        with_budgets: bool = False,
                        lead_seconds: float = 60.0,
                        demand_sensitivity: float = 0.0) -> Scenario:
    """The Figs. 4–7 window: the 6H→7H price step lands inside the run.

    Starts ``lead_seconds`` before 7:00 so policies first settle at the
    6H operating point, then react to the price adjustment.  This is the
    event the paper's 10-minute evaluation revolves around (power demand
    jumps of the optimal policy at 7H, smoothed/shaved by the MPC).
    """
    scenario = paper_scenario(dt=dt, duration=duration,
                              with_budgets=with_budgets,
                              demand_sensitivity=demand_sensitivity)
    return replace(scenario, start_time=7 * 3600.0 - lead_seconds,
                   name="paper-price-step")


def monte_carlo_scenarios(n: int, *, seed: int = 0, dt: float = 30.0,
                          duration: float = 600.0,
                          lead_seconds: float = 240.0,
                          price_noise: float = 0.1,
                          load_noise: float = 0.15,
                          max_utilization: float = 0.85,
                          demand_sensitivity: float = 0.0,
                          nominal_power_mw: float = 5.0) -> list[Scenario]:
    """``n`` noisy replicas of the price-step experiment (fleet MC).

    Each scenario perturbs the Sec. V setup with *scenario-constant*
    multiplicative noise: every region's hourly price trace is scaled by
    ``1 + price_noise·N(0,1)`` and every portal's constant workload by
    ``1 + load_noise·N(0,1)`` (clipped to [0.3, 1.2]), then the portal
    loads are rescaled if needed so the total stays below
    ``max_utilization`` of the latency-bounded fleet capacity — the
    reference LP must stay feasible in every lane.  All replicas share
    the plant *structure* (Table II), so the whole set rides the batched
    engine (:func:`repro.sim.run_batch`) as one group — including with
    ``demand_sensitivity > 0``: each lane then owns an *independent*
    demand-coupled market (γ and P̄ = ``nominal_power_mw`` shared, price
    feedback against that lane's own draw), cleared vectorized through
    :class:`repro.pricing.LaneMarketBatch`.

    The window is the Figs. 4–7 price-step window: the run starts
    ``lead_seconds`` before 7:00 so the 6H→7H adjustment (scaled per
    scenario) lands inside every lane's horizon.
    """
    if n < 1:
        raise ConfigurationError("need at least one scenario")
    from ..pricing import PriceTrace
    rng = np.random.default_rng(seed)
    region_names = [name for name, _fleet, _mu in PAPER_IDC_SPECS]
    base_traces = paper_price_traces()
    base_loads = np.asarray(PAPER_PORTAL_LOADS, dtype=float)
    capacity = sum(mu * fleet - 1.0 / PAPER_LATENCY_BOUND
                   for _name, fleet, mu in PAPER_IDC_SPECS)
    limit = max_utilization * capacity

    price_scales = np.clip(
        1.0 + price_noise * rng.standard_normal((n, len(region_names))),
        0.05, None)
    load_scales = np.clip(
        1.0 + load_noise * rng.standard_normal((n, base_loads.size)),
        0.3, 1.2)

    scenarios = []
    for s in range(n):
        loads = base_loads * load_scales[s]
        total = float(loads.sum())
        if total > limit:
            loads *= limit / total
        market = RealTimeMarket({
            name: RegionMarketConfig(
                trace=PriceTrace(
                    region=name,
                    hourly=base_traces[name].hourly * price_scales[s, j]),
                demand_sensitivity=demand_sensitivity,
                nominal_power_mw=nominal_power_mw,
            )
            for j, name in enumerate(region_names)
        })
        scenarios.append(Scenario(
            cluster=paper_cluster(portal_loads=loads),
            market=market,
            dt=dt,
            duration=duration,
            start_time=7 * 3600.0 - lead_seconds,
            name=f"mc-{s:04d}",
        ))
    return scenarios
