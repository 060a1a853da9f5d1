"""Shared-market fleet stepping: many controllers, one price.

Where :func:`repro.sim.run_batch` advances ``S`` *independent*
scenarios (each lane owns its market), this module couples the lanes:
``S`` controller lanes draw from common regional markets
(:class:`repro.pricing.SharedMarket`) whose price responds to the
*aggregate* fleet demand.  That is the herding setting of the paper's
Section I "vicious cycle" at grid scale — many price-chasing
controllers see the same cheap region, move together, and push the
price past where any of them wanted to be (cf. Pan et al., "When
Market Prices Drive the Load").

Per control period the fleet advances through a cross-lane barrier:

1. **Clear** the market — either *lagged* (:meth:`SharedMarket.
   prices_at`, the :class:`~repro.pricing.RealTimeMarket` convention:
   this period's price reflects last period's aggregate) or
   *simultaneous* (:func:`repro.pricing.clear_fixed_point`): a damped
   fixed-point iteration between the candidate price and the fleet's
   bid-curve demand response, with per-period iteration counters in
   :class:`~repro.sim.profiling.BatchPerfStats` and a convergence
   guard (a non-converged period is counted and the last damped
   iterate used — persistent oscillation is a *finding*).
2. **Refresh** each lane's *seen* prices.  With ``stagger > 1`` lane
   ``s`` only re-reads the market every ``stagger`` periods at offset
   ``s % stagger`` — the staggered-control-period mitigation: the
   fleet's reaction to a price move spreads over ``stagger`` periods
   instead of landing at once.
3. **Decide** every lane at its seen prices — cost-MPC lanes through
   one :class:`repro.core.BatchCostMPCPolicy` cohort, instantaneous-LP
   lanes through the batched waterfill, static lanes through a fixed
   capacity-proportional split (the price-insensitive control group).
4. **Report** the summed regional draw back to the market
   (:meth:`SharedMarket.record_demand`) and bill every lane at the
   cleared price.

:meth:`SharedMarketFleet.run` may be called repeatedly — the fleet is
resumable mid-day, and a split run reproduces the single-run price
trajectory bit for bit (the determinism the regression tests pin).
With ``wal_path`` / ``checkpoint_every`` the run is additionally
*durable*: every period appends a digest record to a (optionally
sharded) write-ahead log and the fleet state — market demand history
and clearing warm start included — is checkpointed so a killed day can
be resumed bit-exact with ``resume_from`` (see
:class:`repro.resilience.durability.RunJournal`).
:meth:`FleetResult.herding_metrics` reports the grid-level quantities
the mitigation study compares: aggregate ramp rate, price oscillation
amplitude, regional peak concentration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..exceptions import CheckpointError, ConfigurationError
from ..pricing import SharedMarket, clear_fixed_point
from ..pricing.market import check_clearing_controls
from ..resilience.durability import RunJournal, array_digest
from .profiling import BatchPerfStats

__all__ = ["SharedMarketFleet", "FleetResult", "run_shared_market_fleet",
           "POLICY_KINDS"]

#: Lane policy kinds the fleet stepper mixes.
POLICY_KINDS = ("mpc", "lp", "static")


@dataclass
class FleetResult:
    """Trajectory of one shared-market fleet run (grid-level view).

    Per-lane closed-loop detail is deliberately *not* stored — at 1000
    lanes a full :class:`~repro.sim.results.SimulationResult` per lane
    would dwarf the simulation itself.  The record keeps the market
    trajectory, the clearing diagnostics, and per-lane cost/energy
    totals; :meth:`herding_metrics` derives the study's headline
    numbers from it.

    Attributes
    ----------
    dt, times:
        Control period (s) and per-period absolute times, shape (T,).
    prices, base_prices:
        Cleared and exogenous regional prices, shape (T, N).
    agg_demand_mw:
        Aggregate fleet draw per region, shape (T, N).
    clearing_iterations, clearing_converged:
        Fixed-point diagnostics per period (lagged mode: 0 / True).
    policy_kinds:
        Lane policy labels, length S.
    cost_usd, energy_mwh:
        Per-lane totals at cleared prices, shapes (S, N).
    perf:
        ``BatchPerfStats.rollup().as_dict()`` snapshot.
    """

    dt: float
    times: np.ndarray
    prices: np.ndarray
    base_prices: np.ndarray
    agg_demand_mw: np.ndarray
    clearing_iterations: np.ndarray
    clearing_converged: np.ndarray
    policy_kinds: list
    cost_usd: np.ndarray
    energy_mwh: np.ndarray
    perf: dict = field(default_factory=dict)

    @property
    def n_periods(self) -> int:
        return int(self.prices.shape[0])

    @property
    def n_lanes(self) -> int:
        return int(self.cost_usd.shape[0])

    @property
    def total_cost_usd(self) -> float:
        return float(self.cost_usd.sum())

    def cost_by_policy(self) -> dict:
        """Mean per-lane total cost, keyed by policy kind."""
        kinds = np.asarray(self.policy_kinds)
        lane_cost = self.cost_usd.sum(axis=1)
        return {kind: float(lane_cost[kinds == kind].mean())
                for kind in dict.fromkeys(self.policy_kinds)}

    def herding_metrics(self) -> dict:
        """Grid-level herding indicators of the recorded trajectory.

        * ``aggregate_ramp_mw_mean`` / ``_max`` — |Δ total fleet draw|
          between consecutive periods: how violently the fleet moves
          as one.
        * ``price_oscillation_mean`` / ``price_swing_max`` — mean
          per-period |Δ(p − base)| and the worst region's
          peak-to-trough excursion of the demand-driven price
          component.  A pure-trace market scores 0 on both.
        * ``regional_peak_concentration`` — max regional peak over the
          mean regional peak (≥ 1): how much the fleet piles onto one
          region.
        * ``clearing_iterations_mean`` / ``clearing_nonconverged`` —
          how hard the simultaneous clearing worked.
        """
        if self.n_periods == 0:
            return {"aggregate_ramp_mw_mean": 0.0,
                    "aggregate_ramp_mw_max": 0.0,
                    "price_oscillation_mean": 0.0,
                    "price_swing_max": 0.0,
                    "regional_peak_concentration": 0.0,
                    "clearing_iterations_mean": 0.0,
                    "clearing_nonconverged": 0}
        total = self.agg_demand_mw.sum(axis=1)
        ramps = np.abs(np.diff(total))
        dev = self.prices - self.base_prices
        osc = np.abs(np.diff(dev, axis=0))
        peaks = self.agg_demand_mw.max(axis=0)
        return {
            "aggregate_ramp_mw_mean": float(ramps.mean()) if ramps.size
            else 0.0,
            "aggregate_ramp_mw_max": float(ramps.max()) if ramps.size
            else 0.0,
            "price_oscillation_mean": float(osc.mean()) if osc.size
            else 0.0,
            "price_swing_max": float(
                (dev.max(axis=0) - dev.min(axis=0)).max()),
            "regional_peak_concentration": float(
                peaks.max() / peaks.mean()),
            "clearing_iterations_mean": float(
                self.clearing_iterations.mean()),
            "clearing_nonconverged": int(
                (~self.clearing_converged).sum()),
        }


class SharedMarketFleet:
    """``S`` controller lanes coupled through common regional markets.

    Parameters
    ----------
    cluster:
        The representative plant every lane runs (structure shared, as
        in :class:`repro.core.BatchCostMPCPolicy`).
    market:
        The :class:`repro.pricing.SharedMarket`; its regions must match
        the cluster's region order, and ``nominal_power_mw`` should be
        *fleet-scale* (the aggregate draw at which the base trace
        applies).
    lane_loads:
        Per-lane constant portal loads, shape ``(S, C)``.
    policy_mix:
        Policy kinds cycled over lanes (subset of :data:`POLICY_KINDS`).
        ``("mpc",)`` gives an all-MPC fleet; a mixed tuple interleaves
        cohorts, e.g. ``("mpc", "lp", "static")``.
    config:
        Shared MPC tuning for the MPC cohort (its ``r_weight`` is the
        smoothing-mitigation knob).
    clearing:
        ``"fixed_point"`` (simultaneous, default) or ``"lagged"``.
    damping, tol, max_iter:
        :func:`repro.pricing.clear_fixed_point` controls.
    stagger:
        Price-refresh stride; lane ``s`` re-reads the market when
        ``period % stagger == s % stagger``.  1 = everyone every
        period (maximal herding).
    start_time:
        Offset into the price traces, seconds.
    dt:
        Control period, seconds.
    perf:
        Optional fleet-sized :class:`~repro.sim.profiling.
        BatchPerfStats` (one is created when omitted); simultaneous
        clearing accumulates ``clearing_iterations`` /
        ``clearing_nonconverged`` / ``clearing_periods`` in its shared
        counters.
    grid_monitor:
        Optional :class:`repro.verify.GridMonitor`; observed once per
        period with the cleared prices and aggregate demand.
    """

    def __init__(self, cluster, market: SharedMarket,
                 lane_loads, *,
                 policy_mix=("mpc",),
                 config=None,
                 clearing: str = "fixed_point",
                 damping: float = 0.5,
                 tol: float = 1e-7,
                 max_iter: int = 40,
                 stagger: int = 1,
                 start_time: float = 6 * 3600.0,
                 dt: float = 300.0,
                 perf: BatchPerfStats | None = None,
                 grid_monitor=None) -> None:
        from ..core import BatchCostMPCPolicy, MPCPolicyConfig
        from ..core.reference_opt import Waterfill

        self.cluster = cluster
        self.market = market
        if list(market.region_names) != list(cluster.regions):
            raise ConfigurationError(
                f"market regions {market.region_names} must match the "
                f"cluster's region order {list(cluster.regions)}")
        if clearing not in ("fixed_point", "lagged"):
            raise ConfigurationError(
                f"clearing must be 'fixed_point' or 'lagged', "
                f"got {clearing!r}")
        if stagger < 1:
            raise ConfigurationError("stagger must be >= 1")
        check_clearing_controls(damping, tol, max_iter)
        if not policy_mix:
            raise ConfigurationError("policy_mix needs at least one kind")
        for kind in policy_mix:
            if kind not in POLICY_KINDS:
                raise ConfigurationError(
                    f"unknown policy kind {kind!r}; pick from "
                    f"{POLICY_KINDS}")

        self.loads = np.asarray(lane_loads, dtype=float)
        if self.loads.ndim != 2 or self.loads.shape[1] != cluster.n_portals:
            raise ConfigurationError(
                f"lane_loads must be (S, {cluster.n_portals}), got shape "
                f"{self.loads.shape}")
        S = self.loads.shape[0]
        self.n_lanes = S
        self.kinds = [policy_mix[s % len(policy_mix)] for s in range(S)]
        self.clearing = clearing
        self.damping = float(damping)
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.stagger = int(stagger)
        self.start_time = float(start_time)
        self.dt = float(dt)
        self.perf = perf if perf is not None else BatchPerfStats(S)
        self.grid_monitor = grid_monitor

        n = cluster.n_idcs
        self._n = n
        wf = self._waterfill = Waterfill(cluster)
        self._b1, self._b0, self._mu = wf.b1, wf.b0, wf.mu
        self._inv_d, self._fleet = wf.inv_d, wf.fleet
        self._totals = self.loads.sum(axis=1)       # (S,) offered load
        # Aggregate clearing bid of the lanes refreshing at one stagger
        # phase, keyed (phase, cost order).  A waterfill bid depends on
        # the price only through the cost order and the loads are fixed,
        # so a hit returns exactly what recomputing would.
        self._bids: dict = {}

        self._idx = {kind: np.array([s for s, k in enumerate(self.kinds)
                                     if k == kind], dtype=int)
                     for kind in POLICY_KINDS}
        # Per stagger phase: which lanes re-read the market, and which
        # price-chasing lanes bid live (refreshing) or held (stale).
        phase_of = np.arange(S) % self.stagger
        chasing = np.isin(self.kinds, ("mpc", "lp"))
        self._active = [phase_of == ph for ph in range(self.stagger)]
        self._live = [np.flatnonzero(chasing & a) for a in self._active]
        self._held = [np.flatnonzero(chasing & ~a) for a in self._active]
        self._mpc = None
        if self._idx["mpc"].size:
            cfg = config if config is not None else MPCPolicyConfig()
            self._mpc = BatchCostMPCPolicy(
                cluster, replace(cfg, dt=self.dt),
                n_scenarios=int(self._idx["mpc"].size),
                warm_start="waterfill")
        # price-insensitive control group: capacity-proportional split,
        # fixed for the whole run
        cap = self._mu * self._fleet - self._inv_d
        share = cap / cap.sum()
        self._static_lam = self.loads.sum(axis=1)[:, None] * share   # (S, N)
        self._static_mw = self._powers_mw(
            self._static_lam, self._servers_for(self._static_lam))

        self.market.reset()
        self._k = 0
        self._seen = np.broadcast_to(
            self.market.prices_at(self.start_time),
            (S, n)).copy()                     # what each lane last read
        self._p0 = self._seen[0].copy()        # fixed-point warm start
        self._rec_prices: list[np.ndarray] = []
        self._rec_base: list[np.ndarray] = []
        self._rec_agg: list[np.ndarray] = []
        self._rec_iters: list[int] = []
        self._rec_conv: list[bool] = []
        self._cost = np.zeros((S, n))
        self._energy = np.zeros((S, n))

    # ------------------------------------------------------------------
    # durable control plane: the mutable-state envelope
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Picklable copy of all mutable fleet state.

        Covers the period index, each lane's last-seen prices, the
        fixed-point warm start, the recorded trajectory, the per-lane
        cost/energy accumulators, the market's demand history
        (:meth:`SharedMarket.snapshot` — the lagged price and the
        clearing responses both depend on it), the MPC cohort's policy
        state and the grid monitor.  Restoring the snapshot into a
        structurally identical fleet continues the day bit-exact.
        """
        return {
            "k": int(self._k),
            "seen": self._seen.copy(),
            "p0": self._p0.copy(),
            "rec_prices": [p.copy() for p in self._rec_prices],
            "rec_base": [np.asarray(b).copy() for b in self._rec_base],
            "rec_agg": [np.asarray(a).copy() for a in self._rec_agg],
            "rec_iters": list(self._rec_iters),
            "rec_conv": list(self._rec_conv),
            "cost": self._cost.copy(),
            "energy": self._energy.copy(),
            "market": self.market.snapshot(),
            "mpc": None if self._mpc is None else self._mpc.snapshot(),
            "grid_monitor": None if self.grid_monitor is None
            else self.grid_monitor.snapshot(),
        }

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot` (the snapshot stays reusable)."""
        self._k = int(state["k"])
        self._seen = np.asarray(state["seen"], dtype=float).copy()
        self._p0 = np.asarray(state["p0"], dtype=float).copy()
        self._rec_prices = [np.asarray(p).copy()
                            for p in state["rec_prices"]]
        self._rec_base = [np.asarray(b).copy() for b in state["rec_base"]]
        self._rec_agg = [np.asarray(a).copy() for a in state["rec_agg"]]
        self._rec_iters = list(state["rec_iters"])
        self._rec_conv = list(state["rec_conv"])
        self._cost = np.asarray(state["cost"], dtype=float).copy()
        self._energy = np.asarray(state["energy"], dtype=float).copy()
        self.market.restore(state["market"])
        if self._mpc is not None and state["mpc"] is not None:
            self._mpc.restore(state["mpc"])
        if self.grid_monitor is not None \
                and state["grid_monitor"] is not None:
            self.grid_monitor.restore(state["grid_monitor"])

    # ------------------------------------------------------------------
    def _servers_for(self, lam: np.ndarray) -> np.ndarray:
        """Eq. 35 per (lane, IDC), capped at the fleet."""
        m = np.ceil(lam / self._mu + self._inv_d / self._mu - 1e-9)
        return np.where(m > self._fleet, self._fleet, np.maximum(m, 1.0))

    def _powers_mw(self, lam: np.ndarray, servers: np.ndarray) -> np.ndarray:
        return (self._b1 * lam + self._b0 * np.round(servers)) * 1e-6

    def _bid_mw(self, prices: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        """Waterfill bid-curve demand (MW) of ``lanes`` at ``prices``
        (one shared row or one row per lane)."""
        wf = self._waterfill
        return wf.powers_watts(wf.workloads(prices, self._totals[lanes])) \
            * 1e-6

    def _live_bid_mw(self, prices: np.ndarray, lanes: np.ndarray,
                     phase: int) -> np.ndarray:
        """Summed bid of the lanes refreshing at ``phase``, memoized."""
        key = (phase, self._waterfill.order(prices).tobytes())
        bid = self._bids.get(key)
        if bid is None:
            bid = self._bids[key] = self._bid_mw(prices, lanes).sum(axis=0)
        return bid

    # ------------------------------------------------------------------
    def step(self) -> dict:
        """Advance the whole fleet one control period.

        Returns the period's arrays (``base``, ``prices``, ``agg``,
        ``powers``) so the durable :meth:`run` can digest them into its
        write-ahead log without re-deriving anything.
        """
        k = self._k
        t = self.start_time + k * self.dt
        base = self.market.base_prices(t)
        phase = k % self.stagger
        active = self._active[phase]

        if self.clearing == "lagged":
            prices = self.market.prices_at(t)
            iters, converged = 0, True
        else:
            # iteration-constant demand: static lanes + chasing lanes
            # that do not refresh this period (they bid at stale prices)
            const_mw = np.zeros(self._n)
            if self._idx["static"].size:
                const_mw += self._static_mw[self._idx["static"]].sum(axis=0)
            held, live = self._held[phase], self._live[phase]
            if held.size:
                const_mw += self._bid_mw(self._seen[held], held).sum(axis=0)

            if live.size:
                def demand(p):
                    return const_mw + self._live_bid_mw(p, live, phase)
            else:
                def demand(p):
                    return const_mw

            with self.perf.shared.stage("fleet_clearing"):
                prices, iters, converged = clear_fixed_point(
                    lambda D: self.market.clear(base, D), demand, self._p0,
                    damping=self.damping, tol=self.tol,
                    max_iter=self.max_iter)
            self.perf.shared.count("clearing_iterations", iters)
            self.perf.shared.count("clearing_periods")
            if not converged:
                self.perf.shared.count("clearing_nonconverged")

        self._seen[active] = prices
        self._p0 = np.asarray(prices, dtype=float).copy()

        powers = np.empty((self.n_lanes, self._n))
        if self._idx["static"].size:
            powers[self._idx["static"]] = self._static_mw[self._idx["static"]]
        if self._idx["lp"].size:
            lp = self._idx["lp"]
            lam = self._waterfill.workloads(self._seen[lp], self._totals[lp])
            powers[lp] = self._powers_mw(lam, self._servers_for(lam))
        if self._mpc is not None:
            mpc = self._idx["mpc"]
            with self.perf.shared.stage("fleet_mpc"):
                dec = self._mpc.decide_batch(
                    k, self._seen[mpc], self.loads[mpc])
            powers[mpc] = dec.powers_mw

        agg = powers.sum(axis=0)
        self.market.record_demand(agg)
        if self.grid_monitor is not None:
            self.grid_monitor.observe(
                period=k, time_seconds=t, prices=prices, base_prices=base,
                agg_demand_mw=agg, clearing_converged=converged)

        # bill every lane at the *cleared* price (everyone pays spot,
        # whatever stale price its controller decided against)
        step_mwh = powers * (self.dt / 3600.0)
        self._energy += step_mwh
        self._cost += np.asarray(prices) * step_mwh

        self._rec_prices.append(np.asarray(prices, dtype=float).copy())
        self._rec_base.append(base)
        self._rec_agg.append(agg)
        self._rec_iters.append(int(iters))
        self._rec_conv.append(bool(converged))
        self._k += 1
        return {"period": k, "time_seconds": t, "base": np.asarray(base),
                "prices": np.asarray(prices), "agg": agg, "powers": powers}

    def run(self, n_periods: int, *,
            checkpoint_every: int | None = None,
            wal_path: str | None = None,
            wal_fsync_every: int = 1,
            wal_shards: int = 1,
            resume_from: str | None = None,
            resume_strict: bool = True,
            step_hook=None) -> "FleetResult":
        """Advance ``n_periods`` more periods; the cumulative result.

        Resumable: two calls of ``T/2`` periods leave the fleet in the
        same state — and record the same trajectory — as one call of
        ``T``.

        Durability (all optional, mirroring :func:`repro.sim.run_batch`):

        * ``wal_path`` — append one digest record per period to a fleet
          write-ahead log (``wal_shards`` > 1 interleaves the records
          round-robin across shard files, ``wal_fsync_every`` sets the
          per-shard fsync cadence).
        * ``checkpoint_every`` — every that many periods, save a full
          :meth:`snapshot` next to the WAL (requires ``wal_path``).
        * ``resume_from`` — path of the WAL of a killed durable run.
          ``n_periods`` is then the *total* day length: the fleet
          restores the checkpoint (or replays from period 0 when the
          crash preceded the first checkpoint) and advances the rest,
          verifying each replayed period against the WAL tail
          (mismatch → :class:`~repro.exceptions.CheckpointError` when
          ``resume_strict``, else a counter).

        ``step_hook`` mirrors :func:`repro.sim.run_simulation`'s seam
        for external drivers: it is called once per completed period
        with :meth:`step`'s record dict; a falsy return continues,
        ``"checkpoint"`` writes an on-demand checkpoint (durable runs
        only) and continues, and any other truthy value writes a final
        checkpoint and stops the run early (resumable later with
        ``resume_from``).
        """
        journal = RunJournal(wal_path, resume_from=resume_from,
                             checkpoint_every=checkpoint_every,
                             fsync_every=wal_fsync_every,
                             n_shards=wal_shards, strict=resume_strict)
        if journal.durable and self._k != 0 and resume_from is None:
            raise ConfigurationError(
                f"durable fleet runs must start from a fresh fleet "
                f"(already at period {self._k}); pass resume_from to "
                f"continue a killed durable run")
        T = self._k + int(n_periods)
        checkpoint = journal.recover({
            "kind": "fleet", "n_lanes": int(self.n_lanes),
            "dt": float(self.dt), "n_periods": T,
            "n_idcs": int(self._n), "clearing": self.clearing,
            "stagger": int(self.stagger),
            "policy_kinds": list(self.kinds),
        })
        if checkpoint is not None:
            self.restore(checkpoint.state["fleet"])
            if self._k != checkpoint.period:
                raise CheckpointError(
                    f"{resume_from}: checkpoint period {checkpoint.period} "
                    f"disagrees with the restored fleet state (period "
                    f"{self._k})")
        journal.open()
        try:
            while self._k < T:
                k = self._k
                rec = self.step()
                if journal.wal is not None:
                    journal.log({
                        "type": "decision", "period": k,
                        "time_seconds": float(rec["time_seconds"]),
                        "obs_sha256": array_digest(rec["base"]),
                        "decision_sha256": array_digest(rec["prices"],
                                                        rec["agg"]),
                        "powers_sha256": array_digest(rec["powers"]),
                    })
                action = step_hook(rec) if step_hook is not None else None
                if journal.end_period(
                        self._k, T, action,
                        lambda base: {"fleet": self.snapshot()}):
                    break
        finally:
            self.perf.shared.update_counters(journal.close())
        return self.result()

    def result(self) -> FleetResult:
        """Snapshot of everything recorded so far.

        ``perf`` is the fleet rollup plus the MPC cohort's solver
        counters (``qp_solves``, ``qp_iterations``, ``qp_polished``, …),
        which the cohort's own policy stats keep.
        """
        T = self._k
        times = self.start_time + np.arange(T) * self.dt
        perf = self.perf.rollup()
        if self._mpc is not None:
            for key, value in self._mpc.perf.shared.counters.items():
                perf.counters[key] = perf.counters.get(key, 0) + value
        return FleetResult(
            dt=self.dt, times=times,
            prices=np.array(self._rec_prices).reshape(T, self._n),
            base_prices=np.array(self._rec_base).reshape(T, self._n),
            agg_demand_mw=np.array(self._rec_agg).reshape(T, self._n),
            clearing_iterations=np.array(self._rec_iters, dtype=int),
            clearing_converged=np.array(self._rec_conv, dtype=bool),
            policy_kinds=list(self.kinds),
            cost_usd=self._cost.copy(),
            energy_mwh=self._energy.copy(),
            perf=perf.as_dict())


def run_shared_market_fleet(cluster, market: SharedMarket, lane_loads,
                            n_periods: int, **kwargs) -> FleetResult:
    """Build a :class:`SharedMarketFleet` and run it to completion."""
    fleet = SharedMarketFleet(cluster, market, lane_loads, **kwargs)
    return fleet.run(n_periods)
