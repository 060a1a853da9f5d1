"""Per-step physical-invariant monitoring for closed-loop runs.

The simulation engine accepts ``monitor=InvariantMonitor(...)`` and calls
:meth:`InvariantMonitor.observe` once per control period with everything
the period produced.  The monitor checks the invariants the paper's
formulation promises:

* **workload conservation** (eq. 2) — every portal's load is fully
  routed: ``Σ_j λ_ij = L_i`` within tolerance, and no allocation entry
  is meaningfully negative;
* **server bounds and integrality** (eq. 35) — the slow loop's counts
  are integers in ``[0, M_j]``;
* **power-budget satisfaction** (Sec. V-C) — after the peak-shaving
  convergence window following a disturbance (a price adjustment or a
  budget change), per-IDC power stays at or below the budget;
* **reference-clamp correctness** — the reference trajectory the MPC
  tracks never exceeds the budget (this must hold *always*, not just
  after convergence: the clamp is what drags the plant back);
* **non-NaN state propagation** — no NaN in allocations, powers,
  workloads, prices or latencies (``inf`` latency is legal: it encodes
  an overloaded IDC).

Violations are recorded (bounded list, counters per kind) and surfaced
through ``SimulationResult.perf["counters"]``; with
``raise_on_violation=True`` the first violation aborts the run with an
:class:`repro.exceptions.InvariantViolationError` — the mode the fuzzer
and CI use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import InvariantViolationError

__all__ = ["InvariantViolation", "InvariantMonitor", "GridMonitor"]


@dataclass
class InvariantViolation:
    """One broken invariant at one control period."""

    period: int
    time_seconds: float
    kind: str
    message: str
    magnitude: float = 0.0

    def to_dict(self) -> dict:
        return {"period": self.period, "time_seconds": self.time_seconds,
                "kind": self.kind, "message": self.message,
                "magnitude": self.magnitude}


class InvariantMonitor:
    """Pluggable invariant checker for :func:`repro.sim.run_simulation`.

    Parameters
    ----------
    budgets_watts:
        Per-IDC peak budgets to enforce.  ``None`` (default) adopts the
        scenario's own budgets at :meth:`begin_run`; pass an array to
        override, or leave both unset to skip budget checks.
    budget_grace_periods:
        The peak-shaving convergence window: budget satisfaction is only
        enforced once this many periods have elapsed since the last
        disturbance (a price change, a portal-load change, a fleet
        availability change, or the run start).  Reference tracking
        approaches the budget asymptotically after a step, so transient
        overshoot inside the window is the documented behaviour
        (paper Fig. 6), not a bug.
    budget_rtol:
        Relative slack on the budget check (tracking converges *to* the
        budget, so exact comparison would flag solver-tolerance noise).
    conservation_rtol:
        Relative tolerance on per-portal workload conservation.
    conservation_atol:
        Absolute floor on the conservation tolerance, in req/s.  On a
        zero-load portal the relative term vanishes, but a first-order
        solver (ADMM) legitimately leaves coordinate residuals around
        1e-5 req/s there; the floor sits above solver precision and far
        below anything physical (one request every ~3 hours).
    server_tol:
        Absolute tolerance on server-count integrality.
    raise_on_violation:
        Abort the run on the first violation instead of recording it.
    max_violations:
        Cap on stored violation records (counters keep counting past it).
    """

    #: Invariant kinds, in check order.
    KINDS = ("nan_state", "conservation", "server_bounds",
             "server_integrality", "actuation", "budget",
             "reference_clamp")

    def __init__(self, budgets_watts=None, *,
                 budget_grace_periods: int = 8,
                 budget_rtol: float = 5e-3,
                 conservation_rtol: float = 1e-6,
                 conservation_atol: float = 1e-4,
                 server_tol: float = 1e-6,
                 raise_on_violation: bool = False,
                 max_violations: int = 1000) -> None:
        self._budgets_param = (None if budgets_watts is None
                               else np.asarray(budgets_watts, dtype=float))
        self.budget_grace_periods = int(budget_grace_periods)
        self.budget_rtol = float(budget_rtol)
        self.conservation_rtol = float(conservation_rtol)
        self.conservation_atol = float(conservation_atol)
        self.server_tol = float(server_tol)
        self.raise_on_violation = bool(raise_on_violation)
        self.max_violations = int(max_violations)
        self._reset_state()

    # ------------------------------------------------------------------
    def _reset_state(self) -> None:
        self.violations: list[InvariantViolation] = []
        self._counts = {kind: 0 for kind in self.KINDS}
        self._rung_counts: dict[str, int] = {}
        self._state_counts: dict[str, int] = {}
        self._shed_periods = 0
        self._actuation_gap_periods = 0
        self._actuation_gap_servers = 0
        self._checks = 0
        self._periods = 0
        self._cluster = None
        self._budgets = self._budgets_param
        self._max_servers = None
        self._prev_prices = None
        self._prev_loads = None
        self._prev_available = None
        self._last_disturbance = 0

    def begin_run(self, scenario) -> None:
        """Bind to a scenario; called by the engine before the first period."""
        self._reset_state()
        self._cluster = scenario.cluster
        if self._budgets is None and scenario.budgets_watts is not None:
            self._budgets = np.asarray(scenario.budgets_watts, dtype=float)
        self._max_servers = np.array(
            [idc.config.max_servers for idc in scenario.cluster.idcs],
            dtype=float)

    def snapshot(self) -> dict:
        """Picklable copy of all accumulated monitoring state.

        The cluster binding is deliberately excluded (live plant object);
        :meth:`restore` assumes :meth:`begin_run` re-bound the monitor to
        the resumed scenario first.
        """
        def _arr(a):
            return None if a is None else np.asarray(a).copy()

        return {
            "violations": [v.to_dict() for v in self.violations],
            "counts": dict(self._counts),
            "rung_counts": dict(self._rung_counts),
            "state_counts": dict(self._state_counts),
            "shed_periods": int(self._shed_periods),
            "actuation_gap_periods": int(self._actuation_gap_periods),
            "actuation_gap_servers": int(self._actuation_gap_servers),
            "checks": int(self._checks),
            "periods": int(self._periods),
            "budgets": _arr(self._budgets),
            "prev_prices": _arr(self._prev_prices),
            "prev_loads": _arr(self._prev_loads),
            "prev_available": _arr(self._prev_available),
            "last_disturbance": int(self._last_disturbance),
        }

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot` on top of a fresh :meth:`begin_run`."""
        def _arr(a):
            return None if a is None else np.asarray(a, dtype=float).copy()

        self.violations = [InvariantViolation(**v)
                           for v in state["violations"]]
        self._counts = {kind: 0 for kind in self.KINDS}
        self._counts.update(state["counts"])
        self._rung_counts = dict(state["rung_counts"])
        self._state_counts = dict(state["state_counts"])
        self._shed_periods = int(state["shed_periods"])
        self._actuation_gap_periods = int(state["actuation_gap_periods"])
        self._actuation_gap_servers = int(state["actuation_gap_servers"])
        self._checks = int(state["checks"])
        self._periods = int(state["periods"])
        self._budgets = _arr(state["budgets"])
        self._prev_prices = _arr(state["prev_prices"])
        self._prev_loads = _arr(state["prev_loads"])
        self._prev_available = _arr(state["prev_available"])
        self._last_disturbance = int(state["last_disturbance"])

    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        """True while no invariant has been violated."""
        return self.n_violations == 0

    @property
    def n_violations(self) -> int:
        return sum(self._counts.values())

    def counters(self) -> dict[str, int]:
        """Plain-int counters for ``SimulationResult.perf``."""
        out = {"invariant_checks": self._checks,
               "invariant_violations": self.n_violations}
        for kind, n in self._counts.items():
            out[f"invariant_{kind}"] = n
        # Degradation bookkeeping (populated only when policies report a
        # fallback rung / health state in their diagnostics).
        for rung, n in sorted(self._rung_counts.items()):
            out[f"monitor_rung_{rung}"] = n
        for state, n in sorted(self._state_counts.items()):
            out[f"monitor_state_{state}"] = n
        if self._shed_periods:
            out["monitor_shed_periods"] = self._shed_periods
        if self._actuation_gap_periods:
            out["monitor_actuation_gap_periods"] = \
                self._actuation_gap_periods
            out["monitor_actuation_gap_servers"] = \
                self._actuation_gap_servers
        return out

    def summary(self) -> str:
        """Human-readable digest of the run's verdict."""
        if self.ok:
            return (f"invariants OK: {self._checks} checks over "
                    f"{self._periods} periods")
        lines = [f"{self.n_violations} invariant violation(s) in "
                 f"{self._periods} periods:"]
        for v in self.violations[:20]:
            lines.append(f"  period {v.period} [{v.kind}] {v.message}")
        if self.n_violations > len(self.violations):
            lines.append(f"  ... ({self.n_violations - len(self.violations)} "
                         "more not stored)")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def _record(self, kind: str, period: int, t: float, message: str,
                magnitude: float = 0.0) -> None:
        self._counts[kind] += 1
        violation = InvariantViolation(period=period, time_seconds=t,
                                       kind=kind, message=message,
                                       magnitude=float(magnitude))
        if len(self.violations) < self.max_violations:
            self.violations.append(violation)
        if self.raise_on_violation:
            raise InvariantViolationError(
                f"period {period}: [{kind}] {message}", violation=violation)

    def _check(self) -> None:
        self._checks += 1

    # ------------------------------------------------------------------
    def observe(self, *, period: int, time_seconds: float,
                loads: np.ndarray, prices: np.ndarray, decision,
                workloads: np.ndarray, powers_watts: np.ndarray,
                servers: np.ndarray, latencies: np.ndarray,
                applied_servers: np.ndarray | None = None,
                available_servers: np.ndarray | None = None) -> None:
        """Check every invariant for one applied control period.

        ``decision`` is the policy's raw :class:`AllocationDecision` —
        deliberately *before* the engine's ``astype(int)`` cast, so a
        fractional server count is caught instead of silently truncated.
        ``applied_servers``, when given, carries the counts the plant
        actually ran after the actuation layer (command drops, lag,
        partial application); they are held to the same bounds and
        integrality as the commanded counts, a commanded/applied gap is
        registered as a disturbance for the budget-grace clock (the
        tracking loop must re-converge around the plant's true state),
        and the gap totals surface as ``monitor_actuation_gap_*``
        counters.  ``available_servers`` (default: the whole fleet)
        bounds the applied counts; its changes count as disturbances.
        """
        if self._cluster is None:
            raise RuntimeError("begin_run() must be called before observe()")
        self._periods += 1
        t = float(time_seconds)
        u = np.asarray(decision.u, dtype=float).ravel()
        raw_servers = np.asarray(decision.servers, dtype=float).ravel()
        diag = (decision.diagnostics
                if isinstance(decision.diagnostics, dict) else {})
        rung = diag.get("rung")
        if rung is not None:
            self._rung_counts[rung] = self._rung_counts.get(rung, 0) + 1
        health = diag.get("health_state")
        if health is not None:
            self._state_counts[health] = \
                self._state_counts.get(health, 0) + 1
        shed = float(diag.get("shed_requests", 0.0) or 0.0)
        if shed > 0.0:
            self._shed_periods += 1

        # 1. non-NaN state propagation -------------------------------------
        self._check()
        nan_fields = [
            name for name, arr in (
                ("allocation", u), ("servers", raw_servers),
                ("workloads", workloads), ("powers", powers_watts),
                ("prices", prices), ("loads", loads),
                ("latencies", latencies),
            ) if np.any(np.isnan(np.asarray(arr, dtype=float)))
        ]
        if nan_fields:
            self._record("nan_state", period, t,
                         f"NaN in {', '.join(nan_fields)}")
            return  # everything below would drown in NaN comparisons

        # 2. workload conservation (eq. 2) ---------------------------------
        # A SAFE_MODE projection may legitimately serve less than the
        # offered load when the surviving fleet physically cannot carry
        # it; the policy declares the amount in ``shed_requests``.  Shed
        # periods still may not over-route, and the total routed gap must
        # match the declared shed — only then is under-routing excused.
        self._check()
        lam = self._cluster.vector_to_matrix(np.maximum(u, 0.0))
        loads = np.asarray(loads, dtype=float).ravel()
        served = lam.sum(axis=1)
        resid = np.abs(served - loads)
        tol = (self.conservation_rtol * (1.0 + np.abs(loads))
               + self.conservation_atol)
        if shed > 0.0:
            gap = float(np.sum(loads - served))
            if abs(gap - shed) <= self.conservation_rtol * \
                    (1.0 + float(np.sum(loads))) + self.conservation_atol:
                # Declared shed accounts for the total gap: only flag
                # portals that routed *more* than their offered load.
                resid = np.maximum(served - loads, 0.0)
            else:
                self._record(
                    "conservation", period, t,
                    f"declared shed {shed:.6f} req/s does not match the "
                    f"routed gap {gap:.6f} req/s",
                    magnitude=float(abs(gap - shed)))
        worst = int(np.argmax(resid - tol))
        if resid[worst] > tol[worst]:
            self._record(
                "conservation", period, t,
                f"portal {worst}: routed {served[worst]:.6f} of "
                f"load {loads[worst]:.6f} req/s "
                f"(|Σλ - L| = {resid[worst]:.3e})",
                magnitude=float(resid[worst]))
        if np.any(u < -1e-6):
            self._record("conservation", period, t,
                         f"negative allocation entry {u.min():.3e}",
                         magnitude=float(-u.min()))

        # 3. server bounds and integrality (eq. 35) ------------------------
        self._check()
        over = raw_servers - self._max_servers
        if np.any(raw_servers < -self.server_tol) or \
                np.any(over > self.server_tol):
            j = int(np.argmax(np.maximum(-raw_servers, over)))
            self._record(
                "server_bounds", period, t,
                f"IDC {j}: {raw_servers[j]:.3f} servers outside "
                f"[0, {self._max_servers[j]:.0f}]",
                magnitude=float(np.max(np.maximum(-raw_servers, over))))
        self._check()
        frac = np.abs(raw_servers - np.round(raw_servers))
        if np.any(frac > self.server_tol):
            j = int(np.argmax(frac))
            self._record("server_integrality", period, t,
                         f"IDC {j}: non-integer server count "
                         f"{raw_servers[j]!r}", magnitude=float(frac[j]))

        # 4. commanded/applied reconciliation (actuation layer) ------------
        available = self._max_servers if available_servers is None \
            else np.asarray(available_servers, dtype=float).ravel()
        actuation_gap = 0
        if applied_servers is not None:
            self._check()
            applied = np.asarray(applied_servers, dtype=float).ravel()
            frac = np.abs(applied - np.round(applied))
            over = applied - available
            if np.any(applied < -self.server_tol) or \
                    np.any(over > self.server_tol):
                j = int(np.argmax(np.maximum(-applied, over)))
                self._record(
                    "actuation", period, t,
                    f"IDC {j}: applied count {applied[j]:.3f} outside "
                    f"available [0, {available[j]:.0f}]",
                    magnitude=float(np.max(np.maximum(-applied, over))))
            elif np.any(frac > self.server_tol):
                j = int(np.argmax(frac))
                self._record(
                    "actuation", period, t,
                    f"IDC {j}: non-integer applied count {applied[j]!r}",
                    magnitude=float(frac[j]))
            actuation_gap = int(np.sum(np.abs(
                np.round(applied) - np.round(raw_servers))))
            if actuation_gap:
                self._actuation_gap_periods += 1
                self._actuation_gap_servers += actuation_gap

        # 5. power budgets after the convergence window --------------------
        # Anything the tracking loop must re-converge after counts as a
        # disturbance: price adjustments, portal-load steps, fleet
        # availability changes (outage start/end), and a commanded vs
        # applied actuation gap (the plant is not where the controller
        # put it, so tracking has to pull it back first).
        if actuation_gap:
            self._last_disturbance = period
        for prev, now in ((self._prev_prices, prices),
                          (self._prev_loads, loads),
                          (self._prev_available, available)):
            if prev is None or not np.allclose(
                    np.asarray(now, dtype=float), prev,
                    rtol=1e-12, atol=1e-9):
                self._last_disturbance = period
        self._prev_prices = np.asarray(prices, dtype=float).copy()
        self._prev_loads = np.asarray(loads, dtype=float).copy()
        self._prev_available = available
        if self._budgets is not None:
            settled = (period - self._last_disturbance
                       >= self.budget_grace_periods)
            if settled:
                self._check()
                powers = np.asarray(powers_watts, dtype=float).ravel()
                limit = self._budgets * (1.0 + self.budget_rtol)
                mask = np.isfinite(self._budgets) & (powers > limit)
                if np.any(mask):
                    j = int(np.argmax(powers - limit))
                    self._record(
                        "budget", period, t,
                        f"IDC {j}: power {powers[j] / 1e6:.4f} MW exceeds "
                        f"budget {self._budgets[j] / 1e6:.4f} MW "
                        f"{period - self._last_disturbance} periods after "
                        "the last disturbance",
                        magnitude=float((powers[j] - self._budgets[j])
                                        / max(self._budgets[j], 1.0)))

            # 6. reference-clamp correctness (no grace: the clamp is
            #    what *creates* convergence, so it must always hold).
            ref = decision.diagnostics.get("reference_powers_mw") \
                if isinstance(decision.diagnostics, dict) else None
            if ref is not None:
                self._check()
                ref_watts = np.asarray(ref, dtype=float).ravel() * 1e6
                limit = self._budgets * (1.0 + self.budget_rtol)
                mask = np.isfinite(self._budgets) & (ref_watts > limit)
                if np.any(mask):
                    j = int(np.argmax(ref_watts - limit))
                    self._record(
                        "reference_clamp", period, t,
                        f"IDC {j}: reference {ref_watts[j] / 1e6:.4f} MW "
                        f"above budget {self._budgets[j] / 1e6:.4f} MW — "
                        "clamp failed",
                        magnitude=float((ref_watts[j] - self._budgets[j])
                                        / max(self._budgets[j], 1.0)))


class GridMonitor:
    """Grid-level invariant monitoring for shared-market fleet runs.

    :class:`InvariantMonitor` watches one lane's physics; this monitor
    watches what the *fleet* does to the grid — the herding failure
    modes of many price-chasing controllers on one market:

    * **aggregate ramp rate** — |Δ total fleet draw| between periods;
      a herd moving as one produces grid-scale ramps no single lane's
      smoothing weight would allow;
    * **regional peak concentration** — the worst region's peak draw
      relative to the mean regional peak (everyone piling onto the
      cheap region);
    * **price oscillation amplitude** — |Δ(price − base)| per period:
      the demand-driven price component swinging is the paper's
      "vicious cycle" made measurable.

    * **clearing non-convergence** — a period whose simultaneous
      fixed-point clearing (:func:`repro.pricing.clear_fixed_point`)
      hit ``max_iter`` without settling.  The engine keeps the last
      damped iterate and continues, so this is easy to miss in the
      trajectory — persistent oscillation of the price map *is* the
      herding instability and must surface as a violation.

    Limits are optional — without them the monitor is a pure metrics
    recorder (:meth:`metrics`); with them each exceedance is counted in
    :meth:`counters` under ``grid_*`` names, in the same shape the
    per-lane monitor uses, so fleet perf dicts aggregate uniformly.
    Clearing non-convergence needs no limit: any non-converged period
    counts.
    """

    KINDS = ("aggregate_ramp", "peak_concentration", "price_oscillation",
             "clearing_nonconverged")

    def __init__(self, *, ramp_limit_mw: float | None = None,
                 concentration_limit: float | None = None,
                 oscillation_limit: float | None = None) -> None:
        self.ramp_limit_mw = ramp_limit_mw
        self.concentration_limit = concentration_limit
        self.oscillation_limit = oscillation_limit
        self.reset()

    def reset(self) -> None:
        self._counts = {kind: 0 for kind in self.KINDS}
        self._periods = 0
        self._prev_total: float | None = None
        self._prev_dev: np.ndarray | None = None
        self._peaks: np.ndarray | None = None
        self._peak_sum = 0.0
        self._ramp_sum = 0.0
        self._ramp_max = 0.0
        self._osc_sum = 0.0
        self._osc_max = 0.0

    def observe(self, *, period: int, time_seconds: float,
                prices: np.ndarray, base_prices: np.ndarray,
                agg_demand_mw: np.ndarray,
                clearing_converged: bool | None = None) -> None:
        """Record one period of the fleet's grid footprint.

        ``clearing_converged`` is ``None`` for lagged clearing (nothing
        to converge), ``False`` for a fixed-point period that hit the
        iteration cap — counted as a ``clearing_nonconverged``
        violation.
        """
        del period, time_seconds  # uniform signature with the lane monitor
        if clearing_converged is not None and not clearing_converged:
            self._counts["clearing_nonconverged"] += 1
        agg = np.asarray(agg_demand_mw, dtype=float)
        dev = np.asarray(prices, dtype=float) \
            - np.asarray(base_prices, dtype=float)
        total = float(agg.sum())
        self._periods += 1
        self._peaks = agg.copy() if self._peaks is None \
            else np.maximum(self._peaks, agg)
        if self._prev_total is not None:
            ramp = abs(total - self._prev_total)
            self._ramp_sum += ramp
            self._ramp_max = max(self._ramp_max, ramp)
            if self.ramp_limit_mw is not None and ramp > self.ramp_limit_mw:
                self._counts["aggregate_ramp"] += 1
            osc = float(np.max(np.abs(dev - self._prev_dev)))
            self._osc_sum += osc
            self._osc_max = max(self._osc_max, osc)
            if self.oscillation_limit is not None \
                    and osc > self.oscillation_limit:
                self._counts["price_oscillation"] += 1
        if self.concentration_limit is not None and self._periods > 1:
            conc = float(self._peaks.max() / self._peaks.mean())
            if conc > self.concentration_limit:
                self._counts["peak_concentration"] += 1
        self._prev_total = total
        self._prev_dev = dev

    def metrics(self) -> dict:
        """Running grid metrics (same keys the fleet result reports)."""
        steps = max(self._periods - 1, 1)
        conc = 1.0 if self._peaks is None \
            else float(self._peaks.max() / self._peaks.mean())
        return {
            "aggregate_ramp_mw_mean": self._ramp_sum / steps,
            "aggregate_ramp_mw_max": self._ramp_max,
            "price_oscillation_mean": self._osc_sum / steps,
            "price_oscillation_max": self._osc_max,
            "regional_peak_concentration": conc,
        }

    def counters(self) -> dict[str, int]:
        """Plain-int exceedance counts for fleet perf dicts."""
        out = {"grid_periods": self._periods,
               "grid_violations": sum(self._counts.values())}
        for kind, n in self._counts.items():
            out[f"grid_{kind}"] = n
        return out

    def snapshot(self) -> dict:
        """Picklable copy of the running state (for fleet checkpoints)."""
        return {
            "counts": dict(self._counts),
            "periods": self._periods,
            "prev_total": self._prev_total,
            "prev_dev": None if self._prev_dev is None
            else self._prev_dev.copy(),
            "peaks": None if self._peaks is None else self._peaks.copy(),
            "peak_sum": self._peak_sum,
            "ramp_sum": self._ramp_sum,
            "ramp_max": self._ramp_max,
            "osc_sum": self._osc_sum,
            "osc_max": self._osc_max,
        }

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot`; observation continues bit-exact."""
        self._counts = {kind: int(state["counts"].get(kind, 0))
                        for kind in self.KINDS}
        self._periods = int(state["periods"])
        self._prev_total = state["prev_total"]
        prev_dev = state["prev_dev"]
        self._prev_dev = None if prev_dev is None \
            else np.asarray(prev_dev, dtype=float).copy()
        peaks = state["peaks"]
        self._peaks = None if peaks is None \
            else np.asarray(peaks, dtype=float).copy()
        self._peak_sum = float(state["peak_sum"])
        self._ramp_sum = float(state["ramp_sum"])
        self._ramp_max = float(state["ramp_max"])
        self._osc_sum = float(state["osc_sum"])
        self._osc_max = float(state["osc_max"])
