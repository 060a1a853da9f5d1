"""Timing proxies installed from outside the program, and the span store.

The benchmark attributes wall time to layers without editing ``src/``:
each public ``repro`` function or method named in :data:`TARGETS` is
replaced, for the length of a traced run, by a proxy that records one
span (name, start, end, parent span, thread) around the original call.

* Functions are rebound at every call site: every loaded ``repro``
  module whose attribute *is* the original function gets the proxy, so
  ``from .x import f`` bindings (``repro.control.mpc.solve_qp``) and
  lazy ``from ..core import f`` lookups (which read the package
  attribute at call time) both see it.  The call sites listed with each
  target must bind the original, or installation fails loudly.
* Methods are patched on the class that defines them.

A target that does not resolve raises :class:`TraceTargetError`.  Spans
are kept in memory and written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass

from common import percentile

__all__ = ["LAYER_METRICS", "Proxies", "SpanRecorder", "TARGETS",
           "Target", "TraceTargetError", "layer_metrics"]


class TraceTargetError(RuntimeError):
    """A proxy target or one of its call sites does not resolve."""


@dataclass(frozen=True)
class Target:
    """One proxied callable.

    ``metric`` is the span name (``<layer>.<Function>``); several
    targets may share it (``pricing.record_demand`` covers each market
    class).  ``path`` is ``module:qualname`` of the definition and
    ``sites`` the modules that must bind a function target by name.
    """

    metric: str
    path: str
    sites: tuple = ()
    keep_result: bool = False


TARGETS = (
    Target("sim.run_simulation", "repro.sim.engine:run_simulation",
           ("repro.sim", "repro.sim.batch")),
    Target("sim.run_batch", "repro.sim.batch:run_batch", ("repro.sim",)),
    Target("sim.SharedMarketFleet.step",
           "repro.sim.fleet:SharedMarketFleet.step"),
    Target("sim.monte_carlo_scenarios",
           "repro.sim.scenario:monte_carlo_scenarios", ("repro.sim",)),
    Target("core.CostMPCPolicy.decide",
           "repro.core.controller:CostMPCPolicy.decide"),
    Target("core.BatchCostMPCPolicy.decide_batch",
           "repro.core.batch_controller:BatchCostMPCPolicy.decide_batch"),
    Target("core.BatchCostMPCPolicy.demand_response",
           "repro.core.batch_controller:BatchCostMPCPolicy.demand_response"),
    Target("core.solve_optimal_allocation",
           "repro.core.reference_opt:solve_optimal_allocation",
           ("repro.core", "repro.core.controller")),
    Target("core.solve_optimal_allocation_batch",
           "repro.core.reference_opt:solve_optimal_allocation_batch",
           ("repro.core", "repro.core.batch_controller")),
    Target("core.CostModelBuilder.discrete",
           "repro.core.model:CostModelBuilder.discrete"),
    Target("control.ModelPredictiveController.control",
           "repro.control.mpc:ModelPredictiveController.control"),
    Target("optim.solve_qp", "repro.optim.qp_activeset:solve_qp",
           ("repro.control.mpc",)),
    Target("optim.solve_qp_admm", "repro.optim.qp_admm:solve_qp_admm",
           ("repro.control.mpc",)),
    Target("optim.linprog", "repro.optim.linprog_simplex:linprog",
           ("repro.core.reference_opt",)),
    Target("optim.solve_qp_admm_batch",
           "repro.optim.qp_admm:solve_qp_admm_batch",
           ("repro.core.batch_controller",)),
    Target("optim.prepare_batch_admm",
           "repro.optim.qp_admm:prepare_batch_admm",
           ("repro.core.batch_controller",)),
    Target("pricing.clear_fixed_point",
           "repro.pricing.market:clear_fixed_point", ("repro.sim.fleet",)),
    Target("pricing.SharedMarket.clear",
           "repro.pricing.market:SharedMarket.clear"),
    # the period loop reads prices region by region (Scenario.prices_at
    # calls RealTimeMarket.price), never through RealTimeMarket.prices_at
    Target("pricing.RealTimeMarket.price",
           "repro.pricing.market:RealTimeMarket.price"),
    Target("pricing.record_demand",
           "repro.pricing.market:RealTimeMarket.record_demand"),
    Target("pricing.record_demand",
           "repro.pricing.market:SharedMarket.record_demand"),
    Target("pricing.record_demand",
           "repro.pricing.market:LaneMarketBatch.record_demand"),
    Target("datacenter.IDCCluster.apply_allocation",
           "repro.datacenter.cluster:IDCCluster.apply_allocation"),
    Target("datacenter.IDCCluster.powers_watts",
           "repro.datacenter.cluster:IDCCluster.powers_watts"),
    Target("datacenter.simplified_latency_batch",
           "repro.datacenter.queueing:simplified_latency_batch",
           ("repro.sim.engine", "repro.sim.batch")),
    Target("resilience.FallbackLadder.run",
           "repro.resilience.ladder:FallbackLadder.run"),
    Target("resilience.PolicySupervisor.decide",
           "repro.resilience.supervisor:PolicySupervisor.decide"),
    Target("resilience.WriteAheadLog.append",
           "repro.resilience.durability:WriteAheadLog.append"),
    Target("resilience.ControllerCheckpoint.save",
           "repro.resilience.durability:ControllerCheckpoint.save",
           keep_result=True),
    Target("service.ServiceRuntime.decisions",
           "repro.service.runtime:ServiceRuntime.decisions"),
)

#: Packages imported before installation so that every module which can
#: bind a target is loaded when the call sites are scanned.
_PRELOAD = ("repro._api", "repro.sim", "repro.core", "repro.control",
            "repro.optim", "repro.pricing", "repro.datacenter",
            "repro.resilience", "repro.service", "repro.verify",
            "repro.baselines", "repro.experiments", "repro.cli")


class SpanRecorder:
    """In-memory spans: ``(name, start, end, parent, thread, result)``.

    A span's slot is reserved (``None``) when its call starts, so child
    spans can point at it before it ends.

    ``parent`` is the index of the innermost open span on the same
    thread (-1 at top level); times are ``time.monotonic()`` seconds, a
    clock shared by every process on the machine, so spans dumped by a
    traced daemon line up with the client's unit windows.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name: str, fn, keep_result: bool = False):
        """Proxy for ``fn`` recording one span per call."""
        spans, lock, local = self.spans, self._lock, self._local

        @functools.wraps(fn)
        def proxy(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with lock:
                index = len(spans)
                spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = time.monotonic()
            try:
                out = fn(*args, **kwargs)
                if keep_result:
                    result = out
                return out
            finally:
                end = time.monotonic()
                stack.pop()
                spans[index] = (name, start, end, parent,
                                threading.get_ident(), result)

        return proxy

    def dump(self, path) -> None:
        """Write every span; a call still open at dump time is ``null``."""
        with open(path, "w") as fh:
            json.dump({"spans": list(self.spans)}, fh)


def load_spans(path) -> list:
    with open(path) as fh:
        return [None if s is None else tuple(s)
                for s in json.load(fh)["spans"]]


def _resolve(path: str):
    """``(owner, attribute, original)`` for ``module:qualname``."""
    module_name, _, qualname = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise TraceTargetError(f"{path}: cannot import {module_name}: "
                               f"{exc}") from None
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceTargetError(f"{path}: {part!r} not found")
    attr = parts[-1]
    if isinstance(owner, type):
        original = owner.__dict__.get(attr)
        if original is None:
            raise TraceTargetError(
                f"{path}: {owner.__name__} does not define {attr!r}")
    else:
        original = getattr(owner, attr, None)
        if original is None:
            raise TraceTargetError(f"{path}: {module_name} has no {attr!r}")
    if not callable(original):
        raise TraceTargetError(f"{path}: not callable")
    return owner, attr, original


def resolve_targets(targets=TARGETS) -> list:
    """Resolve every target and check its call sites (no patching)."""
    for name in _PRELOAD:
        importlib.import_module(name)
    out = []
    for target in targets:
        owner, attr, original = _resolve(target.path)
        for site in target.sites:
            bound = getattr(importlib.import_module(site), attr, None)
            if bound is not original:
                raise TraceTargetError(
                    f"{target.path}: call site {site}.{attr} does not bind "
                    "the traced function")
        out.append((target, owner, attr, original))
    return out


class Proxies:
    """Install the timing proxies; a context manager that removes them."""

    def __init__(self, recorder: SpanRecorder, targets=TARGETS) -> None:
        self.recorder = recorder
        self.targets = targets
        self._undo: list = []

    def install(self) -> "Proxies":
        if self._undo:
            raise RuntimeError("proxies already installed")
        resolved = resolve_targets(self.targets)
        try:
            for target, owner, attr, original in resolved:
                proxy = self.recorder.wrap(target.metric, original,
                                           target.keep_result)
                if isinstance(owner, type):
                    self._patch(owner, attr, original, proxy)
                    continue
                for module in list(sys.modules.values()):
                    name = getattr(module, "__name__", "") or ""
                    if name != "repro" and not name.startswith("repro."):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, proxy)
        except BaseException:
            self.remove()
            raise
        return self

    def _patch(self, owner, attr, original, proxy) -> None:
        setattr(owner, attr, proxy)
        self._undo.append((owner, attr, original))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Proxies":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------
def _metric_names() -> list:
    names = list(dict.fromkeys(t.metric for t in TARGETS))
    out = []
    for name in names:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        if name in ("sim.SharedMarketFleet.step", "core.CostMPCPolicy.decide"):
            out.append((f"{name}.p99_ms", "ms"))
    return out


#: Every per-layer metric, ``(name, unit)``, in report order.  Span
#: metrics are per timed unit; ratios carry their base as a separate
#: count so every ratio can be printed beside it.
LAYER_METRICS = _metric_names() + [
    ("core.model_cache_hit_ratio", "ratio"),
    ("core.model_cache_lookups", "count"),
    ("core.ref_cache_hit_ratio", "ratio"),
    ("core.ref_cache_lookups", "count"),
    ("control.warm_start_hit_ratio", "ratio"),
    ("control.warm_start_attempts", "count"),
    ("control.horizon_reuse_ratio", "ratio"),
    ("control.horizon_lookups", "count"),
    ("optim.qp_iterations_per_solve", "ratio"),
    ("optim.kkt_refactorizations_per_solve", "ratio"),
    ("optim.qp_solves", "count"),
    ("pricing.clearing_iterations_per_period", "ratio"),
    ("pricing.clearing_nonconverged_ratio", "ratio"),
    ("pricing.clearing_periods", "count"),
    ("resilience.wal_fsyncs", "count"),
    ("resilience.wal_bytes", "B"),
    ("resilience.checkpoints_written", "count"),
    ("resilience.checkpoint_bytes_mean", "B"),
    ("service.route.status.count", "count"),
    ("service.route.status.p50_ms", "ms"),
    ("service.route.status.p99_ms", "ms"),
    ("service.route.decisions.count", "count"),
    ("service.route.decisions.p50_ms", "ms"),
    ("service.route.decisions.p99_ms", "ms"),
    ("service.admission.peak_inflight", "count"),
    ("service.admission.shed", "count"),
    ("service.gen_late_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
]


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans, windows, n_units: int) -> dict:
    """Span-derived per-layer numbers over the timed ``windows`` of
    ``n_units`` units.

    Returns ``{name: value}`` for every ``.calls`` / ``.self_s`` /
    ``.p99_ms`` metric (calls and self time per unit; zero for a layer
    the workload never enters) plus ``trace.coverage``: the union of
    top-level spans inside the windows over the windows' total length.
    ``self_s`` is a span's duration minus the part its child spans
    cover; children of one span run on its thread, one after another,
    so that part is the sum of their durations.
    """
    n_units = max(n_units, 1)
    spans = list(spans)
    child_time = [0.0] * len(spans)
    for span in spans:
        if span is not None and span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]

    def inside(start):
        return any(w0 <= start <= w1 for w0, w1 in windows)

    calls: dict = {}
    self_s: dict = {}
    durations: dict = {}
    results: dict = {}
    top = []
    for i, span in enumerate(spans):
        if span is None or not inside(span[1]):
            continue
        name, start, end, parent, _tid, result = span
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        durations.setdefault(name, []).append(end - start)
        if result is not None:
            results.setdefault(name, []).append(result)
        if parent < 0:
            top.append((start, end))

    out = {}
    for metric, _unit in _metric_names():
        name, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls.get(name, 0) / n_units
        elif field == "self_s":
            out[metric] = self_s.get(name, 0.0) / n_units
        else:
            sample = durations.get(name)
            out[metric] = percentile(sample, 99) * 1e3 if sample else 0.0
    covered = 0.0
    for w0, w1 in windows:
        covered += _union_length(
            (max(s, w0), min(e, w1)) for s, e in top if e > w0 and s < w1)
    total = sum(w1 - w0 for w0, w1 in windows)
    out["trace.coverage"] = covered / total if total > 0 else 0.0
    saves = results.get("resilience.ControllerCheckpoint.save", [])
    out["resilience.checkpoint_bytes_mean"] = (
        sum(saves) / len(saves) if saves else 0.0)
    return out
