"""Run ownership: control threads, telemetry fan-out, graceful drain.

:class:`ServiceRuntime` is the daemon's core, deliberately independent
of HTTP so tests can drive it directly.  It owns a directory of *runs*:
each submitted spec becomes a :class:`ManagedRun` — a control thread
stepping the simulation engine with the durable control plane always
armed (per-period WAL append, checkpoints next to it) and the engine's
``step_hook`` as the only coupling point: the hook publishes one
telemetry record per control period into the run's
:class:`TelemetryHub`, answers on-demand checkpoint requests, and turns
a drain request into a graceful stop (final checkpoint → the run is
resumable).

Persistence layout under ``data_dir``::

    runs/<run_id>/run.json        spec + state (atomic rewrite)
    runs/<run_id>/wal.jsonl       decision WAL (scalar runs)
    runs/<run_id>/fleet_wal.jsonl fleet WAL (sharded when configured)
    runs/<run_id>/*.ckpt          checkpoint sibling(s)

A daemon restarted over an existing ``data_dir`` re-lists the old runs
(an interrupted run shows state ``"interrupted"``) and a re-submission
with ``resume: "auto"`` continues it from checkpoint + WAL, verified
digest-by-digest by the engine.
"""

from __future__ import annotations

import collections
import enum
import json
import os
import tempfile
import threading
import time

from .protocol import (
    ProtocolError,
    RunSpec,
    build_fleet,
    build_scalar_run,
    spec_from_dict,
    validate_run_id,
)

__all__ = [
    "ManagedRun",
    "RunBusyError",
    "RunConflictError",
    "RunState",
    "ServiceRuntime",
    "TelemetryHub",
    "UnknownRunError",
]


class RunBusyError(RuntimeError):
    """Another run is active, or the service is draining (HTTP 409)."""


class RunConflictError(RuntimeError):
    """The run directory's durable state conflicts with the request
    (HTTP 409) — e.g. re-submitting a finished run without ``resume``,
    or an orphaned checkpoint whose WAL was deleted."""


class UnknownRunError(KeyError):
    """No run with that id (HTTP 404)."""


class RunState(str, enum.Enum):
    """Lifecycle of a managed run."""

    PENDING = "pending"
    RUNNING = "running"
    DRAINING = "draining"
    COMPLETED = "completed"
    STOPPED = "stopped"        # drained gracefully; resumable
    FAILED = "failed"
    INTERRUPTED = "interrupted"  # found on disk after a daemon crash


#: States in which the control thread is alive.
ACTIVE_STATES = (RunState.PENDING, RunState.RUNNING, RunState.DRAINING)


class TelemetryHub:
    """Bounded fan-out buffer of per-period telemetry records.

    A ring of the last ``maxlen`` records, each stamped with a
    monotonically increasing ``seq`` and stored once as its JSONL line.
    Streaming readers poll :meth:`read_since` with their next sequence
    number; publishing never blocks on slow readers (the ring drops the
    oldest records instead — the *durable* record of every decision is
    the WAL, which the ``/decisions`` endpoint reads, so nothing is ever
    lost, only late)."""

    def __init__(self, maxlen: int = 4096) -> None:
        self._records: collections.deque = collections.deque(maxlen=maxlen)
        self._cond = threading.Condition()
        self._next_seq = 0
        self._closed = False

    def publish(self, record: dict) -> int:
        """Stamp and buffer one record; wakes all waiting readers."""
        with self._cond:
            seq = self._next_seq
            self._next_seq += 1
            line = json.dumps({**record, "seq": seq}).encode() + b"\n"
            self._records.append((seq, line))
            self._cond.notify_all()
            return seq

    def close(self) -> None:
        """No more records will come; unblocks every reader."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        """True once the producing run has ended."""
        return self._closed

    def read_since(self, seq: int, timeout: float | None = None
                   ) -> tuple[list[tuple[int, bytes]], bool]:
        """``(seq, line)`` records from ``seq`` on; blocks up to
        ``timeout`` for new ones.

        Returns ``(records, closed)``.  An empty list with
        ``closed=True`` tells a follower to stop; empty with
        ``closed=False`` means the wait timed out (poll again with a
        fresh deadline).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                out = [r for r in self._records if r[0] >= seq]
                if out or self._closed:
                    return out, self._closed
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return [], False
                self._cond.wait(remaining)


class _DecisionCursor:
    """The ``/decisions`` view of one run's WAL, read incrementally.

    Keeps each shard's byte offset and the latest record per period, and
    parses only the complete lines appended since the last call, by the
    rules of :func:`~repro.resilience.read_wal` (which stays the reader
    for resume): a corrupt line is dropped while it is a shard's last
    complete line and raises :class:`~repro.exceptions.CheckpointError`
    once another follows it.  A shard shorter than its offset means the
    log started over, and the cursor does too.
    """

    def __init__(self, wal_path: str, n_shards: int) -> None:
        from ..resilience.durability import wal_shard_paths
        self._paths = wal_shard_paths(wal_path, n_shards)
        self._lock = threading.Lock()
        self._offsets = [0] * n_shards
        self._by_period: dict[int, dict] = {}

    def read(self, start: int) -> list[dict]:
        """Every period's latest decision record from ``start`` on."""
        with self._lock:
            sizes = [_file_size(p) for p in self._paths]
            if any(size < offset
                   for size, offset in zip(sizes, self._offsets)):
                self._offsets = [0] * len(self._paths)
                self._by_period = {}
            for i, (path, size) in enumerate(zip(self._paths, sizes)):
                if size > self._offsets[i]:
                    self._advance(i, path)
            by_period = self._by_period
            return [by_period[k] for k in sorted(by_period) if k >= start]

    def _advance(self, i: int, path: str) -> None:
        from ..exceptions import CheckpointError
        with open(path, "rb") as fh:
            fh.seek(self._offsets[i])
            data = fh.read()
        lines = data[:data.rfind(b"\n") + 1].split(b"\n")[:-1]
        for j, line in enumerate(lines):
            if line.strip():
                try:
                    rec = json.loads(line)
                except ValueError:
                    if j == len(lines) - 1:     # a torn tail, for now
                        return
                    raise CheckpointError(f"{path}: corrupt WAL record "
                                          f"at byte {self._offsets[i]}")
                if rec.get("type") == "decision":
                    self._by_period[int(rec["period"])] = rec
            self._offsets[i] += len(line) + 1


def _file_size(path: str) -> int:
    try:
        return os.stat(path).st_size
    except FileNotFoundError:
        return 0


class ManagedRun:
    """One run: spec, state, control thread, telemetry hub, durables."""

    def __init__(self, run_id: str, spec: RunSpec, directory: str) -> None:
        self.run_id = run_id
        self.spec = spec
        self.directory = directory
        self.state = RunState.PENDING
        self.hub = TelemetryHub()
        self.thread: threading.Thread | None = None
        self.error: str | None = None
        self.summary: dict | None = None
        self.periods_done = 0
        self.n_periods: int | None = None
        self.cost_usd_total = 0.0
        self.health_state: str | None = None
        self.last_rung: str | None = None
        self.resumed_from: int | None = None
        self.resume_from: str | None = None   # WAL path to resume from
        self.submitted_at = time.time()
        self.finished_at: float | None = None
        # the live controller, dropped by release_controller()
        self.supervisor = None      # scalar runs: the health machine
        self.fleet_perf = None      # fleet runs: BatchPerfStats
        #: what /perf reports of the controller once it is released
        self.final_counters: dict = {}
        #: the live run's /decisions cursor
        self.wal_cursor: _DecisionCursor | None = None
        self._drain = threading.Event()
        self._checkpoint = threading.Event()

    # -- paths ---------------------------------------------------------
    @property
    def wal_path(self) -> str:
        """The run's write-ahead log (kind-dependent base name)."""
        name = "wal.jsonl" if self.spec.kind == "scalar" \
            else "fleet_wal.jsonl"
        return os.path.join(self.directory, name)

    @property
    def meta_path(self) -> str:
        """The persisted ``run.json``."""
        return os.path.join(self.directory, "run.json")

    # -- control -------------------------------------------------------
    def request_stop(self) -> None:
        """Ask the control thread to drain at the next period."""
        self._drain.set()
        if self.state is RunState.RUNNING:
            self.state = RunState.DRAINING

    def request_checkpoint(self) -> None:
        """Ask for an on-demand checkpoint at the next period."""
        self._checkpoint.set()

    @property
    def stop_requested(self) -> bool:
        """Whether a drain was requested."""
        return self._drain.is_set()

    def pop_checkpoint_request(self) -> bool:
        """Consume a pending checkpoint request (hook-side)."""
        if self._checkpoint.is_set():
            self._checkpoint.clear()
            return True
        return False

    @property
    def active(self) -> bool:
        """True while the control thread is (or is about to be) alive."""
        return self.state in ACTIVE_STATES

    def controller_counters(self) -> dict:
        """The controller's counters for ``/perf``: live, or as released.

        ``supervisor`` (scalar runs) and ``rollup`` (fleet runs).
        """
        # read once: the control thread may release them meanwhile
        supervisor, fleet_perf = self.supervisor, self.fleet_perf
        if supervisor is None and fleet_perf is None:
            return dict(self.final_counters)
        out: dict = {}
        if supervisor is not None:
            out["supervisor"] = dict(supervisor.counters)
        if fleet_perf is not None:
            try:
                out["rollup"] = _json_safe_counters(
                    fleet_perf.rollup().as_dict().get("counters", {}))
            except RuntimeError:  # rollup raced a mutating control step
                out["rollup"] = None
        return out

    def decision_cursor(self) -> _DecisionCursor:
        """The live run's WAL cursor; a finished run's WAL, read whole."""
        cursor = self.wal_cursor
        if cursor is None:
            cursor = _DecisionCursor(
                self.wal_path,
                self.spec.wal_shards if self.spec.kind == "fleet" else 1)
        return cursor

    def release_controller(self) -> None:
        """Keep the controller's counters, drop the controller.

        A finished run keeps its status, summary, WAL and telemetry
        lines, not the objects that ran it, nor the parsed records of
        its ``/decisions`` cursor.
        """
        self.final_counters = self.controller_counters()
        self.supervisor = self.fleet_perf = self.wal_cursor = None

    # -- reporting -----------------------------------------------------
    def status(self) -> dict:
        """JSON-safe status snapshot (the ``/runs/<id>`` body)."""
        out = {
            "run_id": self.run_id,
            "kind": self.spec.kind,
            "state": self.state.value,
            "periods_done": int(self.periods_done),
            "n_periods": self.n_periods,
            "cost_usd_total": float(self.cost_usd_total),
            "health_state": self.health_state,
            "resumed_from_period": self.resumed_from,
            "error": self.error,
        }
        if self.summary is not None:
            out["summary"] = self.summary
        return out

    def persist(self) -> None:
        """Atomically rewrite ``run.json`` with the current status."""
        doc = {
            "run_id": self.run_id,
            "spec": self.spec.to_dict(),
            "state": self.state.value,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "summary": self.summary,
            "periods_done": int(self.periods_done),
            "n_periods": self.n_periods,
        }
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".json.tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, indent=2)
        os.replace(tmp, self.meta_path)


class ServiceRuntime:
    """Owns every run; one active control thread at a time.

    Single-flight is a deliberate robustness posture, not a limitation:
    the bench machine is single-core, and two MPC loops interleaving on
    it would only add jitter to both.  Queueing beyond one run is the
    *client's* decision (submit returns 409, clients back off), so the
    admission story stays explicit end to end.
    """

    def __init__(self, data_dir: str) -> None:
        self.data_dir = os.path.abspath(data_dir)
        self.runs_dir = os.path.join(self.data_dir, "runs")
        os.makedirs(self.runs_dir, exist_ok=True)
        self._runs: dict[str, ManagedRun] = {}
        self._lock = threading.RLock()
        self._draining = False
        self._started_monotonic = time.monotonic()
        self._n_submitted = 0
        self._load_existing()

    # -- startup recovery ----------------------------------------------
    def _load_existing(self) -> None:
        """Re-list run directories left by a previous daemon."""
        for entry in sorted(os.listdir(self.runs_dir)):
            meta = os.path.join(self.runs_dir, entry, "run.json")
            if not os.path.isfile(meta):
                continue
            try:
                with open(meta) as fh:
                    doc = json.load(fh)
                spec = spec_from_dict({k: v for k, v in doc["spec"].items()})
            except (OSError, ValueError, KeyError, ProtocolError):
                continue  # an unreadable run dir is surfaced by absence
            run = ManagedRun(entry, spec,
                             os.path.join(self.runs_dir, entry))
            state = doc.get("state", "interrupted")
            try:
                run.state = RunState(state)
            except ValueError:
                run.state = RunState.INTERRUPTED
            if run.state in ACTIVE_STATES:
                # the previous daemon died mid-run (that is the chaos
                # drill); the durable state on disk is the truth now
                run.state = RunState.INTERRUPTED
            run.periods_done = int(doc.get("periods_done") or 0)
            run.n_periods = doc.get("n_periods")
            run.error = doc.get("error")
            run.summary = doc.get("summary")
            run.hub.close()
            self._runs[entry] = run

    # -- submission ----------------------------------------------------
    def submit(self, payload: dict) -> dict:
        """Validate, admit and start a run; returns its status dict."""
        spec = spec_from_dict(payload)
        run_id = payload.get("run_id")
        with self._lock:
            if self._draining:
                raise RunBusyError("service is draining; not accepting runs")
            active = [r for r in self._runs.values() if r.active]
            if active:
                raise RunBusyError(
                    f"run {active[0].run_id!r} is active; one run at a "
                    "time (stop it or wait)")
            if run_id is None:
                self._n_submitted += 1
                run_id = f"run-{self._n_submitted:04d}"
                while run_id in self._runs:
                    self._n_submitted += 1
                    run_id = f"run-{self._n_submitted:04d}"
            validate_run_id(run_id)
            directory = os.path.join(self.runs_dir, run_id)
            os.makedirs(directory, exist_ok=True)
            run = ManagedRun(run_id, spec, directory)
            self._admit_durable_state(run)
            run.thread = threading.Thread(
                target=self._execute, args=(run,),
                name=f"repro-run-{run_id}", daemon=True)
            self._runs[run_id] = run
            run.persist()
            run.thread.start()
            return run.status()

    def _admit_durable_state(self, run: ManagedRun) -> None:
        """Reconcile the spec's resume mode with what is on disk.

        Sets ``run.resume_from`` for the control thread.  The
        orphaned-checkpoint case (checkpoint present, WAL missing) is
        refused here with the same actionable message the engine would
        raise, so the client sees a 409 instead of a failed run;
        ``resume="force"`` deletes the checkpoint instead, for either run
        kind, so the engine starts over on a clean directory.
        """
        from ..resilience.durability import checkpoint_path_for
        wal = run.wal_path
        ckpt = checkpoint_path_for(wal)
        wal_exists = os.path.exists(wal)
        ckpt_exists = os.path.exists(ckpt)
        mode = run.spec.resume
        run.resume_from = None
        if mode == "never":
            if wal_exists or ckpt_exists:
                raise RunConflictError(
                    f"run {run.run_id!r} already has durable state on "
                    "disk; re-submit with resume='auto' to continue it "
                    "or resume='force' to discard it")
        elif mode == "auto":
            if ckpt_exists and not wal_exists:
                raise RunConflictError(
                    f"run {run.run_id!r} has a checkpoint but its "
                    "write-ahead log is missing — nothing to verify a "
                    "resume against.  Restore the WAL or re-submit with "
                    "resume='force' to discard the orphaned checkpoint")
            if wal_exists:
                run.resume_from = wal
        elif ckpt_exists:  # force
            os.unlink(ckpt)

    # -- the control thread --------------------------------------------
    def _execute(self, run: ManagedRun) -> None:
        run.wal_cursor = run.decision_cursor()
        try:
            run.state = RunState.RUNNING
            run.persist()
            if run.spec.kind == "scalar":
                self._execute_scalar(run)
            else:
                self._execute_fleet(run)
        except Exception as exc:  # surfaced via status, not a dead thread
            run.error = f"{type(exc).__name__}: {exc}"
            run.state = RunState.FAILED
        finally:
            run.finished_at = time.time()
            run.release_controller()
            run.hub.close()
            try:
                run.persist()
            except OSError:
                pass

    def _hook_action(self, run: ManagedRun):
        if run.stop_requested:
            return "stop"
        if run.pop_checkpoint_request():
            return "checkpoint"
        return None

    def _execute_scalar(self, run: ManagedRun) -> None:
        from ..sim import run_simulation
        scenario, policy, supervisor = build_scalar_run(run.spec)
        run.supervisor = supervisor
        run.n_periods = int(scenario.n_periods)
        run.persist()

        def hook(info: dict):
            run.periods_done = int(info["period"]) + 1
            run.cost_usd_total = float(info["cost_usd_total"])
            diag = info["diagnostics"]
            run.health_state = diag.get("health_state")
            run.last_rung = diag.get("rung")
            run.hub.publish({
                "type": "telemetry", "run_id": run.run_id,
                "period": int(info["period"]),
                "time_seconds": float(info["time_seconds"]),
                "prices": [float(p) for p in info["prices"]],
                "powers_mw": [float(p) / 1e6
                              for p in info["powers_watts"]],
                "servers": [int(s) for s in info["servers"]],
                "cost_usd_total": run.cost_usd_total,
                "health_state": run.health_state,
                "rung": run.last_rung,
            })
            return self._hook_action(run)

        result = run_simulation(
            scenario, policy,
            checkpoint_every=run.spec.checkpoint_every,
            wal_path=run.wal_path,
            wal_fsync_every=run.spec.wal_fsync_every,
            resume_from=run.resume_from,
            step_hook=hook)
        counters = dict(result.perf.get("counters", {}))
        run.resumed_from = counters.get("resumed_from_period")
        run.cost_usd_total = float(result.total_cost_usd)
        run.periods_done = int(len(result.times))
        run.summary = {
            "total_cost_usd": float(result.total_cost_usd),
            "n_periods_recorded": int(len(result.times)),
            "counters": _json_safe_counters(counters),
        }
        stopped = counters.get("stopped_at_period")
        run.state = (RunState.STOPPED
                     if stopped is not None
                     and int(stopped) < run.n_periods
                     else RunState.COMPLETED)

    def _execute_fleet(self, run: ManagedRun) -> None:
        fleet, n_periods = build_fleet(run.spec)
        run.fleet_perf = fleet.perf
        run.n_periods = int(n_periods)
        run.persist()

        def hook(rec: dict):
            run.periods_done = int(rec["period"]) + 1
            run.cost_usd_total = float(fleet._cost.sum())
            run.hub.publish({
                "type": "telemetry", "run_id": run.run_id,
                "period": int(rec["period"]),
                "time_seconds": float(rec["time_seconds"]),
                "prices": [float(p) for p in rec["prices"]],
                "agg_demand_mw": [float(a) for a in rec["agg"]],
                "cost_usd_total": run.cost_usd_total,
            })
            return self._hook_action(run)

        result = fleet.run(
            run.n_periods,
            checkpoint_every=run.spec.checkpoint_every,
            wal_path=run.wal_path,
            wal_fsync_every=run.spec.wal_fsync_every,
            wal_shards=run.spec.wal_shards,
            resume_from=run.resume_from,
            step_hook=hook)
        counters = dict(result.perf.get("counters", {}))
        run.resumed_from = counters.get("resumed_from_period")
        run.cost_usd_total = float(result.total_cost_usd)
        run.periods_done = int(result.n_periods)
        run.summary = {
            "total_cost_usd": float(result.total_cost_usd),
            "n_periods_recorded": int(result.n_periods),
            "n_lanes": int(result.n_lanes),
            "counters": _json_safe_counters(counters),
        }
        stopped = counters.get("stopped_at_period")
        run.state = (RunState.STOPPED
                     if stopped is not None
                     and int(stopped) < run.n_periods
                     else RunState.COMPLETED)

    # -- lookup and lifecycle ------------------------------------------
    def get(self, run_id: str) -> ManagedRun:
        """The run, or :class:`UnknownRunError`."""
        try:
            return self._runs[run_id]
        except KeyError:
            raise UnknownRunError(run_id)

    def list_runs(self) -> list[dict]:
        """Status of every known run, oldest first."""
        with self._lock:
            runs = sorted(self._runs.values(),
                          key=lambda r: r.submitted_at)
        return [r.status() for r in runs]

    def active_run(self) -> ManagedRun | None:
        """The currently active run, if any."""
        with self._lock:
            for run in self._runs.values():
                if run.active:
                    return run
        return None

    def stop_run(self, run_id: str, wait_seconds: float | None = None
                 ) -> dict:
        """Drain a run (final checkpoint); optionally wait for it."""
        run = self.get(run_id)
        if run.active:
            run.request_stop()
            if wait_seconds and run.thread is not None:
                run.thread.join(wait_seconds)
        return run.status()

    def checkpoint_run(self, run_id: str) -> dict:
        """Request an on-demand checkpoint at the next control period."""
        run = self.get(run_id)
        if not run.active:
            raise RunConflictError(
                f"run {run_id!r} is not running ({run.state.value})")
        run.request_checkpoint()
        return run.status()

    def decisions(self, run_id: str, start: int = 0) -> list[dict]:
        """Durable decision records from the run's WAL, period order.

        Latest-append-wins per period (a resumed run re-logs its
        verified tail), so the stream a client reads after any number
        of crash/restart cycles contains every period exactly once.
        While the run is live, each call parses only what was appended
        since the last.
        """
        return self.get(run_id).decision_cursor().read(start)

    def perf(self, run_id: str) -> dict:
        """Live (or final) perf counters: ladder rungs, rollups, WAL."""
        run = self.get(run_id)
        if run.summary is not None:
            out = {"state": run.state.value,
                   "counters": run.summary.get("counters", {})}
        else:
            out = {"state": run.state.value,
                   "periods_done": int(run.periods_done),
                   "health_state": run.health_state,
                   "rung": run.last_rung}
        out.update(run.controller_counters())
        return out

    # -- service health -------------------------------------------------
    @property
    def draining(self) -> bool:
        """True once shutdown has begun (readiness gates on this)."""
        return self._draining

    def begin_drain(self) -> None:
        """Stop admitting runs; ``/readyz`` flips to 503."""
        with self._lock:
            self._draining = True

    def drain_all(self, timeout: float = 30.0) -> None:
        """Gracefully stop every active run (final checkpoints)."""
        self.begin_drain()
        deadline = time.monotonic() + timeout
        with self._lock:
            active = [r for r in self._runs.values() if r.active]
        for run in active:
            run.request_stop()
        for run in active:
            if run.thread is not None:
                run.thread.join(max(0.0, deadline - time.monotonic()))

    def health(self) -> dict:
        """The ``/healthz`` body: liveness plus a summary of the runs."""
        with self._lock:
            states = {rid: r.state.value for rid, r in self._runs.items()}
            active = next((r for r in self._runs.values() if r.active),
                          None)
        out = {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "active_run": None if active is None else active.run_id,
            "health_state": None if active is None else active.health_state,
            "runs": states,
        }
        return out

    def readiness(self) -> tuple[bool, dict]:
        """The ``/readyz`` verdict: ``(ready, detail)``.

        Not ready while draining (the daemon is on its way out).  A
        degraded-but-alive controller stays *ready* — that is the whole
        point of the degradation ladder — but the health detail carries
        the supervisor state and fleet lane-health rollup so an
        operator (or orchestrator) can see trouble coming.
        """
        detail = self.health()
        active = self.active_run()
        if active is not None and active.fleet_perf is not None:
            try:
                rollup = active.fleet_perf.rollup().counters
                detail["lanes_quarantined"] = int(
                    rollup.get("lanes_quarantined", 0))
            except RuntimeError:
                detail["lanes_quarantined"] = None
        ready = not self._draining
        detail["ready"] = ready
        return ready, detail


def _json_safe_counters(counters: dict) -> dict:
    """Coerce numpy scalars so counters serialize as plain JSON."""
    out = {}
    for key, value in counters.items():
        if isinstance(value, float):
            out[str(key)] = value
        else:
            try:
                out[str(key)] = int(value)
            except (TypeError, ValueError):
                out[str(key)] = str(value)
    return out
