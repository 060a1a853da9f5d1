"""daemon_day: the paper day run by a real ``repro serve`` under load.

The daemon is a subprocess started from the checkout.  Each timed unit
submits the paper day (durable control plane at the service defaults:
WAL fsync on every record, a checkpoint every period) under a fresh run
id and ends when a status poll first reads ``completed``.  While the
day runs, an **open-loop** Poisson generator sends 400 req/s in total
over two keep-alive connections, one thread each: 90 % status polls
``GET /runs/<id>`` and 10 % WAL tails ``GET /runs/<id>/decisions?
start=<last seen>``.  Requests are sent on schedule whether or not the
previous one returned, and each is timed from when it was *due*, so a
stall in the daemon shows up in the latency of the requests queued
behind it.  The seed sets the arrival times and the mix.  Between units
the load is off: the harness reads the served day back and times its
calibration point on an idle machine.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time

from common import HERE, ROOT, WORK, child_env, percentile
from workloads import PaperDay, UnitResult, Workload

__all__ = ["DaemonDay", "OpenLoopLoad"]

RATE_PER_SECOND = 400.0
CONNECTIONS = 2
DECISIONS_SHARE = 0.1


class OpenLoopLoad:
    """Poisson arrivals against one run over ``CONNECTIONS`` keep-alive
    connections, until a status poll sees the run end.

    Each connection has its own thread and arrival stream at
    ``RATE_PER_SECOND / CONNECTIONS``, seeded by ``seed`` and the
    connection index.  Samples are ``(route, due, sent, done, ok)`` in
    ``time.perf_counter`` seconds.
    """

    def __init__(self, host: str, port: int, run_id: str, seed: str) -> None:
        self.host, self.port = host, int(port)
        self.run_id, self.seed = run_id, seed
        self.samples: list = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._ended = threading.Event()
        self._ended_at = None
        self._end_state = None
        self._threads = [threading.Thread(target=self._loop, args=(i,),
                                          name=f"e2e-load-{i}", daemon=True)
                         for i in range(CONNECTIONS)]

    def start(self) -> None:
        for thread in self._threads:
            thread.start()

    def stop(self) -> None:
        self._stop.set()
        for thread in self._threads:
            if thread.ident is None:
                continue
            thread.join(30.0)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not stop")

    def wait_completed(self, timeout: float) -> float:
        """``perf_counter`` time the run was first seen ``completed``."""
        if not self._ended.wait(timeout):
            raise TimeoutError(f"run {self.run_id} not completed after "
                               f"{timeout:.0f} s")
        if self._end_state != "completed":
            raise RuntimeError(f"run {self.run_id} ended {self._end_state}")
        return self._ended_at

    def _connect(self):
        return http.client.HTTPConnection(self.host, self.port, timeout=10.0)

    def _loop(self, index: int) -> None:
        rng = random.Random(f"daemon_day:{self.seed}:{index}")
        conn = self._connect()
        samples = []
        seen = 0
        rate = RATE_PER_SECOND / CONNECTIONS
        due = time.perf_counter()
        try:
            while not self._stop.is_set():
                due += rng.expovariate(rate)
                delay = due - time.perf_counter()
                if delay > 0 and self._stop.wait(delay):
                    break
                if rng.random() < DECISIONS_SHARE:
                    route = "decisions"
                    path = f"/runs/{self.run_id}/decisions?start={seen}"
                else:
                    route, path = "status", f"/runs/{self.run_id}"
                sent = time.perf_counter()
                ok, body = False, b""
                try:
                    conn.request("GET", path)
                    resp = conn.getresponse()
                    body = resp.read()
                    ok = resp.status == 200
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = self._connect()
                done = time.perf_counter()
                samples.append((route, due, sent, done, ok))
                if not ok:
                    continue
                doc = json.loads(body)
                if route == "decisions":
                    periods = [int(d["period"]) for d in doc["decisions"]]
                    if periods:
                        seen = max(periods) + 1
                elif doc.get("state") in ("completed", "failed", "stopped"):
                    with self._lock:
                        if not self._ended.is_set():
                            self._ended_at = done
                            self._end_state = doc["state"]
                            self._ended.set()
        finally:
            conn.close()
            with self._lock:
                self.samples.extend(samples)


def _spec(run_id: str, duration: float) -> dict:
    return {"kind": "scalar", "run_id": run_id,
            "scenario": {"name": "paper", "dt": 300.0, "duration": duration,
                         "start_hour": 0.0, "budgets": True},
            "policy": {"name": "mpc"}}


class Daemon:
    """One ``repro serve`` subprocess over its own data directory."""

    def __init__(self, data_dir, spans_path=None) -> None:
        from repro.service import ServiceClient, discover_service
        self.data_dir = str(data_dir)
        os.makedirs(self.data_dir, exist_ok=True)
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"),
                   "--spans", str(spans_path), "serve"]
        cmd += ["--data-dir", self.data_dir]
        self._log = open(os.path.join(self.data_dir, "daemon.log"), "ab")
        self.proc = subprocess.Popen(cmd, cwd=str(ROOT), env=child_env(),
                                     stdout=self._log,
                                     stderr=subprocess.STDOUT)
        self.rusage = None
        deadline = time.monotonic() + 60.0
        try:
            while True:
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"daemon exited with {self.proc.returncode}; see "
                        f"{self.data_dir}/daemon.log")
                if time.monotonic() > deadline:
                    raise TimeoutError("daemon not ready after 60 s")
                try:
                    info = discover_service(self.data_dir)
                    self.client = ServiceClient(info["host"], info["port"])
                    if self.client.ready():
                        break
                except (OSError, ValueError, KeyError):
                    pass
                time.sleep(0.02)
        except BaseException:
            self.stop()
            raise
        self.host, self.port = info["host"], int(info["port"])

    def run_day(self, run_id: str, duration: float) -> dict:
        """Submit and wait by polling (set-up only; no load running)."""
        self.client.submit(_spec(run_id, duration))
        return self.client.result(run_id, poll_seconds=0.01, timeout=120.0)

    def stop(self) -> None:
        """SIGTERM (graceful drain), wait, keep the child's rusage."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + 30.0
            while True:
                pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    self.proc.kill()
                    pid, status, rusage = os.wait4(self.proc.pid, 0)
                    break
                time.sleep(0.02)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.rusage = rusage
        if hasattr(self, "client"):
            self.client.close()
        self._log.close()


class DaemonDay(Workload):
    """The ``paper_day`` spec served K times by one daemon under load."""

    name = "daemon_day"
    # a day is 2.5-9 s of mostly checkpoint fsyncs, whose latency the
    # shared disk sets; three of them keep one slow stretch from setting
    # the median, and no more fit the runs' time budget
    min_units = 3

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.duration = 3600.0 if smoke else 86400.0
        self.n_periods = int(self.duration // 300)
        self.work = WORK / f"daemon_day-{os.getpid()}"
        self.daemon = None
        self.samples: list = []
        self._n_runs = 0
        self._missing = 0
        self.admission: dict = {}

    def _start(self, spans_path=None) -> None:
        index = self._n_runs
        self.daemon = Daemon(self.work / f"daemon-{index}", spans_path)
        self.daemon.run_day(self._next_id("warmup"), 3600.0)

    def _next_id(self, kind: str) -> str:
        self._n_runs += 1
        return f"{kind}-{self._n_runs:03d}"

    def setup(self) -> None:
        if self.work.exists():
            shutil.rmtree(self.work)
        self._start()

    def gate(self) -> UnitResult:
        """The same day in-process under the invariant monitor.

        The daemon cannot host a monitor, so the gate is the in-process
        run of the identical spec; every served day must match its cost
        bit for bit.
        """
        reference = PaperDay(0, self.smoke)
        reference.duration = self.duration
        reference.inputs = reference.scenario(self.duration)
        return reference.gate()

    def begin_timed(self) -> None:
        self._missing = 0
        self.samples = []

    def unit(self, lap=None) -> UnitResult:
        run_id = self._next_id("day")
        load = OpenLoopLoad(self.daemon.host, self.daemon.port, run_id,
                            seed=f"{self.seed}:{run_id}")
        t0 = time.perf_counter()
        self.daemon.client.submit(_spec(run_id, self.duration))
        load.start()
        try:
            done = load.wait_completed(120.0)
        finally:
            load.stop()
            self.samples += load.samples
        return UnitResult(cost=float("nan"), signature=None, attempted=0,
                          failed=0, elapsed=done - t0,
                          extra={"run_id": run_id})

    def check(self, result: UnitResult, gate: UnitResult) -> list:
        """Read the served day back; fills in cost and counters."""
        run_id = result.extra["run_id"]
        client = self.daemon.client
        status = client.request("GET", f"/runs/{run_id}/result")
        periods = {int(d["period"]) for d in client.decisions(run_id)}
        missing = len(set(range(self.n_periods)) - periods)
        self._missing += missing
        result.cost = float(status["cost_usd_total"])
        result.counters = dict(status.get("summary", {}).get("counters", {}))
        problems = []
        if status.get("state") != "completed":
            problems.append(f"{run_id} ended {status.get('state')}")
        if missing:
            problems.append(f"{run_id}: {missing} of {self.n_periods} "
                            "decisions missing from /decisions")
        if result.cost != gate.cost:
            problems.append(f"{run_id} cost {result.cost!r} differs from "
                            f"the in-process day {gate.cost!r}")
        return problems

    def end_timed(self) -> None:
        self.admission = self.daemon.client.health().get("admission", {})

    def totals(self, units: list) -> tuple[int, int, list]:
        samples = self.samples
        failed = sum(1 for s in samples if not s[4]) + self._missing
        latencies = [s[3] - s[1] for s in samples]
        return len(samples), failed, latencies

    def route_stats(self) -> dict:
        """Client-side per-route latency and generator lateness."""
        out = {}
        for route in ("status", "decisions"):
            lat = [(s[3] - s[1]) * 1e3 for s in self.samples
                   if s[0] == route]
            out[f"service.route.{route}.count"] = len(lat)
            out[f"service.route.{route}.p50_ms"] = (
                percentile(lat, 50) if lat else 0.0)
            out[f"service.route.{route}.p99_ms"] = (
                percentile(lat, 99) if lat else 0.0)
        late = [(s[2] - s[1]) * 1e3 for s in self.samples]
        out["service.gen_late_p99_ms"] = percentile(late, 99) if late else 0.0
        out["service.admission.peak_inflight"] = int(
            self.admission.get("peak_inflight", 0))
        out["service.admission.shed"] = int(self.admission.get("shed", 0))
        return out

    def enable_tracing(self, recorder) -> None:
        self.daemon.stop()
        self._spans_path = self.work / "spans.json"
        self._start(self._spans_path)

    def collect_spans(self, recorder) -> list:
        import tracer
        self.daemon.stop()
        return tracer.load_spans(self._spans_path)

    def close(self) -> dict:
        out = {}
        if self.daemon is not None:
            self.daemon.stop()
            if self.daemon.rusage is not None:
                out["peak_rss_mb"] = self.daemon.rusage.ru_maxrss / 1024.0
        if self.work.exists():
            shutil.rmtree(self.work)
        return out
