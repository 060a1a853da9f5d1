"""Service throughput under load, with overload shedding.

Three pass/fail phases; nothing is written to disk:

* sustained load — eight keep-alive workers hammer the daemon's
  request path while a full simulated day (288 MPC periods, durable
  control plane armed) runs underneath.  Checks throughput and — the
  robustness headline — that **zero decisions were dropped**: every
  one of the day's periods is present in the WAL-backed
  ``/decisions`` stream afterwards, load or no load.
* overload — a deliberately tiny admission gate (one slot, ~zero
  wait) is saturated; overload must be answered with ``503`` +
  ``Retry-After`` (never a hang, never a dropped decision) while
  health probes keep answering ``200``.
* streaming — one follower reads a short run's telemetry off the
  chunked JSONL stream.

Acceptance (asserted): sustained throughput ≥ 1000 req/s with zero
request errors and zero dropped decisions; every overload answer is a
well-formed 503 with Retry-After.
"""

import http.client
import threading
import time

from repro.service import ServiceClient, ServiceConfig, ServiceDaemon

_DAY = {"kind": "scalar", "run_id": "benchday",
        "scenario": {"name": "paper", "dt": 300.0, "duration": 86400.0},
        "policy": {"name": "mpc"}}
_N_WORKERS = 8
_MIN_RPS = 1000.0


def _hammer(host, port, stop, latencies, errors):
    conn = http.client.HTTPConnection(host, port, timeout=10.0)
    mine = []
    while not stop.is_set():
        t0 = time.perf_counter()
        try:
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            resp.read()
            if resp.status != 200:
                errors.append(resp.status)
        except OSError as exc:
            errors.append(type(exc).__name__)
            conn.close()
            conn = http.client.HTTPConnection(host, port, timeout=10.0)
        mine.append(time.perf_counter() - t0)
    latencies.extend(mine)
    conn.close()


def test_service_load_latency_and_shedding(tmp_path):
    # -- sustained load over a running full day ------------------------
    daemon = ServiceDaemon(ServiceConfig(
        data_dir=str(tmp_path / "load"), max_inflight=64)).start()
    try:
        host, port = daemon.address
        client = ServiceClient(host, port)
        client.submit(dict(_DAY))
        stop = threading.Event()
        latencies, errors = [], []
        workers = [threading.Thread(
            target=_hammer, args=(host, port, stop, latencies, errors))
            for _ in range(_N_WORKERS)]
        t0 = time.perf_counter()
        for w in workers:
            w.start()
        final = client.result("benchday", timeout=600)
        stop.set()
        for w in workers:
            w.join()
        elapsed = time.perf_counter() - t0
        decisions = client.decisions("benchday")
    finally:
        daemon.stop()

    n_periods = 288
    throughput = len(latencies) / elapsed
    assert final["state"] == "completed"
    assert not errors, f"request errors under load: {errors[:5]}"
    assert len(decisions) == n_periods      # zero dropped decisions
    assert throughput >= _MIN_RPS, (
        f"{throughput:.0f} req/s under the {_MIN_RPS:.0f} req/s floor")

    # -- overload: tiny gate, every excess answered 503+Retry-After ----
    daemon = ServiceDaemon(ServiceConfig(
        data_dir=str(tmp_path / "overload"), max_inflight=1,
        max_wait_seconds=0.0, retry_after_seconds=2.0)).start()
    try:
        host, port = daemon.address
        daemon.server.gate.acquire()        # saturate the only slot
        n_shed, retry_after_ok, malformed = 0, 0, 0
        conn = http.client.HTTPConnection(host, port, timeout=5.0)
        for _ in range(200):
            conn.request("GET", "/runs")
            resp = conn.getresponse()
            body = resp.read()
            if resp.status == 503:
                n_shed += 1
                if resp.getheader("Retry-After") == "2":
                    retry_after_ok += 1
                if b"error" not in body:
                    malformed += 1
            else:
                malformed += 1
        conn.close()
        # probes still answer while the gate is saturated
        probe = http.client.HTTPConnection(host, port, timeout=5.0)
        probe.request("GET", "/healthz")
        probe_status = probe.getresponse().status
        probe.close()
        daemon.server.gate.release()
    finally:
        daemon.stop()

    assert n_shed == 200 and retry_after_ok == 200 and malformed == 0
    assert probe_status == 200

    # -- streaming: follow a short run end to end ----------------------
    daemon = ServiceDaemon(ServiceConfig(
        data_dir=str(tmp_path / "stream"))).start()
    try:
        host, port = daemon.address
        client = ServiceClient(host, port)
        client.submit({"kind": "scalar", "run_id": "streamday",
                       "scenario": {"name": "paper", "dt": 300.0,
                                    "duration": 28800.0},
                       "policy": {"name": "mpc"}})
        records = [r for r in client.stream("streamday")
                   if r.get("type") == "telemetry"]
    finally:
        daemon.stop()

    assert len(records) == 96               # every period streamed
