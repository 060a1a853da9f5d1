"""REST surface of the control-plane daemon (stdlib HTTP only).

A :class:`~http.server.ThreadingHTTPServer` fronting a
:class:`~repro.service.runtime.ServiceRuntime`.  Hardening posture:

* **Bounded admission.**  Every request except the health probes passes
  an :class:`AdmissionGate` — a fixed pool of in-flight slots plus a
  short bounded wait.  When the pool is exhausted the request is *shed*
  with ``503`` + ``Retry-After`` instead of queueing without bound; the
  probes bypass the gate so an overloaded daemon still answers
  ``/healthz`` (that asymmetry is what lets an orchestrator tell
  "saturated" from "dead").
* **Per-request deadlines.**  Each request carries a
  :class:`repro.resilience.DeadlineBudget`; long-lived streams consume
  it in bounded waits and end cleanly at exhaustion rather than pinning
  a worker thread forever.
* **Chunked JSONL streams.**  ``/runs/<id>/stream`` follows live
  telemetry with HTTP/1.1 chunked framing, one JSON object per line;
  slow consumers never block the control thread (the telemetry hub is
  a drop-oldest ring — the WAL-backed ``/decisions`` endpoint is the
  lossless record).

Routes::

    GET  /healthz                  liveness (never gated)
    GET  /readyz                   readiness; 503 while draining
    POST /runs                     submit a run spec (protocol.py)
    GET  /runs                     list runs
    GET  /runs/<id>                status
    GET  /runs/<id>/decisions      durable WAL decisions (?start=N)
    GET  /runs/<id>/stream         chunked JSONL telemetry (?since=N)
    GET  /runs/<id>/perf           live perf/health counters
    GET  /runs/<id>/result         final summary (409 until finished)
    POST /runs/<id>/checkpoint     on-demand checkpoint next period
    POST /runs/<id>/stop           graceful drain (final checkpoint)
    POST /shutdown                 drain the whole daemon
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from ..resilience import DeadlineBudget
from .protocol import ProtocolError
from .runtime import (
    RunBusyError,
    RunConflictError,
    ServiceRuntime,
    UnknownRunError,
)

__all__ = ["AdmissionGate", "ServiceHTTPServer", "build_server"]

#: Cap on request bodies; a run spec is a few hundred bytes.
MAX_BODY_BYTES = 1 << 20


class AdmissionGate:
    """Bounded in-flight request slots with load shedding.

    ``max_inflight`` slots; an arriving request waits at most
    ``max_wait_seconds`` for one, then is shed (the caller answers
    ``503`` with ``Retry-After``).  Counters make the shedding
    observable: ``admitted``, ``shed``, ``inflight`` (current) and
    ``peak_inflight``.
    """

    def __init__(self, max_inflight: int = 32,
                 max_wait_seconds: float = 0.05,
                 retry_after_seconds: float = 1.0) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.max_inflight = int(max_inflight)
        self.max_wait_seconds = float(max_wait_seconds)
        self.retry_after_seconds = float(retry_after_seconds)
        self._cond = threading.Condition()
        self._inflight = 0
        self.admitted = 0
        self.shed = 0
        self.peak_inflight = 0

    def acquire(self) -> bool:
        """Take a slot, waiting briefly; False means *shed me*."""
        deadline = time.monotonic() + self.max_wait_seconds
        with self._cond:
            while self._inflight >= self.max_inflight:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.shed += 1
                    return False
                self._cond.wait(remaining)
            self._inflight += 1
            self.admitted += 1
            self.peak_inflight = max(self.peak_inflight, self._inflight)
            return True

    def release(self) -> None:
        """Return a slot (always pair with a successful acquire)."""
        with self._cond:
            self._inflight = max(0, self._inflight - 1)
            self._cond.notify()

    @property
    def inflight(self) -> int:
        """Requests currently holding a slot."""
        with self._cond:
            return self._inflight

    def stats(self) -> dict:
        """Counters for ``/healthz`` and the benchmarks."""
        with self._cond:
            return {"max_inflight": self.max_inflight,
                    "inflight": self._inflight,
                    "admitted": self.admitted,
                    "shed": self.shed,
                    "peak_inflight": self.peak_inflight}


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`ServiceRuntime`."""

    daemon_threads = True

    def __init__(self, address, runtime: ServiceRuntime,
                 gate: AdmissionGate | None = None,
                 request_deadline_seconds: float = 30.0,
                 verbose: bool = False) -> None:
        self.runtime = runtime
        self.gate = gate if gate is not None else AdmissionGate()
        self.request_deadline_seconds = float(request_deadline_seconds)
        self.verbose = verbose
        super().__init__(address, _Handler)


def build_server(runtime: ServiceRuntime, host: str = "127.0.0.1",
                 port: int = 0, *, max_inflight: int = 32,
                 max_wait_seconds: float = 0.05,
                 retry_after_seconds: float = 1.0,
                 request_deadline_seconds: float = 30.0,
                 verbose: bool = False) -> ServiceHTTPServer:
    """Bind a :class:`ServiceHTTPServer` (``port=0`` → ephemeral)."""
    gate = AdmissionGate(max_inflight=max_inflight,
                         max_wait_seconds=max_wait_seconds,
                         retry_after_seconds=retry_after_seconds)
    return ServiceHTTPServer(
        (host, port), runtime, gate=gate,
        request_deadline_seconds=request_deadline_seconds,
        verbose=verbose)


class _Handler(BaseHTTPRequestHandler):
    """Routes requests; every handler is exception-mapped to a status."""

    protocol_version = "HTTP/1.1"
    # headers and body go out as separate writes; without TCP_NODELAY
    # the Nagle + delayed-ACK interaction turns every keep-alive round
    # trip into ~40 ms — three orders of magnitude over the real cost
    disable_nagle_algorithm = True
    server: ServiceHTTPServer  # narrowed for readability

    # -- plumbing ------------------------------------------------------
    def log_message(self, fmt, *args):  # stdlib default spams stderr
        if self.server.verbose:
            BaseHTTPRequestHandler.log_message(self, fmt, *args)

    def _send_json(self, status: int, body: dict,
                   extra_headers: dict | None = None) -> None:
        payload = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for key, value in (extra_headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(payload)

    def _send_error_json(self, status: int, message: str,
                         extra_headers: dict | None = None) -> None:
        self._send_json(status, {"error": message}, extra_headers)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit")
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            doc = json.loads(raw.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            raise ProtocolError("request body must be a JSON object")
        return doc

    # -- dispatch ------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler contract)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        url = urlparse(self.path)
        path = url.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}
        # health probes bypass admission: an overloaded daemon must
        # still distinguish itself from a dead one
        if method == "GET" and path == "/healthz":
            body = self.server.runtime.health()
            body["admission"] = self.server.gate.stats()
            return self._send_json(200, body)
        if method == "GET" and path == "/readyz":
            ready, detail = self.server.runtime.readiness()
            return self._send_json(200 if ready else 503, detail)
        gate = self.server.gate
        if not gate.acquire():
            return self._send_error_json(
                503, "service saturated; retry later",
                {"Retry-After": f"{gate.retry_after_seconds:g}"})
        budget = DeadlineBudget(self.server.request_deadline_seconds)
        try:
            self._route(method, path, query, budget)
        except ProtocolError as exc:
            self._send_error_json(400, str(exc))
        except UnknownRunError as exc:
            self._send_error_json(404, f"unknown run {exc.args[0]!r}")
        except (RunBusyError, RunConflictError) as exc:
            self._send_error_json(
                409, str(exc),
                {"Retry-After": f"{gate.retry_after_seconds:g}"})
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to answer
        except Exception as exc:  # a handler bug must not kill the worker
            try:
                self._send_error_json(
                    500, f"{type(exc).__name__}: {exc}")
            except (BrokenPipeError, ConnectionResetError, OSError):
                pass
        finally:
            gate.release()

    def _route(self, method: str, path: str, query: dict,
               budget: DeadlineBudget) -> None:
        runtime = self.server.runtime
        parts = [p for p in path.split("/") if p]
        if method == "POST" and parts == ["runs"]:
            return self._send_json(201, runtime.submit(self._read_body()))
        if method == "POST" and parts == ["shutdown"]:
            runtime.begin_drain()
            threading.Thread(target=self.server.shutdown,
                             daemon=True).start()
            return self._send_json(202, {"status": "shutting down"})
        if method == "GET" and parts == ["runs"]:
            return self._send_json(200, {"runs": runtime.list_runs()})
        if len(parts) >= 2 and parts[0] == "runs":
            run_id = parts[1]
            tail = parts[2] if len(parts) == 3 else None
            if len(parts) > 3:
                return self._send_error_json(404, f"no route {path!r}")
            if method == "GET" and tail is None:
                return self._send_json(200, runtime.get(run_id).status())
            if method == "GET" and tail == "decisions":
                start = _int_query(query, "start", 0)
                return self._send_json(200, {
                    "run_id": run_id,
                    "decisions": runtime.decisions(run_id, start=start)})
            if method == "GET" and tail == "perf":
                return self._send_json(200, runtime.perf(run_id))
            if method == "GET" and tail == "result":
                run = runtime.get(run_id)
                if run.active:
                    return self._send_error_json(
                        409, f"run {run_id!r} is still "
                        f"{run.state.value}; poll or /stream it",
                        {"Retry-After":
                         f"{self.server.gate.retry_after_seconds:g}"})
                return self._send_json(200, run.status())
            if method == "GET" and tail == "stream":
                return self._stream(run_id, query, budget)
            if method == "POST" and tail == "stop":
                wait = _float_query(query, "wait", 0.0)
                return self._send_json(
                    202, runtime.stop_run(run_id, wait_seconds=wait))
            if method == "POST" and tail == "checkpoint":
                return self._send_json(
                    202, runtime.checkpoint_run(run_id))
        self._send_error_json(404, f"no route for {method} {path!r}")

    # -- streaming -----------------------------------------------------
    def _stream(self, run_id: str, query: dict,
                budget: DeadlineBudget) -> None:
        """Follow telemetry as chunked JSONL until run end or deadline."""
        run = self.server.runtime.get(run_id)
        seq = _int_query(query, "since", 0)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            while not budget.expired:
                timeout = min(0.25, max(0.0, budget.remaining()))
                records, closed = run.hub.read_since(seq, timeout=timeout)
                for record_seq, line in records:
                    self._write_chunk(line)
                    seq = record_seq + 1
                if closed and not records:
                    break
            final = dict(run.status())
            final["type"] = "end"
            self._write_chunk(json.dumps(final).encode() + b"\n")
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError, OSError):
            self.close_connection = True

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):X}\r\n".encode())
        self.wfile.write(data)
        self.wfile.write(b"\r\n")
        self.wfile.flush()


def _int_query(query: dict, key: str, default: int) -> int:
    try:
        return int(query.get(key, default))
    except (TypeError, ValueError):
        raise ProtocolError(f"query parameter {key!r} must be an integer")


def _float_query(query: dict, key: str, default: float) -> float:
    try:
        return float(query.get(key, default))
    except (TypeError, ValueError):
        raise ProtocolError(f"query parameter {key!r} must be a number")
