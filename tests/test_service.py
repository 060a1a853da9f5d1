"""Control-plane service: endpoints, drain, admission, lockfile, SIGTERM.

Everything here drives the real daemon — mostly in-process
(:class:`~repro.service.ServiceDaemon` on an ephemeral port), plus one
subprocess test for the SIGTERM → drain → final checkpoint → exit 0
contract that only a real process can prove.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service import (
    AdmissionGate,
    LockError,
    PidLockfile,
    ProtocolError,
    ServiceClient,
    ServiceConfig,
    ServiceDaemon,
    ServiceError,
    ServiceRuntime,
    TelemetryHub,
    spec_from_dict,
)
from repro.service.protocol import build_scalar_run

_SHORT = {"kind": "scalar",
          "scenario": {"name": "paper", "dt": 1800.0, "duration": 10800.0},
          "policy": {"name": "mpc"}}
_DAY = {"kind": "scalar",
        "scenario": {"name": "paper", "dt": 300.0, "duration": 86400.0},
        "policy": {"name": "mpc"}}
_FLEET = {"kind": "fleet", "fleet": {"n_lanes": 4, "n_periods": 6},
          "wal_shards": 2}


@pytest.fixture()
def service(tmp_path):
    daemon = ServiceDaemon(ServiceConfig(data_dir=str(tmp_path))).start()
    host, port = daemon.address
    client = ServiceClient(host, port)
    yield daemon, client
    client.close()
    daemon.stop()


def _spec(base, run_id, **extra):
    spec = {**{k: (dict(v) if isinstance(v, dict) else v)
               for k, v in base.items()}, "run_id": run_id}
    spec.update(extra)
    return spec


# ---------------------------------------------------------------------------
# Protocol validation
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ProtocolError, match="unknown run spec"):
            spec_from_dict({"kind": "scalar", "scenari": {}})
        with pytest.raises(ProtocolError, match="unknown scenario"):
            spec_from_dict({"scenario": {"dt": 60.0, "durations": 1}})

    def test_enumerations_enforced(self):
        with pytest.raises(ProtocolError, match="kind"):
            spec_from_dict({"kind": "tensor"})
        with pytest.raises(ProtocolError, match="policy.name"):
            spec_from_dict({"policy": {"name": "lqr"}})
        with pytest.raises(ProtocolError, match="resume"):
            spec_from_dict({"resume": "maybe"})

    def test_non_finite_and_non_positive_numbers_rejected(self):
        # Python's json parses NaN/Infinity; they must stop at the door,
        # not fail the control thread later.
        for section, key, value in (
                ("policy", "r_weight", float("nan")),
                ("policy", "deadline_seconds", float("inf")),
                ("scenario", "start_hour", float("-inf")),
                ("fleet", "gamma", float("nan"))):
            with pytest.raises(ProtocolError, match="finite"):
                spec_from_dict({section: {key: value}})
        for section, key in (("scenario", "dt"), ("scenario", "duration"),
                             ("policy", "r_weight"),
                             ("policy", "deadline_seconds"),
                             ("fleet", "dt"), ("fleet", "r_weight")):
            with pytest.raises(ProtocolError, match="positive"):
                spec_from_dict({section: {key: 0.0}})
        spec = spec_from_dict(json.loads(
            '{"policy": {"r_weight": 0.02, "deadline_seconds": null}}'))
        assert spec.policy["r_weight"] == 0.02

    def test_durability_always_armed(self):
        with pytest.raises(ProtocolError, match="checkpoint_every"):
            spec_from_dict({"checkpoint_every": 0})
        assert spec_from_dict({}).checkpoint_every == 1

    def test_compiled_spec_matches_direct_construction(self):
        from repro.sim import run_simulation
        spec = spec_from_dict(dict(_SHORT))
        scenario, policy, supervisor = build_scalar_run(spec)
        assert supervisor is not None  # MPC is supervised by default
        result = run_simulation(scenario, policy)
        assert result.n_periods == scenario.n_periods


# ---------------------------------------------------------------------------
# REST endpoints
# ---------------------------------------------------------------------------
class TestEndpoints:
    def test_health_and_ready(self, service):
        _, client = service
        health = client.health()
        assert health["status"] == "ok"
        assert health["admission"]["max_inflight"] >= 1
        assert client.ready()

    def test_submit_result_decisions_perf(self, service):
        _, client = service
        st = client.submit(_spec(_SHORT, "r1"))
        assert st["state"] in ("pending", "running")
        final = client.result("r1", timeout=120)
        assert final["state"] == "completed"
        assert final["cost_usd_total"] > 0
        decisions = client.decisions("r1")
        assert [d["period"] for d in decisions] == list(range(6))
        assert all("decision_sha256" in d for d in decisions)
        perf = client.perf("r1")
        assert perf["counters"]["wal_records"] >= 6

    def test_bad_spec_is_400(self, service):
        _, client = service
        with pytest.raises(ServiceError) as exc:
            client.submit({"kind": "nope"})
        assert exc.value.status == 400

    def test_nan_spec_is_400(self, service):
        _, client = service
        with pytest.raises(ServiceError) as exc:
            client.submit(_spec(_SHORT, "nan",
                                policy={"r_weight": float("nan")}))
        assert exc.value.status == 400
        assert "finite" in str(exc.value)

    def test_unknown_run_is_404(self, service):
        _, client = service
        with pytest.raises(ServiceError) as exc:
            client.status("ghost")
        assert exc.value.status == 404

    def test_second_submit_while_active_is_409(self, service):
        _, client = service
        client.submit(_spec(_DAY, "busy"))
        with pytest.raises(ServiceError) as exc:
            client.submit(_spec(_SHORT, "other"))
        assert exc.value.status == 409
        client.stop("busy", wait=30.0)

    def test_result_while_running_is_409(self, service):
        _, client = service
        client.submit(_spec(_DAY, "slow"))
        with pytest.raises(ServiceError) as exc:
            client.request("GET", "/runs/slow/result")
        assert exc.value.status == 409
        client.stop("slow", wait=30.0)

    def test_stream_replays_and_terminates(self, service):
        _, client = service
        client.submit(_spec(_SHORT, "s1"))
        client.result("s1", timeout=120)
        records = list(client.stream("s1"))
        assert records[-1]["type"] == "end"
        telemetry = [r for r in records if r.get("type") == "telemetry"]
        assert [r["period"] for r in telemetry] == list(range(6))


# ---------------------------------------------------------------------------
# /decisions: an incremental cursor over the WAL; a finished run's /perf
# ---------------------------------------------------------------------------
def _wal_decisions(wal_path, n_shards=1):
    """The ``read_wal``-based answer ``/decisions`` must give."""
    from repro.resilience import read_wal
    if not os.path.exists(wal_path):
        return []
    by_period = {}
    for rec in read_wal(wal_path, n_shards):
        if rec.get("type") == "decision":
            by_period[int(rec["period"])] = rec
    return [by_period[k] for k in sorted(by_period)]


def _finish(runtime, payload):
    runtime.submit(payload)
    run = runtime.get(payload["run_id"])
    run.thread.join(120)
    assert not run.thread.is_alive()
    return run


class TestDecisionsCursor:
    def test_live_run_matches_the_wal(self, tmp_path):
        runtime = ServiceRuntime(str(tmp_path))
        runtime.submit(_spec(_DAY, "live"))
        run = runtime.get("live")
        polls = 0
        while run.active:
            got = runtime.decisions("live")
            # the WAL read after the cursor holds at least as much
            assert got == _wal_decisions(run.wal_path)[:len(got)]
            polls += 1
            time.sleep(0.005)
        run.thread.join()
        assert polls > 1
        want = _wal_decisions(run.wal_path)
        assert len(want) == 288
        assert runtime.decisions("live") == want
        assert runtime.decisions("live", start=200) == want[200:]

    def test_resumed_run_matches_the_wal(self, tmp_path):
        """A resume record and a re-logged tail: latest append wins."""
        from repro.core import CostMPCPolicy, MPCPolicyConfig
        from repro.resilience import CrashInjector, SimulatedCrashError
        from repro.service.runtime import _DecisionCursor
        from repro.sim import paper_scenario, run_simulation

        def run(crash_at=None, **kwargs):
            sc = paper_scenario(dt=60.0, duration=600.0, start_hour=12.0)
            policy = CostMPCPolicy(sc.cluster, MPCPolicyConfig(dt=sc.dt))
            if crash_at is not None:
                policy = CrashInjector(policy, crash_at)
            return run_simulation(sc, policy, **kwargs)

        wal = str(tmp_path / "wal.jsonl")
        with pytest.raises(SimulatedCrashError):
            run(5, wal_path=wal, checkpoint_every=2)
        cursor = _DecisionCursor(wal, 1)
        assert [d["period"] for d in cursor.read(0)] == list(range(5))
        assert run(resume_from=wal).perf["counters"]["wal_tail_replayed"] == 1
        want = _wal_decisions(wal)
        assert [d["period"] for d in want] == list(range(10))
        assert cursor.read(0) == want
        assert cursor.read(7) == want[7:]

    def test_torn_and_corrupt_lines_read_as_read_wal_does(self, tmp_path):
        from repro.exceptions import CheckpointError
        from repro.resilience import WriteAheadLog, read_wal
        from repro.service.runtime import _DecisionCursor
        wal = str(tmp_path / "wal.jsonl")
        with WriteAheadLog(wal) as log:
            log.append({"type": "begin", "fingerprint": {}})
            for k in range(3):
                log.append({"type": "decision", "period": k})
        cursor = _DecisionCursor(wal, 1)

        def append(data):
            with open(wal, "ab") as fh:
                fh.write(data)

        append(b'{"type": "decision", "peri')       # torn mid-record
        assert cursor.read(0) == _wal_decisions(wal)
        assert len(cursor.read(0)) == 3
        append(b'od": 3}\n')                        # the write completes
        assert cursor.read(0) == _wal_decisions(wal)
        assert len(cursor.read(0)) == 4
        append(b'{"type": "decision", "period": 4, "torn\n')
        assert cursor.read(0) == _wal_decisions(wal)
        append(b'{"type": "decision", "period": 5}\n')
        with pytest.raises(CheckpointError, match="corrupt"):
            read_wal(wal)
        with pytest.raises(CheckpointError, match="corrupt"):
            cursor.read(0)

    def test_a_log_started_over_resets_the_cursor(self, tmp_path):
        from repro.resilience import WriteAheadLog
        from repro.service.runtime import _DecisionCursor
        wal = str(tmp_path / "wal.jsonl")

        def write(periods):
            with WriteAheadLog(wal) as log:
                log.append({"type": "begin", "fingerprint": {}})
                for k in periods:
                    log.append({"type": "decision", "period": k, "x": 1})

        write(range(6))
        cursor = _DecisionCursor(wal, 1)
        assert len(cursor.read(0)) == 6
        write(range(2))
        assert cursor.read(0) == _wal_decisions(wal)
        assert len(cursor.read(0)) == 2

    def test_sharded_fleet_run_matches_the_wal(self, tmp_path):
        runtime = ServiceRuntime(str(tmp_path))
        run = _finish(runtime, _spec(_FLEET, "f4", wal_shards=4))
        assert run.state.value == "completed"
        want = _wal_decisions(run.wal_path, 4)
        assert [d["period"] for d in want] == list(range(6))
        assert runtime.decisions("f4") == want

    def test_reads_only_what_was_appended(self, tmp_path, monkeypatch):
        from repro.resilience import WriteAheadLog
        from repro.service.runtime import _DecisionCursor
        wal = str(tmp_path / "wal.jsonl")
        log = WriteAheadLog(wal)
        log.append({"type": "begin", "fingerprint": {}})
        for k in range(4):
            log.append({"type": "decision", "period": k})
        cursor = _DecisionCursor(wal, 1)
        assert cursor.read(0) == _wal_decisions(wal)
        parsed = []
        real_loads = json.loads
        monkeypatch.setattr(json, "loads",
                            lambda *a, **k: parsed.append(1)
                            or real_loads(*a, **k))
        assert len(cursor.read(0)) == 4
        assert parsed == []
        log.append({"type": "decision", "period": 4})
        log.close()
        assert [d["period"] for d in cursor.read(3)] == [3, 4]
        assert len(parsed) == 1


    def test_concurrent_readers_see_one_consistent_log(self, tmp_path):
        """HTTP worker threads share a run's cursor while the control
        thread appends: no reader may lose or repeat a record."""
        import sys
        import threading
        from repro.resilience import WriteAheadLog
        from repro.service.runtime import _DecisionCursor
        wal = str(tmp_path / "wal.jsonl")
        log = WriteAheadLog(wal)
        log.append({"type": "begin", "fingerprint": {}})
        cursor = _DecisionCursor(wal, 1)
        errors = []

        def reader():
            try:
                for _ in range(200):
                    periods = [d["period"] for d in cursor.read(0)]
                    assert periods == list(range(len(periods)))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            for k in range(300):
                log.append({"type": "decision", "period": k})
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            log.close()
        assert errors == []
        assert [d["period"] for d in cursor.read(0)] == list(range(300))


class TestFinishedRun:
    def test_perf_keeps_the_supervisor_counters(self, tmp_path):
        runtime = ServiceRuntime(str(tmp_path))
        run = _finish(runtime, _spec(_SHORT, "done"))
        assert run.state.value == "completed"
        assert run.supervisor is None and run.wal_cursor is None
        assert runtime.decisions("done") == _wal_decisions(run.wal_path)
        perf = runtime.perf("done")
        assert perf["counters"]["wal_records"] >= 6
        states = {k: v for k, v in perf["supervisor"].items()
                  if k.startswith("supervisor_state_")}
        assert sum(states.values()) == 6

    def test_failed_run_keeps_the_supervisor_counters(self, tmp_path,
                                                      monkeypatch):
        import repro.sim

        def fail(*args, **kwargs):
            raise RuntimeError("solver on fire")

        monkeypatch.setattr(repro.sim, "run_simulation", fail)
        runtime = ServiceRuntime(str(tmp_path))
        run = _finish(runtime, _spec(_SHORT, "bad"))
        assert run.state.value == "failed"
        assert run.supervisor is None
        assert runtime.perf("bad")["supervisor"]["supervisor_retries"] == 0

    def test_telemetry_is_kept_as_its_lines(self):
        hub = TelemetryHub(maxlen=3)
        for k in range(5):
            hub.publish({"type": "telemetry", "period": k})
        records, closed = hub.read_since(3, timeout=0)
        assert not closed
        assert records == [
            (3, b'{"type": "telemetry", "period": 3, "seq": 3}\n'),
            (4, b'{"type": "telemetry", "period": 4, "seq": 4}\n')]
        assert [seq for seq, _ in hub.read_since(0, timeout=0)[0]] \
            == [2, 3, 4]


# ---------------------------------------------------------------------------
# Graceful drain: stop -> final checkpoint -> resumable
# ---------------------------------------------------------------------------
class TestDrain:
    def test_stop_checkpoints_and_resumes_bit_exact(self, service, tmp_path):
        daemon, client = service
        from repro.sim import run_simulation
        spec = spec_from_dict(dict(_DAY))
        scenario, policy, _sup = build_scalar_run(spec)
        baseline = run_simulation(scenario, policy)

        client.submit(_spec(_DAY, "day"))
        deadline = time.monotonic() + 30.0
        while client.status("day")["periods_done"] < 5:
            assert time.monotonic() < deadline
            time.sleep(0.02)
        stopped = client.stop("day", wait=30.0)
        assert stopped["state"] == "stopped"
        assert 0 < stopped["periods_done"] < 288

        run_dir = os.path.join(daemon.data_dir, "runs", "day")
        assert os.path.exists(os.path.join(run_dir, "wal.jsonl.ckpt"))

        resumed = client.submit(_spec(_DAY, "day", resume="auto"))
        assert resumed["state"] in ("pending", "running")
        final = client.result("day", timeout=300)
        assert final["state"] == "completed"
        assert final["cost_usd_total"] == baseline.total_cost_usd
        periods = [d["period"] for d in client.decisions("day")]
        assert periods == list(range(288))

    def test_resume_never_conflicts_with_existing_state(self, service):
        _, client = service
        client.submit(_spec(_SHORT, "dup"))
        client.result("dup", timeout=120)
        with pytest.raises(ServiceError) as exc:
            client.submit(_spec(_SHORT, "dup"))
        assert exc.value.status == 409

    def test_orphaned_checkpoint_is_409(self, service):
        daemon, client = service
        client.submit(_spec(_SHORT, "orphan"))
        client.result("orphan", timeout=120)
        os.unlink(os.path.join(daemon.data_dir, "runs", "orphan",
                               "wal.jsonl"))
        with pytest.raises(ServiceError) as exc:
            client.submit(_spec(_SHORT, "orphan", resume="auto"))
        assert exc.value.status == 409
        # force discards the orphan and starts over
        client.submit(_spec(_SHORT, "orphan", resume="force"))
        assert client.result("orphan", timeout=120)["state"] == "completed"

    def test_forced_fleet_over_orphan_completes(self, service):
        daemon, client = service
        client.submit(_spec(_FLEET, "forphan"))
        client.result("forphan", timeout=120)
        run_dir = os.path.join(daemon.data_dir, "runs", "forphan")
        os.unlink(os.path.join(run_dir, "fleet_wal.jsonl"))
        with pytest.raises(ServiceError) as exc:
            client.submit(_spec(_FLEET, "forphan", resume="auto"))
        assert exc.value.status == 409
        client.submit(_spec(_FLEET, "forphan", resume="force"))
        assert client.result("forphan", timeout=120)["state"] == "completed"
        assert len(client.decisions("forphan")) == 6


# ---------------------------------------------------------------------------
# Admission gate: bounded in-flight slots, load shedding
# ---------------------------------------------------------------------------
class TestAdmission:
    def test_gate_sheds_when_full(self):
        gate = AdmissionGate(max_inflight=2, max_wait_seconds=0.01)
        assert gate.acquire() and gate.acquire()
        assert not gate.acquire()          # full -> shed
        stats = gate.stats()
        assert stats["shed"] == 1 and stats["inflight"] == 2
        gate.release()
        assert gate.acquire()              # slot freed -> admitted
        assert gate.stats()["peak_inflight"] == 2

    def test_http_shed_is_503_with_retry_after(self, tmp_path):
        daemon = ServiceDaemon(ServiceConfig(
            data_dir=str(tmp_path), max_inflight=1,
            max_wait_seconds=0.001, retry_after_seconds=7.0)).start()
        try:
            host, port = daemon.address
            # park the only slot on a long poll of a run stream
            daemon.server.gate.acquire()
            import http.client
            conn = http.client.HTTPConnection(host, port, timeout=5.0)
            conn.request("GET", "/runs")
            resp = conn.getresponse()
            assert resp.status == 503
            assert resp.getheader("Retry-After") == "7"
            # health probes bypass the gate even at saturation
            conn2 = http.client.HTTPConnection(host, port, timeout=5.0)
            conn2.request("GET", "/healthz")
            assert conn2.getresponse().status == 200
            conn.close()
            conn2.close()
            daemon.server.gate.release()
        finally:
            daemon.stop()


# ---------------------------------------------------------------------------
# Single instance: pid lockfile
# ---------------------------------------------------------------------------
class TestLockfile:
    def test_double_start_rejected(self, tmp_path):
        daemon = ServiceDaemon(ServiceConfig(data_dir=str(tmp_path)))
        daemon.start()
        try:
            with pytest.raises(LockError, match="already running"):
                ServiceDaemon(ServiceConfig(
                    data_dir=str(tmp_path))).start()
        finally:
            daemon.stop()

    def test_stale_lock_taken_over(self, tmp_path):
        # a pid that existed and is gone — exactly what kill -9 leaves
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        lock_path = tmp_path / "service.lock"
        lock_path.write_text(f"{proc.pid}\n")
        lock = PidLockfile(str(lock_path))
        lock.acquire()
        assert lock_path.read_text().strip() == str(os.getpid())
        lock.release()
        assert not lock_path.exists()

    def test_release_respects_successor(self, tmp_path):
        lock_path = tmp_path / "service.lock"
        lock = PidLockfile(str(lock_path))
        lock.acquire()
        lock_path.write_text("99999999\n")  # a successor took over
        lock.release()
        assert lock_path.exists()           # not ours to remove


# ---------------------------------------------------------------------------
# SIGTERM: drain -> final checkpoint -> exit 0 (real subprocess)
# ---------------------------------------------------------------------------
class TestSigterm:
    def test_sigterm_mid_run_exits_zero_with_checkpoint(self, tmp_path):
        env = {**os.environ}
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--data-dir", str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
        try:
            deadline = time.monotonic() + 30.0
            discovery = tmp_path / "service.json"
            while not discovery.exists():
                assert proc.poll() is None, proc.stdout.read().decode()
                assert time.monotonic() < deadline
                time.sleep(0.02)
            doc = json.loads(discovery.read_text())
            client = ServiceClient(doc["host"], doc["port"])
            client.submit(_spec(_DAY, "sig"))
            while client.status("sig")["periods_done"] < 3:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(30.0) == 0    # graceful exit, not a crash
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        # drained: final checkpoint on disk, run marked resumable,
        # discovery file and lock cleaned up
        run_dir = tmp_path / "runs" / "sig"
        assert (run_dir / "wal.jsonl.ckpt").exists()
        meta = json.loads((run_dir / "run.json").read_text())
        assert meta["state"] == "stopped"
        assert meta["periods_done"] >= 3
        assert not (tmp_path / "service.json").exists()
        assert not (tmp_path / "service.lock").exists()
