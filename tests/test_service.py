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
