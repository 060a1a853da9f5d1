"""Durable control plane: checkpoints, WAL, crash-resume, actuation.

Three layers under test:

* the storage formats — checksummed checkpoint envelope, JSONL
  write-ahead log with torn-tail tolerance;
* per-component ``snapshot()``/``restore()`` round-trips for every piece
  of state the engine checkpoints;
* the closed loop — a run killed at *any* period must resume from its
  last checkpoint and reproduce the uninterrupted trajectory bit-exact,
  and the eq.-35 actuation fault layer must keep the loop consistent
  (reconciliation, invariants) when commands are dropped, delayed or
  partially applied.
"""

import json

import numpy as np
import pytest

from repro.control.rls import RecursiveLeastSquares
from repro.core import CostMPCPolicy, MPCPolicyConfig
from repro.exceptions import CheckpointError, ConfigurationError
from repro.resilience import (
    ControllerCheckpoint,
    CrashInjector,
    PolicySupervisor,
    SimulatedCrashError,
    TelemetryGuard,
    WriteAheadLog,
    array_digest,
    checkpoint_path_for,
    load_resume_state,
    read_wal,
)
from repro.sim import (
    ActuationChannel,
    ActuationLag,
    CommandDrop,
    PartialApply,
    PolicyObservation,
    paper_cluster,
    paper_scenario,
    price_step_scenario,
    run_simulation,
)
from repro.verify import InvariantMonitor
from repro.workload.predictor import ARWorkloadPredictor


def _short_scenario(duration=600.0, faults=None):
    sc = paper_scenario(dt=60.0, duration=duration, start_hour=12.0)
    if faults is not None:
        sc = sc.__class__(**{**sc.__dict__, "faults": faults(sc.start_time)})
    return sc


def _mpc(scenario):
    return CostMPCPolicy(scenario.cluster, MPCPolicyConfig(dt=scenario.dt))


# ---------------------------------------------------------------------------
# Storage formats
# ---------------------------------------------------------------------------
class TestArrayDigest:
    def test_sensitive_to_value_dtype_and_shape(self):
        a = np.arange(6, dtype=float)
        assert array_digest(a) == array_digest(a.copy())
        assert array_digest(a) != array_digest(a + 1e-16)  # bit-exact
        assert array_digest(a) != array_digest(a.astype(np.float32))
        assert array_digest(a) != array_digest(a.reshape(2, 3))

    def test_pinned_digests(self):
        """The digests are part of the WAL format: a log written by any
        version must verify against these values."""
        cases = {
            "63bec2f22a4173b713906cda12fec4cdd6ab5d196c9caf3948d5607c228a4c86":
                np.array([0.5, -1.25, 3.0e6]),
            "f63f303a46d30407186b1220310b8eb03f3926a39ef335ebcb1663531f814b02":
                np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int64),
            "2bb2ca087f3ac126666d212504688abeb074ba8f33bd6f794d9061b8b65bca42":
                np.array([True, False, True]),
            "8835e5b69692bed780c5d02f3a86f4c72ba06179aabd47680181ad7e56237b3d":
                np.float64(2.5),
            "e6e09ef728a8c1dc913ab6e3d6af50b8fede44260ddefbc2969efcd3e894f91a":
                np.zeros((0, 3)),
            "117eb14084a554014705249e97107f37e4f3d24ac5130c2a261004a2c2a25372":
                np.arange(12.0).reshape(3, 4)[:, ::2],
        }
        for digest, arr in cases.items():
            assert array_digest(arr) == digest
        assert array_digest(np.arange(3, dtype=np.int64), [1.0, 2.0]) == (
            "af25b904b2a744b72c5c36abea1e3521f7d549e5f96736c39712270d1e0b1002")

    def test_chains_multiple_arrays(self):
        a, b = np.ones(3), np.zeros(3)
        assert array_digest(a, b) != array_digest(b, a)


class TestCheckpointEnvelope:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        state = {"x": np.arange(5.0), "nested": {"k": [1, 2, 3]}}
        ControllerCheckpoint(period=7, state=state).save(path)
        loaded = ControllerCheckpoint.load(path)
        assert loaded.period == 7
        np.testing.assert_array_equal(loaded.state["x"], state["x"])
        assert loaded.state["nested"] == state["nested"]

    def test_arrays_go_out_of_band_and_come_back_writable(self, tmp_path):
        """Contiguous arrays are written after the pickle, not in it,
        and restore as writable arrays equal to the saved ones."""
        path = str(tmp_path / "c.ckpt")
        big = np.arange(4096.0)
        state = {"c": big, "f": np.asfortranarray(np.ones((3, 4))),
                 "strided": big[::3], "scalar": np.float64(2.5),
                 "empty": np.zeros((0, 3)), "ints": np.arange(7),
                 "objects": np.array([{"k": 1}, None], dtype=object)}
        written = ControllerCheckpoint(period=3, state=state).save(path)
        blob = open(path, "rb").read()
        assert written == len(blob)
        header = json.loads(blob[12:12 + int.from_bytes(blob[8:12],
                                                        "little")])
        assert big.nbytes in header["buffers"]
        loaded = ControllerCheckpoint.load(path).state
        for key, value in state.items():
            np.testing.assert_array_equal(loaded[key], value)
            assert np.asarray(loaded[key]).dtype == np.asarray(value).dtype
        assert loaded["f"].flags.f_contiguous
        loaded["c"][0] = -1.0               # a writable view of the file
        loaded["f"][0, 0] = -1.0

    def test_corrupt_payload_rejected(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        ControllerCheckpoint(period=1, state={"x": 1}).save(path)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF  # flip one payload byte
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            ControllerCheckpoint.load(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        ControllerCheckpoint(period=1, state={"x": list(range(100))}) \
            .save(path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-10])
        with pytest.raises(CheckpointError, match="truncated"):
            ControllerCheckpoint.load(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        open(path, "wb").write(b"not a checkpoint at all")
        with pytest.raises(CheckpointError, match="magic"):
            ControllerCheckpoint.load(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            ControllerCheckpoint.load(str(tmp_path / "absent.ckpt"))

    def test_unsupported_version_rejected(self, tmp_path):
        import struct
        path = str(tmp_path / "c.ckpt")
        header = json.dumps({"version": 999, "period": 0,
                             "sha256": "", "payload_bytes": 0}).encode()
        open(path, "wb").write(
            b"RPRCKPT1" + struct.pack("<I", len(header)) + header)
        with pytest.raises(CheckpointError, match="version"):
            ControllerCheckpoint.load(path)


class TestWriteAheadLog:
    def test_round_trip_and_counters(self, tmp_path):
        path = str(tmp_path / "a.wal")
        with WriteAheadLog(path, fsync_every=2) as wal:
            for k in range(5):
                wal.append({"type": "decision", "period": k})
        assert wal.counters["wal_records"] == 5
        # ceil(5 / 2) = 3 syncs: two on cadence, one on close
        assert wal.counters["wal_fsyncs"] == 3
        records = read_wal(path)
        assert [r["period"] for r in records] == list(range(5))

    def test_torn_tail_is_dropped(self, tmp_path):
        path = str(tmp_path / "a.wal")
        with WriteAheadLog(path) as wal:
            wal.append({"type": "decision", "period": 0})
            wal.append({"type": "decision", "period": 1})
        with open(path, "ab") as fh:
            fh.write(b'{"type": "decision", "per')  # crash mid-record
        records = read_wal(path)
        assert [r["period"] for r in records] == [0, 1]

    def test_midfile_corruption_raises(self, tmp_path):
        path = str(tmp_path / "a.wal")
        lines = [b'{"type": "decision", "period": 0}',
                 b'garbage not json',
                 b'{"type": "decision", "period": 2}']
        open(path, "wb").write(b"\n".join(lines) + b"\n")
        with pytest.raises(CheckpointError, match="corrupt"):
            read_wal(path)

    def test_append_mode_keeps_prefix(self, tmp_path):
        path = str(tmp_path / "a.wal")
        with WriteAheadLog(path) as wal:
            wal.append({"period": 0})
        with WriteAheadLog(path, append=True) as wal:
            wal.append({"period": 1})
        assert [r["period"] for r in read_wal(path)] == [0, 1]

    def test_append_cuts_a_torn_tail(self, tmp_path):
        path = str(tmp_path / "a.wal")
        with WriteAheadLog(path) as wal:
            wal.append({"type": "decision", "period": 0})
        with open(path, "ab") as fh:
            fh.write(b'{"type": "decision", "per')  # crash mid-record
        with WriteAheadLog(path, append=True) as wal:
            wal.append({"type": "decision", "period": 1})
        assert [r["period"] for r in read_wal(path)] == [0, 1]

    def test_invalid_cadence_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            WriteAheadLog(str(tmp_path / "a.wal"), fsync_every=0)

    def test_load_resume_state_latest_duplicate_wins(self, tmp_path):
        path = str(tmp_path / "a.wal")
        with WriteAheadLog(path) as wal:
            wal.append({"type": "begin", "fingerprint": {"f": 1}})
            wal.append({"type": "decision", "period": 0, "tag": "old"})
            wal.append({"type": "decision", "period": 0, "tag": "new"})
            wal.append({"type": "decision", "period": 1, "tag": "x"})
        state = load_resume_state(path)
        assert state.header["fingerprint"] == {"f": 1}
        assert state.checkpoint is None
        assert state.decisions[0]["tag"] == "new"
        assert set(state.tail_after(1)) == {1}


# ---------------------------------------------------------------------------
# Component snapshot round-trips
# ---------------------------------------------------------------------------
class TestComponentSnapshots:
    def test_rls_round_trip(self):
        rng = np.random.default_rng(0)
        rls = RecursiveLeastSquares(3)
        for _ in range(20):
            rls.update(rng.normal(size=3), rng.normal())
        snap = rls.snapshot()
        phi = rng.normal(size=3)
        before = rls.predict(phi)
        rls.update(phi, 5.0)  # diverge
        fresh = RecursiveLeastSquares(3)
        fresh.restore(snap)
        assert fresh.predict(phi) == before
        np.testing.assert_array_equal(fresh.theta, snap["theta"])

    def test_ar_predictor_round_trip(self):
        p = ARWorkloadPredictor(order=3)
        for v in [10.0, 12.0, 9.0, 11.0, 13.0, 12.5]:
            p.observe(v)
        snap = p.snapshot()
        before = p.predict(4)
        p.observe(100.0)  # diverge
        fresh = ARWorkloadPredictor(order=3)
        fresh.restore(snap)
        np.testing.assert_array_equal(fresh.predict(4), before)

    def test_telemetry_guard_round_trip(self):
        guard = TelemetryGuard(3, 5)
        prices = np.array([30.0, 40.0, 50.0])
        loads = np.arange(5.0) * 1000.0
        guard.filter_prices(prices, np.array([True, True, True]))
        guard.filter_loads(loads, np.array([True] * 5))
        snap = guard.snapshot()
        masked = guard.filter_prices(
            prices * 0.0, np.array([False, False, False]))
        fresh = TelemetryGuard(3, 5)
        fresh.restore(snap)
        np.testing.assert_array_equal(
            fresh.filter_prices(prices * 0.0,
                                np.array([False, False, False])), masked)
        assert fresh.counters == guard.counters

    def test_policy_round_trip_continues_bit_exact(self):
        sc = price_step_scenario(dt=60.0, duration=900.0)
        full = run_simulation(sc, _mpc(sc))

        sc2 = price_step_scenario(dt=60.0, duration=900.0)
        policy = _mpc(sc2)
        policy.reset()
        decisions = []
        u_prev = np.zeros(sc2.cluster.n_allocations)
        servers_prev = sc2.cluster.server_counts()
        snap = None
        for k in range(sc2.n_periods):
            t = sc2.start_time + k * sc2.dt
            obs = PolicyObservation(
                period=k, time_seconds=t,
                loads=sc2.cluster.portals.loads_at(k),
                prices=sc2.prices_at(t),
                prev_u=u_prev.copy(), prev_servers=servers_prev.copy())
            if k == 7:
                snap = policy.snapshot()
            d = policy.decide(obs)
            decisions.append(d)
            u_prev = np.asarray(d.u, dtype=float)
            servers_prev = np.asarray(d.servers).astype(int)
            for idc, m in zip(sc2.cluster.idcs, servers_prev):
                idc.set_servers(int(m))
        del full  # (exercised the engine path; decisions below are ours)

        # Restore at period 7 and replay: identical decisions.
        restored = _mpc(sc2)
        restored.reset()
        restored.restore(snap)
        u_prev = decisions[6].u
        servers_prev = np.asarray(decisions[6].servers).astype(int)
        for k in range(7, sc2.n_periods):
            t = sc2.start_time + k * sc2.dt
            obs = PolicyObservation(
                period=k, time_seconds=t,
                loads=sc2.cluster.portals.loads_at(k),
                prices=sc2.prices_at(t),
                prev_u=np.asarray(u_prev, dtype=float).copy(),
                prev_servers=servers_prev.copy())
            d = restored.decide(obs)
            np.testing.assert_array_equal(d.u, decisions[k].u)
            np.testing.assert_array_equal(d.servers, decisions[k].servers)
            u_prev = d.u
            servers_prev = np.asarray(d.servers).astype(int)

    def test_policy_snapshot_version_gate(self):
        sc = _short_scenario()
        policy = _mpc(sc)
        snap = policy.snapshot()
        snap["version"] = 99
        with pytest.raises(CheckpointError, match="version"):
            policy.restore(snap)

    def test_supervisor_round_trip(self):
        sc = _short_scenario()
        policy = _mpc(sc)
        sup = PolicySupervisor(policy, sc.cluster)
        run_simulation(sc, sup)
        snap = sup.snapshot()
        fresh = PolicySupervisor(_mpc(sc), sc.cluster)
        fresh.restore(snap)
        assert fresh.state == sup.state
        assert fresh.counters == sup.counters
        assert fresh.state_history == sup.state_history

    def test_supervisor_snapshot_grows_with_transitions(self):
        """288 periods with one degraded episode snapshot as 4 runs."""
        from repro.sim import AllocationDecision

        class Stub:
            name = "stub"

            def reset(self):
                pass

            def decide(self, obs):
                rung = "cold" if obs.period == 100 else "warm"
                return AllocationDecision(
                    u=np.asarray(obs.prev_u, dtype=float),
                    servers=np.asarray(obs.prev_servers),
                    diagnostics={"rung": rung})

        cluster = paper_cluster()
        sup = PolicySupervisor(Stub(), cluster)
        obs = dict(time_seconds=0.0, loads=np.ones(cluster.n_portals),
                   prices=np.ones(cluster.n_idcs),
                   prev_u=np.zeros(cluster.n_allocations),
                   prev_servers=np.zeros(cluster.n_idcs, dtype=int))
        for k in range(288):
            sup.decide(PolicyObservation(period=k, **obs))
        snap = sup.snapshot()
        assert snap["state_history"] == [
            ("nominal", 100), ("degraded", 1), ("recovering", 2),
            ("nominal", 185)]
        fresh = PolicySupervisor(Stub(), cluster)
        fresh.restore(snap)
        assert len(fresh.state_history) == 288
        assert fresh.state_history == sup.state_history
        sup.decide(PolicyObservation(period=288, **obs))
        fresh.decide(PolicyObservation(period=288, **obs))
        assert fresh.snapshot()["state_history"][-1] == ("nominal", 186)

    def test_monitor_round_trip(self):
        sc = _short_scenario()
        mon = InvariantMonitor()
        run_simulation(sc, _mpc(sc), monitor=mon)
        snap = mon.snapshot()
        fresh = InvariantMonitor()
        fresh.begin_run(sc)
        fresh.restore(snap)
        assert fresh.counters() == mon.counters()
        assert fresh.summary() == mon.summary()

    def test_actuation_channel_round_trip(self):
        cluster = paper_cluster()
        faults = [ActuationLag("michigan", 0.0, 1e6, delay_periods=2)]
        chan = ActuationChannel([cluster], [faults])
        avail = np.array([[idc.available_servers for idc in cluster.idcs]])
        chan.reset(np.array([[100, 100, 100]]))
        chan.apply(np.array([[200, 200, 200]]), [0.0], avail)
        snap = chan.snapshot()
        a1 = chan.apply(np.array([[300, 300, 300]]), [60.0], avail)
        fresh = ActuationChannel([cluster], [faults])
        fresh.reset(np.zeros((1, 3), dtype=int))
        fresh.restore(snap)
        a2 = fresh.apply(np.array([[300, 300, 300]]), [60.0], avail)
        np.testing.assert_array_equal(a1, a2)
        assert fresh.lane_counters(0) == chan.lane_counters(0)


# ---------------------------------------------------------------------------
# Actuation fault semantics
# ---------------------------------------------------------------------------
class TestActuationChannel:
    """One lane of the lane-vectorized channel (``S = 1``)."""

    @staticmethod
    def _apply(chan, commanded, t, avail):
        return chan.apply(np.array([commanded]), [t], np.array([avail]))[0]

    def _channel(self, faults):
        cluster = paper_cluster()
        chan = ActuationChannel([cluster], [faults])
        chan.reset(np.array([[1000, 1000, 1000]]))
        avail = np.array([idc.available_servers for idc in cluster.idcs])
        return chan, avail

    def test_drop_holds_previous_applied(self):
        chan, avail = self._channel([CommandDrop("michigan", 0.0, 100.0)])
        applied = self._apply(chan, [2000, 2000, 2000], 50.0, avail)
        np.testing.assert_array_equal(applied, [1000, 2000, 2000])
        # window over: command goes through again
        applied = self._apply(chan, [2000, 2000, 2000], 150.0, avail)
        np.testing.assert_array_equal(applied, [2000, 2000, 2000])

    def test_lag_delivers_old_command(self):
        chan, avail = self._channel(
            [ActuationLag("michigan", 0.0, 1e6, delay_periods=2)])
        cmds = [1100, 1200, 1300, 1400]
        seen = [self._apply(chan, [c, c, c], 60.0 * i, avail)[0]
                for i, c in enumerate(cmds)]
        # Two-period lag: the first deliveries fall back to the reset
        # state, then the t-2 command lands.
        assert seen == [1000, 1000, 1100, 1200]

    def test_partial_apply_truncates_toward_zero(self):
        chan, avail = self._channel(
            [PartialApply("michigan", 0.0, 1e6, fraction=0.5)])
        applied = self._apply(chan, [1001, 1001, 1001], 0.0, avail)
        # delta +1 · 0.5 truncates to 0: the actuator stalls
        assert applied[0] == 1000
        applied = self._apply(chan, [2000, 2000, 2000], 60.0, avail)
        assert applied[0] == 1500

    def test_applied_clamped_to_availability(self):
        cluster = paper_cluster()
        chan = ActuationChannel([cluster],
                                [[CommandDrop("michigan", 0.0, 100.0)]])
        chan.reset(np.array([[5000, 0, 0]]))
        applied = self._apply(chan, [50, 0, 0], 50.0, [100, 30000, 20000])
        assert applied[0] == 100  # held 5000 clamped to what survives
        assert chan.lane_counters(0)["actuation_clamped_commands"] == 1

    def test_drop_wins_over_lag_and_partial_per_lane(self):
        # precedence drop > lag > partial on one IDC, and lanes keep
        # their own windows and counters
        cluster = paper_cluster()
        stacked = [CommandDrop("michigan", 0.0, 100.0),
                   ActuationLag("michigan", 0.0, 100.0),
                   PartialApply("michigan", 0.0, 100.0, fraction=0.5)]
        chan = ActuationChannel(
            [cluster, cluster],
            [stacked, [PartialApply("michigan", 0.0, 100.0, 0.5)]])
        chan.reset(np.full((2, 3), 1000))
        applied = chan.apply(np.full((2, 3), 2000), [50.0, 50.0],
                             np.full((2, 3), 30000))
        np.testing.assert_array_equal(applied, [[1000, 2000, 2000],
                                                [1500, 2000, 2000]])
        assert chan.lane_counters(0)["actuation_dropped_commands"] == 1
        assert chan.lane_counters(0)["actuation_partial_commands"] == 0
        assert chan.lane_counters(1)["actuation_partial_commands"] == 1

    def test_unknown_idc_rejected(self):
        with pytest.raises(ConfigurationError):
            ActuationChannel([paper_cluster()],
                             [[CommandDrop("mars", 0.0, 1.0)]])

    def test_fault_validation(self):
        with pytest.raises(ConfigurationError):
            ActuationLag("x", 0.0, 1.0, delay_periods=0)
        with pytest.raises(ConfigurationError):
            PartialApply("x", 0.0, 1.0, fraction=1.0)

    def test_reconciliation_keeps_loop_consistent(self):
        sc = price_step_scenario(dt=60.0, duration=1800.0)
        names = sc.cluster.idc_names
        t0 = sc.start_time
        sc = sc.__class__(**{**sc.__dict__, "faults": [
            PartialApply(names[0], t0, t0 + 1800.0, fraction=0.4)]})
        mon = InvariantMonitor()
        run = run_simulation(sc, _mpc(sc), monitor=mon)
        counters = run.perf["counters"]
        assert counters["actuation_partial_commands"] > 0
        assert counters["actuation_reconciliations"] > 0
        assert mon.violations == []
        # load still fully served despite the misbehaving actuator
        np.testing.assert_allclose(run.workloads.sum(axis=1),
                                   run.loads.sum(axis=1), rtol=1e-6)
        # the recorder logs what the plant ran, not what was commanded
        assert counters["monitor_actuation_gap_periods"] > 0


# ---------------------------------------------------------------------------
# Closed-loop crash-resume
# ---------------------------------------------------------------------------
class TestCrashResume:
    def test_kill_at_every_period_resumes_bit_exact(self, tmp_path):
        """The determinism sweep: crash at each k, resume, compare."""
        baseline = run_simulation(_short_scenario(), _mpc(_short_scenario()))
        # the WAL and checkpoints observe the loop, never steer it
        sc = _short_scenario()
        durable = run_simulation(sc, _mpc(sc), checkpoint_every=2,
                                 wal_path=str(tmp_path / "durable.wal"))
        np.testing.assert_array_equal(durable.servers, baseline.servers)
        np.testing.assert_array_equal(durable.cost_usd, baseline.cost_usd)
        n = _short_scenario().n_periods
        for crash_at in range(1, n):
            wal = str(tmp_path / f"kill{crash_at}.wal")
            sc = _short_scenario()
            with pytest.raises(SimulatedCrashError):
                run_simulation(
                    sc, CrashInjector(_mpc(sc), crash_at),
                    wal_path=wal, checkpoint_every=2)
            sc2 = _short_scenario()
            resumed = run_simulation(sc2, _mpc(sc2), resume_from=wal)
            counters = resumed.perf["counters"]
            assert counters["resumed_from_period"] == crash_at - crash_at % 2
            assert counters["wal_tail_mismatches"] == 0
            np.testing.assert_array_equal(resumed.servers,
                                          baseline.servers)
            np.testing.assert_array_equal(resumed.powers_watts,
                                          baseline.powers_watts)
            np.testing.assert_array_equal(resumed.allocations,
                                          baseline.allocations)
            np.testing.assert_array_equal(resumed.cost_usd,
                                          baseline.cost_usd)

    def test_version_1_checkpoint_refused_by_version(self, tmp_path):
        """A checkpoint of the previous layout fails on its version stamp.

        Version 1 checkpoints carried the scalar engine's per-period
        recorder; resuming one must stop at the envelope with the version
        named, not fail halfway through restoring the state.
        """
        wal = str(tmp_path / "old.wal")
        sc = _short_scenario()
        with pytest.raises(SimulatedCrashError):
            run_simulation(sc, CrashInjector(_mpc(sc), 5), wal_path=wal,
                           checkpoint_every=2)
        ckpt = checkpoint_path_for(wal)
        current = ControllerCheckpoint.load(ckpt)
        ControllerCheckpoint(period=current.period, state=current.state,
                             version=1).save(ckpt)
        sc2 = _short_scenario()
        with pytest.raises(CheckpointError, match="version 1 not supported"):
            run_simulation(sc2, _mpc(sc2), resume_from=wal)

    def test_version_2_checkpoint_refused_by_version(self, tmp_path):
        """A version-2 checkpoint pickles an MPC core this code cannot load.

        Version 2 pickled the MPC core with its matrix-free constraint
        operator, a class that no longer exists; the envelope must refuse
        it by its version stamp before it tries to unpickle the payload.
        """
        wal = str(tmp_path / "v2.wal")
        sc = _short_scenario()
        with pytest.raises(SimulatedCrashError):
            run_simulation(sc, CrashInjector(_mpc(sc), 5), wal_path=wal,
                           checkpoint_every=2)
        ckpt = checkpoint_path_for(wal)
        current = ControllerCheckpoint.load(ckpt)
        ControllerCheckpoint(period=current.period, state=current.state,
                             version=2).save(ckpt)
        sc2 = _short_scenario()
        with pytest.raises(CheckpointError, match="version 2 not supported"):
            run_simulation(sc2, _mpc(sc2), resume_from=wal)

    def test_version_3_checkpoint_refused_by_version(self, tmp_path):
        """A version-3 checkpoint carries the policies' reference memo.

        The reference is now computed in closed form every period, with
        no memo to restore; the envelope must refuse the old layout by
        its version stamp.
        """
        wal = str(tmp_path / "v3.wal")
        sc = _short_scenario()
        with pytest.raises(SimulatedCrashError):
            run_simulation(sc, CrashInjector(_mpc(sc), 5), wal_path=wal,
                           checkpoint_every=2)
        ckpt = checkpoint_path_for(wal)
        current = ControllerCheckpoint.load(ckpt)
        ControllerCheckpoint(period=current.period, state=current.state,
                             version=3).save(ckpt)
        sc2 = _short_scenario()
        with pytest.raises(CheckpointError, match="version 3 not supported"):
            run_simulation(sc2, _mpc(sc2), resume_from=wal)

    def test_version_4_checkpoint_refused_by_version(self, tmp_path):
        """A version-4 checkpoint pickles the scalar ADMM's factor cache.

        That class is gone (the MPC keeps a batched-ADMM setup instead);
        the envelope must refuse the old layout by its version stamp.
        """
        wal = str(tmp_path / "v4.wal")
        sc = _short_scenario()
        with pytest.raises(SimulatedCrashError):
            run_simulation(sc, CrashInjector(_mpc(sc), 5), wal_path=wal,
                           checkpoint_every=2)
        ckpt = checkpoint_path_for(wal)
        current = ControllerCheckpoint.load(ckpt)
        ControllerCheckpoint(period=current.period, state=current.state,
                             version=4).save(ckpt)
        sc2 = _short_scenario()
        with pytest.raises(CheckpointError, match="version 4 not supported"):
            run_simulation(sc2, _mpc(sc2), resume_from=wal)

    def test_version_5_checkpoint_refused_by_version(self, tmp_path):
        """A version-5 checkpoint pickles the scalar MPC core.

        The one-lane policy now snapshots its batched lane instead; the
        envelope must refuse the old layout by its version stamp.
        """
        wal = str(tmp_path / "v5.wal")
        sc = _short_scenario()
        with pytest.raises(SimulatedCrashError):
            run_simulation(sc, CrashInjector(_mpc(sc), 5), wal_path=wal,
                           checkpoint_every=2)
        ckpt = checkpoint_path_for(wal)
        current = ControllerCheckpoint.load(ckpt)
        ControllerCheckpoint(period=current.period, state=current.state,
                             version=5).save(ckpt)
        sc2 = _short_scenario()
        with pytest.raises(CheckpointError, match="version 5 not supported"):
            run_simulation(sc2, _mpc(sc2), resume_from=wal)

    def test_version_6_checkpoint_refused_by_version(self, tmp_path):
        """A version-6 checkpoint keeps the market and the actuation
        channel in the scalar lane's snapshot.

        Both now belong to the engine's one plant; the envelope must
        refuse the old layout by its version stamp.
        """
        wal = str(tmp_path / "v6.wal")
        sc = _short_scenario()
        with pytest.raises(SimulatedCrashError):
            run_simulation(sc, CrashInjector(_mpc(sc), 5), wal_path=wal,
                           checkpoint_every=2)
        ckpt = checkpoint_path_for(wal)
        current = ControllerCheckpoint.load(ckpt)
        ControllerCheckpoint(period=current.period, state=current.state,
                             version=6).save(ckpt)
        sc2 = _short_scenario()
        with pytest.raises(CheckpointError, match="version 6 not supported"):
            run_simulation(sc2, _mpc(sc2), resume_from=wal)

    def test_version_7_checkpoint_refused_by_version(self, tmp_path):
        """A version-7 checkpoint pickles the whole zero-filled record.

        The record now goes as its filled prefix plus a diagnostics
        stream; the envelope must refuse the old layout by its version
        stamp.
        """
        wal = str(tmp_path / "v7.wal")
        sc = _short_scenario()
        with pytest.raises(SimulatedCrashError):
            run_simulation(sc, CrashInjector(_mpc(sc), 5), wal_path=wal,
                           checkpoint_every=2)
        ckpt = checkpoint_path_for(wal)
        current = ControllerCheckpoint.load(ckpt)
        ControllerCheckpoint(period=current.period, state=current.state,
                             version=7).save(ckpt)
        sc2 = _short_scenario()
        with pytest.raises(CheckpointError, match="version 7 not supported"):
            run_simulation(sc2, _mpc(sc2), resume_from=wal)

    def test_version_8_checkpoint_refused_by_version(self, tmp_path):
        """A version-8 batched checkpoint carries no lane perf counters.

        The envelope must refuse the old layout by its version stamp.
        """
        wal = str(tmp_path / "v8.wal")
        sc = _short_scenario()
        with pytest.raises(SimulatedCrashError):
            run_simulation(sc, CrashInjector(_mpc(sc), 5), wal_path=wal,
                           checkpoint_every=2)
        ckpt = checkpoint_path_for(wal)
        current = ControllerCheckpoint.load(ckpt)
        ControllerCheckpoint(period=current.period, state=current.state,
                             version=8).save(ckpt)
        sc2 = _short_scenario()
        with pytest.raises(CheckpointError, match="version 8 not supported"):
            run_simulation(sc2, _mpc(sc2), resume_from=wal)

    def test_version_9_checkpoint_refused_by_version(self, tmp_path):
        """A version-9 checkpoint's lane markets carry a demand log.

        The envelope must refuse the old layout by its version stamp.
        """
        wal = str(tmp_path / "v9.wal")
        sc = _short_scenario()
        with pytest.raises(SimulatedCrashError):
            run_simulation(sc, CrashInjector(_mpc(sc), 5), wal_path=wal,
                           checkpoint_every=2)
        ckpt = checkpoint_path_for(wal)
        current = ControllerCheckpoint.load(ckpt)
        ControllerCheckpoint(period=current.period, state=current.state,
                             version=9).save(ckpt)
        sc2 = _short_scenario()
        with pytest.raises(CheckpointError, match="version 9 not supported"):
            run_simulation(sc2, _mpc(sc2), resume_from=wal)

    def test_resumed_run_leaves_the_same_demand_history(self, tmp_path):
        """The market's demand history after a resume is the crash-free
        run's, bit for bit, though the checkpoint carries no demand log:
        the history is read from the record's drawn powers."""
        baseline_sc = _short_scenario()
        run_simulation(baseline_sc, _mpc(baseline_sc))
        wal = str(tmp_path / "history.wal")
        sc = _short_scenario()
        with pytest.raises(SimulatedCrashError):
            run_simulation(sc, CrashInjector(_mpc(sc), 5), wal_path=wal,
                           checkpoint_every=2)
        state = ControllerCheckpoint.load(checkpoint_path_for(wal)).state
        assert set(state["plant"]["markets"]) == {"last_demand"}
        sc2 = _short_scenario()
        run_simulation(sc2, _mpc(sc2), resume_from=wal)
        assert len(sc2.market.demand_history) == sc2.n_periods
        assert sc2.market.demand_history == baseline_sc.market.demand_history

    def test_resume_after_a_torn_wal_tail_leaves_a_readable_log(
            self, tmp_path):
        """A WAL cut mid-record resumes into a log that reads whole.

        The resumed run appends after cutting the torn line, so the log
        reads back and serves a second resume.
        """
        wal = str(tmp_path / "torn.wal")
        sc = _short_scenario()
        assert sc.n_periods == 10
        baseline = run_simulation(_short_scenario(),
                                  _mpc(_short_scenario()))
        with pytest.raises(SimulatedCrashError):
            run_simulation(sc, CrashInjector(_mpc(sc), 5), wal_path=wal,
                           checkpoint_every=2)
        with open(wal, "r+b") as fh:
            fh.truncate(fh.seek(0, 2) - 40)
        for _ in range(2):
            sc2 = _short_scenario()
            resumed = run_simulation(sc2, _mpc(sc2), resume_from=wal)
            records = read_wal(wal)
            assert records[0]["type"] == "begin"
            assert {r["period"] for r in records[1:]} == set(range(10))
            assert resumed.perf["counters"]["wal_tail_mismatches"] == 0
            np.testing.assert_array_equal(resumed.cost_usd,
                                          baseline.cost_usd)

    def test_checkpoint_carries_the_filled_record_prefix(self, tmp_path):
        """A crash at period 5 leaves the period-4 checkpoint, whose
        record series hold 4 columns, not the run's T; the resumed run
        still reproduces every diagnostic."""
        baseline = run_simulation(_short_scenario(), _mpc(_short_scenario()))
        wal = str(tmp_path / "prefix.wal")
        sc = _short_scenario()
        with pytest.raises(SimulatedCrashError):
            run_simulation(sc, CrashInjector(_mpc(sc), 5), wal_path=wal,
                           checkpoint_every=2)
        ckpt = ControllerCheckpoint.load(checkpoint_path_for(wal))
        assert ckpt.period == 4
        record = ckpt.state["record"]
        assert record["n_periods"] == 4
        for name, prefix in record["series"].items():
            assert prefix.shape[:2] == (1, 4), name
        sc2 = _short_scenario()
        resumed = run_simulation(sc2, _mpc(sc2), resume_from=wal)
        assert len(resumed.diagnostics) == sc2.n_periods
        for got, want in zip(resumed.diagnostics, baseline.diagnostics):
            assert got.keys() == want.keys()
            for key in want:
                np.testing.assert_array_equal(got[key], want[key])

    def test_resume_with_faults_and_monitor(self, tmp_path):
        """Outage + actuation fault + monitor all survive the restart."""
        def faults(t0):
            return [ActuationLag("minnesota", t0 + 120.0, t0 + 360.0),
                    PartialApply("michigan", t0 + 60.0, t0 + 300.0,
                                 fraction=0.5)]

        base_mon = InvariantMonitor()
        baseline = run_simulation(_short_scenario(faults=faults),
                                  _mpc(_short_scenario()),
                                  monitor=base_mon)
        wal = str(tmp_path / "f.wal")
        sc = _short_scenario(faults=faults)
        with pytest.raises(SimulatedCrashError):
            run_simulation(sc, CrashInjector(_mpc(sc), 5),
                           monitor=InvariantMonitor(),
                           wal_path=wal, checkpoint_every=2)
        sc2 = _short_scenario(faults=faults)
        mon = InvariantMonitor()
        resumed = run_simulation(sc2, _mpc(sc2), monitor=mon,
                                 resume_from=wal)
        assert resumed.perf["counters"]["wal_tail_mismatches"] == 0
        np.testing.assert_array_equal(resumed.servers, baseline.servers)
        np.testing.assert_array_equal(resumed.powers_watts,
                                      baseline.powers_watts)
        assert mon.counters() == base_mon.counters()

    def test_resume_before_first_checkpoint_replays_from_zero(self,
                                                              tmp_path):
        wal = str(tmp_path / "early.wal")
        sc = _short_scenario()
        with pytest.raises(SimulatedCrashError):
            run_simulation(sc, CrashInjector(_mpc(sc), 2),
                           wal_path=wal, checkpoint_every=100)
        sc2 = _short_scenario()
        resumed = run_simulation(sc2, _mpc(sc2), resume_from=wal)
        counters = resumed.perf["counters"]
        assert counters["resumed_from_period"] == 0
        assert counters["wal_tail_replayed"] == 2
        assert counters["wal_tail_mismatches"] == 0
        baseline = run_simulation(_short_scenario(),
                                  _mpc(_short_scenario()))
        np.testing.assert_array_equal(resumed.cost_usd, baseline.cost_usd)

    def test_foreign_wal_rejected(self, tmp_path):
        wal = str(tmp_path / "foreign.wal")
        sc = _short_scenario()
        with pytest.raises(SimulatedCrashError):
            run_simulation(sc, CrashInjector(_mpc(sc), 3),
                           wal_path=wal, checkpoint_every=2)
        other = paper_scenario(dt=60.0, duration=300.0, start_hour=6.0)
        with pytest.raises(CheckpointError, match="different run"):
            run_simulation(other, _mpc(other), resume_from=wal)

    def test_checkpoint_every_needs_wal(self):
        sc = _short_scenario()
        with pytest.raises(ConfigurationError):
            run_simulation(sc, _mpc(sc), checkpoint_every=2)
        with pytest.raises(ConfigurationError):
            run_simulation(sc, _mpc(sc), checkpoint_every=0,
                           wal_path="/tmp/x.wal")

    def test_checkpoint_sibling_path(self, tmp_path):
        wal = str(tmp_path / "run.wal")
        sc = _short_scenario()
        run_simulation(sc, _mpc(sc), wal_path=wal, checkpoint_every=3)
        import os
        assert os.path.exists(checkpoint_path_for(wal))


    def test_checkpoint_never_covers_unlogged_decisions(self, tmp_path,
                                                        monkeypatch):
        """With a lazy fsync cadence the WAL still reaches the disk
        before each checkpoint: a kill right after the checkpoint must
        not lose the periods it covers from the log."""
        wal = str(tmp_path / "lazy.wal")
        seen = []
        save = ControllerCheckpoint.save

        def checked_save(self, path):
            logged = {r["period"] for r in read_wal(wal)
                      if r["type"] == "decision"}
            assert logged >= set(range(self.period)), self.period
            seen.append(self.period)
            return save(self, path)

        monkeypatch.setattr(ControllerCheckpoint, "save", checked_save)
        sc = _short_scenario()
        run_simulation(sc, _mpc(sc), wal_path=wal, wal_fsync_every=4,
                       checkpoint_every=2)
        assert seen == [2, 4, 6, 8]


# ---------------------------------------------------------------------------
# Orphaned checkpoints (checkpoint present, WAL missing) fail fast
# ---------------------------------------------------------------------------
class TestOrphanedCheckpoint:
    def _durable_run(self, tmp_path):
        wal = str(tmp_path / "orphan.wal")
        sc = _short_scenario()
        run_simulation(sc, _mpc(sc), wal_path=wal, checkpoint_every=2)
        return wal

    def test_missing_wal_fails_fast(self, tmp_path):
        """A fresh run over an orphaned checkpoint must not silently
        discard the checkpointed state."""
        import os
        wal = self._durable_run(tmp_path)
        os.unlink(wal)  # the orphan: .ckpt survives, WAL does not
        sc = _short_scenario()
        with pytest.raises(CheckpointError, match="missing or was"):
            run_simulation(sc, _mpc(sc), wal_path=wal,
                           checkpoint_every=2)
        assert os.path.exists(checkpoint_path_for(wal))  # untouched

    def test_resume_force_discards_orphan(self, tmp_path):
        import os
        wal = self._durable_run(tmp_path)
        baseline = run_simulation(_short_scenario(),
                                  _mpc(_short_scenario()))
        os.unlink(wal)
        sc = _short_scenario()
        result = run_simulation(sc, _mpc(sc), wal_path=wal,
                                checkpoint_every=2, resume_force=True)
        np.testing.assert_array_equal(result.cost_usd, baseline.cost_usd)
        assert os.path.exists(wal)  # a fresh, complete log

    def test_intact_pair_unaffected(self, tmp_path):
        """Both files present is the normal overwrite path — no error."""
        wal = self._durable_run(tmp_path)
        sc = _short_scenario()
        run_simulation(sc, _mpc(sc), wal_path=wal, checkpoint_every=2)


# ---------------------------------------------------------------------------
# The step_hook seam: streaming, on-demand checkpoints, graceful drain
# ---------------------------------------------------------------------------
class TestStepHook:
    def test_hook_sees_every_period(self, tmp_path):
        seen = []
        sc = _short_scenario()
        run_simulation(sc, _mpc(sc),
                       step_hook=lambda info: seen.append(info["period"]))
        assert seen == list(range(sc.n_periods))

    def test_stop_then_resume_bit_exact(self, tmp_path):
        """A drain (hook returns truthy) checkpoints and stays
        resumable — the service's graceful-shutdown contract."""
        baseline = run_simulation(_short_scenario(),
                                  _mpc(_short_scenario()))
        wal = str(tmp_path / "drain.wal")
        sc = _short_scenario()
        partial = run_simulation(
            sc, _mpc(sc), wal_path=wal, checkpoint_every=100,
            step_hook=lambda info: info["period"] == 3)
        assert partial.perf["counters"]["stopped_at_period"] == 4
        assert partial.n_periods == 4
        sc2 = _short_scenario()
        resumed = run_simulation(sc2, _mpc(sc2), resume_from=wal)
        counters = resumed.perf["counters"]
        assert counters["resumed_from_period"] == 4
        assert counters["wal_tail_mismatches"] == 0
        np.testing.assert_array_equal(resumed.allocations,
                                      baseline.allocations)
        np.testing.assert_array_equal(resumed.cost_usd,
                                      baseline.cost_usd)

    def test_on_demand_checkpoint(self, tmp_path):
        import os
        wal = str(tmp_path / "ondemand.wal")
        sc = _short_scenario()
        run_simulation(
            sc, _mpc(sc), wal_path=wal, checkpoint_every=10_000,
            step_hook=lambda info: "checkpoint"
            if info["period"] == 2 else None)
        ckpt = ControllerCheckpoint.load(checkpoint_path_for(wal))
        assert ckpt.period == 3  # written at the requested period
        assert os.path.exists(wal)


# ---------------------------------------------------------------------------
# Reset audit (supervisor-driven resets must not lose carried state)
# ---------------------------------------------------------------------------
class TestResetAudit:
    def _warmed_policy(self):
        sc = _short_scenario()
        policy = _mpc(sc)
        policy.reset()
        u_prev = np.zeros(sc.cluster.n_allocations)
        servers_prev = sc.cluster.server_counts()
        for k in range(4):
            t = sc.start_time + k * sc.dt
            obs = PolicyObservation(
                period=k, time_seconds=t,
                loads=sc.cluster.portals.loads_at(k),
                prices=sc.prices_at(t),
                prev_u=u_prev.copy(), prev_servers=servers_prev.copy())
            d = policy.decide(obs)
            u_prev = np.asarray(d.u, dtype=float)
            servers_prev = np.asarray(d.servers).astype(int)
        return sc, policy, u_prev, servers_prev

    def test_retry_reset_preserves_dynamic_state(self):
        """``reset_solver_state`` (the supervisor's retry hook) must be
        narrow: solver carry-over goes, plant-integration state stays."""
        _sc, policy, _u, _servers = self._warmed_policy()
        lane = policy._lane
        x_before = lane._X.copy()
        u_prev_before = lane._U_prev.copy()
        pending_before = lane._pending
        assert lane._warm is not None
        policy.reset_solver_state()
        assert lane._warm is None
        np.testing.assert_array_equal(lane._X, x_before)
        np.testing.assert_array_equal(lane._U_prev, u_prev_before)
        assert lane._pending is pending_before
        # whereas a full reset() discards everything
        policy.reset()
        assert lane._pending is None

    def test_restore_recovers_from_a_stray_full_reset(self):
        sc, policy, u_prev, servers_prev = self._warmed_policy()
        snap = policy.snapshot()
        t = sc.start_time + 4 * sc.dt
        obs = PolicyObservation(
            period=4, time_seconds=t,
            loads=sc.cluster.portals.loads_at(4), prices=sc.prices_at(t),
            prev_u=np.asarray(u_prev, dtype=float).copy(),
            prev_servers=np.asarray(servers_prev).astype(int).copy())
        expected = policy.decide(obs)
        policy.reset()  # the bug being defended against
        policy.restore(snap)
        recovered = policy.decide(obs)
        np.testing.assert_array_equal(recovered.u, expected.u)
        np.testing.assert_array_equal(recovered.servers, expected.servers)

    def test_supervisor_retry_does_not_lose_predictor_state(self):
        """End-to-end: a mid-run solver fault triggers the supervisor's
        retry path; the run must still match the fault-free trajectory
        (a retry that cleared [C̄, E] or the adopted servers would
        diverge)."""
        baseline = run_simulation(_short_scenario(),
                                  _mpc(_short_scenario()))

        sc = _short_scenario()
        policy = _mpc(sc)
        fired = []
        solve = policy._lane._solve

        def failing_solve(*args, **kwargs):
            # Fail the whole first attempt of period 5.  (A fault hook
            # would arm the ladder, which absorbs the fault; an unarmed
            # policy raises it to the supervisor.)
            from repro.exceptions import ConvergenceError
            if not fired:
                fired.append(True)
                raise ConvergenceError("forced failure for the retry path")
            return solve(*args, **kwargs)

        class _ArmAtPeriod5:
            name = "arm"

            def __init__(self, sup):
                self.sup = sup

            def decide(self, obs):
                if obs.period == 5:
                    policy._lane._solve = failing_solve
                return self.sup.decide(obs)

            def reset(self):
                self.sup.reset()

            def perf_snapshot(self):
                return self.sup.perf_snapshot()

            def on_availability_change(self):
                self.sup.on_availability_change()

        sup = PolicySupervisor(policy, sc.cluster)
        run = run_simulation(sc, _ArmAtPeriod5(sup))
        assert fired, "fault never armed"
        assert run.perf["counters"]["supervisor_retries"] >= 1
        # Same trajectory despite the retry: nothing carried was lost
        # (the retried period solves cold, so only the integer server
        # counts are required to be exact).
        np.testing.assert_array_equal(run.servers, baseline.servers)
        np.testing.assert_allclose(run.powers_watts,
                                   baseline.powers_watts, rtol=1e-9)
