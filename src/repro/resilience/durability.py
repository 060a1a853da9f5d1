"""Durable control plane: checkpoints, write-ahead decision log, resume.

A controller process crash must not cost the day.  The slow/fast
controller of the paper is stateful — RLS-identified AR coefficients,
the pending price-integration accumulator, warm-start working sets, the
supervisor's health machine — and all of it lives in process memory.
This module makes that state durable:

* :class:`ControllerCheckpoint` — a versioned, checksummed envelope
  (JSON header + pickled payload with its arrays out of band, written
  atomically via temp + rename)
  holding one :func:`snapshot` of every stateful component the engine
  carries.  A corrupted or foreign checkpoint raises
  :class:`~repro.exceptions.CheckpointError` instead of restoring
  garbage.
* :class:`WriteAheadLog` — a JSONL decision log with a configurable
  fsync cadence, optionally striped across shard files.  The engine
  appends one record per control period *before* actuating the
  decision, so after a crash the log tells exactly which decisions
  reached the plant.  Records carry SHA-256 digests of the observation
  and decision, which is what makes resume *verifiable*: the resumed
  run re-executes the tail deterministically and every recomputed
  decision must reproduce the logged digests bit-exact.
* :func:`load_resume_state` — reads a (possibly torn, possibly
  sharded) WAL plus its sibling checkpoint back into a
  :class:`ResumeState`.
* :class:`RunJournal` — the whole protocol over those pieces (orphan
  and fingerprint checks, resume, tail check, checkpoint cadence), run
  by the scalar, batched and fleet period loops alike.
* :class:`CrashInjector` — a policy wrapper that kills the run at a
  chosen period by raising :class:`SimulatedCrashError`; the chaos
  fuzzer uses it to exercise the checkpoint → kill → resume path on
  every seed.

Each period loop (not this module) decides *what* goes into a
checkpoint; the format here is deliberately component-agnostic: a
payload is any picklable dict.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
import struct
import tempfile
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import CheckpointError, ConfigurationError

__all__ = [
    "CHECKPOINT_VERSION",
    "WAL_VERSION",
    "ControllerCheckpoint",
    "CrashInjector",
    "ResumeState",
    "RunJournal",
    "SimulatedCrashError",
    "WriteAheadLog",
    "array_digest",
    "checkpoint_path_for",
    "load_resume_state",
    "read_wal",
    "wal_shard_paths",
]

#: Version stamp of the checkpoint envelope; bumped on layout changes.
#: Version 2: every period loop checkpoints one lane-axis record
#: (:class:`repro.sim.recorder.LaneRecord`) instead of the scalar
#: engine's per-period recorder.  Version 3: the pickled MPC core no
#: longer carries a matrix-free constraint operator, and the policy
#: snapshots no longer carry server counts or last prices.  Version 4:
#: the policy snapshots no longer carry a reference memo.  Version 5:
#: the pickled MPC core holds a batched-ADMM setup in place of the
#: scalar ADMM's factorization cache.  Version 6: the one-lane MPC
#: policy snapshots its batched lane instead of a pickled MPC core.
#: Version 7: every run checkpoints one plant (lane markets, last
#: applied servers, actuation channel) beside its lane set, whose
#: scalar snapshot no longer carries a market or an actuation channel,
#: and the MPC lane snapshots carry their available fleets.  Version 8:
#: the record goes as its filled prefix plus its diagnostics pickled
#: once per period (:meth:`repro.sim.recorder.LaneRecord.snapshot`), and
#: the supervisor's state history as run-length pairs.  Version 9: a
#: batched lane set checkpoints its per-lane perf counters beside its
#: policy.  Version 10: the plant's lane markets carry only their last
#: demands (the demand history is read from the record at the end), and
#: the payload's contiguous arrays follow its pickle out of band.
CHECKPOINT_VERSION = 10

#: Version stamp of the WAL record schema.
WAL_VERSION = 1

_MAGIC = b"RPRCKPT1"


class SimulatedCrashError(Exception):
    """An injected controller crash (not a real failure).

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: nothing
    in the control stack — not the supervisor, not the fuzzer's generic
    failure handling — may swallow it.  A crash ends the process; only
    the test harness that injected it catches it.
    """


def array_digest(*arrays) -> str:
    """SHA-256 over the dtype, shape and bytes of each array, chained.

    The digest is a function of the exact binary contents, so two runs
    produce the same digest iff their arrays are bit-identical — the
    property WAL tail replay verifies.  The bytes are hashed in place
    (no copy of a contiguous array) and the encoded dtype/shape prefix
    is memoized.
    """
    h = hashlib.sha256()
    for arr in arrays:
        a = np.ascontiguousarray(arr)
        if a.dtype.fields is None:
            h.update(_digest_prefix(a.dtype, a.shape))
        else:   # equal structured dtypes may print differently
            h.update(str(a.dtype).encode() + str(a.shape).encode())
        try:
            h.update(memoryview(a))
        except ValueError:      # dtypes without a buffer (datetimes)
            h.update(a.tobytes())
    return h.hexdigest()


@functools.lru_cache(maxsize=256)
def _digest_prefix(dtype, shape: tuple) -> bytes:
    return str(dtype).encode() + str(shape).encode()


def checkpoint_path_for(wal_path: str) -> str:
    """Sibling checkpoint file of a WAL (``<wal>.ckpt``)."""
    return str(wal_path) + ".ckpt"


# ---------------------------------------------------------------------------
# Checkpoint envelope
# ---------------------------------------------------------------------------
@dataclass
class ControllerCheckpoint:
    """One versioned, checksummed snapshot of the control plane.

    ``state`` is an opaque picklable dict assembled by the engine (one
    entry per stateful component); ``period`` is the next period to
    execute after restoring — everything *before* it is already folded
    into the snapshot.
    """

    period: int
    state: dict
    version: int = CHECKPOINT_VERSION

    def save(self, path: str) -> int:
        """Write atomically (temp file + rename); returns bytes written.

        Layout: ``magic | header_len (u32 LE) | header JSON | payload``
        where the header carries the version, the period, the SHA-256
        of the payload, its length and the lengths of its out-of-band
        ``buffers``.  The payload is the state's pickle (protocol 5)
        followed by the raw bytes of its contiguous arrays, which are
        written from their own memory instead of being copied into one
        pickle first, so a save allocates only the small in-band pickle.
        A crash mid-write leaves either the old checkpoint or a stray
        temp file — never a torn checkpoint.
        """
        buffers: list = []
        pickled = pickle.dumps(self.state, protocol=pickle.HIGHEST_PROTOCOL,
                               buffer_callback=buffers.append)
        parts = [memoryview(pickled)] + [buf.raw() for buf in buffers]
        digest = hashlib.sha256()
        for part in parts:
            digest.update(part)
        header = json.dumps({
            "version": int(self.version),
            "period": int(self.period),
            "sha256": digest.hexdigest(),
            "payload_bytes": sum(part.nbytes for part in parts),
            "buffers": [part.nbytes for part in parts[1:]],
        }).encode()
        prefix = _MAGIC + struct.pack("<I", len(header)) + header
        directory = os.path.dirname(os.path.abspath(path)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(prefix)
                for part in parts:
                    fh.write(part)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return len(prefix) + sum(part.nbytes for part in parts)

    @classmethod
    def load(cls, path: str) -> "ControllerCheckpoint":
        """Read and validate a checkpoint; raises :class:`CheckpointError`.

        Every failure mode — missing file, wrong magic, unsupported
        version, truncated payload, checksum mismatch — raises rather
        than returning a partially trusted snapshot.
        """
        try:
            with open(path, "rb") as fh:
                # writable, so the restored arrays (views of their
                # out-of-band bytes) are too
                blob = bytearray(os.fstat(fh.fileno()).st_size)
                del blob[fh.readinto(blob):]
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}")
        if len(blob) < len(_MAGIC) + 4 or not blob.startswith(_MAGIC):
            raise CheckpointError(
                f"{path} is not a controller checkpoint (bad magic)")
        (header_len,) = struct.unpack_from("<I", blob, len(_MAGIC))
        start = len(_MAGIC) + 4
        try:
            header = json.loads(blob[start:start + header_len])
        except (ValueError, UnicodeDecodeError) as exc:
            raise CheckpointError(f"{path}: unreadable header: {exc}")
        if header.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: checkpoint version {header.get('version')!r} "
                f"not supported (expected {CHECKPOINT_VERSION})")
        payload = memoryview(blob)[start + header_len:]
        if payload.nbytes != header.get("payload_bytes"):
            raise CheckpointError(
                f"{path}: truncated payload ({payload.nbytes} of "
                f"{header.get('payload_bytes')} bytes)")
        digest = hashlib.sha256(payload).hexdigest()
        if digest != header.get("sha256"):
            raise CheckpointError(
                f"{path}: payload checksum mismatch — the checkpoint is "
                "corrupt")
        try:
            # the pickle, then its out-of-band buffers in order
            ends = np.cumsum([0] + header["buffers"]) + (
                payload.nbytes - sum(header["buffers"]))
            state = pickle.loads(payload[:ends[0]], buffers=[
                payload[a:b] for a, b in zip(ends[:-1], ends[1:])])
        except Exception as exc:  # pickle raises many unrelated types
            raise CheckpointError(f"{path}: cannot unpickle payload: {exc}")
        return cls(period=int(header["period"]), state=state)


# ---------------------------------------------------------------------------
# Write-ahead decision log
# ---------------------------------------------------------------------------
def wal_shard_paths(path: str, n_shards: int) -> list[str]:
    """Shard file names of a WAL rooted at ``path``.

    Shard 0 *is* ``path``, so a one-shard log is a single file and
    :func:`checkpoint_path_for` names the same sibling either way;
    further shards live at ``<path>.shard<k>``.
    """
    if n_shards < 1:
        raise CheckpointError("n_shards must be >= 1")
    return [str(path)] + [f"{path}.shard{k}" for k in range(1, n_shards)]


class WriteAheadLog:
    """Append-only JSONL decision log, optionally striped across shards.

    Parameters
    ----------
    path:
        Log file (shard 0).  Created (truncated) unless ``append=True``,
        which a resumed run uses to keep the original prefix.  Appending
        first cuts each shard back to just after its last newline: a
        torn final line (a crash mid-record) would otherwise run into
        the first new record and corrupt the log mid-file.
    n_shards:
        Number of shard files (:func:`wal_shard_paths`).  A ``begin``
        record is replicated into every shard, so each shard is
        self-describing; any other record goes to shard
        ``period % n_shards`` (shard 0 when it has no period).  A
        batched run logs one record per period for the whole batch;
        striping it bounds the tail one shard's fsync cadence can lose,
        not the log throughput.
    fsync_every:
        Call ``fsync`` on a shard after every this-many records written
        to it (1 = maximum durability, every decision reaches the disk
        before the plant; larger values trade the tail of the log for
        throughput).

    Counters (``wal_records``, ``wal_fsyncs``, ``wal_bytes``) sum over
    the shards and are folded into the engine's perf snapshot.
    """

    def __init__(self, path: str, *, n_shards: int = 1,
                 fsync_every: int = 1, append: bool = False) -> None:
        if fsync_every < 1:
            raise CheckpointError("fsync_every must be >= 1")
        self.path = str(path)
        self.fsync_every = int(fsync_every)
        paths = wal_shard_paths(self.path, n_shards)
        if append:
            for p in paths:
                _cut_torn_tail(p)
        self._files = [open(p, "ab" if append else "wb") for p in paths]
        self._pending = [0] * len(self._files)
        self.counters = {"wal_records": 0, "wal_fsyncs": 0, "wal_bytes": 0}

    def append(self, record: dict) -> None:
        """Write one record; durability follows the fsync cadence."""
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")).encode() + b"\n"
        n_shards = len(self._files)
        if record.get("type") == "begin":
            shards = range(n_shards)
        else:
            shards = (int(record.get("period", 0)) % n_shards,)
        for i in shards:
            self._files[i].write(line)
            self.counters["wal_records"] += 1
            self.counters["wal_bytes"] += len(line)
            self._pending[i] += 1
            if self._pending[i] >= self.fsync_every:
                self._sync(i)

    def _sync(self, i: int) -> None:
        self._files[i].flush()
        os.fsync(self._files[i].fileno())
        self.counters["wal_fsyncs"] += 1
        self._pending[i] = 0

    def sync(self) -> None:
        """Flush every shard holding buffered records to stable storage."""
        for i, pending in enumerate(self._pending):
            if pending:
                self._sync(i)

    def close(self) -> None:
        """Final sync and close; safe to call twice."""
        if not self._files[0].closed:
            self.sync()
            for fh in self._files:
                fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _cut_torn_tail(path: str) -> None:
    """Truncate ``path`` to just after its last ``\\n`` (if it exists)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return
    end = raw.rfind(b"\n") + 1
    if end < len(raw):
        with open(path, "r+b") as fh:
            fh.truncate(end)
            os.fsync(fh.fileno())


def _read_shard(path: str) -> list[dict]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read WAL {path}: {exc}")
    records: list[dict] = []
    lines = raw.split(b"\n")
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except ValueError:
            if i >= len(lines) - 2:  # torn tail (last non-empty line)
                break
            raise CheckpointError(
                f"{path}: corrupt WAL record at line {i + 1}")
    return records


def read_wal(path: str, n_shards: int = 1) -> list[dict]:
    """Parse a WAL, tolerating a torn final line in each shard.

    A crash can interrupt the log mid-record; the trailing partial line
    is dropped (it never reached the plant — the log is written *before*
    actuation, so an incomplete record means the decision was not
    applied).  A torn line anywhere *else* means real corruption and
    raises :class:`CheckpointError`.

    One shard reads back in append order.  Several shards merge into
    one stream: shard 0's ``begin`` header leads (every other shard's
    header must carry the same fingerprint — a shard from another run
    is corruption, not noise), then every other record in period order.
    The sort is stable and a period's records all live in one shard, so
    "latest append wins" holds as for one shard.
    """
    streams = [_read_shard(p) for p in wal_shard_paths(path, n_shards)]
    if n_shards == 1:
        return streams[0]
    headers = [next((r for r in records if r.get("type") == "begin"), None)
               for records in streams]
    for k, header in enumerate(headers[1:], start=1):
        if header is not None and headers[0] is not None \
                and header.get("fingerprint") \
                != headers[0].get("fingerprint"):
            raise CheckpointError(
                f"{path}: shard {k} belongs to a different run")
    rest = sorted((r for records in streams for r in records
                   if r.get("type") != "begin"),
                  key=lambda r: int(r.get("period", -1)))
    return headers[:1] + rest if headers[0] is not None else rest


# ---------------------------------------------------------------------------
# Resume loading
# ---------------------------------------------------------------------------
@dataclass
class ResumeState:
    """Everything :func:`load_resume_state` recovered from disk."""

    header: dict | None
    checkpoint: ControllerCheckpoint | None
    #: decision records (all of them, oldest first, duplicates resolved
    #: in favour of the latest append — a re-logged tail wins).
    decisions: dict[int, dict] = field(default_factory=dict)

    def tail_after(self, period: int) -> dict[int, dict]:
        """Decision records at or after ``period`` (the replay tail)."""
        return {k: r for k, r in self.decisions.items() if k >= period}


def load_resume_state(wal_path: str, n_shards: int = 1) -> ResumeState:
    """Read a WAL and its sibling checkpoint into a :class:`ResumeState`.

    The checkpoint is optional on disk — a run killed before its first
    checkpoint resumes from period 0 with the WAL serving purely as the
    determinism oracle.  A missing *WAL* is an error: ``resume_from``
    names the WAL.
    """
    header = None
    decisions: dict[int, dict] = {}
    for rec in read_wal(wal_path, n_shards):
        kind = rec.get("type")
        if kind == "begin" and header is None:
            header = rec
        elif kind == "decision":
            decisions[int(rec["period"])] = rec  # latest append wins
    checkpoint_path = checkpoint_path_for(wal_path)
    checkpoint = None
    if os.path.exists(checkpoint_path):
        checkpoint = ControllerCheckpoint.load(checkpoint_path)
    return ResumeState(header=header, checkpoint=checkpoint,
                       decisions=decisions)


# ---------------------------------------------------------------------------
# The durable-run protocol
# ---------------------------------------------------------------------------
class RunJournal:
    """The durability protocol of one run, shared by every period loop.

    The scalar engine, a batched group and the shared-market fleet all
    drive it the same way::

        journal = RunJournal(wal_path, resume_from=..., checkpoint_every=...)
        checkpoint = journal.recover(fingerprint)   # verified, or None
        ...restore the loop's own state from checkpoint.state...
        journal.open()                              # begin / resume record
        try:
            for k in range(journal.start_period, n_periods):
                ...decide...
                if journal.wal is not None:
                    journal.log({"type": "decision", "period": k, ...})
                ...actuate, record, call the step_hook...
                if journal.end_period(k + 1, n_periods, action, state):
                    break
        finally:
            counters = journal.close()

    A loop keeps only what is its own: the fingerprint, the checkpoint
    ``state`` dict and restoring from it, and its decision record.  The
    journal does the rest: the ``checkpoint_every`` / ``wal_path``
    check, the orphaned-checkpoint refusal, loading and verifying the
    resume state, the WAL's ``begin`` or ``resume`` record, the tail
    check of every re-executed period, the checkpoint cadence and the
    ``step_hook`` actions.  Without a WAL only the hook's stop is live.

    Raises :class:`~repro.exceptions.ConfigurationError` for
    ``checkpoint_every`` below 1 or without a WAL to sit next to.
    """

    def __init__(self, wal_path: str | None = None, *,
                 resume_from: str | None = None,
                 checkpoint_every: int | None = None,
                 fsync_every: int = 1, n_shards: int = 1,
                 strict: bool = True) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be >= 1")
        if checkpoint_every is not None and wal_path is None \
                and resume_from is None:
            raise ConfigurationError(
                "checkpoint_every needs wal_path (the checkpoint lives "
                "next to the write-ahead log)")
        # a resumed run keeps appending to the log it resumes from
        self.wal_path = wal_path if wal_path is not None else resume_from
        self.resume_from = resume_from
        self.checkpoint_every = checkpoint_every
        self.fsync_every = fsync_every
        self.n_shards = n_shards
        self.strict = strict
        self.fingerprint: dict | None = None
        #: first period to execute (the restored checkpoint's period)
        self.start_period = 0
        self.wal: WriteAheadLog | None = None
        self.counters = {"checkpoints_written": 0, "wal_tail_replayed": 0,
                         "wal_tail_mismatches": 0}
        self._tail: dict[int, dict] = {}

    @property
    def durable(self) -> bool:
        """Whether the run writes a WAL."""
        return self.wal_path is not None

    def recover(self, fingerprint: dict, *,
                force: bool = False) -> ControllerCheckpoint | None:
        """Check the on-disk state; the checkpoint to restore, or None.

        A checkpoint whose WAL is missing can be neither resumed nor
        verified (the WAL digests are what prove a resume bit-exact),
        and starting fresh on top of it would silently discard it, so
        it is refused — unless ``force``, which deletes it and starts
        over.  When resuming, the WAL's ``begin`` record and the
        checkpoint must both carry ``fingerprint``.
        """
        self.fingerprint = fingerprint
        if self.wal_path is None:
            return None
        orphan = checkpoint_path_for(self.wal_path)
        if os.path.exists(orphan) and not os.path.exists(self.wal_path):
            if not force:
                raise CheckpointError(
                    f"{orphan}: checkpoint present but its write-ahead "
                    f"log {self.wal_path} is missing or was deleted — the "
                    "run cannot be resumed (nothing to verify the replay "
                    "against) and starting fresh would silently discard "
                    "the checkpointed state.  Restore the WAL to resume, "
                    "or delete the orphaned checkpoint to start over "
                    "(run_simulation: resume_force=True, CLI: "
                    "--resume-force).")
            os.unlink(orphan)
            self.resume_from = None
        if self.resume_from is None:
            return None
        on_disk = load_resume_state(self.resume_from, self.n_shards)
        if on_disk.header is None:
            raise CheckpointError(
                f"{self.resume_from}: WAL has no begin record — not a log "
                "this engine wrote")
        if on_disk.header.get("fingerprint") != fingerprint:
            raise CheckpointError(
                f"{self.resume_from}: WAL belongs to a different run "
                f"(logged {on_disk.header.get('fingerprint')!r}, "
                f"resuming {fingerprint!r})")
        checkpoint = on_disk.checkpoint
        if checkpoint is not None:
            if checkpoint.state.get("fingerprint") != fingerprint:
                raise CheckpointError(
                    "checkpoint belongs to a different run")
            self.start_period = int(checkpoint.period)
        self._tail = on_disk.tail_after(self.start_period)
        self.counters["resumed_from_period"] = self.start_period
        return checkpoint

    def open(self) -> None:
        """Open the WAL and write its ``begin`` (or ``resume``) record."""
        if self.wal_path is None:
            return
        self.wal = WriteAheadLog(self.wal_path, n_shards=self.n_shards,
                                 fsync_every=self.fsync_every,
                                 append=self.resume_from is not None)
        if self.resume_from is None:
            self.wal.append({"type": "begin", "wal_version": WAL_VERSION,
                             "fingerprint": self.fingerprint})
        else:
            self.wal.append({"type": "resume", "period": self.start_period,
                             "tail_records": len(self._tail)})

    def log(self, record: dict) -> None:
        """Append one decision record, checked against the old tail.

        A resumed run re-executes the periods after its checkpoint.
        Each one the old log already holds counts as replayed and must
        reproduce every ``*_sha256`` digest the record carries; one that
        does not counts as a mismatch and, when strict, raises
        :class:`CheckpointError`.
        """
        period = record["period"]
        prior = self._tail.pop(period, None)
        if prior is not None:
            self.counters["wal_tail_replayed"] += 1
            if any(prior.get(key) != value for key, value in record.items()
                   if key.endswith("_sha256")):
                self.counters["wal_tail_mismatches"] += 1
                if self.strict:
                    raise CheckpointError(
                        f"resume diverged from the WAL at period {period}: "
                        "the recomputed decision does not reproduce the "
                        "logged digests")
        self.wal.append(record)

    def end_period(self, next_period: int, n_periods: int, action=None,
                   state=None) -> bool:
        """Checkpoint when due; whether the run should stop now.

        ``action`` is the ``step_hook``'s return value: falsy continues,
        ``"checkpoint"`` checkpoints now, anything else checkpoints and
        stops (a drain, resumable with ``resume_from``).  Otherwise a
        checkpoint is due every ``checkpoint_every`` periods, never after
        the last.  ``state()`` builds the loop's checkpoint dict and is
        called only when one is written.  The WAL is flushed first when
        it holds buffered records: a checkpoint must never cover a
        decision the log has not made durable.
        """
        if self.wal is not None and (
                action or self.checkpoint_every is not None
                and next_period % self.checkpoint_every == 0
                and next_period < n_periods):
            self.wal.sync()
            ControllerCheckpoint(
                period=next_period,
                state={"fingerprint": self.fingerprint, **state()},
            ).save(checkpoint_path_for(self.wal_path))
            self.counters["checkpoints_written"] += 1
        if action and action != "checkpoint":
            self.counters["stopped_at_period"] = next_period
            return True
        return False

    def close(self) -> dict:
        """Close the WAL; the counters the run reports.

        WAL counters plus ``checkpoints_written``, ``wal_tail_*``,
        ``resumed_from_period`` and ``stopped_at_period`` — empty for a
        run with neither a WAL nor a stop.
        """
        if self.wal is None:
            return (dict(self.counters)
                    if "stopped_at_period" in self.counters else {})
        self.wal.close()
        return {**self.wal.counters, **self.counters}


# ---------------------------------------------------------------------------
# Crash injection
# ---------------------------------------------------------------------------
class CrashInjector:
    """Policy wrapper that simulates a controller crash at one period.

    Transparent until ``crash_at_period``, where :meth:`decide` raises
    :class:`SimulatedCrashError` *before* consulting the wrapped policy —
    the crashed period never decides, never logs, never actuates, which
    is exactly the state a killed process leaves behind.  All other
    policy protocol methods (including ``snapshot``/``restore``, so
    checkpointing sees through the wrapper) delegate.
    """

    def __init__(self, inner, crash_at_period: int) -> None:
        self.inner = inner
        self.crash_at_period = int(crash_at_period)
        self.name = inner.name

    def decide(self, obs):
        """Crash at the configured period, else delegate."""
        if int(obs.period) == self.crash_at_period:
            raise SimulatedCrashError(
                f"injected crash at period {obs.period}")
        return self.inner.decide(obs)

    def reset(self) -> None:
        """Delegate to the wrapped policy."""
        self.inner.reset()

    def perf_snapshot(self) -> dict:
        """Delegate to the wrapped policy."""
        return self.inner.perf_snapshot()

    def on_availability_change(self) -> None:
        """Delegate to the wrapped policy (when it has the hook)."""
        hook = getattr(self.inner, "on_availability_change", None)
        if hook is not None:
            hook()

    def snapshot(self) -> dict:
        """Delegate so checkpoints capture the wrapped policy's state."""
        return self.inner.snapshot()

    def restore(self, state: dict) -> None:
        """Delegate to the wrapped policy."""
        self.inner.restore(state)
