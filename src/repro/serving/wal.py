"""Per-shard write-ahead admissions log and crash recovery.

The serving store (:mod:`repro.serving.store`) made single-process faults
transactional, and :mod:`repro.serving.snapshot` added *manual* image
export/import - but a crashed engine still lost every admission since the
last explicit export.  This module closes that gap with a write-ahead log
(WAL): every committed ``admit`` / ``admit_many`` / ``evict`` / ``reset``
appends one record *after* the store transaction commits, so the log is a
faithful journal of the committed history, and
:meth:`~repro.api.engine.DebloatEngine.open` replays it automatically.

Record framing
--------------

The log is a flat sequence of length-prefixed RDBC containers::

    [u32 length][RDBC container] [u32 length][RDBC container] ...

Each container (:func:`repro.core.serialize.value_dumps` with kind
:data:`WAL_KIND`) carries the serializer's magic, schema version, and
whole-payload CRC32 - so every record is independently checksummed - and
the decoded payload holds a strictly increasing ``seq`` assigned at append
time.  :func:`scan_wal` recovers the **longest valid prefix**: it stops at
the first short frame, oversize length, checksum/decode failure, or
non-monotonic sequence number, and never raises on hostile bytes.  On
open, anything past the valid prefix is quarantined to a sidecar file and
the live log is truncated back to the prefix, so a torn tail from a crash
mid-append costs at most the record being written.

Durability contract
-------------------

``fsync`` policy ``always`` syncs after every append (survives power
loss), ``batch`` syncs every N appends and on checkpoint (bounded loss
window), ``off`` only flushes to the OS (survives process death - the
crash-matrix regime - but not power loss).  Appends happen under the
store's admission lock, so WAL order equals commit order.  A crash between
a store commit and its WAL append loses exactly that record: the *durable*
state is defined by the log, which is what recovery reproduces
byte-identically.

Checkpointing truncates the log: export a snapshot (manifest written
last, atomically, recording each shard's ``wal_seq`` watermark), **then**
drop records ``<= watermark``.  A kill between the two steps is harmless -
recovery loads the new snapshot and skips replayed-over records by
watermark, so the only cost is extra replay, never divergence.

WAL plus checkpoint snapshot is the engine's one crash-recovery path:
every federation shard is an in-process store journaled here.
"""

from __future__ import annotations

import os
import struct
import threading
import time
from typing import Any, Callable

from repro.core import serialize
from repro.errors import (
    SnapshotError,
    WalError,
    WalReplayError,
)
from repro.testing import faults
from repro.utils import atomicio

__all__ = [
    "WAL_KIND",
    "WAL_SUFFIX",
    "MAX_RECORD_BYTES",
    "FSYNC_POLICIES",
    "WalScan",
    "scan_wal",
    "WriteAheadLog",
    "DurabilityController",
]

#: RDBC ``kind`` tag of a WAL record container.
WAL_KIND = "wal_record"

#: Filename suffix of live per-framework logs.
WAL_SUFFIX = ".wal"

#: Upper bound on one record's container size; a larger length prefix
#: marks the tail invalid.
MAX_RECORD_BYTES = 1 << 30

#: Supported fsync policies, strictest first.
FSYNC_POLICIES = ("always", "batch", "off")

_LEN = struct.Struct("<I")

#: Operations a WAL record may journal (mirrors the store's mutators).
WAL_OPS = ("admit", "admit_many", "evict", "reset", "import")


class WalScan:
    """Result of scanning raw log bytes for the longest valid prefix."""

    __slots__ = ("records", "frames", "valid_length", "total_length")

    def __init__(
        self,
        records: tuple[dict, ...],
        frames: tuple[tuple[int, int], ...],
        valid_length: int,
        total_length: int,
    ):
        self.records = records
        #: ``(start, end)`` byte span of each valid record's frame.
        self.frames = frames
        self.valid_length = valid_length
        self.total_length = total_length

    @property
    def torn_bytes(self) -> int:
        """Bytes past the valid prefix (0 for a clean log)."""
        return self.total_length - self.valid_length

    @property
    def last_seq(self) -> int:
        return self.records[-1]["seq"] if self.records else 0


def scan_wal(data: bytes) -> WalScan:
    """Recover the longest valid record prefix from raw log bytes.

    Tolerates every corruption mode a crash or bad disk can produce:
    truncated tails, bit flips (caught by the per-container CRC),
    interleaved garbage, oversize or zero length prefixes, and duplicate
    or regressing sequence numbers.  Never raises; scanning simply stops
    at the first invalid frame.
    """
    records: list[dict] = []
    frames: list[tuple[int, int]] = []
    offset = 0
    prev_seq: int | None = None
    total = len(data)
    while True:
        if offset + _LEN.size > total:
            break
        (length,) = _LEN.unpack_from(data, offset)
        if length == 0 or length > MAX_RECORD_BYTES:
            break
        end = offset + _LEN.size + length
        if end > total:
            break
        try:
            record = serialize.value_loads(data[offset + _LEN.size:end],
                                           WAL_KIND)
        except Exception:
            break
        if not isinstance(record, dict):
            break
        seq = record.get("seq")
        if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
            break
        if prev_seq is not None and seq <= prev_seq:
            break
        records.append(record)
        frames.append((offset, end))
        prev_seq = seq
        offset = end
    return WalScan(tuple(records), tuple(frames), offset, total)


class WriteAheadLog:
    """An append-only, CRC-framed journal for one shard's mutations.

    Opening heals the log: the valid prefix is kept, any torn/corrupt
    tail is moved to a ``<name>.quarantine.N`` sidecar, and the live file
    is rewritten to exactly the prefix.  All methods are thread-safe; the
    store calls :meth:`append` under its admission lock so record order
    matches commit order.
    """

    def __init__(
        self,
        path: str,
        *,
        fsync: str = "batch",
        fsync_batch_n: int = 8,
    ):
        if fsync not in FSYNC_POLICIES:
            raise WalError(
                f"unknown fsync policy {fsync!r}; "
                f"expected one of {FSYNC_POLICIES}"
            )
        if fsync_batch_n < 1:
            raise WalError("fsync_batch_n must be >= 1")
        self.path = path
        self.fsync_policy = fsync
        self.fsync_batch_n = fsync_batch_n
        self._lock = threading.RLock()
        self._closed = False
        self.appended = 0
        self.syncs = 0
        self.truncated_records = 0
        self.quarantined_bytes = 0
        self.quarantine_path: str | None = None
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        self._heal()
        self._fh = open(path, "ab")
        self._unsynced = 0

    # -- open-time healing -------------------------------------------------

    def _heal(self) -> None:
        try:
            data = open(self.path, "rb").read()
        except FileNotFoundError:
            data = b""
        scan = scan_wal(data)
        self.last_seq = scan.last_seq
        self.records_on_disk = len(scan.records)
        if scan.torn_bytes:
            self.quarantine_path = self._quarantine_target()
            self.quarantined_bytes = scan.torn_bytes
            atomicio.atomic_write_bytes(
                self.quarantine_path, data[scan.valid_length:]
            )
            atomicio.atomic_write_bytes(
                self.path, data[: scan.valid_length]
            )

    def _quarantine_target(self) -> str:
        n = 0
        while True:
            candidate = f"{self.path}.quarantine.{n}"
            if not os.path.exists(candidate):
                return candidate
            n += 1

    # -- appending ---------------------------------------------------------

    def append(self, record: dict) -> int:
        """Journal one committed mutation; returns its sequence number.

        The record is framed, CRC'd (by the RDBC container), flushed,
        and - per the fsync policy - synced.  Fault site ``wal.append``
        fires before any bytes are written, ``wal.fsync`` before the
        physical sync, so an injected (or kill) fault at either site
        leaves a clean prefix on disk.
        """
        with self._lock:
            if self._closed:
                raise WalError(f"append to closed WAL {self.path!r}")
            faults.check("wal.append")
            seq = self.last_seq + 1
            blob = serialize.value_dumps(dict(record, seq=seq), WAL_KIND)
            self._fh.write(_LEN.pack(len(blob)) + blob)
            self._fh.flush()
            self.last_seq = seq
            self.appended += 1
            self.records_on_disk += 1
            self._unsynced += 1
            if self.fsync_policy == "always" or (
                self.fsync_policy == "batch"
                and self._unsynced >= self.fsync_batch_n
            ):
                self._fsync_locked()
            return seq

    def _fsync_locked(self) -> None:
        faults.check("wal.fsync")
        atomicio.fsync_file(self._fh.fileno())
        self._unsynced = 0
        self.syncs += 1

    def sync(self) -> None:
        """Force unsynced appends to stable storage (``off`` still flushes)."""
        with self._lock:
            if self._closed:
                return
            self._fh.flush()
            if self.fsync_policy != "off" and self._unsynced:
                self._fsync_locked()

    # -- reading / truncation ---------------------------------------------

    def records(self) -> tuple[dict, ...]:
        """A fresh scan of the on-disk valid prefix."""
        with self._lock:
            self._fh.flush()
            with open(self.path, "rb") as fh:
                return scan_wal(fh.read()).records

    def truncate_through(self, seq: int) -> int:
        """Drop every record with ``seq <=`` the watermark; keep the rest.

        Rewrites the kept frames through the durable atomic-write helper
        (tmp + fsync + rename + dir fsync) and reopens the append handle,
        so a kill at any instant leaves either the old or the new log -
        never a partial one.  Returns the number of records dropped.
        """
        with self._lock:
            if self._closed:
                raise WalError(f"truncate of closed WAL {self.path!r}")
            self._fh.flush()
            with open(self.path, "rb") as fh:
                data = fh.read()
            scan = scan_wal(data)
            kept = [
                data[start:end]
                for record, (start, end) in zip(scan.records, scan.frames)
                if record["seq"] > seq
            ]
            dropped = len(scan.records) - len(kept)
            if dropped == 0:
                return 0
            self._fh.close()
            atomicio.atomic_write_bytes(self.path, b"".join(kept))
            self._fh = open(self.path, "ab")
            self._unsynced = 0
            self.records_on_disk = len(kept)
            self.truncated_records += dropped
            return dropped

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            try:
                self._fh.flush()
                if self.fsync_policy != "off" and self._unsynced:
                    atomicio.fsync_file(self._fh.fileno())
                    self._unsynced = 0
                    self.syncs += 1
            finally:
                self._closed = True
                self._fh.close()

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "last_seq": self.last_seq,
                "records_on_disk": self.records_on_disk,
                "appended": self.appended,
                "syncs": self.syncs,
                "truncated_records": self.truncated_records,
                "quarantined_bytes": self.quarantined_bytes,
            }


def _wal_filename(framework_name: str) -> str:
    return f"{framework_name}{WAL_SUFFIX}"


def _framework_of(filename: str) -> str | None:
    if filename.endswith(WAL_SUFFIX):
        return filename[: -len(WAL_SUFFIX)]
    return None


class DurabilityController:
    """Owns the per-shard WALs, recovery-on-open, and checkpointing.

    One controller per :class:`~repro.api.engine.DebloatEngine`.  The
    federation calls :meth:`attach` as it creates local shards (so every
    committed mutation is journaled from the first admission);
    :meth:`recover` runs once during ``open()`` *before* serving starts,
    loading the newest checkpoint snapshot and replaying the WAL tail
    through the zero-run cached-usage path; :meth:`checkpoint` (manual or
    via the background checkpointer thread) bounds replay time by
    snapshotting and truncating.
    """

    def __init__(
        self,
        root: str,
        *,
        fsync: str = "batch",
        fsync_batch_n: int = 8,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.root = root
        self.wal_dir = os.path.join(root, "wal")
        self.checkpoint_dir = os.path.join(root, "checkpoint")
        os.makedirs(self.wal_dir, exist_ok=True)
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        self.fsync_policy = fsync
        self.fsync_batch_n = fsync_batch_n
        self._clock = clock
        self._lock = threading.RLock()
        self._wals: dict[str, WriteAheadLog] = {}
        self._closed = False
        #: Attach gate: shards created while :meth:`recover` is replaying
        #: must not journal the replay itself; recovery attaches each
        #: recovered shard explicitly and then opens the gate.
        self._ready = False
        self.checkpoints_run = 0
        self.checkpoints_failed = 0
        self.last_checkpoint_error: str | None = None
        self.replayed_records = 0
        self.recovery_report: dict[str, Any] | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- WAL handles -------------------------------------------------------

    def wal_for(self, framework_name: str) -> WriteAheadLog:
        """The (lazily opened, healed) WAL of one framework shard."""
        with self._lock:
            if self._closed:
                raise WalError("durability controller is closed")
            wal = self._wals.get(framework_name)
            if wal is None:
                wal = WriteAheadLog(
                    os.path.join(
                        self.wal_dir, _wal_filename(framework_name)
                    ),
                    fsync=self.fsync_policy,
                    fsync_batch_n=self.fsync_batch_n,
                )
                self._wals[framework_name] = wal
            return wal

    def attach(self, shard) -> None:
        """Journal a federation shard's mutations from now on.

        A no-op while recovery is still replaying (replayed records must
        not be re-appended).
        """
        with self._lock:
            if not self._ready:
                return
        shard.store.attach_wal(self.wal_for(shard.store.framework.name))

    def _wal_frameworks_on_disk(self) -> list[str]:
        try:
            names = os.listdir(self.wal_dir)
        except FileNotFoundError:
            return []
        found = [_framework_of(name) for name in sorted(names)]
        return [name for name in found if name]

    # -- recovery ----------------------------------------------------------

    def recover(self, federation) -> dict[str, Any]:
        """Rebuild the federation's committed state from snapshot + WAL.

        For every framework with a checkpoint entry or a WAL on disk:
        import the snapshot payload (if any), then replay WAL records
        past the snapshot's ``wal_seq`` watermark in order.  A corrupt
        snapshot shard degrades to a cold full-WAL replay instead of
        failing the open.  Returns a report dict
        (also kept as :attr:`recovery_report`).
        """
        report: dict[str, Any] = {
            "frameworks": {},
            "snapshot_loaded": False,
            "replayed": 0,
            "wall_s": 0.0,
        }
        started = self._clock()
        manifest = None
        entries: dict[str, dict] = {}
        from repro.serving import snapshot as snapshots

        if snapshots.snapshot_exists(self.checkpoint_dir):
            try:
                manifest = snapshots.read_manifest(self.checkpoint_dir)
                entries = {
                    entry["framework"]: entry
                    for entry in manifest["shards"]
                }
                report["snapshot_loaded"] = True
            except SnapshotError as exc:
                report["snapshot_error"] = f"{type(exc).__name__}: {exc}"
        frameworks = sorted(
            set(entries) | set(self._wal_frameworks_on_disk())
        )
        for name in frameworks:
            shard = federation.shard(name)
            wal = self.wal_for(name)
            watermark = 0
            loaded = False
            entry = entries.get(name)
            shard_report: dict[str, Any] = {}
            if entry is not None:
                try:
                    payload = snapshots.read_shard_payload(
                        self.checkpoint_dir, entry
                    )
                    shard.store.import_state(payload)
                    watermark = int(entry.get("wal_seq", 0))
                    loaded = True
                except SnapshotError as exc:
                    shard_report["snapshot_error"] = (
                        f"{type(exc).__name__}: {exc}"
                    )
            replayed = self._replay(shard.store, wal, watermark)
            shard.store.attach_wal(wal)
            federation.warm_shard(name)
            shard_report.update(
                {
                    "snapshot": loaded,
                    "watermark": watermark,
                    "replayed": replayed,
                    "generation": shard.store.generation,
                }
            )
            report["frameworks"][name] = shard_report
            report["replayed"] += replayed
        report["wall_s"] = self._clock() - started
        with self._lock:
            self._ready = True
            self.replayed_records += report["replayed"]
            self.recovery_report = report
        return report

    def _replay(self, store, wal: WriteAheadLog, watermark: int) -> int:
        """Re-apply WAL records past ``watermark``; returns the count.

        Replay drives the store's ordinary mutators with ``verify=False``
        - detection comes from the pipeline cache's recorded usage, so a
        warm cache replays with **zero** workload runs.  After each
        record the store generation must match the one journaled at
        commit time (divergence raises :class:`WalReplayError`); after
        the last record the journaled counters are installed so the
        recovered image is byte-identical to the committed one even for
        replay-variant statistics like usage-cache hits.
        """
        applied = 0
        last: dict | None = None
        for record in wal.records():
            if record["seq"] <= watermark:
                continue
            faults.check("wal.replay")
            op = record.get("op")
            try:
                if op == "admit":
                    store.admit(
                        serialize.spec_from_payload(record["spec"]),
                        verify=False,
                    )
                elif op == "admit_many":
                    store.admit_many(
                        [
                            serialize.spec_from_payload(p)
                            for p in record["specs"]
                        ],
                        verify=False,
                    )
                elif op == "evict":
                    store.evict(record["workload_id"])
                elif op == "reset":
                    store.reset()
                elif op == "import":
                    store.import_state(record["state"])
                else:
                    raise WalError(
                        f"unknown WAL op {op!r} at seq {record['seq']}"
                    )
            except WalError:
                raise
            except faults.FaultError:
                raise
            except Exception as exc:
                raise WalReplayError(
                    f"replaying {op!r} (seq {record['seq']}) failed: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            expected = record.get("generation")
            if expected is not None and store.generation != expected:
                raise WalReplayError(
                    f"replay diverged at seq {record['seq']}: store "
                    f"generation {store.generation}, journal recorded "
                    f"{expected}"
                )
            applied += 1
            last = record
        if last is not None and isinstance(last.get("counters"), dict):
            store.restore_counters(last["counters"])
        return applied

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self, federation) -> dict[str, Any]:
        """Snapshot every durable local shard, then truncate its WAL.

        Ordering is the crash-safety contract: the snapshot (manifest
        written last, atomically) is fully durable *before* any record is
        dropped, and the manifest records each shard's ``wal_seq``
        watermark.  Fault site ``checkpoint.truncate`` fires between the
        two steps - a kill there leaves snapshot + full WAL, and recovery
        skips the already-snapshotted records by watermark.
        """
        from repro.serving import snapshot as snapshots

        with self._lock:
            if self._closed:
                raise WalError("durability controller is closed")
            shards = [
                shard
                for shard in federation.shards()
                if shard.store.wal is not None
            ]
            if not shards:
                return {"skipped": "no durable shards", "truncated": 0}
            payloads: dict[str, dict] = {}
            wal_seqs: dict[str, int] = {}
            for shard in shards:
                payload, last_seq = shard.store.export_durable()
                name = shard.store.framework.name
                payloads[name] = payload
                wal_seqs[name] = last_seq
            for shard in shards:
                shard.store.wal.sync()
            try:
                manifest = snapshots.write_snapshot(
                    self.checkpoint_dir, payloads, wal_seqs=wal_seqs
                )
                faults.check("checkpoint.truncate")
                truncated = 0
                for shard in shards:
                    name = shard.store.framework.name
                    truncated += self.wal_for(name).truncate_through(
                        wal_seqs[name]
                    )
            except BaseException as exc:
                self.checkpoints_failed += 1
                self.last_checkpoint_error = (
                    f"{type(exc).__name__}: {exc}"
                )
                raise
            self.checkpoints_run += 1
            return {
                "shards": sorted(wal_seqs),
                "wal_seqs": wal_seqs,
                "truncated": truncated,
                "generations": {
                    e["framework"]: e["generation"]
                    for e in manifest["shards"]
                },
            }

    def start_checkpointer(self, federation, interval_s: float) -> None:
        """Run :meth:`checkpoint` periodically (the sweeper cadence).

        A failing checkpoint is counted and retried next tick; it never
        kills the thread or the serving process.
        """
        if self._thread is not None:
            return
        self._stop.clear()

        def _loop() -> None:
            while not self._stop.wait(interval_s):
                try:
                    self.checkpoint(federation)
                except Exception:
                    continue

        self._thread = threading.Thread(
            target=_loop, name="repro-checkpointer", daemon=True
        )
        self._thread.start()

    def stop_checkpointer(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    # -- lifecycle / observability ----------------------------------------

    def sync_all(self) -> None:
        with self._lock:
            wals = list(self._wals.values())
        for wal in wals:
            wal.sync()

    def close(self) -> None:
        self.stop_checkpointer()
        with self._lock:
            if self._closed:
                return
            self._closed = True
            wals = list(self._wals.values())
        for wal in wals:
            wal.close()

    def wal_lag(self) -> int:
        """Records on disk awaiting the next checkpoint (replay debt)."""
        with self._lock:
            return sum(
                wal.records_on_disk for wal in self._wals.values()
            )

    def stats(self) -> dict[str, int]:
        """Integer gauges merged into ``engine.stats()`` (and /metrics)."""
        with self._lock:
            wals = dict(self._wals)
            out = {
                "wal_lag": sum(
                    w.records_on_disk for w in wals.values()
                ),
                "wal_appended": sum(w.appended for w in wals.values()),
                "wal_quarantined_bytes": sum(
                    w.quarantined_bytes for w in wals.values()
                ),
                "checkpoints_run": self.checkpoints_run,
                "checkpoints_failed": self.checkpoints_failed,
                "wal_replayed": self.replayed_records,
            }
        return out

    def health(self) -> dict[str, Any]:
        with self._lock:
            report = {
                "enabled": True,
                "fsync": self.fsync_policy,
                "wal": {
                    name: wal.stats()
                    for name, wal in sorted(self._wals.items())
                },
                "checkpoints_run": self.checkpoints_run,
                "checkpoints_failed": self.checkpoints_failed,
            }
            if self.last_checkpoint_error:
                report["last_checkpoint_error"] = (
                    self.last_checkpoint_error
                )
            if self.recovery_report is not None:
                report["recovery"] = {
                    "replayed": self.recovery_report["replayed"],
                    "snapshot_loaded": self.recovery_report[
                        "snapshot_loaded"
                    ],
                    "wall_s": self.recovery_report["wall_s"],
                }
        return report
