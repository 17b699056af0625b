"""Page-level write-ahead log.

The WAL makes a whole save — many page images plus the JSON sidecars —
one atomic unit.  Writers append checksummed, length-prefixed frames:

    ``PAGE``   a full page image, keyed by page number;
    ``META``   a sidecar payload, keyed by its path suffix
               (e.g. ``.catalog.json``), staged for the checkpoint;
    ``COMMIT`` a transaction boundary — everything since the previous
               commit becomes durable once this frame is fsynced.

A transaction's META frames are appended as its sidecars are staged.
Its pages are not logged as they are written: the pager keeps them
dirty in memory and, at commit, :meth:`WriteAheadLog.append_commit`
appends one PAGE frame per dirty page (the transaction's latest image)
followed by the COMMIT frame, contiguously under the log lock.

Frame layout (little-endian)::

    magic "WALF" | type u8 | key u64 | payload_len u32 | crc32 u32 | payload

The CRC covers type, key and payload, so a torn tail — a frame whose
header or payload the crash cut short, or whose bytes a partial sector
write scrambled — is detected and discarded during recovery.  Recovery
(:meth:`WriteAheadLog.scan`) replays frames up to the last valid COMMIT
and drops everything after it; the pager then applies the survivors to
the main file and truncates the log (checkpoint), which is idempotent if
the process dies mid-checkpoint.

Concurrency.  Several writers may append to one log at once, so frames
are *transaction-tagged*: the key of a PAGE frame packs
``(txn_id << 40) | page_no`` and the key of a META or COMMIT frame is
the txn id itself.  Recovery groups pending frames per transaction and a
COMMIT promotes only its own transaction's frames, so one writer's
commit never publishes another's frames.  Single-writer logs use txn
id 0 everywhere.

Commit durability uses **group commit**: the committing thread appends
its PAGE and COMMIT frames under the log lock, then either discovers a
concurrent leader has already fsynced past it
(``wal.group_commit.batched``) or becomes the leader itself, fsyncing
every frame appended so far in one ``fsync`` (``wal.fsyncs``).  An optional ``group_window`` lets the
leader linger briefly so more followers can pile on.

The linger is **adaptive**: a fixed window taxes every solo commit the
full window (a serial client pays ~3x p50 for batching that never
happens) while the batching win only exists under contention.  Each
COMMIT append samples whether another commit was already awaiting
fsync — the one signal that distinguishes concurrent committers from a
fast serial client — into an exponentially-weighted ``contention``
score, and the leader sleeps the window only while the score is above
:data:`CONTENTION_THRESHOLD` (``wal.group_commit.adaptive_waits`` vs
``wal.group_commit.fast_syncs``).  Follower-rides-leader batching is
independent of the linger and always on, so contended workloads keep
their fsync savings even while the score is still warming up.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field

from repro.errors import StorageError
from repro.obs.metrics import get_registry
from repro.storage.crashpoints import fire

MAGIC = b"WALF"
FRAME_PAGE = 1
FRAME_META = 2
FRAME_COMMIT = 3

_HEADER = struct.Struct("<4sBQII")  # magic, type, key, payload_len, crc32
_CRC_PREFIX = struct.Struct("<BQ")  # the checksummed part of the header

#: Low bits of a PAGE frame's key hold the page number; the bits above
#: hold the transaction id.  40 bits of page number at 4 KiB pages is
#: 4 PiB of addressable file — effectively unbounded for this engine.
PAGE_KEY_BITS = 40
_PAGE_KEY_MASK = (1 << PAGE_KEY_BITS) - 1

# Global WAL instrumentation (see repro.obs).
_FRAMES = get_registry().counter("wal.frames")
_BYTES = get_registry().counter("wal.bytes")
_COMMITS = get_registry().counter("wal.commits")
_CHECKPOINTS = get_registry().counter("wal.checkpoints")
_RECOVERIES = get_registry().counter("wal.recoveries")
_FRAMES_REPLAYED = get_registry().counter("wal.frames_replayed")
_FSYNCS = get_registry().counter("wal.fsyncs")
_FSYNC_SECONDS = get_registry().histogram("wal.fsync.seconds")
_GROUP_BATCHED = get_registry().counter("wal.group_commit.batched")
_ADAPTIVE_WAITS = get_registry().counter("wal.group_commit.adaptive_waits")
_FAST_SYNCS = get_registry().counter("wal.group_commit.fast_syncs")
_BATCH_SIZE = get_registry().histogram(
    "wal.group_commit.batch_size", (1, 2, 4, 8, 16, 32, 64, 128)
)
_SIZE_BYTES = get_registry().gauge("wal.size_bytes")
#: commit frames by what triggered them: "txn" (transaction commit /
#: checkpoint), "ingest" (one frame per BatchArchiver batch), ...
_COMMIT_CAUSES = get_registry().labeled_counter("wal.commits.cause")

#: the EWMA contention score above which a group-commit leader lingers
#: ``group_window`` before its fsync.  With ``CONTENTION_ALPHA = 0.25``
#: one concurrent arrival lifts the score from zero to 0.25 (linger
#: starts on the first sign of contention) and it takes ~5 consecutive
#: solo commits to decay back below the threshold.
CONTENTION_THRESHOLD = 0.2
CONTENTION_ALPHA = 0.25


@dataclass
class RecoveryReport:
    """What one WAL recovery pass found and did."""

    wal_path: str
    frames_scanned: int = 0
    commits: int = 0
    pages_replayed: int = 0
    metas_replayed: int = 0
    uncommitted_frames: int = 0
    torn_bytes: int = 0
    stale_tmp_files: list[str] = field(default_factory=list)

    @property
    def replayed(self) -> bool:
        return self.commits > 0

    def lines(self) -> list[str]:
        state = "replayed a committed save" if self.replayed else "nothing to replay"
        return [
            f"wal:            {self.wal_path} ({state})",
            f"frames scanned: {self.frames_scanned} "
            f"({self.commits} commit frames)",
            f"replayed:       {self.pages_replayed} pages, "
            f"{self.metas_replayed} sidecars",
            f"discarded:      {self.uncommitted_frames} uncommitted frames, "
            f"{self.torn_bytes} torn bytes, "
            f"{len(self.stale_tmp_files)} stale tmp files",
        ]


def _checksum(frame_type: int, key: int, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(_CRC_PREFIX.pack(frame_type, key)))


def encode_meta_payload(suffix: str, data: bytes) -> bytes:
    raw = suffix.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw + data


def decode_meta_payload(payload: bytes) -> tuple[str, bytes]:
    (length,) = struct.unpack_from("<H", payload)
    return payload[2 : 2 + length].decode("utf-8"), payload[2 + length :]


class WriteAheadLog:
    """Append-only frame log next to a pager's main file.

    Safe for concurrent appenders: every file mutation happens under one
    internal lock, and commit durability goes through the group-commit
    protocol described in the module docstring.
    """

    def __init__(
        self,
        path: str,
        *,
        group_commit: bool = True,
        group_window: float = 0.002,
    ) -> None:
        self.path = path
        self.group_commit = group_commit
        self.group_window = group_window
        mode = "r+b" if os.path.exists(path) else "w+b"
        self._file = open(path, mode)
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._append_seq = 0  # frames appended so far
        self._durable_seq = 0  # highest append_seq known fsynced
        self._leader_active = False
        self._pending_commits = 0  # COMMIT frames since the last fsync
        #: EWMA of "another commit was already awaiting fsync when mine
        #: arrived" — the adaptive-linger contention signal
        self._contention = 0.0

    # -- appending ---------------------------------------------------------

    def append_page(self, page_no: int, data: bytes, txn_id: int = 0) -> None:
        if page_no > _PAGE_KEY_MASK:
            raise StorageError(f"page number {page_no} exceeds WAL key space")
        self._append(FRAME_PAGE, (txn_id << PAGE_KEY_BITS) | page_no, data)

    def append_meta(self, suffix: str, data: bytes, txn_id: int = 0) -> None:
        self._append(FRAME_META, txn_id, encode_meta_payload(suffix, data))

    def append_commit(
        self,
        txn_id: int = 0,
        cause: str = "txn",
        pages: dict[int, bytes] | None = None,
    ) -> None:
        """Log ``pages`` and the commit frame; make the transaction durable.

        The PAGE frames (one per entry of ``pages``) and the COMMIT frame
        are appended contiguously under the log lock; the fsync runs
        outside it, through group commit.
        """
        fire("wal.commit.begin")
        with self._lock:
            for page_no, data in (pages or {}).items():
                self.append_page(page_no, data, txn_id)
            seq = self._append(FRAME_COMMIT, txn_id, b"")
        if self.group_commit:
            self._group_sync(seq)
        else:
            self.sync()
        _COMMITS.inc()
        _COMMIT_CAUSES.inc(cause)
        fire("wal.commit.synced")

    def _append(self, frame_type: int, key: int, payload: bytes) -> int:
        crc = _checksum(frame_type, key, payload)
        frame = _HEADER.pack(MAGIC, frame_type, key, len(payload), crc) + payload
        with self._lock:
            self._file.seek(0, os.SEEK_END)
            # Two writes with a crash point between them: an injected crash
            # at ``wal.frame.torn`` leaves a genuinely torn frame on disk,
            # which is exactly what recovery's checksum pass must survive.
            split = max(1, len(frame) // 2)
            self._file.write(frame[:split])
            self._file.flush()
            fire("wal.frame.torn")
            self._file.write(frame[split:])
            self._file.flush()
            self._append_seq += 1
            seq = self._append_seq
            if frame_type == FRAME_COMMIT:
                # sample contention *before* counting ourselves: a commit
                # already awaiting fsync means concurrent committers (a
                # serial client, however fast, always sees zero here)
                arrived_contended = 1.0 if self._pending_commits else 0.0
                self._contention += CONTENTION_ALPHA * (
                    arrived_contended - self._contention
                )
                self._pending_commits += 1
            _SIZE_BYTES.set(self._file.tell())
        _FRAMES.inc()
        _BYTES.inc(len(frame))
        fire("wal.frame.appended")
        return seq

    def sync(self) -> None:
        with self._lock:
            target = self._append_seq
            batch = self._pending_commits
            self._pending_commits = 0
            self._file.flush()
            started = time.perf_counter()
            os.fsync(self._file.fileno())
            _FSYNC_SECONDS.observe(time.perf_counter() - started)
            _FSYNCS.inc()
            if batch:
                _BATCH_SIZE.observe(batch)
            if target > self._durable_seq:
                self._durable_seq = target

    def _group_sync(self, seq: int) -> None:
        """Make frame ``seq`` durable, batching with concurrent commits.

        Follower path: a concurrent leader's fsync already covered (or
        will cover) our frame — wait for ``durable_seq`` to pass it and
        count the saved fsync.  Leader path: snapshot the append
        sequence, fsync once, publish the new durable horizon.
        """
        with self._cond:
            while True:
                if self._durable_seq >= seq:
                    _GROUP_BATCHED.inc()
                    return
                if not self._leader_active:
                    self._leader_active = True
                    # decide the linger while holding the lock: recent
                    # concurrent arrivals (EWMA above the threshold)
                    # mean a window of waiting will batch real work
                    linger = (
                        self.group_window > 0
                        and self._contention >= CONTENTION_THRESHOLD
                    )
                    break
                self._cond.wait()
        try:
            if linger:
                # Let more followers append their COMMIT frames so one
                # fsync below covers them all.
                _ADAPTIVE_WAITS.inc()
                time.sleep(self.group_window)
            else:
                _FAST_SYNCS.inc()
            with self._lock:
                target = self._append_seq
                batch = self._pending_commits
                self._pending_commits = 0
                self._file.flush()
                fileno = self._file.fileno()
            # fsync outside the lock: followers may keep appending (their
            # frames simply ride the *next* fsync).
            started = time.perf_counter()
            os.fsync(fileno)
            _FSYNC_SECONDS.observe(time.perf_counter() - started)
            _FSYNCS.inc()
            if batch:
                _BATCH_SIZE.observe(batch)
            with self._cond:
                if target > self._durable_seq:
                    self._durable_seq = target
        finally:
            with self._cond:
                self._leader_active = False
                self._cond.notify_all()

    # -- recovery ----------------------------------------------------------

    def scan(self) -> tuple[dict[int, bytes], dict[str, bytes], RecoveryReport]:
        """Read the log, returning committed pages/metas and a report.

        Pending frames are grouped by the transaction id packed into
        their keys, and a COMMIT promotes only its own transaction's
        frames — with concurrent writers the log interleaves frames from
        several transactions, and one txn's commit must never publish
        another's half-written pages.  Frames whose transaction never
        committed are counted as uncommitted and dropped; the first torn
        or corrupt frame ends the scan (bytes past it are unreachable by
        construction — the log is truncated at every checkpoint, so
        nothing valid can follow a tear).
        """
        report = RecoveryReport(wal_path=self.path)
        with self._lock:
            self._file.seek(0, os.SEEK_END)
            size = self._file.tell()
            self._file.seek(0)
            committed_pages: dict[int, bytes] = {}
            committed_metas: dict[str, bytes] = {}
            pending: dict[int, list[tuple[int, int, bytes]]] = {}
            offset = 0
            while offset < size:
                header = self._file.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    report.torn_bytes = size - offset
                    break
                magic, frame_type, key, payload_len, crc = _HEADER.unpack(header)
                if magic != MAGIC or frame_type not in (
                    FRAME_PAGE, FRAME_META, FRAME_COMMIT,
                ):
                    report.torn_bytes = size - offset
                    break
                payload = self._file.read(payload_len)
                if len(payload) < payload_len or _checksum(
                    frame_type, key, payload
                ) != crc:
                    report.torn_bytes = size - offset
                    break
                offset += _HEADER.size + payload_len
                report.frames_scanned += 1
                txn_id = key >> PAGE_KEY_BITS if frame_type == FRAME_PAGE else key
                if frame_type == FRAME_COMMIT:
                    report.commits += 1
                    for kind, frame_key, frame_payload in pending.pop(txn_id, []):
                        if kind == FRAME_PAGE:
                            committed_pages[frame_key & _PAGE_KEY_MASK] = (
                                frame_payload
                            )
                            report.pages_replayed += 1
                        else:
                            suffix, data = decode_meta_payload(frame_payload)
                            committed_metas[suffix] = data
                            report.metas_replayed += 1
                else:
                    pending.setdefault(txn_id, []).append(
                        (frame_type, key, payload)
                    )
        report.uncommitted_frames = sum(len(v) for v in pending.values())
        if report.replayed:
            _RECOVERIES.inc()
            _FRAMES_REPLAYED.inc(
                report.pages_replayed + report.metas_replayed
            )
        return committed_pages, committed_metas, report

    # -- lifecycle ---------------------------------------------------------

    def truncate(self) -> None:
        """Drop every frame (end of checkpoint); durable before return."""
        with self._lock:
            self._file.seek(0)
            self._file.truncate(0)
            self.sync()
            _SIZE_BYTES.set(0)
        _CHECKPOINTS.inc()
        fire("wal.checkpoint.truncated")

    def size_bytes(self) -> int:
        with self._lock:
            self._file.seek(0, os.SEEK_END)
            return self._file.tell()

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def require_durability(value: str) -> str:
    if value not in ("wal", "none"):
        raise StorageError(
            f"unknown durability mode {value!r}; use 'wal' or 'none'"
        )
    return value
