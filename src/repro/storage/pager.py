"""File-backed pager with physical-IO accounting and WAL durability.

The pager reads and writes fixed-size pages in a single file and counts
every physical read and write.  The benchmarks use these counters to explain
wall-clock shapes, mirroring the paper's cold-cache measurement protocol
(Section 7: the authors unmounted the data drive between queries; we expose
:meth:`Pager.io_stats` and let the buffer pool be reset instead).

File-backed pagers default to ``durability="wal"``.  The write path is:

1. :meth:`Pager.write_page` and :meth:`Pager.allocate` update an in-memory
   overlay (which reads consult first) and record the image in the calling
   transaction's dirty-page map.  Nothing is logged yet.
2. :meth:`Pager.commit` takes that map and logs one PAGE frame per dirty
   page — the transaction's latest image — followed by its COMMIT frame,
   to a checksummed write-ahead log (:mod:`repro.storage.wal`), then
   fsyncs.  A page touched *k* times in one transaction is logged once.
   Sidecars are staged as META frames when written.
3. :meth:`Pager.checkpoint` copies the overlay to the main file and
   truncates the log, so a whole save commits or disappears as one unit.

Opening a pager runs recovery — committed WAL frames are replayed, torn
tails discarded.  In WAL mode ``pager.writes`` counts the PAGE frames
logged at commit.  ``durability="none"`` writes pages in place (still
fsync-correct on :meth:`sync`/:meth:`close`) and counts every such write;
it serves benchmarks that model raw page IO.
"""

from __future__ import annotations

import io
import os
import threading
from dataclasses import dataclass

from repro.errors import StorageError
from repro.obs.metrics import get_registry
from repro.storage.atomicio import atomic_write_bytes, remove_stale_tmp_files
from repro.storage.crashpoints import fire
from repro.storage.page import PAGE_SIZE
from repro.storage.wal import RecoveryReport, WriteAheadLog, require_durability

# Global physical-IO counters, aggregated across every pager instance.
_READS = get_registry().counter("pager.reads")
_WRITES = get_registry().counter("pager.writes")
_ALLOCATIONS = get_registry().counter("pager.allocations")
#: pages staged in the WAL overlay, awaiting checkpoint (process-wide;
#: last pager to change wins — one ArchIS per process in practice)
_DIRTY_PAGES = get_registry().gauge("pager.dirty_pages")

WAL_SUFFIX = ".wal"


@dataclass
class IoStats:
    """Physical IO counters for one pager."""

    reads: int = 0
    writes: int = 0
    allocations: int = 0

    def snapshot(self) -> "IoStats":
        return IoStats(self.reads, self.writes, self.allocations)

    def delta(self, earlier: "IoStats") -> "IoStats":
        return IoStats(
            self.reads - earlier.reads,
            self.writes - earlier.writes,
            self.allocations - earlier.allocations,
        )


class Pager:
    """Reads/writes :data:`PAGE_SIZE` pages from a file or memory buffer.

    Passing ``path=None`` keeps the store in memory (used heavily by the
    test-suite) and forces ``durability="none"``; the IO accounting
    behaves identically either way.
    """

    def __init__(
        self,
        path: str | None = None,
        durability: str = "wal",
        group_commit: bool = True,
        group_window: float = 0.002,
    ) -> None:
        require_durability(durability)
        self._path = path
        self._group_commit = group_commit
        self._group_window = group_window
        self._durability = durability if path is not None else "none"
        if path is None:
            self._file: io.BufferedRandom | io.BytesIO = io.BytesIO()
        else:
            mode = "r+b" if os.path.exists(path) else "w+b"
            self._file = open(path, mode)
        self._page_count = self._measure_page_count()
        self.stats = IoStats()
        self._closed = False
        # One internal lock serializes page-table mutation, the shared
        # file handle's seek/read cycles and the stats counters; the lock
        # is re-entrant because checkpoint() composes locked operations.
        # Lock order is pager → WAL, never the reverse.
        self._lock = threading.RLock()
        # The transaction id tagged onto WAL frames is per *thread*: each
        # writer thread runs one transaction at a time, and frames it
        # appends belong to that transaction (0 = the anonymous
        # single-writer transaction, the pre-concurrency behaviour).
        self._txn_local = threading.local()
        # WAL state: page/sidecar images written since the last checkpoint
        # live here; the main file is only touched by checkpoint().
        # ``_txn_pages`` maps each transaction with uncommitted work to the
        # latest image of every page it wrote (the same objects the overlay
        # holds), which commit() logs; an empty map marks a transaction
        # whose only uncommitted frames are staged sidecars.
        self._overlay: dict[int, bytes] = {}
        self._meta_overlay: dict[str, bytes] = {}
        self._wal: WriteAheadLog | None = None
        self._txn_pages: dict[int, dict[int, bytes]] = {}
        self.recovery_report: RecoveryReport | None = None
        if path is not None:
            stale = remove_stale_tmp_files(path)
            if self._durability == "wal":
                self._wal = WriteAheadLog(
                    path + WAL_SUFFIX,
                    group_commit=group_commit,
                    group_window=group_window,
                )
                self._recover(stale)

    # -- WAL transaction tagging ------------------------------------------

    @property
    def wal_txn(self) -> int:
        """The WAL transaction id for the calling thread (0 = anonymous)."""
        return getattr(self._txn_local, "txn_id", 0)

    def set_wal_txn(self, txn_id: int) -> None:
        """Tag this thread's subsequent WAL frames with ``txn_id``."""
        self._txn_local.txn_id = txn_id

    def clear_wal_txn(self) -> None:
        self._txn_local.txn_id = 0

    def discard_wal_txn(self, txn_id: int) -> None:
        """Forget a transaction's uncommitted pages (abort path).

        Its pages were never logged.  Sidecars it staged stay in the log
        as META frames that no COMMIT will ever promote; the next
        checkpoint truncation reclaims the space.
        """
        with self._lock:
            self._txn_pages.pop(txn_id, None)

    def _measure_page_count(self) -> int:
        self._file.seek(0, os.SEEK_END)
        size = self._file.tell()
        if size % PAGE_SIZE:
            raise StorageError(
                f"file size {size} is not a multiple of the page size"
            )
        return size // PAGE_SIZE

    def _recover(self, stale_tmp_files: list[str]) -> None:
        """Replay committed WAL frames left by a crash, drop the rest."""
        pages, metas, report = self._wal.scan()
        report.stale_tmp_files = stale_tmp_files
        self.recovery_report = report
        if report.replayed:
            self._overlay = pages
            self._meta_overlay = metas
            _DIRTY_PAGES.set(len(self._overlay))
            if pages:
                self._page_count = max(
                    self._page_count, max(pages) + 1
                )
            self._apply_checkpoint()
        elif self._wal.size_bytes():
            # only torn/uncommitted frames: the save never committed,
            # so the pre-save state on the main file is authoritative.
            self._wal.truncate()

    # -- public API -------------------------------------------------------

    @property
    def page_count(self) -> int:
        return self._page_count

    @property
    def path(self) -> str | None:
        return self._path

    @property
    def durability(self) -> str:
        """``"wal"`` (atomic, recoverable saves) or ``"none"``."""
        return self._durability

    def allocate(self) -> int:
        """Append a zeroed page, returning its page number."""
        with self._lock:
            self._check_open()
            page_no = self._page_count
            zero = b"\x00" * PAGE_SIZE
            if self._wal is not None:
                self._stage(page_no, zero)
            else:
                self._file.seek(page_no * PAGE_SIZE)
                self._file.write(zero)
                self.stats.writes += 1
                _WRITES.inc()
            self._page_count += 1
            self.stats.allocations += 1
        _ALLOCATIONS.inc()
        return page_no

    def read_page(self, page_no: int) -> bytes:
        with self._lock:
            self._check_open()
            self._check_range(page_no)
            data = self._overlay.get(page_no)
            if data is None:
                self._file.seek(page_no * PAGE_SIZE)
                data = self._file.read(PAGE_SIZE)
                if len(data) != PAGE_SIZE:
                    raise StorageError(f"short read on page {page_no}")
            self.stats.reads += 1
        _READS.inc()
        return data

    def write_page(self, page_no: int, data: bytes) -> None:
        if len(data) != PAGE_SIZE:
            raise StorageError(
                f"page image must be {PAGE_SIZE} bytes, got {len(data)}"
            )
        data = bytes(data)
        with self._lock:
            self._check_open()
            self._check_range(page_no)
            if self._wal is not None:
                self._stage(page_no, data)
                return
            self._file.seek(page_no * PAGE_SIZE)
            self._file.write(data)
            self._file.flush()
            fire("pager.page_written")
            self.stats.writes += 1
        _WRITES.inc()

    def _stage(self, page_no: int, data: bytes) -> None:
        """Publish ``data`` in the overlay and mark the page dirty for the
        calling thread's transaction (caller holds the lock)."""
        self._overlay[page_no] = data
        self._txn_pages.setdefault(self.wal_txn, {})[page_no] = data
        _DIRTY_PAGES.set(len(self._overlay))

    def write_sidecar(self, suffix: str, data: bytes) -> str:
        """Write ``<path><suffix>`` as part of the durability protocol.

        In WAL mode the payload is staged in the log and lands atomically
        at the next :meth:`checkpoint`, in the same transaction as the
        page writes; in ``none`` mode it is written atomically right away
        (tmp file → fsync → ``os.replace``).  Returns the final path.
        """
        if self._path is None:
            raise StorageError("memory pagers have no sidecar files")
        path = self._path + suffix
        with self._lock:
            self._check_open()
            if self._wal is not None:
                self._wal.append_meta(suffix, bytes(data), self.wal_txn)
                self._meta_overlay[suffix] = bytes(data)
                self._txn_pages.setdefault(self.wal_txn, {})
                return path
        return atomic_write_bytes(path, bytes(data))

    def size_bytes(self) -> int:
        """Total bytes occupied by the paged file."""
        return self._page_count * PAGE_SIZE

    def truncate(self) -> None:
        """Drop every page (used when segments are rewritten)."""
        with self._lock:
            self._check_open()
            self._overlay.clear()
            _DIRTY_PAGES.set(0)
            if self._wal is not None:
                self._wal.truncate()
                self._txn_pages.clear()
            self._file.seek(0)
            self._file.truncate(0)
            self._page_count = 0
            # truncating is a physical write to the main file: account for it
            self.stats.writes += 1
        _WRITES.inc()

    def commit(self, cause: str = "txn") -> None:
        """Make this thread's transaction durable.

        Logs one PAGE frame per page the transaction dirtied, then its
        COMMIT frame, then fsyncs.  The pages stay in the log (and the
        in-memory overlay) until the next :meth:`checkpoint`; after a
        crash, recovery replays them.  In ``none`` mode this is a plain
        flush + fsync of the main file.  The dirty-page map is taken under
        the pager lock, but the frames are appended and fsynced *outside*
        it, so other threads keep reading and writing pages meanwhile.
        ``cause`` labels the ``wal.commits.cause`` counter ("txn",
        "ingest", ...).
        """
        txn = self.wal_txn
        with self._lock:
            self._check_open()
            if self._wal is None:
                self._fsync_main()
                return
            pages = self._txn_pages.pop(txn, None)
            if pages is None:
                return
            self.stats.writes += len(pages)
        _WRITES.inc(len(pages))
        self._wal.append_commit(txn, cause=cause, pages=pages)

    def checkpoint(self) -> None:
        """Commit, then apply the log to the main file and truncate it.

        Callers must quiesce writers first (the transaction layer runs
        checkpoints with no transaction in flight): applying the overlay
        publishes every staged page to the main file and drops the log.
        """
        self._check_open()
        if self._wal is None:
            with self._lock:
                self._fsync_main()
            return
        self.commit()
        with self._lock:
            if not self._overlay and not self._meta_overlay:
                return
            self._apply_checkpoint()

    def _apply_checkpoint(self) -> None:
        fire("wal.checkpoint.begin")
        for page_no in sorted(self._overlay):
            self._file.seek(page_no * PAGE_SIZE)
            self._file.write(self._overlay[page_no])
            self._file.flush()
            fire("wal.checkpoint.page_applied")
        self._fsync_main()
        fire("wal.checkpoint.pages_synced")
        for suffix in sorted(self._meta_overlay):
            atomic_write_bytes(self._path + suffix, self._meta_overlay[suffix])
        self._wal.truncate()  # fires wal.checkpoint.truncated
        self._overlay.clear()
        self._meta_overlay.clear()
        self._txn_pages.clear()
        _DIRTY_PAGES.set(0)

    def sync(self) -> None:
        """Make writes durable: WAL commit, or flush + fsync in ``none``."""
        self._check_open()
        if self._wal is not None:
            self.commit()
        else:
            with self._lock:
                self._fsync_main()
        fire("pager.synced")

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                if self._wal is not None:
                    self.checkpoint()
                    self._wal.close()
                else:
                    self._fsync_main()
                self._file.close()
                self._closed = True

    def io_stats(self) -> IoStats:
        with self._lock:
            return self.stats.snapshot()

    # -- helpers ------------------------------------------------------------

    def _fsync_main(self) -> None:
        """Flush, then fsync when file-backed (BytesIO has no fd)."""
        self._file.flush()
        if self._path is not None:
            os.fsync(self._file.fileno())

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("pager is closed")

    def _check_range(self, page_no: int) -> None:
        if page_no < 0 or page_no >= self._page_count:
            raise StorageError(
                f"page {page_no} out of range (0..{self._page_count - 1})"
            )

    def __enter__(self) -> "Pager":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
