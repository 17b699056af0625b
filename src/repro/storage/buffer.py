"""LRU buffer pool.

Sits between page consumers (heap files, the blob store) and a
:class:`~repro.storage.pager.Pager`.  Tracks hits and misses; a miss costs a
physical read in the pager's counters.  ``reset()`` drops every cached page,
which the benchmark harness calls before each measured query to reproduce
the paper's cold-cache protocol.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import StorageError
from repro.obs.metrics import get_registry
from repro.storage.page import PAGE_SIZE
from repro.storage.pager import Pager

# Hoisted instruments: every pool reports into the same global counters so
# physical reads are visible uniformly (per-pool CacheStats stay available
# for instance-level attribution).
_HITS = get_registry().counter("buffer.hits")
_MISSES = get_registry().counter("buffer.misses")
#: pages currently cached, process-wide (last pool to change wins; with
#: one ArchIS per process — the server deployment — that is *the* pool)
_OCCUPANCY = get_registry().gauge("buffer.occupancy")


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0


class BufferPool:
    """Write-through LRU page cache over a pager.

    Write-through keeps recovery concerns out of scope (the paper's
    contribution is not in the buffer manager) while still modelling read
    locality, which is what the clustering experiments depend on.

    Frames are immutable ``bytes``: a hit returns the cached image itself,
    and :meth:`put` stores one ``bytes`` object the pager's WAL overlay
    shares, so a write copies a page at most once (a ``bytearray``).
    """

    def __init__(self, pager: Pager, capacity: int = 256) -> None:
        if capacity < 1:
            raise StorageError("buffer pool capacity must be >= 1")
        self._pager = pager
        self._capacity = capacity
        self._frames: OrderedDict[int, bytes] = OrderedDict()
        self.stats = CacheStats()
        # Frame-table mutation (including the LRU reordering a *read*
        # performs) and the hit/miss counters are guarded by one
        # re-entrant lock, so concurrent sessions never corrupt the
        # OrderedDict or lose stat increments.  Lock order is
        # buffer → pager → WAL, never the reverse.
        self._lock = threading.RLock()

    @property
    def pager(self) -> Pager:
        return self._pager

    @property
    def capacity(self) -> int:
        return self._capacity

    def get(self, page_no: int) -> bytes:
        """Fetch a page image, from cache when possible."""
        with self._lock:
            frame = self._frames.get(page_no)
            if frame is not None:
                self._frames.move_to_end(page_no)
                self.stats.hits += 1
                _HITS.inc()
                return frame
            self.stats.misses += 1
            _MISSES.inc()
            data = self._pager.read_page(page_no)
            self._admit(page_no, data)
            return data

    def put(self, page_no: int, data: bytes | bytearray) -> None:
        """Write a page image through to disk and refresh the cache."""
        if len(data) != PAGE_SIZE:
            raise StorageError("page image has wrong size")
        data = bytes(data)
        with self._lock:
            self._pager.write_page(page_no, data)
            self._admit(page_no, data)

    def allocate(self) -> int:
        """Allocate a fresh page and cache its (zeroed) image."""
        with self._lock:
            page_no = self._pager.allocate()
            self._admit(page_no, bytes(PAGE_SIZE))
            return page_no

    def set_capacity(self, capacity: int) -> None:
        """Resize the pool (evicting LRU frames if shrinking)."""
        if capacity < 1:
            raise StorageError("buffer pool capacity must be >= 1")
        with self._lock:
            self._capacity = capacity
            while len(self._frames) > self._capacity:
                self._frames.popitem(last=False)
            _OCCUPANCY.set(len(self._frames))

    def reset(self) -> None:
        """Drop all cached pages (cold-cache measurement protocol)."""
        with self._lock:
            self._frames.clear()
            _OCCUPANCY.set(0)

    def reset_stats(self) -> None:
        """Zero the counters in place.

        Callers hold references to ``self.stats`` (the bench harness
        snapshots it); rebinding to a fresh object would leave those
        references reading stale numbers forever.
        """
        with self._lock:
            self.stats.hits = 0
            self.stats.misses = 0

    def _admit(self, page_no: int, frame: bytes) -> None:
        if page_no in self._frames:
            self._frames[page_no] = frame
            self._frames.move_to_end(page_no)
            return
        self._frames[page_no] = frame
        while len(self._frames) > self._capacity:
            self._frames.popitem(last=False)
        _OCCUPANCY.set(len(self._frames))
