"""Usefulness-based segment clustering (paper Section 6).

A segment's *usefulness* is ``U = N_live / N_all``.  All archived tuples
start in the live segment; when U drops below ``U_min`` the live segment is
frozen:

1. a new segment number is allocated and its interval recorded in the
   ``segment`` table;
2. live tuples are copied into the new live segment (steps 1-2 are the
   logical *switch*);
3. every tuple of the frozen segment is rewritten sorted by id
   (including the still-live ones — this is the controlled redundancy
   the paper trades for clustering, Eq. 3), and the heap is compacted.

``inline`` maintenance runs all three inside the apply that triggered
the freeze; ``background`` maintenance runs the switch there and leaves
step 3 to a worker.  Both run the same code.

The invariants of Section 6.1 hold for every tuple in a frozen segment:
``tstart <= segend`` and ``tend >= segstart``.
"""

from __future__ import annotations

import contextlib
import sys
import time
from dataclasses import dataclass

from repro.errors import ArchisError
from repro.obs.metrics import DEFAULT_RATIO_BUCKETS, get_registry
from repro.obs.tracer import get_tracer
from repro.rdb.database import Database
from repro.storage.record import encode_record, encoded_int
from repro.util.timeutil import FOREVER
from repro.archis.htables import SEGMENT_TABLE

_SEGMENTS_FROZEN = get_registry().counter("clustering.segments_frozen")
_ROWS_REWRITTEN = get_registry().counter("clustering.rows_rewritten")
_LIVE_COPIED = get_registry().counter("clustering.live_rows_copied")
_USEFULNESS_AT_FREEZE = get_registry().histogram(
    "clustering.usefulness_at_freeze", DEFAULT_RATIO_BUCKETS
)
_LIVE_SEGNO = get_registry().gauge("clustering.live_segno")
#: an inline freeze runs synchronously inside whatever archival apply
#: triggered it — its duration is exactly how long that apply (and every
#: waiter on the history lock) stalled
_FREEZE_STALL = get_registry().histogram("ingest.freeze_stall.seconds")
#: the logical switch (segment-table row + live-copy); in
#: background-maintenance mode it is all the apply path pays, the sorted
#: rewrite happens on the maintenance worker
_SWITCH_SECONDS = get_registry().histogram("maintenance.switch.seconds")

#: recognized maintenance modes (see ArchISConfig.maintenance)
MAINTENANCE_MODES = ("inline", "background", "off")


@dataclass
class SegmentStats:
    live: int = 0
    total: int = 0

    @property
    def usefulness(self) -> float:
        return self.live / self.total if self.total else 1.0


class SegmentManager:
    """Tracks usefulness and performs the freeze operation.

    ``umin=None`` disables segmentation entirely (everything stays in
    segment 1), which is the paper's unclustered comparison point (Fig. 9).
    ``min_rows`` avoids degenerate freezes on tiny archives.
    """

    def __init__(
        self,
        db: Database,
        umin: float | None = 0.4,
        min_rows: int = 64,
        mode: str = "inline",
    ) -> None:
        if umin is not None and not 0.0 < umin < 1.0:
            raise ArchisError("U_min must be in (0, 1)")
        if mode not in MAINTENANCE_MODES:
            raise ArchisError(
                f"unknown maintenance mode {mode!r}; use "
                + ", ".join(MAINTENANCE_MODES)
            )
        self.db = db
        self.umin = umin
        self.min_rows = min_rows
        #: how freezes run: ``inline`` rewrites synchronously inside the
        #: apply, ``background`` performs the cheap logical switch and
        #: leaves the sorted rewrite to the maintenance worker, ``off``
        #: never freezes (boundaries stay where they are)
        self.mode = mode
        #: frozen segment numbers whose physical rewrite has not finished
        #: (FIFO; persisted in the archive sidecar so a reopened archive
        #: resumes where the worker left off)
        self.pending_rewrites: list[int] = []
        #: callable invoked with the frozen segno after a logical switch
        #: (set by ArchIS to wake the maintenance worker)
        self.on_freeze_request = None
        #: counts completed physical rewrites/compactions — part of
        #: :attr:`generation` so caches drop rids the rewrite relocated
        self.rewrites = 0
        self.live_segno = 1
        self.live_start = db.current_date
        #: timestamp of the last archived change; segment boundaries are
        #: drawn in *logical* change time so that log-based (batch)
        #: archival produces the same segments as trigger-based archival
        self.last_change = db.current_date
        self.stats = SegmentStats()
        self._tables: list[str] = []
        self.freeze_count = 0
        #: optional callable returning the lowest day at which a future
        #: archived change may still start (set by the transaction
        #: manager: min over active transaction days and pending
        #: update-log entries).  ``maybe_freeze`` defers while the
        #: boundary it would draw is at or above that floor, so no row
        #: can later land in a segment that does not cover its tstart.
        self.freeze_floor = None
        # >0 while a batch holding freeze clearance runs (see
        # ``suspend_freeze_checks``); ``maybe_freeze`` is a no-op then.
        self._suspended = 0

    @property
    def segmented(self) -> bool:
        return self.umin is not None

    def register_table(self, name: str) -> None:
        """Register an H-table whose rows participate in segmentation."""
        if name not in self._tables:
            self._tables.append(name)

    def is_registered(self, name: str) -> bool:
        return name in self._tables

    def registered_tables(self) -> list[str]:
        """Registered H-table names, in registration order."""
        return list(self._tables)

    @property
    def generation(self) -> tuple[int, int, int]:
        """Changes whenever segment boundaries move — or a background
        rewrite compacts a table and relocates rows (cache
        invalidation)."""
        return (self.freeze_count, self.live_segno, self.rewrites)

    # -- bookkeeping hooks called by the tracker ---------------------------------

    def note_insert(self) -> None:
        self.stats.live += 1
        self.stats.total += 1

    def note_close(self) -> None:
        """A live tuple was closed (its tend set): usefulness drops."""
        self.stats.live -= 1

    def touch(self, when: int) -> None:
        """Record the logical timestamp of an archived change."""
        if when > self.last_change:
            self.last_change = when

    def maybe_freeze(self, when: int | None = None) -> bool:
        """Freeze the live segment when usefulness fell below U_min.

        The freeze is deferred until the incoming change's timestamp has
        moved past the last archived one, so every row archived afterwards
        starts strictly after the frozen segment's period — the property
        segment-restricted queries rely on.

        In ``background`` maintenance mode only the logical switch runs
        here (same boundary, same counters, same decision point as an
        inline freeze); the sorted rewrite of the frozen segment is
        queued for the maintenance worker.  In ``off`` mode nothing ever
        freezes.
        """
        if self.umin is None or self.mode == "off":
            return False
        if self._suspended:
            return False
        if self.stats.total < self.min_rows:
            return False
        if self.stats.usefulness >= self.umin:
            return False
        if when is not None and when <= self.last_change:
            return False
        if self.freeze_floor is not None:
            floor = self.freeze_floor()
            if floor is not None and max(
                self.last_change, self.live_start
            ) >= floor:
                # an in-flight transaction (or a committed-but-unapplied
                # log entry) has a day at or below the boundary we would
                # draw; freezing now would strand its rows in a segment
                # whose period cannot cover them
                return False
        if self.mode == "background":
            frozen = self.freeze_switch()
            if self.on_freeze_request is not None:
                self.on_freeze_request(frozen)
        else:
            self.freeze()
        return True

    # -- batched-ingest clearance (one check per batch) --------------------------

    def freeze_clearance(self, inserts: int, closes: int) -> bool:
        """Can a batch with at most ``inserts`` inserts and ``closes``
        closes be applied without any per-entry freeze check?

        Usefulness after a batch prefix with ``i`` inserts and ``c``
        closes is ``(live + i - c) / (total + i)``; for a fixed ``c``
        that is monotonically increasing in ``i`` (every insert is
        live), so the worst prefix is all-closes-first:
        ``(live - closes) / total``.  When even that floor stays at or
        above U_min — or no prefix can reach ``min_rows`` — no freeze
        can trigger anywhere inside the batch and the per-entry
        ``maybe_freeze`` calls may be suspended without changing a
        single archived byte.  Returns ``False`` (no clearance) in any
        case it cannot prove.
        """
        if self.umin is None or self.mode == "off":
            return True
        if self.stats.total + inserts < self.min_rows:
            return True
        if self.stats.total == 0:
            return False
        return (self.stats.live - closes) / self.stats.total >= self.umin

    @contextlib.contextmanager
    def suspend_freeze_checks(self):
        """Make ``maybe_freeze`` a no-op for the scope.

        Only valid under a proven :meth:`freeze_clearance`; the batch
        archiver holds this for one batch so the usefulness check runs
        once per batch instead of once per entry.
        """
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    # -- the freeze operation (paper Section 6.1 steps 1-4) -------------------------

    def freeze(self) -> None:
        """Freeze the live segment synchronously (``inline`` maintenance).

        Runs the background path's steps back to back: the logical
        :meth:`freeze_switch`, one unbounded :meth:`rewrite_step` per
        table, a :meth:`~repro.rdb.table.Table.compact` of every table
        and :meth:`finish_rewrite`.  The compaction is what keeps the
        heap dense — releasing only the pages the moves emptied leaves
        half-full pages behind, freeze after freeze.
        """
        started = time.perf_counter()
        with get_tracer().span(
            "archis.freeze",
            segno=self.live_segno,
            usefulness=self.stats.usefulness,
        ) as span:
            frozen_segno = self.freeze_switch()
            rewritten = 0
            for table_name in self._tables:
                rewritten += self.rewrite_step(
                    table_name, frozen_segno, None, sys.maxsize
                )[1]
            for table_name in self._tables:
                self.db.table(table_name).compact()
            self.finish_rewrite(frozen_segno)
            span.set("rows_rewritten", rewritten)
        _FREEZE_STALL.observe(time.perf_counter() - started)

    # -- background maintenance: logical switch now, sorted rewrite later ---------

    def freeze_switch(self) -> int:
        """The cheap half of a freeze: draw the boundary, copy live rows.

        Runs synchronously at the exact decision point an inline
        :meth:`freeze` would — same segment-table row, same boundary,
        same counter/stat updates — so segment boundaries and the
        ``clustering.*`` counters are identical across modes.  What it
        *defers* is the physically expensive part: rows of the frozen
        segment stay where they are (unsorted) until the maintenance
        worker relocates them with :meth:`rewrite_step`.  Live tuples
        must still be copied here — the tracker closes versions through
        the live segment, so the new live segment has to exist before
        the next archived change.

        Returns the frozen segment number, now queued in
        :attr:`pending_rewrites`.
        """
        if not self.segmented:
            raise ArchisError("cannot freeze: segmentation is disabled")
        boundary = max(self.last_change, self.live_start)
        frozen_segno = self.live_segno
        usefulness = self.stats.usefulness
        started = time.perf_counter()
        with get_tracer().span(
            "archis.freeze_switch", segno=frozen_segno, usefulness=usefulness
        ) as span:
            self.db.table(SEGMENT_TABLE).insert(
                (frozen_segno, self.live_start, boundary)
            )
            new_live = frozen_segno + 1
            live_count = 0
            for table_name in self._tables:
                live_count += self._copy_live(
                    table_name, frozen_segno, new_live
                )
            self.live_segno = new_live
            self.live_start = boundary + 1
            self.stats = SegmentStats(live=live_count, total=live_count)
            self.freeze_count += 1
            self.pending_rewrites.append(frozen_segno)
            span.set("live_rows_copied", live_count)
        _SWITCH_SECONDS.observe(time.perf_counter() - started)
        _SEGMENTS_FROZEN.inc()
        _LIVE_COPIED.inc(live_count)
        _USEFULNESS_AT_FREEZE.observe(usefulness)
        _LIVE_SEGNO.set(new_live)
        return frozen_segno

    def _copy_live(
        self, table_name: str, frozen_segno: int, new_live: int
    ) -> int:
        """Copy the frozen segment's live tuples into the new live segment.

        Reads only the frozen segment via the ``(segno, id)`` index, so
        the switch costs O(frozen segment), not O(heap) — the heap holds
        every older segment too, and a full scan here would put an
        ever-growing stall back on the ingest path the background mode
        exists to protect.  Dead versions (the segment's majority once
        usefulness fell below U_min) are skipped before decoding via a
        byte-level prefilter on the ``tend = FOREVER`` encoding.
        """
        table = self.db.table(table_name)
        seg_pos = table.schema.position("segno")
        tend_pos = table.schema.position("tend")
        old_suffix = encoded_int(frozen_segno)
        new_suffix = encoded_int(new_live)
        copies: list[tuple] = []
        payloads: list[bytes] = []
        for payload, row in table.index_records_containing(
            f"{table_name}_ix_id",
            (frozen_segno,),
            (frozen_segno + 1,),
            encoded_int(FOREVER),
            high_inclusive=False,
        ):
            if row[tend_pos] != FOREVER:
                continue
            fresh = list(row)
            fresh[seg_pos] = new_live
            fresh = tuple(fresh)
            copies.append(fresh)
            if payload.endswith(old_suffix):
                # segno is the trailing int field: splice the stored
                # bytes instead of re-encoding the whole row
                payloads.append(payload[: -len(old_suffix)] + new_suffix)
            else:  # pragma: no cover - defensive, schema always trails segno
                payloads.append(encode_record(fresh))
        # rows came straight out of this table's heap: already coerced
        table.insert_many(copies, validated=True, payloads=payloads)
        return len(copies)

    def rewrite_step(
        self,
        table_name: str,
        segno: int,
        cursor: int | None,
        budget: int,
    ) -> tuple[int | None, int, bool]:
        """Relocate one bounded slice of a frozen segment, id-sorted.

        Moves rows of ``segno`` with id **after** ``cursor`` to the heap
        tail in id order with one set-at-a-time delete + insert (the rids
        a per-row move would give: tombstones free no space), at most
        ``budget`` rows per step — but never splitting an id's version
        group, so a step boundary is always a clean id boundary and a
        resumed (or crash-recovered) rewrite can restart from any
        completed step.
        The move is content-neutral: only rids change.

        Returns ``(new_cursor, rows_moved, done)``; ``done`` means the
        segment has no rows past ``new_cursor`` in this table.
        """
        table = self.db.table(table_name)
        id_pos = table.schema.position("id")
        low = (segno,) if cursor is None else (segno, cursor)
        pairs: list[tuple[object, tuple]] = []
        done = True
        for rid, row in table.index_scan(
            f"{table_name}_ix_id",
            low=low,
            high=(segno + 1,),
            low_inclusive=cursor is None,
            high_inclusive=False,
        ):
            if (
                len(pairs) >= budget
                and row[id_pos] != pairs[-1][1][id_pos]
            ):
                done = False
                break
            pairs.append((rid, row))
        if not pairs:
            return cursor, 0, True
        table.delete_many([rid for rid, _ in pairs])
        # rows came straight out of this table's heap: already coerced
        table.insert_many([row for _, row in pairs], validated=True)
        _ROWS_REWRITTEN.inc(len(pairs))
        return pairs[-1][1][id_pos], len(pairs), done

    def finish_rewrite(self, segno: int) -> None:
        """Close out a background rewrite: reclaim space, invalidate caches.

        The moved rows left holes behind, clustered in pages that now
        hold nothing live, so releasing empty pages reclaims the space
        without touching a rid — a full :meth:`~repro.rdb.table.Table.compact`
        here would rebuild every index under the history write lock and
        stall concurrent appliers for O(heap), exactly the tail the
        background mode exists to remove.  :attr:`rewrites` bumps so
        rid-carrying caches keyed on :attr:`generation` drop the
        positions the step moves relocated.
        """
        for table_name in self._tables:
            self.db.table(table_name).prune_empty_pages()
        if segno in self.pending_rewrites:
            self.pending_rewrites.remove(segno)
        self.rewrites += 1

    # -- lookups used by the segment-restriction optimizer rule
    # (repro.plan.rules.restrict_segments, paper Sections 6.3/6.4) -------------

    def segment_for(self, date: int) -> int:
        """The segment whose period covers ``date`` (live when beyond all)."""
        for segno, segstart, segend in self.db.table(SEGMENT_TABLE).rows():
            if segstart <= date <= segend:
                return segno
        return self.live_segno

    def segments_overlapping(self, start: int, end: int) -> list[int]:
        """Segments whose periods overlap ``[start, end]``, live included."""
        out = []
        for segno, segstart, segend in self.db.table(SEGMENT_TABLE).rows():
            if segstart <= end and start <= segend:
                out.append(segno)
        if end >= self.live_start:
            out.append(self.live_segno)
        return out

    def archived_segments(self) -> list[tuple[int, int, int]]:
        """(segno, segstart, segend) for every frozen segment."""
        return sorted(self.db.table(SEGMENT_TABLE).rows())

    def segment_count(self) -> int:
        """Total segments including the live one."""
        return len(self.archived_segments()) + 1
