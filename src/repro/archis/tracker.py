"""Change tracking: current tables → H-tables (paper Section 5.2).

Two mechanisms, matching the paper's two deployments:

- **triggers** (ArchIS-DB2): a row trigger on the current table archives
  every change synchronously;
- **update log** (ArchIS-ATLaS): mutations append to the database's update
  log and :meth:`LogArchiver.apply_pending` archives them in batch.

Timestamp semantics follow the paper's sample data: when an attribute
changes on day T, the old version is closed with ``tend = T - 1`` and the
new version opens with ``tstart = T`` (adjacent closed intervals); a tuple
created and closed on the same day keeps a one-day interval.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.errors import ArchisError
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.rdb.database import Database
from repro.rdb.table import Table
from repro.util.timeutil import FOREVER
from repro.archis.clustering import SegmentManager
from repro.archis.htables import TrackedRelation

_CHANGES_APPLIED = get_registry().counter("tracker.changes_applied")
_INSERTS = get_registry().counter("tracker.inserts")
_UPDATES = get_registry().counter("tracker.updates")
_DELETES = get_registry().counter("tracker.deletes")


class HTableWriter:
    """Applies archival operations to the H-tables of one relation."""

    def __init__(
        self,
        db: Database,
        relation: TrackedRelation,
        segments: SegmentManager,
    ) -> None:
        self.db = db
        self.relation = relation
        self.segments = segments
        current = db.table(relation.name)
        self._key_pos = current.schema.position(relation.key)
        self._attr_pos = {
            attr: current.schema.position(attr)
            for attr in relation.attributes
        }
        # Batched-ingest version cache: (table_name, key) → mutable
        # [[rid, row], ...] of that key's live-segment versions.  Active
        # only between begin_batch()/end_batch(); every mutation this
        # writer performs keeps the cached pairs exactly what a fresh
        # index scan would return, so one lookup per (key, table) serves
        # a whole apply run instead of one scan per log entry.
        self._cache: dict[tuple[str, int], list[list]] | None = None
        self._cache_generation: tuple | None = None

    # -- batched ingest (amortized lookups) ---------------------------------------

    def key_of(self, row: tuple):
        """The tracked key value of a current-table row."""
        return row[self._key_pos]

    def begin_batch(self) -> None:
        """Start caching per-key version lookups (one apply run)."""
        self._cache = {}
        self._cache_generation = self.segments.generation

    def end_batch(self) -> None:
        self._cache = None
        self._cache_generation = None

    def warm(self, key: int) -> None:
        """Prime the cache for ``key`` across the key table and every
        attribute table — the batch archiver calls this in
        ``(table, key)`` order so lookups happen as one clustered run."""
        if self._cache is None:
            return
        self._cached_versions(self.db.table(self.relation.key_table), key)
        for attr in self._attr_pos:
            self._cached_versions(
                self.db.table(self.relation.attribute_table(attr)), key
            )

    def _cached_versions(self, table: Table, key: int) -> list[list] | None:
        """The cached live-segment versions of ``key``, or ``None`` when
        no batch is active.  A freeze moves ``segments.generation`` and
        rewrites every H-table, so any generation change drops the whole
        cache before it can serve a stale row."""
        if self._cache is None:
            return None
        generation = self.segments.generation
        if generation != self._cache_generation:
            self._cache.clear()
            self._cache_generation = generation
        slot = self._cache.get((table.name, key))
        if slot is None:
            slot = [
                [rid, row] for rid, row in self._scan_versions(table, key)
            ]
            self._cache[(table.name, key)] = slot
        return slot

    # -- row-level archival -------------------------------------------------------

    def archive_insert(self, row: tuple, when: int) -> None:
        _CHANGES_APPLIED.inc()
        _INSERTS.inc()
        self.segments.maybe_freeze(when)
        key = row[self._key_pos]
        self._upsert_version(self.relation.key_table, key, None, when)
        for attr, pos in self._attr_pos.items():
            self._upsert_version(
                self.relation.attribute_table(attr), key, row[pos], when
            )
        self.segments.touch(when)

    def archive_delete(self, row: tuple, when: int) -> None:
        _CHANGES_APPLIED.inc()
        _DELETES.inc()
        self.segments.maybe_freeze(when)
        key = row[self._key_pos]
        self._close_history(self.relation.key_table, key, when)
        for attr in self._attr_pos:
            self._close_history(
                self.relation.attribute_table(attr), key, when
            )
        self.segments.touch(when)

    def archive_update(self, new_row: tuple, old_row: tuple, when: int) -> None:
        _CHANGES_APPLIED.inc()
        _UPDATES.inc()
        self.segments.maybe_freeze(when)
        key = new_row[self._key_pos]
        old_key = old_row[self._key_pos]
        if key != old_key:
            raise ArchisError(
                f"relation {self.relation.name}: keys must remain invariant "
                f"({old_key} -> {key}); use a surrogate key"
            )
        for attr, pos in self._attr_pos.items():
            if new_row[pos] == old_row[pos]:
                continue
            table_name = self.relation.attribute_table(attr)
            self._close_history(table_name, key, when, same_day_ok=True)
            self._upsert_version(table_name, key, new_row[pos], when)
        self.segments.touch(when)

    def _upsert_version(
        self, table_name: str, key: int, value: object, when: int
    ) -> None:
        """Open a version starting at ``when``.

        Transaction time is day-granular: if a version of this key already
        starts on ``when`` (opened or closed earlier the same day), it is
        *rewritten in place* — only the day's final state is part of the
        history — instead of creating a duplicate ``(id, tstart)`` version.
        ``value=None`` means the key table (no value column).
        """
        table = self.db.table(table_name)
        tstart_pos = table.schema.position("tstart")
        tend_pos = table.schema.position("tend")
        cached = self._cached_versions(table, key)
        versions = (
            cached if cached is not None else self._scan_versions(table, key)
        )
        for item in versions:
            rid, row = item
            if row[tstart_pos] == when:
                fresh = list(row)
                if value is not None:
                    fresh[table.schema.position(
                        table.schema.column_names[1]
                    )] = value
                was_live = row[tend_pos] == FOREVER
                fresh[tend_pos] = FOREVER
                new_rid = table.update_rid(rid, tuple(fresh))
                if cached is not None:
                    # keep the cached pair exactly what a rescan would
                    # yield: the (possibly relocated) rid and the stored
                    # (type-coerced) row
                    item[0] = new_rid
                    item[1] = table.schema.validate_row(tuple(fresh))
                if not was_live:
                    self.segments.stats.live += 1
                return
        if value is None:
            new_row = (key, when, FOREVER, self.segments.live_segno)
        else:
            new_row = (key, value, when, FOREVER, self.segments.live_segno)
        rid = table.insert(new_row)
        if cached is not None:
            cached.append([rid, table.schema.validate_row(new_row)])
        self.segments.note_insert()

    def _close_history(
        self, table_name: str, key: int, when: int, same_day_ok: bool = False
    ) -> None:
        """Set tend of the live version of ``key`` in the live segment."""
        table = self.db.table(table_name)
        live_segno = self.segments.live_segno
        tstart_pos = table.schema.position("tstart")
        tend_pos = table.schema.position("tend")
        closed = 0
        skipped_same_day = False
        end = max(when - 1, 0)
        cached = self._cached_versions(table, key)
        if cached is not None:
            candidates = [
                item for item in cached if item[1][tend_pos] == FOREVER
            ]
        else:
            candidates = [
                [rid, row]
                for rid, row in self._live_rows(table, key, live_segno)
            ]
        for item in candidates:
            rid, row = item
            tstart = row[tstart_pos]
            if same_day_ok and tstart == when:
                # the version opened today will be rewritten in place by
                # the upsert that follows (day-granular transaction time)
                skipped_same_day = True
                continue
            new_row = list(row)
            final_end = max(tstart, end)
            new_row[tend_pos] = final_end
            new_rid = table.update_rid(rid, tuple(new_row))
            if cached is not None:
                item[0] = new_rid
                item[1] = table.schema.validate_row(tuple(new_row))
            closed += 1
            self.segments.note_close()
            if live_segno > 1 and tstart < self.segments.live_start:
                self._repair_forwarded(table, key, tstart, final_end)
        if closed == 0 and not skipped_same_day:
            raise ArchisError(
                f"{table_name}: no live history row for key {key}"
            )

    def _repair_forwarded(
        self, table: Table, key: int, tstart: int, end: int
    ) -> None:
        """Propagate a version's real ``tend`` into freeze-forwarded copies.

        A version still live at freeze time is copied into the new live
        segment and the frozen copy keeps ``tend = FOREVER`` — its real end
        is unknown when the segment freezes.  When the version finally
        closes, those frozen copies must close too, or segment-restricted
        reads (paper Sections 6.3/6.4) would report a stale open interval.
        Copies already moved into compressed blobs are immutable and simply
        not found here (the heap lookup misses), matching the paper's
        treatment of compressed segments as cold storage; the history
        table functions read such a version's end from its heap copy.
        """
        id_pos = table.schema.position("id")
        tstart_pos = table.schema.position("tstart")
        tend_pos = table.schema.position("tend")
        seg_pos = table.schema.position("segno")
        index = table.find_index(("segno", "id"))
        for segno in range(self.segments.live_segno - 1, 0, -1):
            if index is not None:
                candidates = table.index_scan(
                    index.name, (segno, key), (segno, key)
                )
            else:
                candidates = table.scan()
            found = False
            for rid, row in candidates:
                if (
                    row[id_pos] == key
                    and row[tstart_pos] == tstart
                    and row[seg_pos] == segno
                ):
                    found = True
                    if row[tend_pos] == FOREVER:
                        fresh = list(row)
                        fresh[tend_pos] = end
                        table.update_rid(rid, tuple(fresh))
            if not found:
                # copies exist in consecutive segments back to the one the
                # version opened in; the first miss ends the walk
                break

    def _scan_versions(self, table: Table, key: int):
        """All versions of ``key`` in the live segment (live or closed)."""
        id_pos = table.schema.position("id")
        seg_pos = table.schema.position("segno")
        live_segno = self.segments.live_segno
        index = table.find_index(("segno", "id")) or table.find_index(("id",))
        if index is not None:
            if index.columns[0] == "segno":
                candidates = table.index_scan(
                    index.name, (live_segno, key), (live_segno, key)
                )
            else:
                candidates = table.index_scan(index.name, (key,), (key,))
        else:
            candidates = table.scan()
        for rid, row in candidates:
            if row[id_pos] == key and row[seg_pos] == live_segno:
                yield rid, row

    @staticmethod
    def _live_rows(table: Table, key: int, live_segno: int):
        id_pos = table.schema.position("id")
        tend_pos = table.schema.position("tend")
        seg_pos = table.schema.position("segno")
        index = table.find_index(("segno", "id")) or table.find_index(("id",))
        if index is not None:
            if index.columns[0] == "segno":
                candidates = table.index_scan(
                    index.name, (live_segno, key), (live_segno, key)
                )
            else:
                candidates = table.index_scan(index.name, (key,), (key,))
        else:
            candidates = table.scan()
        for rid, row in candidates:
            if (
                row[id_pos] == key
                and row[tend_pos] == FOREVER
                and row[seg_pos] == live_segno
            ):
                yield rid, row


class TriggerTracker:
    """DB2-profile tracking: archives synchronously via row triggers."""

    def __init__(self, db: Database, writer: HTableWriter) -> None:
        self.db = db
        self.writer = writer
        self._table = db.table(writer.relation.name)
        self._table.add_trigger(self._on_change)

    def _on_change(self, op: str, row: tuple, old: tuple | None) -> None:
        when = self.db.current_date
        if op == "insert":
            self.writer.archive_insert(row, when)
        elif op == "update":
            self.writer.archive_update(row, old, when)
        elif op == "delete":
            self.writer.archive_delete(row, when)

    def detach(self) -> None:
        self._table.remove_trigger(self._on_change)


class LogTracker:
    """ATLaS-profile tracking: records to the update log, archives in batch.

    The paper uses update logs "for better performance": the current
    transaction only appends a log record; archival IO happens when the
    log drains.
    """

    def __init__(self, db: Database, writer: HTableWriter) -> None:
        self.db = db
        self.writer = writer
        self._table = db.table(writer.relation.name)
        self._table.add_trigger(self._on_change)

    def _on_change(self, op: str, row: tuple, old: tuple | None) -> None:
        self.db.update_log.append(
            self.db.current_date, self.writer.relation.name, op, row, old
        )

    def detach(self) -> None:
        self._table.remove_trigger(self._on_change)


def apply_log(
    db: Database, writers: dict[str, HTableWriter], predicate=None,
    history=None,
) -> int:
    """Drain the update log into H-tables, dispatching by relation name.

    Entries for untracked tables are dropped (they have no H-tables).
    With a ``predicate`` only matching entries are consumed — the
    transaction layer passes "the entry's transaction has committed" so
    in-flight writers' changes stay pending.  Returns the number of
    entries applied.

    ``history`` (a :class:`~repro.txn.locks.HistoryLock`) is held on the
    write side for the whole drain when given, so snapshot readers and
    the maintenance worker never interleave with a half-applied entry.
    A failure mid-drain re-queues the unapplied suffix (including the
    failing entry) before re-raising — drained entries are never lost.
    """
    applied = 0
    guard = history.write() if history is not None else nullcontext()
    with get_tracer().span("archis.apply_log") as span, guard:
        # Day order, not log order — see UpdateLog.drain_ordered.
        entries = db.update_log.drain_ordered(predicate)
        try:
            for index, entry in enumerate(entries):
                writer = writers.get(entry.table)
                if writer is None:
                    continue
                dispatch_entry(writer, entry)
                applied += 1
        except BaseException:
            db.update_log.requeue(entries[index:])
            raise
        span.set("applied", applied)
    return applied


def dispatch_entry(writer: HTableWriter, entry) -> None:
    """Archive one update-log entry through ``writer``.

    Shared by the row-at-a-time :func:`apply_log` and the
    :class:`~repro.archis.batch.BatchArchiver` so both paths perform the
    identical mutation per entry.
    """
    if entry.op == "insert":
        writer.archive_insert(entry.row, entry.timestamp)
    elif entry.op == "update":
        writer.archive_update(entry.row, entry.old, entry.timestamp)
    elif entry.op == "delete":
        writer.archive_delete(entry.row, entry.timestamp)
