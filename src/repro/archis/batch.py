"""Batched archival ingest (the bulk-load-speed write path).

Row-at-a-time archival pays one H-table lookup per log entry: every
``_upsert_version``/``_close_history`` re-scans the key's versions, and
every entry runs its own segment-usefulness check.  The
:class:`BatchArchiver` drains the update log in configurable batches
and amortizes both costs:

* **One lookup per (key, table) per apply run.**  The batch is grouped
  per relation and key and sorted by ``(table, key, when)``; the
  writers' version caches are warmed in that clustered order (eagerly
  when the freeze clearance below holds, lazily on first touch
  otherwise), so each key's history is read once and every subsequent
  entry for the key appends/closes against the cached versions
  (:meth:`HTableWriter.begin_batch`).
* **One clustering check per batch.**  A conservative usefulness bound
  (:meth:`SegmentManager.freeze_clearance`) proves up front that no
  prefix of the batch can trigger a freeze; when it holds, the
  per-entry ``maybe_freeze`` calls are suspended for the batch.  When
  it cannot be proven (usefulness genuinely near U_min), the batch
  falls back to per-entry checks — freezes then happen on exactly the
  entry they would have under row-at-a-time apply.
* **One WAL commit per batch** (optional, ``durable=True``): the
  catalog and archive sidecars are staged, then the pager logs each
  page the batch dirtied once, followed by a single COMMIT frame,
  through the group-commit path, making each completed batch a
  crash-consistent recovery point.

Equivalence: entries are *applied* in the same day order as
:func:`~repro.archis.tracker.apply_log` and dispatched through the same
per-entry operations — the ``(table, key, when)`` sort drives only the
cache-warming read plan, never the write order — so batch apply
produces byte-identical H-tables, the same segment boundaries and the
same segment-manager counters as row-at-a-time apply.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.archis.tracker import dispatch_entry

_BATCHES = get_registry().counter("ingest.batches")
_ENTRIES = get_registry().counter("ingest.entries")
_ENTRIES_PER_BATCH = get_registry().histogram(
    "ingest.entries_per_batch", (1, 4, 16, 64, 256, 1024, 4096)
)
_SECONDS = get_registry().histogram("ingest.seconds")
_CLEARED = get_registry().counter("ingest.clearance_granted")
_UNCLEARED = get_registry().counter("ingest.clearance_denied")

#: default batch size when batching is requested without an explicit one
DEFAULT_BATCH_SIZE = 256


class BatchArchiver:
    """Drains one archive's update log in amortized batches."""

    def __init__(
        self,
        archis,
        batch_size: int = DEFAULT_BATCH_SIZE,
        durable: bool = False,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.archis = archis
        self.db = archis.db
        self.writers = archis.writers
        self.segments = archis.segments
        self.batch_size = batch_size
        # a durable batch needs somewhere durable to commit to
        self.durable = durable and (
            self.db.pager.path is not None and self.db.durability == "wal"
        )
        # entries dispatched inside the currently-running batch; on a
        # mid-batch failure everything past ``applied + _batch_progress``
        # is requeued rather than lost
        self._batch_progress = 0

    def apply(self, predicate=None) -> int:
        """Drain matching pending entries and archive them in batches.

        Returns the number of entries applied.  The writers' version
        caches live for the whole drain (every batch of one apply call
        shares them); entries for untracked tables are dropped, as in
        row-at-a-time apply.

        A failure partway through a batch re-queues the drained-but-
        unapplied suffix to the front of the update log before
        re-raising, so the next apply sees those entries again in the
        same relative order — a transient error never silently drops
        history.
        """
        entries = [
            entry
            for entry in self.db.update_log.drain_ordered(predicate)
            if entry.table in self.writers
        ]
        if not entries:
            return 0
        applied = 0
        try:
            with get_tracer().span(
                "archis.batch_apply",
                entries=len(entries),
                batch_size=self.batch_size,
            ) as span:
                for writer in self.writers.values():
                    writer.begin_batch()
                try:
                    for start in range(0, len(entries), self.batch_size):
                        batch = entries[start:start + self.batch_size]
                        self._batch_progress = 0
                        self._apply_batch(batch)
                        applied += len(batch)
                finally:
                    for writer in self.writers.values():
                        writer.end_batch()
                span.set("applied", applied)
        except BaseException:
            self.db.update_log.requeue(
                entries[applied + self._batch_progress:]
            )
            raise
        return applied

    # -- one batch ---------------------------------------------------------

    def _apply_batch(self, batch: list) -> None:
        with self.archis.history_lock.write():
            self._apply_batch_locked(batch)

    def _apply_batch_locked(self, batch: list) -> None:
        started = perf_counter()
        # Group per relation and key, sorted by (table, key, when):
        # warming the caches in this order turns the batch's H-table
        # reads into one clustered run per (key, table).  Only the read
        # plan is sorted — application below stays in day order.
        inserts, closes = self._worst_case(batch)
        if self.segments.freeze_clearance(inserts, closes):
            _CLEARED.inc()
            checks = self.segments.suspend_freeze_checks()
            # No freeze can occur mid-batch, so eagerly warmed slots are
            # guaranteed to survive the whole batch.
            touched = sorted(
                {
                    (entry.table, self.writers[entry.table].key_of(entry.row))
                    for entry in batch
                }
            )
            for table, key in touched:
                self.writers[table].warm(key)
        else:
            _UNCLEARED.inc()
            checks = contextlib.nullcontext()
            # A freeze may land mid-batch and invalidate every cached
            # slot; warming eagerly would scan keys whose slots die
            # before use.  Let the per-entry cache fill lazily instead.
        with checks:
            for entry in batch:
                dispatch_entry(self.writers[entry.table], entry)
                self._batch_progress += 1
        if self.durable:
            # the whole batch is applied; a commit failure must not
            # requeue (and later double-apply) its entries
            self._batch_progress = len(batch)
            self._commit_batch()
        _BATCHES.inc()
        _ENTRIES.inc(len(batch))
        _ENTRIES_PER_BATCH.observe(len(batch))
        _SECONDS.observe(perf_counter() - started)

    def _worst_case(self, batch: list) -> tuple[int, int]:
        """Upper bounds on (inserts, closes) any prefix of ``batch`` can
        perform.  Over-counting is safe — it only denies clearance and
        falls the batch back to per-entry freeze checks."""
        inserts = 0
        closes = 0
        for entry in batch:
            width = 1 + len(self.writers[entry.table].relation.attributes)
            if entry.op == "insert":
                inserts += width
            elif entry.op == "delete":
                closes += width
            else:  # update: close + reopen per changed attribute
                inserts += width - 1
                closes += width - 1
        return inserts, closes

    def _commit_batch(self) -> None:
        """Stage the sidecars, then log the batch's dirty pages and one
        COMMIT frame (group commit).

        Recovery after a crash then replays whole batches: the pages,
        the catalog and the archive metadata of every completed batch,
        and nothing of a torn one.
        """
        from repro.rdb.persistence import save_catalog
        from repro.archis.persistence import stage_archive

        save_catalog(self.db, _defer_checkpoint=True)
        stage_archive(self.archis)
        self.db.pager.commit(cause="ingest")


__all__ = ["BatchArchiver", "DEFAULT_BATCH_SIZE"]
