"""Registered table functions that abstract H-table storage.

Three access paths the translator and the optimizer use as FROM sources:

- ``history_<table>([id_lo, id_hi])`` — the deduplicated full history
  (``(id, tstart)``-deduped keeping the closed version), ordered by
  ``(id, tstart)``.  Needed in segmented mode because frozen segments
  carry redundant copies of tuples live at freeze time (paper Section
  6.2).
- ``seg_<table>(lo, hi[, id_lo, id_hi])`` — the rows of segments
  ``lo..hi`` (paper Section 8.2's uncompression table functions).
- ``slice_<table>(lo, hi[, id_lo, id_hi])`` — ``seg_`` with each
  version kept only in its last copy inside the range (its highest
  ``segno``).

The optional trailing ``id_lo, id_hi`` arguments restrict every path to
ids in that inclusive range; the optimizer appends them when a query pins
``id = k`` (see :func:`repro.plan.rules.restrict_segments`).  A NULL or
non-numeric key matches no id.

All three read through one row source, ``rows(segnos, key)``, segment
by segment: a frozen segment listed in ``<table>_segrange`` is read from
its BlockZIP blocks (with a key, only the blocks the first-key directory
admits; see :mod:`repro.archis.blobstore`), and every other segment —
the live one, and any frozen after ``compress_archive()`` — from the
heap.  With a key the heap is probed through the ``(segno, id)`` index
once per segment; without one the whole history is a heap scan.  Rows
come out in the table's column order (``id, [value], tstart, tend,
segno``).

``rows()`` is the only reader of archived H-table rows:
``ArchIS.history()``, ``ArchIS.publish()`` (and the XQuery native
fallback) read ``history_<t>()``, and every ``FOR SYSTEM_TIME``,
translated or snapshot query — a tracked current table read under a
pinned day is one, see :mod:`repro.plan.build` — reads whichever of
the three the planner picks.  Only
the invariant checker (:mod:`repro.archis.validation`) reads the raw
copies, because its job is to inspect them.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Iterator

from repro.util.timeutil import FOREVER

if TYPE_CHECKING:
    from repro.archis.system import ArchIS


def register_history_functions(archis: "ArchIS", table_name: str) -> None:
    """Register ``history_<t>``, ``seg_<t>`` and ``slice_<t>`` for one
    H-table."""
    db = archis.db

    def rows(segnos: list[int] | None, key: tuple) -> Iterator[tuple]:
        """Rows of ``segnos`` (every segment when ``None``) whose id lies
        in the inclusive ``key`` range (any id when ``key`` is empty)."""
        table = db.table(table_name)
        if key and not _key_fits(key):
            return
        key = key or None
        archive = archis.archive
        zipped = archive.zipped_segments(table_name)
        if segnos is None and key is None:
            yield from table.rows()
            if zipped:
                yield from archive.read_rows(table_name)
            return
        if segnos is None:
            segments = archis.segments
            segnos = [s for s, _, _ in segments.archived_segments()]
            segnos.append(segments.live_segno)
        in_blobs = [s for s in segnos if s in zipped]
        if in_blobs:
            yield from _with_heap_ends(
                archive.read_rows(table_name, in_blobs, key),
                table, max(zipped) + 1, key,
            )
        yield from _heap_rows(table, [s for s in segnos if s not in zipped], key)

    def history_fn(*key) -> Iterator[tuple]:
        table = db.table(table_name)
        id_pos = table.schema.position("id")
        tstart_pos = table.schema.position("tstart")
        tend_pos = table.schema.position("tend")
        version_of = itemgetter(id_pos, tstart_pos)
        best: dict[tuple, tuple] = {}
        for row in rows(None, key):
            version = version_of(row)
            kept = best.setdefault(version, row)
            if row[tend_pos] < kept[tend_pos]:
                best[version] = row
        # versions are unique, so ordering the keys orders the rows
        yield from map(best.__getitem__, sorted(best))

    def seg_fn(lo: int, hi: int, *key) -> Iterator[tuple]:
        return rows(list(range(lo, hi + 1)), key)

    def slice_fn(lo: int, hi: int, *key) -> Iterator[tuple]:
        """Deduplicated rows of segments ``lo..hi`` for slicing queries.

        Frozen segments carry forward copies of tuples live at freeze time
        (Section 6.1 step 3), so a window spanning several segments would
        count those versions once per segment.  Each version —
        ``(id, tstart)``, as in ``history_fn`` — is kept only in its
        *last* copy within the range, the one with the highest ``segno``,
        which also carries the version's true end timestamp.  No per-row
        ``tend`` test can tell the copies apart: a version opened and
        closed on a segment's boundary day and one still live at that
        freeze (and closed the day after) both have ``tend == segend``.
        """
        table = db.table(table_name)
        id_pos = table.schema.position("id")
        tstart_pos = table.schema.position("tstart")
        seg_pos = table.schema.position("segno")
        last: dict[tuple, tuple] = {}
        for row in seg_fn(lo, hi, *key):
            version = (row[id_pos], row[tstart_pos])
            kept = last.pop(version, None)
            if kept is not None and kept[seg_pos] > row[seg_pos]:
                row = kept
            last[version] = row
        yield from last.values()

    db.register_table_function(f"history_{table_name}", history_fn)
    db.register_table_function(f"seg_{table_name}", seg_fn)
    db.register_table_function(f"slice_{table_name}", slice_fn)


def _key_fits(key: tuple) -> bool:
    """Whether an ``(id_lo, id_hi)`` range can match the (integer) ids:
    NULL never compares equal, and neither does a non-number — such a
    range matches nothing, and must not reach an index, where the mixed
    types would not compare."""
    return all(
        isinstance(bound, (int, float)) and not isinstance(bound, bool)
        for bound in key
    )


def _with_heap_ends(
    blob_rows: list[tuple], table, segno: int, key: tuple | None
) -> Iterator[tuple]:
    """BLOB rows with the real end of versions closed after compression.

    A BLOB copy is immutable: a version still open when its segment was
    compressed keeps ``tend = FOREVER`` there, and its end is written
    only to its heap copy in ``segno``, the segment that was live at
    compression (see ``HTableWriter._repair_forwarded``).  The history's
    dedup already keeps that closed copy; segment reads take its end
    from there.
    """
    schema = table.schema
    id_pos = schema.position("id")
    tstart_pos = schema.position("tstart")
    tend_pos = schema.position("tend")
    if all(row[tend_pos] != FOREVER for row in blob_rows):
        yield from blob_rows
        return
    ends = {
        (row[id_pos], row[tstart_pos]): row[tend_pos]
        for row in _heap_rows(table, [segno], key)
    }
    for row in blob_rows:
        if row[tend_pos] == FOREVER:
            end = ends.get((row[id_pos], row[tstart_pos]), FOREVER)
            row = row[:tend_pos] + (end,) + row[tend_pos + 1:]
        yield row


def _heap_rows(table, segnos: list[int], key: tuple | None) -> Iterator[tuple]:
    """Heap rows of ``segnos``: one ``(segno, id)`` index range per
    segment, or a filtered scan when the table has no such index (an
    unsegmented archive)."""
    index = table.find_index(("segno", "id"))
    if index is None:
        seg_pos = table.schema.position("segno")
        id_pos = table.schema.position("id")
        wanted = set(segnos)
        for row in table.rows():
            if row[seg_pos] in wanted and (
                key is None or key[0] <= row[id_pos] <= key[1]
            ):
                yield row
        return
    for segno in segnos:
        if key is None:
            hits = table.index_scan(
                index.name, (segno,), (segno + 1,), high_inclusive=False
            )
        else:
            hits = table.index_scan(
                index.name, (segno, key[0]), (segno, key[1])
            )
        for _, row in hits:
            yield row
