"""The one registered read of archived H-table rows.

``history_<table>([seg_lo, seg_hi[, id_lo, id_hi]])`` yields the
versions held in segments ``seg_lo..seg_hi`` (a NULL bound is open) with
ids in ``id_lo..id_hi`` (any id without the pair; a NULL or non-numeric
bound matches none), ordered by ``(id, tstart)``.  The optimizer passes
the segments a snapshot or slicing window needs, and as ``id_lo,
id_hi`` the key a query pins (``id = c`` gives ``c, c``) or the range
it reads (``id BETWEEN lo AND hi``, stated or derived across a join
key); see :func:`repro.plan.rules.restrict_segments`.

Frozen segments carry copies of the tuples live at each freeze (paper
Section 6.1, the redundancy of Eq. 3), so each version, ``(id,
tstart)``, must be kept once.  The read keeps a row of segment *s* only
if *s* is the first segment it reads or ``tstart >= segstart(s)``: a
freeze sets ``segstart(s + 1) = segend(s) + 1`` and every row archived
after it starts later (``SegmentManager.maybe_freeze`` waits for a later
change day, ``freeze_floor`` for in-flight transactions), so an earlier
start marks exactly a forwarded copy of a row of *s - 1* (the invariant
:func:`repro.archis.validation.check_segment_copies` audits).  The kept
copy, the first in range, has the version's true ``tend``: closing a
version closes its heap copies (``HTableWriter._repair_forwarded``),
and a BLOB copy open at compression takes its end from its heap copy
(:func:`_with_heap_ends`).  A row's ``segno`` is its first copy's.

A frozen segment listed in ``<table>_segrange`` is read from its
BlockZIP blocks (with a key, only the blocks the first-key directory
admits; see :mod:`repro.archis.blobstore`), every other segment from the
heap: through the ``(segno, id)`` index per segment when the read has a
key or a segment range, by one heap scan for the whole history.

Every reader of archived rows (``ArchIS.history()``, ``publish()``, the
XQuery native fallback, translated, ``FOR SYSTEM_TIME`` and snapshot
queries) goes through it, or through the ``segno = k`` scan the planner
puts in place of a one-segment read; only the invariant checker
(:mod:`repro.archis.validation`) reads the raw copies.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.util.timeutil import FOREVER

if TYPE_CHECKING:
    from repro.archis.system import ArchIS


def register_history_functions(archis: "ArchIS", table_name: str) -> None:
    """Register ``history_<t>`` for one H-table."""
    db = archis.db

    def history_fn(
        seg_lo: int | None = None, seg_hi: int | None = None, *key
    ) -> Iterator[tuple]:
        """Each version of segments ``seg_lo..seg_hi`` and ids ``key``
        once, with the ``segno`` of its first copy in range."""
        if key and not _key_fits(key):
            return
        key = key or None
        table = db.table(table_name)
        schema = table.schema
        seg_pos = schema.position("segno")
        tstart_pos = schema.position("tstart")
        segments = archis.segments
        # segno -> the earliest tstart of a row that is not a forwarded
        # copy; the first segment read keeps every row, so a read of one
        # segment needs no segment-table read
        floors = {seg_lo: float("-inf")}
        if seg_lo is None or seg_lo != seg_hi:
            floors = {
                segno: segstart
                for segno, segstart, _ in (
                    *segments.archived_segments(),
                    (segments.live_segno, segments.live_start, None),
                )
                if (seg_lo is None or seg_lo <= segno)
                and (seg_hi is None or segno <= seg_hi)
            }
        if not floors:
            return
        floors[min(floors)] = float("-inf")

        def first_copies(rows) -> list[tuple]:
            return [row for row in rows if row[tstart_pos] >= floors[row[seg_pos]]]

        archive = archis.archive
        zipped = archive.zipped_segments(table_name)
        whole = seg_lo is None and seg_hi is None and key is None
        if whole:
            heap = list(table.rows())
            kept = first_copies(heap)
            blob_rows = archive.read_rows(table_name) if zipped else ()
        else:
            kept = first_copies(
                _heap_rows(table, [s for s in floors if s not in zipped], key)
            )
            in_blobs = [s for s in floors if s in zipped]
            blob_rows = (
                archive.read_rows(table_name, in_blobs, key) if in_blobs else ()
            )
        if blob_rows:
            kept.extend(_with_heap_ends(
                first_copies(blob_rows), schema,
                heap if whole else _heap_rows(table, [max(zipped) + 1], key),
            ))
        kept.sort(key=itemgetter(schema.position("id"), tstart_pos))
        yield from kept

    db.register_table_function(f"history_{table_name}", history_fn)


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
    blob_rows: list[tuple], schema, heap_rows: Iterable[tuple]
) -> Iterator[tuple]:
    """BLOB rows with the real end of versions closed after compression.

    A BLOB copy is immutable: a version still open when its segment was
    compressed keeps ``tend = FOREVER`` there, and its end is written
    only to its heap copies, one of them in the segment that was live at
    compression (see ``HTableWriter._repair_forwarded``).  ``heap_rows``,
    read only when a BLOB row is open, holds those copies.
    """
    id_pos = schema.position("id")
    tstart_pos = schema.position("tstart")
    tend_pos = schema.position("tend")
    if all(row[tend_pos] != FOREVER for row in blob_rows):
        yield from blob_rows
        return
    ends = {
        (row[id_pos], row[tstart_pos]): row[tend_pos] for row in heap_rows
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
