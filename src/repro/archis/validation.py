"""Archive consistency checker.

Audits a live :class:`~repro.archis.system.ArchIS` instance against the
invariants the design depends on — the checks the test-suite applies to
synthetic histories, packaged for operators to run against real archives:

- **covering conditions** (paper Eq. 1-2): every tuple in a frozen segment
  satisfies ``tstart <= segend`` and ``tend >= segstart``;
- **segment contiguity**: frozen segment periods tile the timeline with no
  gaps or overlaps and increasing numbers;
- **history sanity**: per key, deduplicated attribute versions form
  disjoint, ordered intervals, and every current-table row has exactly one
  live history version;
- **blob integrity**: every compressed block decompresses, its sid
  range matches its contents, and the block directory's first keys
  ``(segno, startid)`` match the first rows and never decrease.

``check_archive`` returns a list of :class:`Violation`; empty means clean.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CompressionError
from repro.util.intervals import Interval
from repro.util.timeutil import FOREVER, format_date
from repro.archis.compression import decompress_block


@dataclass(frozen=True)
class Violation:
    """One detected inconsistency."""

    check: str
    table: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.table}: {self.detail}"


def check_archive(archis) -> list[Violation]:
    """Run every audit; returns all violations found.

    Blob integrity runs first: tables whose compressed blocks are corrupt
    are excluded from the row-level checks (which could not read them)
    rather than aborting the whole audit.

    A sharded coordinator is audited shard by shard (each shard store is
    a complete archive over its key subset), except live-consistency —
    the current table lives only in the coordinator, so live history is
    unioned across shards before comparing — plus one sharded-only
    check: every history row must sit in the shard its key routes to.
    """
    stores = getattr(archis, "shard_stores", ())
    if stores:
        out = []
        for index, store in enumerate(stores):
            out.extend(
                Violation(v.check, f"shard{index}/{v.table}", v.detail)
                for v in _check_single_store(store, live_consistency=False)
            )
        out.extend(check_sharded_live_rows(archis))
        out.extend(check_shard_ownership(archis))
        return out
    return _check_single_store(archis)


def _check_single_store(archis, live_consistency: bool = True) -> list[Violation]:
    out: list[Violation] = []
    blob_violations = check_blob_integrity(archis)
    out.extend(blob_violations)
    unreadable = {
        archis.archive.compressed_tables[t].table
        for t in archis.archive.compressed_tables
        for v in blob_violations
        if v.table == archis.archive.compressed_tables[t].blob_table
    }
    out.extend(check_segment_contiguity(archis))
    for relation in archis.relations.values():
        for table_name in relation.all_tables():
            if table_name in unreadable:
                continue
            out.extend(check_covering_conditions(archis, table_name))
        if not any(
            relation.attribute_table(a) in unreadable
            for a in relation.attributes
        ) and relation.key_table not in unreadable:
            out.extend(check_history_sanity(archis, relation))
            if live_consistency:
                out.extend(check_live_rows_match_current(archis, relation))
    return out


def check_sharded_live_rows(archis) -> list[Violation]:
    """Coordinator-wide live-consistency: shard keys are disjoint, so the
    union of per-shard live versions must match the current table."""
    out = []
    for relation in archis.relations.values():
        current = archis.db.table(relation.name)
        key_pos = current.schema.position(relation.key)
        current_keys = {row[key_pos] for row in current.rows()}
        live_keys = set()
        for store in archis.shard_stores:
            live_keys.update(
                row[0]
                for row in store.history(relation.name)
                if row[-1] == FOREVER
            )
        for key in current_keys - live_keys:
            out.append(
                Violation(
                    "live-consistency", relation.key_table,
                    f"current row {key} has no live history version in any "
                    "shard",
                )
            )
        for key in live_keys - current_keys:
            out.append(
                Violation(
                    "live-consistency", relation.key_table,
                    f"history row {key} is live but absent from the current "
                    "table",
                )
            )
    return out


def check_shard_ownership(archis) -> list[Violation]:
    """Every history row must live in the shard its key routes to."""
    out = []
    for relation in archis.relations.values():
        for index, store in enumerate(archis.shard_stores):
            misplaced = sorted(
                {
                    row[0]
                    for row in store.history(relation.name)
                    if archis.router.shard_for(row[0]) != index
                }
            )
            if misplaced:
                out.append(
                    Violation(
                        "shard-ownership",
                        f"shard{index}/{relation.key_table}",
                        f"keys {misplaced[:5]} route to other shards",
                    )
                )
    return out


def check_segment_contiguity(archis) -> list[Violation]:
    out = []
    segments = archis.segments.archived_segments()
    for (s1, _, end1), (s2, start2, _) in zip(segments, segments[1:]):
        if s2 != s1 + 1:
            out.append(
                Violation(
                    "segment-contiguity", "segment",
                    f"segment numbers jump from {s1} to {s2}",
                )
            )
        if start2 != end1 + 1:
            out.append(
                Violation(
                    "segment-contiguity", "segment",
                    f"gap/overlap between segment {s1} (ends "
                    f"{format_date(end1)}) and {s2} (starts "
                    f"{format_date(start2)})",
                )
            )
    if segments and archis.segments.live_start != segments[-1][2] + 1:
        out.append(
            Violation(
                "segment-contiguity", "segment",
                "live segment does not start right after the last frozen one",
            )
        )
    return out


def check_covering_conditions(archis, table_name: str) -> list[Violation]:
    out = []
    periods = {
        segno: (segstart, segend)
        for segno, segstart, segend in archis.segments.archived_segments()
    }
    table = archis.db.table(table_name)
    seg_pos = table.schema.position("segno")
    tstart_pos = table.schema.position("tstart")
    tend_pos = table.schema.position("tend")
    rows = list(table.rows())
    if table_name in archis.archive.compressed_tables:
        rows.extend(archis.archive.read_rows(table_name))
    for row in rows:
        segno = row[seg_pos]
        if segno not in periods:
            continue  # live segment
        segstart, segend = periods[segno]
        if row[tstart_pos] > segend:
            out.append(
                Violation(
                    "covering-eq1", table_name,
                    f"row {row[:2]} starts after its segment ends",
                )
            )
        if row[tend_pos] < segstart:
            out.append(
                Violation(
                    "covering-eq2", table_name,
                    f"row {row[:2]} ends before its segment starts",
                )
            )
    return out


def check_history_sanity(archis, relation) -> list[Violation]:
    out = []
    for attribute in relation.attributes:
        table_name = relation.attribute_table(attribute)
        by_key: dict[object, list[Interval]] = {}
        for row in archis.history(relation.name, attribute):
            key, tstart, tend = row[0], row[-2], row[-1]
            if tstart > tend:
                out.append(
                    Violation(
                        "history-sanity", table_name,
                        f"key {key}: inverted interval "
                        f"[{format_date(tstart)}, {format_date(tend)}]",
                    )
                )
                continue
            by_key.setdefault(key, []).append(Interval(tstart, tend))
        for key, intervals in by_key.items():
            ordered = sorted(intervals)
            for left, right in zip(ordered, ordered[1:]):
                if left.end >= right.start:
                    out.append(
                        Violation(
                            "history-sanity", table_name,
                            f"key {key}: overlapping versions {left} / {right}",
                        )
                    )
    return out


def check_live_rows_match_current(archis, relation) -> list[Violation]:
    out = []
    current_keys = set()
    current = archis.db.table(relation.name)
    key_pos = current.schema.position(relation.key)
    for row in current.rows():
        current_keys.add(row[key_pos])
    live_keys = {
        row[0]
        for row in archis.history(relation.name)
        if row[-1] == FOREVER
    }
    for key in current_keys - live_keys:
        out.append(
            Violation(
                "live-consistency", relation.key_table,
                f"current row {key} has no live history version",
            )
        )
    for key in live_keys - current_keys:
        out.append(
            Violation(
                "live-consistency", relation.key_table,
                f"history row {key} is live but absent from the current table",
            )
        )
    return out


def check_blob_integrity(archis) -> list[Violation]:
    """Every block decompresses to its sid range, its ``startid`` is the
    id of its first row, and the first keys ``(segno, startid)`` never
    decrease in block order — the directory keyed reads rely on."""
    out = []
    for table_name, info in archis.archive.compressed_tables.items():
        id_pos = archis.db.table(table_name).schema.position("id")
        blob_table = archis.db.table(info.blob_table)

        def violation(blockno, detail):
            out.append(
                Violation(
                    "blob-integrity", info.blob_table,
                    f"block {blockno}: {detail}",
                )
            )

        previous = None
        for blockno, segno, startsid, endsid, blob_id, startid in sorted(
            blob_table.rows()
        ):
            first_key = (segno, startid)
            if previous is not None and first_key < previous:
                violation(
                    blockno,
                    f"first key {first_key} sorts before the previous "
                    f"block's {previous}",
                )
            previous = first_key
            try:
                rows = decompress_block(archis.db.blobs.get(blob_id))
            except (CompressionError, Exception) as exc:  # noqa: BLE001
                violation(blockno, exc)
                continue
            expected = endsid - startsid + 1
            if len(rows) != expected:
                violation(
                    blockno,
                    f"{len(rows)} rows, sid range says {expected}",
                )
            if rows and rows[0][id_pos] != startid:
                violation(
                    blockno,
                    f"startid {startid} but the first row's id is "
                    f"{rows[0][id_pos]}",
                )
    return out
