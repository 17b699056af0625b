"""Compressed archived segments as BLOBs (paper Section 8.2).

For an attribute history table ``R_a``, compression moves frozen-segment
rows into:

- ``R_a_blob(blockno, segno, startsid, endsid, blob_id, startid)`` — one
  row per BlockZIP block, where sids order rows by ``(segno, id)``.
  ``(segno, startid)`` is the key of the block's first row.  Blocks are
  written in key order, so those first keys form a directory: block ``i``
  can hold key ``(s, k)`` only if its first key is ``<= (s, k)`` and the
  next block's first key is ``>= (s, k)``;
- ``R_a_segrange(segno, startblock, endblock, segstart, segend)`` — the
  block range and period of each compressed segment.

A keyed read of segment ``s`` inflates only the blocks of ``s``'s range
that the directory admits — usually one — and cuts each inflated block
to the key's rows by bisection on its ``(segno, id)`` order (an
all-integer block decodes only the rows the bisection reads; see
:class:`~repro.archis.compression.RowRun`).

Both side tables are written once, by :meth:`CompressedArchive.compress_table`.
A reader therefore loads a table's directory (first keys, blob ids,
segment ranges) once, on its first read after compression or after
``ArchIS.open``, and keeps it.  A trigger on the two side tables drops
the kept copy if anything else writes them.

The live segment is never compressed ("the current segment has a high
usefulness and is used for updates, thus not compressed").  A registered
table function ``unzip_<table>`` extracts rows from the blocks so the SQL
path can read compressed history exactly as the paper describes
("user-defined uncompression table functions are used to extract records
from each BLOB").
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import ceil, floor
from typing import Collection

from repro.errors import ArchisError
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.rdb.database import Database
from repro.rdb.types import ColumnType
from repro.archis.clustering import SegmentManager

_TABLES_COMPRESSED = get_registry().counter("blockzip.tables_compressed")
from repro.archis.compression import (
    DEFAULT_BLOCK_SIZE,
    block_rows,
    compress_records,
)


@dataclass
class CompressedTableInfo:
    table: str
    blob_table: str
    segrange_table: str
    rows_compressed: int
    blocks: int


@dataclass(frozen=True)
class BlockDirectory:
    """One compressed table's side tables, read once.

    ``first_keys[b]`` is block ``b``'s first ``(segno, id)``, ``blob_ids[b]``
    its BLOB, and ``ranges`` maps each compressed segment to its inclusive
    block range.
    """

    first_keys: list[tuple]
    blob_ids: list[int]
    ranges: dict[int, tuple[int, int]]

    def blocks_for(self, segnos, key: tuple | None) -> list[int]:
        """Block numbers that can hold rows of ``segnos`` with ids in the
        inclusive ``key`` range (any id when ``None``).

        A block of a segment's range is admitted unless it starts above
        ``(segno, id_hi)`` or the next block starts below ``(segno,
        id_lo)``: with first keys in order, the admitted blocks are one
        run, found by bisection.
        """
        first = self.first_keys
        wanted: set[int] = set()
        for segno in segnos:
            if segno not in self.ranges:
                continue
            startblock, endblock = self.ranges[segno]
            if key is not None:
                startblock = max(startblock, bisect_left(first, (segno, key[0])) - 1)
                endblock = min(endblock, bisect_right(first, (segno, key[1])) - 1)
            wanted.update(range(startblock, endblock + 1))
        return sorted(wanted)


class CompressedArchive:
    """Manages BLOB-compressed frozen segments for one database."""

    def __init__(
        self,
        db: Database,
        segments: SegmentManager,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        self.db = db
        self.segments = segments
        self.block_size = block_size
        self._compressed: dict[str, CompressedTableInfo] = {}
        self._directories: dict[str, BlockDirectory] = {}

    @property
    def compressed_tables(self) -> dict[str, CompressedTableInfo]:
        return dict(self._compressed)

    def compress_table(self, table_name: str) -> CompressedTableInfo:
        """Move all frozen-segment rows of ``table_name`` into BLOBs."""
        if table_name in self._compressed:
            raise ArchisError(f"{table_name} is already compressed")
        with get_tracer().span(
            "archis.compress_table", table=table_name
        ) as span:
            info = self._compress_table(table_name)
            span.set("rows", info.rows_compressed)
            span.set("blocks", info.blocks)
        _TABLES_COMPRESSED.inc()
        return info

    def _compress_table(self, table_name: str) -> CompressedTableInfo:
        table = self.db.table(table_name)
        schema = table.schema
        seg_pos = schema.position("segno")
        id_pos = schema.position("id")
        live_segno = self.segments.live_segno

        frozen_rows: list[tuple] = []
        victims = []
        for rid, row in table.scan():
            if row[seg_pos] != live_segno:
                frozen_rows.append(row)
                victims.append(rid)
        # sid order: (segno, id), the storage order of archived segments
        frozen_rows.sort(key=lambda r: (r[seg_pos], r[id_pos]))

        blob_table = f"{table_name}_blob"
        segrange_table = f"{table_name}_segrange"
        self._create_side_tables(blob_table, segrange_table)

        blocks = compress_records(frozen_rows, self.block_size)
        blob_rows = self.db.table(blob_table)
        for blockno, block in enumerate(blocks):
            blob_id = self.db.blobs.put(block.data)
            first = frozen_rows[block.start_sid]
            blob_rows.insert(
                (blockno, first[seg_pos], block.start_sid, block.end_sid,
                 blob_id, first[id_pos])
            )
        self._fill_segranges(
            segrange_table, frozen_rows, blocks, seg_pos
        )
        for rid in victims:
            table.delete_rid(rid)
        table.compact()
        info = CompressedTableInfo(
            table_name, blob_table, segrange_table,
            len(frozen_rows), len(blocks),
        )
        self.adopt(info)
        return info

    def adopt(self, info: CompressedTableInfo) -> None:
        """Serve reads of a compressed table (just compressed, or
        restored by ``ArchIS.open``)."""
        self._compressed[info.table] = info
        self._directories.pop(info.table, None)

        def drop_directory(_op, _row, _old) -> None:
            self._directories.pop(info.table, None)

        for side_table in (info.blob_table, info.segrange_table):
            self.db.table(side_table).add_trigger(drop_directory)
        self._register_table_function(info.table)

    def _create_side_tables(self, blob_table: str, segrange_table: str) -> None:
        if not self.db.has_table(blob_table):
            self.db.create_table(
                blob_table,
                [
                    ("blockno", ColumnType.INT),
                    ("segno", ColumnType.INT),
                    ("startsid", ColumnType.INT),
                    ("endsid", ColumnType.INT),
                    ("blob_id", ColumnType.INT),
                    ("startid", ColumnType.INT),
                ],
            )
        if not self.db.has_table(segrange_table):
            self.db.create_table(
                segrange_table,
                [
                    ("segno", ColumnType.INT),
                    ("startblock", ColumnType.INT),
                    ("endblock", ColumnType.INT),
                    ("segstart", ColumnType.DATE),
                    ("segend", ColumnType.DATE),
                ],
            )

    def _fill_segranges(
        self, segrange_table: str, rows: list, blocks: list, seg_pos: int
    ) -> None:
        periods = {
            segno: (segstart, segend)
            for segno, segstart, segend in self.segments.archived_segments()
        }
        table = self.db.table(segrange_table)
        for segno, (segstart, segend) in sorted(periods.items()):
            touching = [
                blockno
                for blockno, block in enumerate(blocks)
                if rows
                and rows[block.start_sid][seg_pos] <= segno
                and rows[block.end_sid][seg_pos] >= segno
            ]
            if not touching:
                continue
            table.insert(
                (segno, min(touching), max(touching), segstart, segend)
            )

    def _register_table_function(self, table_name: str) -> None:
        blobs = self.db.blobs

        def unzip(startblock: int | None = None, endblock: int | None = None):
            """Yield rows stored in the blocks [startblock, endblock]."""
            blob_ids = self.directory(table_name).blob_ids
            first = 0 if startblock is None else max(ceil(startblock), 0)
            last = len(blob_ids) - 1
            if endblock is not None:
                last = min(floor(endblock), last)
            if last < first:
                return
            for blob_id in blob_ids[first : last + 1]:
                yield from block_rows(blobs.get(blob_id))

        self.db.register_table_function(f"unzip_{table_name}", unzip)

    # -- reads -------------------------------------------------------------------

    def _info(self, table_name: str) -> CompressedTableInfo:
        info = self._compressed.get(table_name)
        if info is None:
            raise ArchisError(f"{table_name} is not compressed")
        return info

    def directory(self, table_name: str) -> BlockDirectory:
        """The table's block directory, read from its side tables on first
        use and kept until they change."""
        directory = self._directories.get(table_name)
        if directory is None:
            info = self._info(table_name)
            blocks = sorted(
                (blockno, (segno, startid), blob_id)
                for blockno, segno, _, _, blob_id, startid in self.db.table(
                    info.blob_table
                ).rows()
            )
            ranges = {
                segno: (startblock, endblock)
                for segno, startblock, endblock, _, _ in self.db.table(
                    info.segrange_table
                ).rows()
            }
            directory = BlockDirectory(
                [first for _, first, _ in blocks],
                [blob_id for _, _, blob_id in blocks],
                ranges,
            )
            self._directories[table_name] = directory
        return directory

    def zipped_segments(self, table_name: str) -> Collection[int]:
        """The frozen segments of ``table_name`` held in BLOBs (none when
        the table is not compressed).  A segment frozen after compression
        stays in the heap and is not listed."""
        if table_name not in self._compressed:
            return ()
        return self.directory(table_name).ranges.keys()

    def read_rows(
        self,
        table_name: str,
        segnos: list[int] | None = None,
        key: tuple | None = None,
    ) -> list[tuple]:
        """Decompressed rows of a table's frozen segments.

        ``segnos`` restricts to those segments and ``key``, an inclusive
        ``(id_lo, id_hi)`` range, to those ids.  Only the blocks that can
        hold such rows are decompressed — the BlockZIP payoff: a snapshot
        query inflates a segment's blocks, a keyed one about one block
        per segment — and each is cut to the wanted rows by bisection on
        its ``(segno, id)`` order.  Without either, every block is read.
        """
        directory = self.directory(table_name)
        blobs = self.db.blobs
        if segnos is None and key is None:
            rows: list[tuple] = []
            for blob_id in directory.blob_ids:
                rows.extend(block_rows(blobs.get(blob_id)))
            return rows
        segnos = sorted(directory.ranges if segnos is None else set(segnos))
        schema = self.db.table(table_name).schema
        seg_pos = schema.position("segno")
        id_pos = schema.position("id")

        def sid(row: tuple) -> tuple:
            return (row[seg_pos], row[id_pos])

        first_keys = directory.first_keys
        rows = []
        for blockno in directory.blocks_for(segnos, key):
            block = block_rows(blobs.get(directory.blob_ids[blockno]))
            # the wanted segments this block can hold: from its first
            # key's segment to the next block's
            low = bisect_left(segnos, first_keys[blockno][0])
            high = (
                bisect_right(segnos, first_keys[blockno + 1][0])
                if blockno + 1 < len(first_keys)
                else len(segnos)
            )
            for segno in segnos[low:high]:
                if key is None:
                    start = bisect_left(block, (segno,), key=sid)
                    end = bisect_left(block, (segno + 1,), key=sid)
                else:
                    start = bisect_left(block, (segno, key[0]), key=sid)
                    end = bisect_right(block, (segno, key[1]), key=sid)
                rows.extend(block[start:end])
        return rows

    def blocks_touched(self, table_name: str, segnos: list[int]) -> int:
        """How many blocks a read of ``segnos`` decompresses."""
        return len(self.directory(table_name).blocks_for(segnos, None))
