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
that the directory admits — usually one.

The live segment is never compressed ("the current segment has a high
usefulness and is used for updates, thus not compressed").  A registered
table function ``unzip_<table>`` extracts rows from the blocks so the SQL
path can read compressed history exactly as the paper describes
("user-defined uncompression table functions are used to extract records
from each BLOB").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ArchisError
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.rdb.database import Database
from repro.rdb.types import ColumnType
from repro.archis.clustering import SegmentManager

_TABLES_COMPRESSED = get_registry().counter("blockzip.tables_compressed")
from repro.archis.compression import (
    DEFAULT_BLOCK_SIZE,
    compress_records,
    decompress_block,
)


@dataclass
class CompressedTableInfo:
    table: str
    blob_table: str
    segrange_table: str
    rows_compressed: int
    blocks: int


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
        self._register_table_function(table_name, blob_table)
        info = CompressedTableInfo(
            table_name, blob_table, segrange_table,
            len(frozen_rows), len(blocks),
        )
        self._compressed[table_name] = info
        return info

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

    def _register_table_function(self, table_name: str, blob_table: str) -> None:
        db = self.db

        def unzip(startblock: int | None = None, endblock: int | None = None):
            """Yield rows stored in the blocks [startblock, endblock]."""
            for blockno, _, _, _, blob_id, _ in db.table(blob_table).rows():
                if startblock is not None and blockno < startblock:
                    continue
                if endblock is not None and blockno > endblock:
                    continue
                yield from decompress_block(db.blobs.get(blob_id))

        db.register_table_function(f"unzip_{table_name}", unzip)

    # -- reads -------------------------------------------------------------------

    def _info(self, table_name: str) -> CompressedTableInfo:
        info = self._compressed.get(table_name)
        if info is None:
            raise ArchisError(f"{table_name} is not compressed")
        return info

    def zipped_segments(self, table_name: str) -> set[int]:
        """The frozen segments of ``table_name`` held in BLOBs (none when
        the table is not compressed).  A segment frozen after compression
        stays in the heap and is not listed."""
        info = self._compressed.get(table_name)
        if info is None:
            return set()
        return {row[0] for row in self.db.table(info.segrange_table).rows()}

    def _blocks_for(
        self,
        info: CompressedTableInfo,
        directory: dict,
        segnos: list[int] | None,
        key: tuple | None,
    ) -> list[int]:
        """Block numbers that can hold rows of ``segnos`` (all segments
        when ``None``) with ids in the inclusive ``key`` range.

        ``directory`` maps block numbers to ``((segno, startid),
        blob_id)``; only a keyed read consults it.
        """
        ranges = {
            segno: (startblock, endblock)
            for segno, startblock, endblock, _, _ in self.db.table(
                info.segrange_table
            ).rows()
        }
        wanted: set[int] = set()
        for segno in ranges if segnos is None else segnos:
            if segno not in ranges:
                continue
            startblock, endblock = ranges[segno]
            for blockno in range(startblock, endblock + 1):
                if key is not None:
                    if directory[blockno][0] > (segno, key[1]):
                        break  # this block and all later ones start above
                    following = directory.get(blockno + 1)
                    if following is not None and following[0] < (segno, key[0]):
                        continue  # the next block starts below the key
                wanted.add(blockno)
        return sorted(wanted)

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
        per segment.  Without either, every block is read.
        """
        info = self._info(table_name)
        directory = {
            blockno: ((segno, startid), blob_id)
            for blockno, segno, _, _, blob_id, startid in self.db.table(
                info.blob_table
            ).rows()
        }
        if segnos is None and key is None:
            blocks = sorted(directory)
        else:
            blocks = self._blocks_for(info, directory, segnos, key)
        rows: list[tuple] = []
        for blockno in blocks:
            blob_id = directory[blockno][1]
            rows.extend(decompress_block(self.db.blobs.get(blob_id)))
        if segnos is None and key is None:
            return rows
        schema = self.db.table(table_name).schema
        seg_pos = schema.position("segno")
        id_pos = schema.position("id")
        wanted = None if segnos is None else set(segnos)
        return [
            row
            for row in rows
            if (wanted is None or row[seg_pos] in wanted)
            and (key is None or key[0] <= row[id_pos] <= key[1])
        ]

    def blocks_touched(self, table_name: str, segnos: list[int]) -> int:
        """How many blocks a read of ``segnos`` decompresses."""
        # an unkeyed read takes whole segment ranges: no directory needed
        return len(self._blocks_for(self._info(table_name), {}, segnos, None))
