"""Tests for BlockZIP (Algorithm 2) and BLOB-backed compressed segments."""

import pytest

from repro.errors import ArchisError, CompressionError
from repro.obs import get_registry
from repro.archis.compression import (
    DEFAULT_BLOCK_SIZE,
    compress_records,
    compression_ratio,
    decompress_block,
    iter_all_rows,
)
from repro.util.timeutil import format_date, parse_date

from tests.archis.conftest import make_archis
from tests.archis.test_clustering import churn


def sample_rows(n=2000):
    return [
        (100000 + i, 40000 + (i % 50) * 10, 6000 + i, 6400 + i, 1 + i // 700)
        for i in range(n)
    ]


class TestBlockZip:
    def test_roundtrip_all_rows(self):
        rows = sample_rows()
        blocks = compress_records(rows)
        assert list(iter_all_rows(blocks)) == rows

    def test_empty_input(self):
        assert compress_records([]) == []

    def test_single_row(self):
        blocks = compress_records([(1, "x", 2)])
        assert len(blocks) == 1
        assert decompress_block(blocks[0]) == [(1, "x", 2)]

    def test_sids_are_contiguous(self):
        blocks = compress_records(sample_rows())
        assert blocks[0].start_sid == 0
        for left, right in zip(blocks, blocks[1:]):
            assert right.start_sid == left.end_sid + 1
        assert blocks[-1].end_sid == 1999

    def test_blocks_near_target_size(self):
        blocks = compress_records(sample_rows(), block_size=DEFAULT_BLOCK_SIZE)
        assert len(blocks) > 1
        for block in blocks[:-1]:
            assert len(block.data) <= 2 * DEFAULT_BLOCK_SIZE

    def test_block_granular_access(self):
        """Reading one block yields exactly its sid range: the BlockZIP
        property that makes snapshot queries cheap (Section 8.1)."""
        rows = sample_rows()
        blocks = compress_records(rows)
        middle = blocks[len(blocks) // 2]
        got = decompress_block(middle)
        assert got == rows[middle.start_sid : middle.end_sid + 1]

    def test_compression_actually_compresses(self):
        rows = sample_rows(5000)
        blocks = compress_records(rows)
        raw = sum(len(str(r)) for r in rows)  # rough raw size
        assert compression_ratio(blocks, raw) < 0.5

    def test_corrupt_block_raises(self):
        with pytest.raises(CompressionError):
            decompress_block(b"not zlib data")

    def test_custom_block_size(self):
        small = compress_records(sample_rows(), block_size=1000)
        large = compress_records(sample_rows(), block_size=16000)
        assert len(small) > len(large)


class TestCompressedArchive:
    @pytest.fixture
    def frozen_archis(self):
        archis = make_archis(umin=0.4, min_segment_rows=8)
        churn(archis, employees=12, rounds=12)
        assert archis.segments.freeze_count >= 1
        return archis

    def test_compress_moves_frozen_rows(self, frozen_archis):
        table = frozen_archis.db.table("employee_salary")
        live = frozen_archis.segments.live_segno
        frozen_before = sum(1 for r in table.rows() if r[4] != live)
        info = frozen_archis.archive.compress_table("employee_salary")
        assert info.rows_compressed == frozen_before
        assert all(r[4] == live for r in table.rows())

    def test_live_segment_never_compressed(self, frozen_archis):
        frozen_archis.archive.compress_table("employee_salary")
        table = frozen_archis.db.table("employee_salary")
        assert table.row_count > 0  # live rows stay in the heap

    def test_read_rows_roundtrip(self, frozen_archis):
        table = frozen_archis.db.table("employee_salary")
        live = frozen_archis.segments.live_segno
        frozen_rows = sorted(
            r for r in table.rows() if r[4] != live
        )
        frozen_archis.archive.compress_table("employee_salary")
        got = sorted(frozen_archis.archive.read_rows("employee_salary"))
        assert got == frozen_rows

    def test_segment_restricted_read_touches_fewer_blocks(self, frozen_archis):
        frozen_archis.archive.compress_table("employee_salary")
        segments = [s for s, _, _ in frozen_archis.segments.archived_segments()]
        one = frozen_archis.archive.blocks_touched("employee_salary", segments[:1])
        all_segs = frozen_archis.archive.blocks_touched("employee_salary", segments)
        assert one <= all_segs

    def test_segment_restricted_rows_match_filter(self, frozen_archis):
        table = frozen_archis.db.table("employee_salary")
        live = frozen_archis.segments.live_segno
        target = frozen_archis.segments.archived_segments()[0][0]
        expected = sorted(
            r for r in table.rows() if r[4] == target
        )
        frozen_archis.archive.compress_table("employee_salary")
        got = sorted(
            r
            for r in frozen_archis.archive.read_rows("employee_salary", [target])
            if r[4] == target
        )
        assert got == expected

    def test_unzip_table_function_via_sql(self, frozen_archis):
        frozen_archis.archive.compress_table("employee_salary")
        result = frozen_archis.db.sql(
            "SELECT count(*) FROM TABLE(unzip_employee_salary()) "
            "AS z(id, salary, tstart, tend, segno)"
        )
        assert result.scalar() > 0

    def test_double_compress_rejected(self, frozen_archis):
        frozen_archis.archive.compress_table("employee_salary")
        with pytest.raises(ArchisError):
            frozen_archis.archive.compress_table("employee_salary")

    def test_compress_archive_all_tables(self, frozen_archis):
        report = frozen_archis.compress_archive()
        assert "employee_salary" in report
        assert "employee_id" in report

    def test_history_identical_after_compression(self, frozen_archis):
        before = frozen_archis.history("employee", "salary")
        frozen_archis.compress_archive()
        history_fn = frozen_archis.db.table_function("history_employee_salary")
        after = [(r[0], r[1], r[2], r[3]) for r in history_fn()]
        assert after == [tuple(r) for r in before]

    def test_snapshot_identical_after_compression(self, frozen_archis):
        date = parse_date("1995-03-15")
        before = sorted(frozen_archis.snapshot_rows("employee", "salary", date).rows)
        frozen_archis.compress_archive()
        after = sorted(frozen_archis.snapshot_rows("employee", "salary", date).rows)
        assert before == after

    def test_storage_shrinks_with_compression(self, frozen_archis):
        before = frozen_archis.storage_bytes()
        frozen_archis.compress_archive()
        after = frozen_archis.storage_bytes()
        assert after < before


class TestSegmentsFrozenAfterCompression:
    """A segment frozen after ``compress_archive()`` stays in the heap;
    windowed reads must still find it (the per-segment source rule)."""

    @pytest.fixture
    def refrozen(self):
        archis = make_archis(umin=0.4, min_segment_rows=8)
        churn(archis, employees=12, rounds=12)
        archis.compress_archive()
        zipped = len(archis.segments.archived_segments())
        emp = archis.db.table("employee")
        for round_no in range(12):
            archis.db.advance_days(30)
            for i in range(12):
                emp.update_where(
                    lambda r, i=i: r["id"] == i,
                    {"salary": 5000 + round_no * 100 + i},
                )
        archis.apply_pending()
        # both kinds are present: segments in BLOBs and frozen heap ones
        assert 0 < zipped < len(archis.segments.archived_segments())
        return archis

    @staticmethod
    def window_sql(start, end, key):
        where = "" if key is None else f" WHERE t.id = {key}"
        return (
            "SELECT t.id, t.salary, t.tstart, t.tend FROM employee_salary t "
            f"FOR SYSTEM_TIME FROM DATE '{format_date(start)}' "
            f"TO DATE '{format_date(end)}'{where}"
        )

    @pytest.mark.parametrize("key", [None, 3])
    def test_every_frozen_segment_answers(self, refrozen, key):
        history = [tuple(r) for r in refrozen.history("employee", "salary")]
        if key is not None:
            history = [r for r in history if r[0] == key]
        for segno, start, end in refrozen.segments.archived_segments():
            day = (start + end) // 2
            where = "" if key is None else f" WHERE t.id = {key}"
            as_of = refrozen.sql(
                "SELECT t.id, t.salary FROM employee_salary t "
                f"FOR SYSTEM_TIME AS OF DATE '{format_date(day)}'{where}"
            ).rows
            assert sorted(as_of) == sorted(
                (i, s) for i, s, ts, te in history if ts <= day <= te
            ), f"AS OF in segment {segno}"
            window = refrozen.sql(self.window_sql(start, end, key)).rows
            assert sorted(window) == sorted(
                r for r in history if r[2] < end and r[3] >= start
            ), f"FROM..TO in segment {segno}"

    def test_snapshot_rows_reads_the_heap_segment(self, refrozen):
        history = refrozen.history("employee", "salary")
        for segno, start, end in refrozen.segments.archived_segments():
            day = (start + end) // 2
            got = refrozen.snapshot_rows("employee", "salary", day).rows
            assert sorted(got) == sorted(
                (i, s) for i, s, ts, te in history if ts <= day <= te
            ), f"snapshot in segment {segno}"


class TestKeyedBlockReads:
    """The ``(segno, startid)`` first-key directory: a keyed read inflates
    only the blocks that can hold the key, and loses no row of it — also
    when one key's versions straddle a block boundary."""

    @pytest.fixture
    def small_blocks(self):
        archis = make_archis(umin=0.4, min_segment_rows=8)
        churn(archis, employees=12, rounds=24)
        archis.archive.block_size = 120  # a few rows per block
        archis.compress_archive()
        return archis

    def test_every_key_reads_exactly_its_rows(self, small_blocks):
        archive = small_blocks.archive
        everything = archive.read_rows("employee_salary")
        zipped = sorted(archive.zipped_segments("employee_salary"))
        info = archive.compressed_tables["employee_salary"]
        assert info.blocks > 2 * len(zipped)
        decompressed = get_registry().counter("blockzip.blocks_decompressed")
        for segno in zipped:
            for key in range(-1, 14):
                want = [r for r in everything if r[4] == segno and r[0] == key]
                before = decompressed.value
                got = archive.read_rows("employee_salary", [segno], (key, key))
                assert got == want
                assert decompressed.value - before <= 2

    def test_key_range_spans_blocks(self, small_blocks):
        archive = small_blocks.archive
        everything = archive.read_rows("employee_salary")
        for segno in archive.zipped_segments("employee_salary"):
            want = [r for r in everything if r[4] == segno and 3 <= r[0] <= 9]
            assert archive.read_rows("employee_salary", [segno], (3, 9)) == want

    def test_keyed_as_of_touches_one_block_per_segment(self, small_blocks):
        decompressed = get_registry().counter("blockzip.blocks_decompressed")
        segno, start, end = small_blocks.segments.archived_segments()[0]
        day = format_date((start + end) // 2)
        query = (
            "SELECT t.id, t.salary FROM employee_salary t "
            f"FOR SYSTEM_TIME AS OF DATE '{day}' WHERE t.id = 5"
        )
        before = decompressed.value
        keyed = small_blocks.sql(query).rows
        assert decompressed.value - before <= 2
        small_blocks.db.optimizer_enabled = False
        try:
            assert small_blocks.sql(query).rows == keyed
        finally:
            small_blocks.db.optimizer_enabled = True
