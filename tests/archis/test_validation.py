"""Tests for the archive consistency checker."""

from repro.archis.validation import Violation, check_archive

from tests.archis.conftest import load_bob_history, make_archis
from tests.archis.test_clustering import churn


class TestCleanArchives:
    def test_fresh_archive_clean(self):
        assert check_archive(make_archis()) == []

    def test_after_history_clean(self):
        archis = make_archis()
        load_bob_history(archis)
        assert check_archive(archis) == []

    def test_after_freezes_clean(self):
        archis = make_archis(umin=0.4, min_segment_rows=8)
        churn(archis)
        assert archis.segments.freeze_count >= 1
        assert check_archive(archis) == []

    def test_after_compression_clean(self):
        archis = make_archis(umin=0.4, min_segment_rows=8)
        churn(archis)
        archis.compress_archive()
        assert check_archive(archis) == []

    def test_unsegmented_clean(self):
        archis = make_archis(umin=None)
        churn(archis)
        assert check_archive(archis) == []

    def test_atlas_profile_clean(self):
        archis = make_archis(profile="atlas", umin=0.4, min_segment_rows=8)
        churn(archis)
        assert check_archive(archis) == []


class TestDetection:
    def test_detects_orphan_live_history(self):
        archis = make_archis()
        archis.db.table("employee").insert((1, "Ann", 1, "T", "d"))
        archis.apply_pending()
        # sabotage: remove the current row without firing triggers
        table = archis.db.table("employee")
        trigger = archis.trackers["employee"]
        trigger.detach()
        table.delete_where(lambda r: r["id"] == 1)
        violations = check_archive(archis)
        assert any(v.check == "live-consistency" for v in violations)

    def test_detects_corrupt_blob(self):
        archis = make_archis(umin=0.4, min_segment_rows=8)
        churn(archis, employees=10, rounds=12)
        archis.compress_archive()
        info = archis.archive.compressed_tables["employee_salary"]
        blob_table = archis.db.table(info.blob_table)
        first = next(iter(blob_table.rows()))
        archis.db.blobs.delete(first[4])
        new_id = archis.db.blobs.put(b"junk")
        blob_table.update_where(
            lambda r: r["blob_id"] == first[4], {"blob_id": new_id}
        )
        violations = check_archive(archis)
        assert any(v.check == "blob-integrity" for v in violations)

    def test_detects_corrupt_block_directory(self):
        archis = make_archis(umin=0.4, min_segment_rows=8)
        churn(archis, employees=10, rounds=12)
        archis.compress_archive()
        assert check_archive(archis) == []
        info = archis.archive.compressed_tables["employee_salary"]
        archis.db.table(info.blob_table).update_where(
            lambda r: r["blockno"] == 0, {"startid": 10**6}
        )
        violations = check_archive(archis)
        assert any(
            v.check == "blob-integrity" and "block 0: startid" in v.detail
            for v in violations
        )

    def test_detects_covering_violation(self):
        archis = make_archis(umin=0.4, min_segment_rows=8)
        churn(archis)
        # sabotage: move a frozen-segment row's tstart past its segment end
        table = archis.db.table("employee_salary")
        frozen = archis.segments.archived_segments()[0]
        segno, segstart, segend = frozen
        for rid, row in table.scan():
            if row[4] == segno:
                bad = list(row)
                bad[2] = segend + 100  # tstart beyond segend
                bad[3] = segend + 200
                table.update_rid(rid, tuple(bad))
                break
        violations = check_archive(archis)
        assert any(v.check == "covering-eq1" for v in violations)

    def test_detects_segment_gap(self):
        archis = make_archis(umin=0.4, min_segment_rows=8)
        churn(archis)
        segment_table = archis.db.table("segment")
        segment_table.update_where(
            lambda r: True, {"segend": archis.db.current_date - 10**4}
        )
        violations = check_archive(archis)
        assert any(v.check == "segment-contiguity" for v in violations)

    def test_violation_renders(self):
        v = Violation("check", "table", "detail")
        assert "check" in str(v) and "detail" in str(v)
