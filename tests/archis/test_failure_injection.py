"""Failure injection: corruption and misuse surface as typed errors."""

import pytest

from repro.errors import (
    ArchisError,
    CompressionError,
    StorageError,
    UnsupportedQueryError,
)

from tests.archis.conftest import load_bob_history, make_archis
from tests.archis.test_clustering import churn


class TestCompressedArchiveCorruption:
    @pytest.fixture
    def compressed(self):
        archis = make_archis(umin=0.4, min_segment_rows=8)
        churn(archis, employees=10, rounds=12)
        archis.compress_archive()
        return archis

    def test_corrupt_blob_raises_compression_error(self, compressed):
        info = compressed.archive.compressed_tables["employee_salary"]
        blob_table = compressed.db.table(info.blob_table)
        first = next(iter(blob_table.rows()))
        blob_id = first[4]
        # overwrite the blob with garbage
        compressed.db.blobs.delete(blob_id)
        new_id = compressed.db.blobs.put(b"garbage not zlib")
        blob_table.update_where(
            lambda r: r["blob_id"] == blob_id, {"blob_id": new_id}
        )
        with pytest.raises(CompressionError):
            compressed.archive.read_rows("employee_salary")

    def test_truncated_blob_raises(self, compressed):
        info = compressed.archive.compressed_tables["employee_salary"]
        blob_table = compressed.db.table(info.blob_table)
        first = next(iter(blob_table.rows()))
        blob_id = first[4]
        original = compressed.db.blobs.get(blob_id)
        compressed.db.blobs.delete(blob_id)
        new_id = compressed.db.blobs.put(original[: len(original) // 2])
        blob_table.update_where(
            lambda r: r["blob_id"] == blob_id, {"blob_id": new_id}
        )
        with pytest.raises(CompressionError):
            compressed.archive.read_rows("employee_salary")

    def test_bitflip_detected(self, compressed):
        info = compressed.archive.compressed_tables["employee_salary"]
        blob_table = compressed.db.table(info.blob_table)
        first = next(iter(blob_table.rows()))
        blob_id = first[4]
        original = bytearray(compressed.db.blobs.get(blob_id))
        original[len(original) // 2] ^= 0xFF
        compressed.db.blobs.delete(blob_id)
        new_id = compressed.db.blobs.put(bytes(original))
        blob_table.update_where(
            lambda r: r["blob_id"] == blob_id, {"blob_id": new_id}
        )
        with pytest.raises((CompressionError, Exception)):
            # zlib usually raises; a rare undetected flip would decode to
            # garbage records, which the record codec then rejects
            rows = compressed.archive.read_rows("employee_salary")
            assert rows  # force evaluation

    def test_read_uncompressed_table_raises(self, compressed):
        with pytest.raises(ArchisError):
            compressed.archive.read_rows("employee_name_never_compressed")


class TestTrackerMisuse:
    def test_close_without_live_row_raises(self):
        archis = make_archis()
        writer = archis.writers["employee"]
        with pytest.raises(ArchisError):
            writer.archive_delete((42, "Ghost", 1, "T", "d"), archis.db.current_date)

    def test_untracked_relation_raises(self):
        archis = make_archis()
        with pytest.raises(ArchisError):
            archis.publish("nonexistent")
        with pytest.raises(ArchisError):
            archis.history("nonexistent")

    def test_unknown_document_raises(self):
        archis = make_archis()
        with pytest.raises(ArchisError):
            archis.relation_for_document("nope.xml")

    def test_unknown_profile_rejected(self):
        from repro.rdb import Database

        from repro.archis import ArchIS, ArchISConfig

        with pytest.raises(ArchisError):
            ArchIS(Database(), config=ArchISConfig(profile="oracle"))


class TestTranslatorRejections:
    @pytest.fixture
    def archis(self):
        a = make_archis()
        load_bob_history(a)
        return a

    @pytest.mark.parametrize(
        "query",
        [
            # unknown document
            'for $e in doc("other.xml")/employees/employee return $e',
            # path through nonexistent attribute
            'for $x in doc("employees.xml")/employees/employee/bonus return $x',
            # descendant axis
            'for $x in doc("employees.xml")//salary return $x',
            # positional for-variable
            'for $e at $i in doc("employees.xml")/employees/employee return $i',
            # arbitrary function in return
            'for $e in doc("employees.xml")/employees/employee '
            "return concat($e/name, '!')",
        ],
    )
    def test_untranslatable_raise_cleanly(self, archis, query):
        with pytest.raises((UnsupportedQueryError, ArchisError)):
            archis.translate(query)

    def test_fallback_still_answers_descendant_query(self, archis):
        out = archis.xquery(
            'for $x in doc("employees.xml")//salary return $x'
        ).rows
        assert len(out) == 2  # Bob's two salary periods


class TestStorageMisuse:
    def test_blob_store_rejects_unknown_id(self):
        archis = make_archis()
        with pytest.raises(StorageError):
            archis.db.blobs.get(424242)

    def test_clock_cannot_go_backwards(self):
        archis = make_archis()
        archis.db.set_date("1996-01-01")
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            archis.db.set_date("1995-01-01")
