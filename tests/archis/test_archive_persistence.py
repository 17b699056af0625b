"""Tests: a file-backed ArchIS archive survives process restarts."""

import pytest

from repro.archis import ArchIS, ArchISConfig
from repro.errors import ArchisError, CatalogError, StorageError
from repro.rdb import ColumnType, Database
from repro.xmlkit import serialize

from tests.archis.test_clustering import churn


def build(path, profile="db2", umin=0.4):
    db = Database(path)
    db.set_date("1995-01-01")
    db.create_table(
        "employee",
        [
            ("id", ColumnType.INT),
            ("name", ColumnType.VARCHAR),
            ("salary", ColumnType.INT),
            ("title", ColumnType.VARCHAR),
            ("deptno", ColumnType.VARCHAR),
        ],
        primary_key=("id",),
    )
    archis = ArchIS(db, config=ArchISConfig(
        profile=profile, umin=umin, min_segment_rows=8))
    archis.track_table("employee", document_name="employees.xml")
    return archis


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "archive.db")


def test_roundtrip_preserves_publication(db_path):
    archis = build(db_path)
    churn(archis, employees=8, rounds=12)
    before = serialize(archis.publish("employee"))
    archis.save()
    archis.db.close()

    again = ArchIS.open(db_path)
    assert serialize(again.publish("employee")) == before


def test_segment_state_restored(db_path):
    archis = build(db_path)
    churn(archis, employees=8, rounds=12)
    expected = (
        archis.segments.live_segno,
        archis.segments.live_start,
        archis.segments.freeze_count,
    )
    archis.save()
    archis.db.close()
    again = ArchIS.open(db_path)
    assert (
        again.segments.live_segno,
        again.segments.live_start,
        again.segments.freeze_count,
    ) == expected


def test_queries_work_after_reopen(db_path):
    archis = build(db_path)
    churn(archis, employees=8, rounds=12)
    query = (
        'for $s in doc("employees.xml")/employees/employee[id="3"]/salary '
        "return $s"
    )
    before = [serialize(e) for e in archis.xquery(query, allow_fallback=False).rows]
    archis.save()
    archis.db.close()
    again = ArchIS.open(db_path)
    after = [serialize(e) for e in again.xquery(query, allow_fallback=False).rows]
    assert after == before


def test_tracking_continues_after_reopen(db_path):
    archis = build(db_path)
    archis.db.table("employee").insert((1, "Ann", 100, "T", "d"))
    archis.apply_pending()
    archis.save()
    archis.db.close()

    again = ArchIS.open(db_path)
    again.db.advance_days(30)
    again.db.table("employee").update_where(
        lambda r: r["id"] == 1, {"salary": 200}
    )
    again.apply_pending()
    history = again.history("employee", "salary")
    assert [row[1] for row in history] == [100, 200]


def test_compressed_archive_reopens(db_path):
    archis = build(db_path)
    churn(archis, employees=8, rounds=12)
    archis.compress_archive()
    count_before = archis.xquery(
        'count(doc("employees.xml")/employees/employee/salary)',
        allow_fallback=False,
    )
    archis.save()
    archis.db.close()

    again = ArchIS.open(db_path)
    assert "employee_salary" in again.archive.compressed_tables
    count_after = again.xquery(
        'count(doc("employees.xml")/employees/employee/salary)',
        allow_fallback=False,
    )
    assert count_after == count_before


@pytest.mark.parametrize(
    "sidecars, error, which",
    [
        (("archis",), ArchisError, "archive"),
        (("archis", "catalog"), CatalogError, "catalog"),
    ],
)
def test_version_1_archive_is_refused(db_path, sidecars, error, which):
    """Version 1 predates the BlockZIP directory column: opening such an
    archive is a typed error, never a failed row unpack."""
    import json

    from repro.archis.persistence import sidecar_path as archive_sidecar
    from repro.rdb.persistence import sidecar_path as catalog_sidecar

    archis = build(db_path)
    churn(archis, employees=8, rounds=12)
    archis.compress_archive()
    archis.save()
    archis.db.close()
    paths = {
        "archis": archive_sidecar(db_path),
        "catalog": catalog_sidecar(db_path),
    }
    for name in sidecars:
        with open(paths[name], encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["version"] = 1
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
    with pytest.raises(
        error, match=rf"unsupported {which} sidecar version 1\b"
    ):
        ArchIS.open(db_path)


def _rewrite_archive_sidecar(db_path, **fields):
    import json

    from repro.archis.persistence import sidecar_path

    with open(sidecar_path(db_path), encoding="utf-8") as handle:
        payload = json.load(handle)
    payload.update(fields)
    with open(sidecar_path(db_path), "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def test_sharded_archive_is_refused(db_path, monkeypatch):
    """A sidecar from the retired multi-store layout is a typed error
    naming the archive, and the database it opened is closed again."""
    archis = build(db_path)
    churn(archis, employees=8, rounds=12)
    archis.save()
    archis.db.close()
    _rewrite_archive_sidecar(
        db_path, sharding={"shards": 4, "shard_by": "hash"}
    )
    closed = []
    original = Database.close
    monkeypatch.setattr(
        Database, "close", lambda db: closed.append(db) or original(db)
    )
    with pytest.raises(
        ArchisError, match="sharded archives are no longer supported"
    ) as excinfo:
        ArchIS.open(db_path)
    assert db_path in str(excinfo.value)
    assert len(closed) == 1


@pytest.mark.parametrize(
    "sharding", [None, {"shards": 1, "shard_by": "hash"}], ids=["absent", "one"]
)
def test_unsharded_sidecar_opens(db_path, sharding):
    """Saves write no ``sharding`` key; single-store archives saved
    while the key existed carry ``shards: 1``.  Both open as before."""
    import json

    from repro.archis.persistence import sidecar_path

    archis = build(db_path)
    churn(archis, employees=8, rounds=12)
    before = serialize(archis.publish("employee"))
    archis.save()
    archis.db.close()
    if sharding is None:
        with open(sidecar_path(db_path), encoding="utf-8") as handle:
            assert "sharding" not in json.load(handle)
    else:
        _rewrite_archive_sidecar(db_path, sharding=sharding)
    again = ArchIS.open(db_path)
    assert serialize(again.publish("employee")) == before
    again.close()


def test_validation_clean_after_reopen(db_path):
    from repro.archis.validation import check_archive

    archis = build(db_path)
    churn(archis, employees=8, rounds=12)
    archis.save()
    archis.db.close()
    again = ArchIS.open(db_path)
    assert check_archive(again) == []


def test_memory_archive_cannot_save():
    db = Database()
    archis = ArchIS(db, config=ArchISConfig(umin=None))
    with pytest.raises(StorageError):
        archis.save()


def test_open_without_sidecar_raises(db_path):
    archis = build(db_path)
    archis.db.save()  # catalog only, no archive sidecar
    archis.db.close()
    with pytest.raises(ArchisError):
        ArchIS.open(db_path)


def test_atlas_profile_roundtrip(db_path):
    archis = build(db_path, profile="atlas")
    archis.db.table("employee").insert((1, "Ann", 100, "T", "d"))
    archis.save()  # save() drains the pending log first
    archis.db.close()
    again = ArchIS.open(db_path)
    assert again.profile.name == "atlas"
    assert len(again.history("employee", "salary")) == 1
