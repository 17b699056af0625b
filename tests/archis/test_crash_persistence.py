"""Crash-recovery matrix for archive saves.

A tracked, churned, compressed archive is saved with a crash injected at
every write/fsync boundary the save crosses.  After each crash the
archive is reopened through normal recovery and must present either the
complete pre-save or the complete post-save history — never an error,
never a mix, never a truncated sidecar.
"""

import glob
import json
import os
from collections import Counter

import pytest

from repro.archis import ArchIS
from repro.archis.validation import check_archive
from repro.errors import ArchisError, CatalogError
from repro.rdb import ColumnType, Database
from repro.storage import InjectedCrash, get_crash_points
from repro.xmlkit import serialize

from tests.archis.test_archive_persistence import build
from tests.archis.test_clustering import churn


@pytest.fixture(autouse=True)
def disarm_crash_points():
    yield
    get_crash_points().reset()


def churn_again(archis, rounds=3):
    """Second churn phase: updates, one insert, one delete."""
    emp = archis.db.table("employee")
    for round_no in range(rounds):
        archis.db.advance_days(30)
        for i in range(6):
            emp.update_where(
                lambda r, i=i: r["id"] == i,
                {"salary": 9000 + round_no * 100 + i},
            )
    archis.db.advance_days(10)
    emp.insert((100, "late-hire", 5000, "T", "d02"))
    emp.delete_where(lambda r: r["id"] == 0)
    archis.apply_pending()


def build_saved(path):
    """A churned archive with one completed save (the pre-state)."""
    archis = build(path)
    churn(archis, employees=6, rounds=6)
    archis.save()
    return archis


def advance_to_post(archis):
    """More history + BlockZIP compression, not yet saved."""
    churn_again(archis)
    archis.compress_archive()


def assert_no_stray_files(db_path):
    directory = os.path.dirname(db_path)
    strays = glob.glob(os.path.join(directory, "*.tmp"))
    assert strays == [], f"crashed save left tmp files behind: {strays}"
    wal_path = db_path + ".wal"
    if os.path.exists(wal_path):
        assert os.path.getsize(wal_path) == 0, "recovery left WAL frames behind"


@pytest.fixture(scope="module")
def expectations(tmp_path_factory):
    """Deterministic pre/post publications + the crash-point matrix."""
    path = str(tmp_path_factory.mktemp("control") / "archive.db")
    archis = build_saved(path)
    pre = serialize(archis.publish("employee"))
    advance_to_post(archis)
    post = serialize(archis.publish("employee"))
    with get_crash_points().recording() as fired:
        archis.save()
    archis.db.close()
    counts = Counter(fired)
    assert counts, "the save crossed no crash points"
    # every point name, at its first, middle and last occurrence
    matrix = sorted(
        {
            (name, occurrence)
            for name, total in counts.items()
            for occurrence in {1, total // 2 + 1, total}
        }
    )
    return pre, post, matrix


class TestCrashMatrix:
    def test_every_crash_point_yields_pre_or_post_state(
        self, tmp_path, expectations
    ):
        pre, post, matrix = expectations
        crash_points = get_crash_points()
        outcomes = Counter()
        for index, (point, occurrence) in enumerate(matrix):
            path = str(tmp_path / f"m{index}.db")
            archis = build_saved(path)
            advance_to_post(archis)
            with pytest.raises(InjectedCrash):
                with crash_points.crash_at(point, occurrence):
                    archis.save()
            # whatever instant the crash hit, on-disk sidecars parse
            for suffix in (".catalog.json", ".archis.json"):
                sidecar = path + suffix
                if os.path.exists(sidecar):
                    with open(sidecar, encoding="utf-8") as handle:
                        json.load(handle)
            again = ArchIS.open(path)
            published = serialize(again.publish("employee"))
            assert published in (pre, post), (
                f"corrupt archive after crash at {point}#{occurrence}"
            )
            assert check_archive(again) == [], (
                f"invariant violations after crash at {point}#{occurrence}"
            )
            assert_no_stray_files(path)
            outcomes[published == post] += 1
            again.db.close()
        # the matrix must exercise both sides of the commit point
        assert outcomes[False] > 0, "no crash point preserved the pre-state"
        assert outcomes[True] > 0, "no crash point reached the post-state"

    def test_crash_during_page_churn_rolls_back_to_last_save(
        self, tmp_path, expectations
    ):
        pre, _, _ = expectations
        path = str(tmp_path / "churn.db")
        archis = build_saved(path)
        with pytest.raises(InjectedCrash):
            with get_crash_points().crash_at("wal.frame.torn", 10):
                advance_to_post(archis)
                archis.save()
        again = ArchIS.open(path)
        assert serialize(again.publish("employee")) == pre
        assert_no_stray_files(path)
        again.db.close()

    def test_snapshot_query_consistent_after_mid_checkpoint_crash(
        self, tmp_path
    ):
        path = str(tmp_path / "snap.db")
        as_of = (
            "SELECT t.id, t.salary FROM employee_salary t "
            "FOR SYSTEM_TIME AS OF 9150"
        )
        archis = build_saved(path)
        pre_rows = sorted(archis.sql(as_of).rows)
        advance_to_post(archis)
        post_rows = sorted(archis.sql(as_of).rows)
        with pytest.raises(InjectedCrash):
            with get_crash_points().crash_at("wal.checkpoint.page_applied", 3):
                archis.save()
        again = ArchIS.open(path)
        rows = sorted(again.sql(as_of).rows)
        assert rows in (pre_rows, post_rows)
        again.db.close()


class TestRecoveryPlumbing:
    def test_recovery_counts_metrics(self, tmp_path):
        from repro.obs.metrics import get_registry

        path = str(tmp_path / "metrics.db")
        archis = build_saved(path)
        churn_again(archis, rounds=1)
        with pytest.raises(InjectedCrash):
            with get_crash_points().crash_at("wal.checkpoint.begin"):
                archis.save()
        recoveries = get_registry().counter("wal.recoveries")
        before = recoveries.value
        again = ArchIS.open(path)
        assert recoveries.value == before + 1
        assert again.stats()["durability"]["mode"] == "wal"
        assert again.stats()["durability"]["wal_recoveries"] >= 1
        again.db.close()

    def test_recover_tool_reports_and_verifies(self, tmp_path, capsys):
        from repro.tools import main

        path = str(tmp_path / "tool.db")
        archis = build_saved(path)
        churn_again(archis, rounds=1)
        with pytest.raises(InjectedCrash):
            with get_crash_points().crash_at("wal.checkpoint.page_applied", 2):
                archis.save()
        assert main(["recover", path]) == 0
        out = capsys.readouterr().out
        assert "replayed a committed save" in out
        assert "archive:        ok" in out
        # second run finds a clean log
        assert main(["recover", path]) == 0
        assert "nothing to replay" in capsys.readouterr().out

    def test_archis_exposes_durability(self, tmp_path):
        path = str(tmp_path / "durable.db")
        archis = build_saved(path)
        assert archis.durability == "wal"
        archis.db.close()

    def test_durability_none_sidecar_still_atomic(self, tmp_path):
        path = str(tmp_path / "plain.db")
        db = Database(path, durability="none")
        db.set_date("1995-01-01")
        db.create_table("t", [("id", ColumnType.INT)], primary_key=("id",))
        db.save()
        with open(path + ".catalog.json", encoding="utf-8") as handle:
            old_payload = handle.read()
        db.table("t").insert((1,))
        with pytest.raises(InjectedCrash):
            with get_crash_points().crash_at("atomic.tmp_written"):
                db.save()
        # the crash hit after the tmp write but before the rename: the old
        # sidecar must be byte-identical, and still parse
        with open(path + ".catalog.json", encoding="utf-8") as handle:
            assert handle.read() == old_payload
        reopened = Database.open(path, durability="none")
        assert reopened.tables() == ["t"]
        reopened.close()


class TestSidecarVersioning:
    def test_catalog_version_error_names_version_and_path(self, tmp_path):
        path = str(tmp_path / "vers.db")
        archis = build_saved(path)
        archis.db.close()
        sidecar = path + ".catalog.json"
        with open(sidecar, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["version"] = 99
        with open(sidecar, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(CatalogError) as excinfo:
            Database.open(path)
        assert "99" in str(excinfo.value)
        assert sidecar in str(excinfo.value)

    def test_archive_version_error_names_version_and_path(self, tmp_path):
        path = str(tmp_path / "vers2.db")
        archis = build_saved(path)
        archis.db.close()
        sidecar = path + ".archis.json"
        with open(sidecar, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["version"] = 7
        with open(sidecar, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(ArchisError) as excinfo:
            ArchIS.open(path)
        assert "7" in str(excinfo.value)
        assert sidecar in str(excinfo.value)

    def test_savers_share_one_version_constant(self, tmp_path):
        from repro.storage import SIDECAR_VERSION

        path = str(tmp_path / "shared.db")
        archis = build_saved(path)
        archis.db.close()
        for suffix in (".catalog.json", ".archis.json"):
            with open(path + suffix, encoding="utf-8") as handle:
                assert json.load(handle)["version"] == SIDECAR_VERSION
