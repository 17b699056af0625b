"""MVCC snapshot semantics: isolation, abort/undo, replay equivalence.

The acceptance stress lives here too: snapshot reads taken while
concurrent writers commit must be byte-identical to a single-threaded
replay of the committed transactions up to the snapshot day.
"""

import sys
import threading

import pytest

from repro.archis.validation import check_archive
from repro.errors import TxnError
from repro.rdb.table import NULL_KEY
from repro.txn import DAY_GAP

from tests.txn.conftest import make_managed

QUERY = "SELECT id, name, salary FROM employee ORDER BY id"
HISTORY_XQUERY = (
    'for $s in doc("employees.xml")/employees/employee/salary return $s'
)


def assert_indexes_match_heap(table):
    """Every index of ``table``, the primary key's included, holds one
    ``(key, rid)`` entry per live heap row and nothing else."""
    rows = list(table.scan())
    if table.schema.primary_key:
        positions = [table.schema.position(c) for c in table.schema.primary_key]
        expected = sorted(
            (tuple(row[p] for p in positions), rid) for rid, row in rows
        )
        assert sorted(table._pk_index.items()) == expected
    for info in table.indexes.values():
        positions = [table.schema.position(c) for c in info.columns]
        expected = sorted(
            (tuple(NULL_KEY if row[p] is None else row[p] for p in positions),
             rid)
            for rid, row in rows
        )
        assert sorted(info.tree.items()) == expected, info.name


class TestSnapshotIsolation:
    def test_snapshot_sees_only_committed_state(self, managed):
        archis, manager = managed
        with manager.begin() as txn:
            txn.sql("INSERT INTO employee VALUES (1, 'Bob', 60000)")
        snap = manager.snapshot()
        assert snap.sql(QUERY).rows == [(1, "Bob", 60000)]

    def test_uncommitted_update_invisible(self, managed):
        archis, manager = managed
        with manager.begin() as txn:
            txn.sql("INSERT INTO employee VALUES (1, 'Bob', 60000)")
        writer = manager.begin()
        writer.sql("UPDATE employee SET salary = 70000 WHERE id = 1")
        # mid-flight: a fresh snapshot must not see the in-place update
        assert manager.snapshot().sql(QUERY).rows == [(1, "Bob", 60000)]
        writer.commit()
        assert manager.snapshot().sql(QUERY).rows == [(1, "Bob", 70000)]

    def test_old_snapshot_stays_pinned_after_commit(self, managed):
        archis, manager = managed
        with manager.begin() as txn:
            txn.sql("INSERT INTO employee VALUES (1, 'Bob', 60000)")
        old = manager.snapshot()
        with manager.begin() as txn:
            txn.sql("UPDATE employee SET salary = 70000 WHERE id = 1")
        with manager.begin() as txn:
            txn.sql("DELETE FROM employee WHERE id = 1")
        assert old.sql(QUERY).rows == [(1, "Bob", 60000)]
        assert manager.snapshot().sql(QUERY).rows == []

    def test_snapshot_rejects_writes(self, managed):
        _, manager = managed
        with pytest.raises(TxnError):
            manager.snapshot().sql("INSERT INTO employee VALUES (9, 'x', 1)")

    def test_snapshot_days_are_gapped(self, managed):
        _, manager = managed
        first = manager.begin()
        second = manager.begin()
        assert second.day - first.day == DAY_GAP
        # the stable day sits strictly below every active commit day
        assert manager.snapshot().day < first.day
        first.abort()
        second.abort()

    def test_snapshot_pins_history_queries(self, managed):
        archis, manager = managed
        with manager.begin() as txn:
            txn.sql("INSERT INTO employee VALUES (1, 'Bob', 60000)")
        snap = manager.snapshot()
        with manager.begin() as txn:
            txn.sql("UPDATE employee SET salary = 70000 WHERE id = 1")
        # the pinned xquery sees one salary version, the fresh one two
        old = snap.run(archis.xquery, HISTORY_XQUERY).rows
        new = manager.snapshot().run(archis.xquery, HISTORY_XQUERY).rows
        assert len(old) == 1
        assert len(new) == 2


class TestAbortUndo:
    def test_abort_restores_current_and_history(self, managed):
        archis, manager = managed
        with manager.begin() as txn:
            txn.sql("INSERT INTO employee VALUES (1, 'Bob', 60000)")
        before_current = manager.snapshot().sql(QUERY).rows
        before_history = [
            str(e)
            for e in manager.snapshot().run(archis.xquery, HISTORY_XQUERY).rows
        ]
        txn = manager.begin()
        txn.sql("UPDATE employee SET salary = 99999 WHERE id = 1")
        txn.sql("INSERT INTO employee VALUES (2, 'Eve', 50000)")
        txn.sql("DELETE FROM employee WHERE id = 1")
        txn.abort()
        assert manager.snapshot().sql(QUERY).rows == before_current
        after_history = [
            str(e)
            for e in manager.snapshot().run(archis.xquery, HISTORY_XQUERY).rows
        ]
        assert after_history == before_history
        # direct read of the live table agrees (no transaction active)
        assert archis.db.sql(QUERY).rows == before_current

    def test_abort_after_in_place_and_relocating_updates(self, managed):
        """One transaction updates a non-key column in place (same rid,
        no index key changes) and grows a VARCHAR until its row moves;
        its abort restores both rows, and every index of the current
        table and the H-tables still holds exactly its live rows."""
        archis, manager = managed
        with manager.begin() as txn:
            txn.sql("INSERT INTO employee VALUES (1, 'Bob', 60000)")
            txn.sql("INSERT INTO employee VALUES (2, 'Eve', 50000)")
        before = manager.snapshot().sql(QUERY).rows
        table = archis.db.table("employee")
        bob, eve = table.lookup_pk((1,)), table.lookup_pk((2,))
        txn = manager.begin()
        txn.sql("UPDATE employee SET salary = 60001 WHERE id = 1")
        assert table.lookup_pk((1,)) == bob
        txn.sql(f"UPDATE employee SET name = '{'E' * 300}' WHERE id = 2")
        assert table.lookup_pk((2,)) != eve
        txn.abort()
        assert manager.snapshot().sql(QUERY).rows == before
        assert archis.db.sql(QUERY).rows == before
        assert check_archive(archis) == []
        for relation in archis.relations.values():
            for name in (relation.name, *relation.all_tables()):
                assert_indexes_match_heap(archis.db.table(name))

    def test_context_manager_aborts_on_exception(self, managed):
        archis, manager = managed
        with pytest.raises(RuntimeError):
            with manager.begin() as txn:
                txn.sql("INSERT INTO employee VALUES (5, 'Ghost', 1)")
                raise RuntimeError("boom")
        assert manager.snapshot().sql(QUERY).rows == []
        assert manager.stats()["active"] == 0

    def test_completed_transaction_rejects_statements(self, managed):
        _, manager = managed
        txn = manager.begin()
        txn.sql("INSERT INTO employee VALUES (1, 'Bob', 60000)")
        txn.commit()
        with pytest.raises(TxnError):
            txn.sql("INSERT INTO employee VALUES (2, 'Eve', 1)")
        with pytest.raises(TxnError):
            txn.commit()


class TestApplyCommittedOrdering:
    def test_active_days_read_under_history_write_lock(self):
        """Regression: the uncommitted-day set must be snapshotted
        *inside* the history write lock.  Read before it, a transaction
        that begins and runs tracked DML in the gap is missing from the
        stale set, so its uncommitted entries get applied to the shared
        H-tables — and survive its abort, because discard_pending then
        finds nothing left to discard."""
        archis, manager = make_managed(profile="atlas")
        orig = manager.active_days
        observed = []

        def spy():
            if sys._getframe(1).f_code.co_name == "apply_committed":
                observed.append(manager.history._writer_active)
            return orig()

        manager.active_days = spy
        with manager.begin() as txn:
            txn.sql("INSERT INTO employee VALUES (1, 'Bob', 60000)")
        assert observed, "apply_committed never read the active-day set"
        assert all(observed)


class TestFreezeFloor:
    @pytest.mark.parametrize("profile", ["atlas", "db2"])
    def test_a_freeze_waits_for_an_earlier_open_transaction(self, profile):
        """A transaction begun on an early day archives its rows at that
        day when it commits, so no freeze may draw a boundary above it
        while it is open, even when later commits have dropped
        usefulness below U_min; the freeze comes once it has ended."""
        archis, manager = make_managed(
            profile=profile, config={"umin": 0.5, "min_segment_rows": 8}
        )
        segments = archis.segments
        with manager.begin() as txn:
            for key in range(1, 11):
                txn.sql(f"INSERT INTO employee VALUES ({key}, 'e', {key})")
        early = manager.begin()
        with manager.begin() as txn:
            txn.sql("DELETE FROM employee WHERE id >= 3")
        # a change past the last archived day: the freeze's decision point
        with manager.begin() as txn:
            txn.sql("UPDATE employee SET salary = 20 WHERE id = 2")
        assert segments.stats.usefulness < 0.5
        assert segments.freeze_count == 0
        early.sql("UPDATE employee SET salary = 10 WHERE id = 1")
        early.commit()
        with manager.begin() as txn:
            txn.sql("UPDATE employee SET salary = 30 WHERE id = 2")
        assert segments.freeze_count == 1
        assert check_archive(archis) == []


class TestApplyPendingCount:
    def test_apply_pending_reports_entries_archived(self):
        """Regression: with a transaction manager attached,
        ``apply_pending`` returned 0 even when it archived entries."""
        archis, manager = make_managed(profile="atlas")
        archis.db.sql("INSERT INTO employee VALUES (1, 'Bob', 60000)")
        archis.db.sql("UPDATE employee SET salary = 70000 WHERE id = 1")
        assert archis.apply_pending() == 2
        assert archis.apply_pending() == 0
        assert manager.apply_committed() == 0

    def test_trigger_tracking_applies_nothing(self):
        archis, manager = make_managed(profile="db2")
        archis.db.sql("INSERT INTO employee VALUES (1, 'Bob', 60000)")
        assert archis.apply_pending() == 0
        assert manager.apply_committed() == 0


class TestCommitFailurePoisoning:
    def test_failed_commit_after_archival_poisons_manager(self):
        """Once a committing transaction's update-log entries are
        drained into the H-tables, a failure in the durability tail
        leaves in-process state abort() cannot repair — the manager
        must refuse new work rather than serve divergent data."""
        archis, manager = make_managed(profile="atlas")
        txn = manager.begin()
        txn.sql("INSERT INTO employee VALUES (1, 'Bob', 60000)")

        def boom():
            raise OSError("disk full")

        manager.db.pager.commit = boom
        with pytest.raises(OSError):
            txn.commit()
        del manager.db.pager.commit
        with pytest.raises(TxnError, match="reopen"):
            manager.begin()
        with pytest.raises(TxnError, match="reopen"):
            manager.snapshot()
        with pytest.raises(TxnError, match="reopen"):
            txn.sql("INSERT INTO employee VALUES (2, 'Eve', 1)")
        # teardown stays possible: sessions abort on disconnect
        txn.abort()

    def test_failed_commit_under_trigger_tracking_can_abort(self):
        """db2-profile archival is undo-tracked, so a failed commit is
        still recoverable in process: abort restores both the base
        table and the H-tables, and the manager keeps serving."""
        archis, manager = make_managed(profile="db2")
        txn = manager.begin()
        txn.sql("INSERT INTO employee VALUES (1, 'Bob', 60000)")

        def boom():
            raise OSError("disk full")

        manager.db.pager.commit = boom
        with pytest.raises(OSError):
            txn.commit()
        del manager.db.pager.commit
        txn.abort()
        assert manager.snapshot().sql(QUERY).rows == []
        assert (
            manager.snapshot().run(archis.xquery, HISTORY_XQUERY).rows == []
        )


class TestReplayEquivalence:
    """Acceptance criterion: 8 snapshot readers + 4 writers; every
    snapshot read is byte-identical to a single-threaded replay of the
    committed transactions at that timestamp."""

    WRITERS = 4
    READERS = 8
    TXNS_PER_WRITER = 6

    @pytest.mark.parametrize("profile", ["atlas", "db2"])
    def test_concurrent_snapshots_match_replay(self, profile):
        archis, manager = make_managed(profile=profile)
        committed = []  # (day, writer, step) appended after commit
        committed_lock = threading.Lock()
        observations = []  # (day, repr(rows)) per snapshot read
        observations_lock = threading.Lock()
        stop = threading.Event()
        failures = []

        # each writer owns one key, pre-inserted and committed
        for writer_id in range(self.WRITERS):
            with manager.begin() as txn:
                txn.sql(
                    f"INSERT INTO employee VALUES "
                    f"({writer_id}, 'w{writer_id}', 0)"
                )
                day, step = txn.day, -1
            with committed_lock:
                committed.append((day, writer_id, step))

        def writer(writer_id):
            try:
                for step in range(self.TXNS_PER_WRITER):
                    txn = manager.begin()
                    txn.sql(
                        f"UPDATE employee SET salary = "
                        f"{writer_id * 1000 + step} WHERE id = {writer_id}"
                    )
                    txn.commit()
                    with committed_lock:
                        committed.append((txn.day, writer_id, step))
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        def reader():
            try:
                while not stop.is_set():
                    snap = manager.snapshot()
                    rows = snap.sql(QUERY).rows
                    with observations_lock:
                        observations.append((snap.day, repr(rows)))
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        writers = [
            threading.Thread(target=writer, args=(i,))
            for i in range(self.WRITERS)
        ]
        readers = [
            threading.Thread(target=reader) for _ in range(self.READERS)
        ]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=60.0)
        stop.set()
        for thread in readers:
            thread.join(timeout=60.0)
        assert not failures, failures
        assert len(committed) == self.WRITERS * (self.TXNS_PER_WRITER + 1)
        assert observations, "readers never observed a snapshot"

        # single-threaded replay: state at day T = all commits with
        # day <= T applied in day order (commit days are unique)
        def replay(day):
            state = {}
            for commit_day, writer_id, step in sorted(committed):
                if commit_day > day:
                    break
                if step == -1:
                    state[writer_id] = (writer_id, f"w{writer_id}", 0)
                else:
                    state[writer_id] = (
                        writer_id,
                        f"w{writer_id}",
                        writer_id * 1000 + step,
                    )
            return repr([state[k] for k in sorted(state)])

        mismatches = [
            (day, seen, replay(day))
            for day, seen in observations
            if seen != replay(day)
        ]
        assert not mismatches, mismatches[:3]
        assert manager.stats()["active"] == 0
        assert manager.locks.stats() == {"held": 0, "waiting": 0}
