"""LockTable semantics: exclusivity, re-entrancy, deadlock, timeout."""

import threading
import time

import pytest

from repro.errors import DeadlockError, LockTimeoutError, TxnError
from repro.rdb import ColumnType, Database
from repro.txn import LockTable, TxnManager


class TestLockTable:
    def test_exclusive_and_reentrant(self):
        locks = LockTable(timeout=0.5)
        locks.acquire(1, "t")
        locks.acquire(1, "t")  # re-entrant
        locks.release(1, "t")
        assert locks.held_by(1) == ["t"]  # still held once
        locks.release(1, "t")
        assert locks.held_by(1) == []

    def test_release_without_hold_raises(self):
        locks = LockTable()
        with pytest.raises(TxnError):
            locks.release(7, "t")

    def test_contended_acquire_waits_for_release(self):
        locks = LockTable(timeout=5.0)
        locks.acquire(1, "t")
        acquired = threading.Event()

        def contender():
            locks.acquire(2, "t")
            acquired.set()

        thread = threading.Thread(target=contender)
        thread.start()
        time.sleep(0.05)
        assert not acquired.is_set()
        locks.release(1, "t")
        thread.join(timeout=5.0)
        assert acquired.is_set()
        locks.release_all(2)

    def test_timeout_on_stuck_owner(self):
        locks = LockTable(timeout=0.2)
        locks.acquire(1, "t")
        start = time.monotonic()
        with pytest.raises(LockTimeoutError):
            locks.acquire(2, "t")
        assert time.monotonic() - start < 2.0

    def test_two_party_deadlock_detected(self):
        locks = LockTable(timeout=10.0)
        locks.acquire(1, "a")
        locks.acquire(2, "b")
        outcome = {}

        def second():
            try:
                locks.acquire(2, "a")  # blocks on txn 1
                outcome["second"] = "acquired"
            except DeadlockError:
                outcome["second"] = "deadlock"
                locks.release_all(2)

        thread = threading.Thread(target=second)
        thread.start()
        time.sleep(0.05)
        # txn 1 requesting b closes the cycle: exactly one side is the
        # victim, and it is detected well inside the timeout
        start = time.monotonic()
        try:
            locks.acquire(1, "b")
            outcome["first"] = "acquired"
        except DeadlockError:
            outcome["first"] = "deadlock"
            locks.release_all(1)
        thread.join(timeout=10.0)
        assert time.monotonic() - start < 5.0
        assert sorted(outcome.values()) == ["acquired", "deadlock"]
        locks.release_all(1)
        locks.release_all(2)

    def test_three_party_cycle_detected(self):
        locks = LockTable(timeout=10.0)
        for txn, resource in ((1, "a"), (2, "b"), (3, "c")):
            locks.acquire(txn, resource)
        results = []

        def chain(txn, resource):
            try:
                locks.acquire(txn, resource)
                results.append("acquired")
            except DeadlockError:
                results.append("deadlock")
            finally:
                # end of transaction either way, so the remaining
                # waiters in the cycle can drain
                locks.release_all(txn)

        threads = [
            threading.Thread(target=chain, args=args)
            for args in ((1, "b"), (2, "c"))
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        chain(3, "a")  # closes the 3-cycle
        for thread in threads:
            thread.join(timeout=10.0)
        assert results.count("deadlock") >= 1
        for txn in (1, 2, 3):
            locks.release_all(txn)

    def test_release_all_returns_held_resources(self):
        locks = LockTable()
        locks.acquire(5, "x")
        locks.acquire(5, "y")
        assert sorted(locks.release_all(5)) == ["x", "y"]
        assert locks.release_all(5) == []


class TestManagerDeadlock:
    def test_injected_lock_cycle_broken_within_timeout(self):
        """Acceptance criterion: two transactions lock two tables in
        opposite order; the cycle is broken by a DeadlockError well
        inside the lock timeout and the survivor commits."""
        db = Database()
        for name in ("left", "right"):
            db.create_table(
                name, [("id", ColumnType.INT)], primary_key=("id",)
            )
        manager = TxnManager(db, lock_timeout=30.0)
        victims = []
        barrier = threading.Barrier(2)

        def worker(first, second):
            txn = manager.begin()
            try:
                txn.sql(f"INSERT INTO {first} VALUES ({txn.id})")
                barrier.wait()
                txn.sql(f"INSERT INTO {second} VALUES ({txn.id})")
                txn.commit()
            except DeadlockError:
                victims.append(txn.id)
                txn.abort()

        start = time.monotonic()
        threads = [
            threading.Thread(target=worker, args=pair)
            for pair in (("left", "right"), ("right", "left"))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20.0)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"cycle not broken promptly ({elapsed:.1f}s)"
        assert len(victims) == 1, victims
        # the survivor committed both inserts; the victim's were undone
        left = db.sql("SELECT id FROM left").rows
        right = db.sql("SELECT id FROM right").rows
        assert left == right and len(left) == 1
        assert manager.stats()["active"] == 0
        assert manager.locks.stats() == {"held": 0, "waiting": 0}


class TestReadLocks:
    """Reads inside a write transaction lock the tables they read (the
    lock table has no shared mode), so no concurrent writer changes
    them under the transaction."""

    @staticmethod
    def managed(lock_timeout):
        db = Database()
        for name in ("account", "audit"):
            db.create_table(
                name, [("id", ColumnType.INT), ("v", ColumnType.INT)],
                primary_key=("id",),
            )
        db.sql("INSERT INTO account VALUES (1, 0), (2, 0)")
        db.sql("INSERT INTO audit VALUES (1, 0)")
        return TxnManager(db, lock_timeout=lock_timeout)

    def test_a_select_locks_what_it_reads(self):
        manager = self.managed(lock_timeout=0.1)
        reader = manager.begin()
        assert len(reader.sql("SELECT id FROM account")) == 2
        writer = manager.begin()
        with pytest.raises(LockTimeoutError):
            writer.sql("INSERT INTO account VALUES (3, 0)")
        writer.abort()
        reader.commit()
        with manager.begin() as txn:
            txn.sql("INSERT INTO account VALUES (3, 0)")

    def test_an_update_locks_its_subquery_tables(self):
        manager = self.managed(lock_timeout=0.1)
        updater = manager.begin()
        updater.sql(
            "UPDATE audit SET v = 1 WHERE id IN (SELECT id FROM account)"
        )
        writer = manager.begin()
        with pytest.raises(LockTimeoutError):
            writer.sql("UPDATE account SET v = 9 WHERE id = 1")
        writer.abort()
        updater.commit()

    def test_a_writer_waits_for_the_reader(self):
        manager = self.managed(lock_timeout=10.0)
        reader = manager.begin()
        reader.sql("SELECT v FROM account WHERE id = 1")
        written = threading.Event()

        def write():
            with manager.begin() as txn:
                txn.sql("UPDATE account SET v = 5 WHERE id = 1")
            written.set()

        writer = threading.Thread(target=write)
        writer.start()
        assert not written.wait(0.2)
        assert reader.sql("SELECT v FROM account WHERE id = 1").scalar() == 0
        reader.commit()
        writer.join(timeout=10.0)
        assert not writer.is_alive() and written.is_set()
        assert manager.snapshot().sql(
            "SELECT v FROM account WHERE id = 1"
        ).scalar() == 5
