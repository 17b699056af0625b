#!/usr/bin/env python
"""Bounded-time concurrency stress gate.

Exercises the three acceptance properties of the concurrent-access
subsystem in one short run, then verifies the process is clean:

1. **Snapshot consistency** — reader clients hammering a live server see
   only states that a single-threaded replay of the committed
   transactions produces at the snapshot day.
2. **Deadlock freedom** — an injected two-transaction lock cycle is
   broken by a ``DeadlockError`` well inside the lock timeout.
3. **Group commit** — concurrent disjoint writers on a WAL-backed
   database fsync measurably less often than they commit.
4. **Background maintenance** — transactional writers and XQuery readers
   run while the maintenance worker freezes and rewrites segments; the
   drained archive must pass every invariant check and the final
   snapshot must match the writers' last committed steps.

On exit the script fails if any ``repro-*`` thread or any socket file
descriptor leaked.  Run it via ``scripts/check.sh`` or directly:

    PYTHONPATH=src python scripts/stress_concurrency.py [--seconds N]
"""

import argparse
import os
import sys
import tempfile
import threading
import time

from repro.archis import ArchIS, ArchISConfig
from repro.archis.validation import check_archive
from repro.errors import DeadlockError
from repro.obs import get_registry
from repro.rdb import ColumnType, Database
from repro.server import Client, Server
from repro.txn import TxnManager

WRITERS = 4
READERS = 8
QUERY = "SELECT id, name, salary FROM employee ORDER BY id"


def socket_fds():
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):  # non-Linux: skip the fd check
        return None
    count = 0
    for fd in os.listdir(fd_dir):
        try:
            if os.readlink(os.path.join(fd_dir, fd)).startswith("socket:"):
                count += 1
        except OSError:
            continue
    return count


def make_managed():
    db = Database()
    db.set_date("1995-01-01")
    db.create_table(
        "employee",
        [
            ("id", ColumnType.INT),
            ("name", ColumnType.VARCHAR),
            ("salary", ColumnType.INT),
        ],
        primary_key=("id",),
    )
    archis = ArchIS(db, config=ArchISConfig(profile="atlas"))
    archis.track_table("employee", document_name="employees.xml")
    return archis, TxnManager(db, archis)


def stress_server(seconds):
    """Phase 1: readers + writers over real sockets, replay-checked."""
    archis, manager = make_managed()
    committed = []  # (day, writer, step)
    committed_lock = threading.Lock()
    observations = []
    observations_lock = threading.Lock()
    stop = threading.Event()
    failures = []

    with Server(manager, archis, workers=6) as server:
        host, port = server.address

        def writer(writer_id):
            try:
                with Client(host, port) as client:
                    response = client.request(
                        {
                            "op": "sql",
                            "text": f"INSERT INTO employee VALUES "
                            f"({writer_id}, 'w{writer_id}', 0)",
                        }
                    )
                    assert response["ok"], response
                    step = 0
                    while not stop.is_set():
                        client.begin()
                        client.sql(
                            f"UPDATE employee SET salary = {step} "
                            f"WHERE id = {writer_id}"
                        )
                        day = client.commit()
                        with committed_lock:
                            committed.append((day, writer_id, step))
                        step += 1
            except Exception as exc:
                failures.append(exc)

        def reader():
            try:
                with Client(host, port) as client:
                    while not stop.is_set():
                        day = client.snapshot()
                        rows = client.sql(QUERY)["rows"]
                        with observations_lock:
                            observations.append((day, rows))
            except Exception as exc:
                failures.append(exc)

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(WRITERS)
        ] + [threading.Thread(target=reader) for _ in range(READERS)]
        for thread in threads:
            thread.start()
        time.sleep(seconds)
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
        if any(thread.is_alive() for thread in threads):
            failures.append(RuntimeError("stress thread failed to stop"))

    if failures:
        return f"server stress errors: {failures[:3]}"

    # the writers' initial INSERTs auto-commit without reporting a day,
    # so replay only the recorded UPDATE days and skip observations
    # taken before a writer's first update made it visible
    def replay(day):
        state = {}
        for commit_day, writer_id, step in sorted(committed):
            if commit_day > day:
                break
            state[writer_id] = [writer_id, f"w{writer_id}", step]
        return state

    mismatches = 0
    for day, rows in observations:
        expected = replay(day)
        for row in rows:
            writer_id = row[0]
            if writer_id in expected and row != expected[writer_id]:
                mismatches += 1
    if mismatches:
        return f"{mismatches} snapshot observations diverge from replay"
    print(
        f"  server stress: {len(committed)} commits, "
        f"{len(observations)} snapshot reads, 0 divergences"
    )
    return None


def stress_deadlock():
    """Phase 2: injected lock cycle must be broken quickly."""
    db = Database()
    for name in ("left", "right"):
        db.create_table(name, [("id", ColumnType.INT)], primary_key=("id",))
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
    if elapsed >= 10.0:
        return f"lock cycle not broken promptly ({elapsed:.1f}s)"
    if len(victims) != 1:
        return f"expected exactly one deadlock victim, got {victims}"
    if manager.locks.stats() != {"held": 0, "waiting": 0}:
        return f"locks leaked: {manager.locks.stats()}"
    print(f"  deadlock: cycle broken in {elapsed:.2f}s, one victim")
    return None


def stress_group_commit():
    """Phase 3: disjoint writers must batch fsyncs on a WAL database."""
    registry = get_registry()
    tables, txns = 8, 4
    with tempfile.TemporaryDirectory() as tmp:
        db = Database(
            os.path.join(tmp, "stress.db"), group_window=0.002
        )
        for index in range(tables):
            db.create_table(
                f"t{index}",
                [("id", ColumnType.INT), ("v", ColumnType.INT)],
                primary_key=("id",),
            )
        db.save()
        manager = TxnManager(db)
        fsyncs0 = registry.counter("wal.fsyncs").value
        commits0 = registry.counter("wal.commits").value
        batched0 = registry.counter("wal.group_commit.batched").value

        def worker(index):
            for step in range(txns):
                with manager.begin() as txn:
                    txn.sql(f"INSERT INTO t{index} VALUES ({step}, {step})")

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(tables)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        fsyncs = registry.counter("wal.fsyncs").value - fsyncs0
        commits = registry.counter("wal.commits").value - commits0
        batched = registry.counter("wal.group_commit.batched").value - batched0
        db.close()
    if commits != tables * txns:
        return f"expected {tables * txns} commits, saw {commits}"
    if batched <= 0 or fsyncs >= commits:
        return (
            f"group commit failed to batch: {fsyncs} fsyncs "
            f"for {commits} commits ({batched} batched)"
        )
    print(
        f"  group commit: {commits} commits -> {fsyncs} fsyncs "
        f"({batched} batched)"
    )
    return None


def stress_maintenance(seconds):
    """Phase 4: background freezes under live writers and readers."""
    db = Database()
    db.set_date("1995-01-01")
    db.create_table(
        "employee",
        [
            ("id", ColumnType.INT),
            ("name", ColumnType.VARCHAR),
            ("salary", ColumnType.INT),
        ],
        primary_key=("id",),
    )
    archis = ArchIS(
        db,
        config=ArchISConfig(
            umin=0.8,
            min_segment_rows=32,
            maintenance="background",
            maintenance_step_rows=64,
        ),
    )
    archis.track_table("employee", document_name="employees.xml")
    manager = TxnManager(db, archis)
    stop = threading.Event()
    failures = []
    final_steps = {}

    for writer_id in range(WRITERS):
        with manager.begin() as txn:
            txn.sql(
                f"INSERT INTO employee VALUES "
                f"({writer_id}, 'w{writer_id}', 0)"
            )

    def writer(writer_id):
        try:
            step = 0
            while not stop.is_set() and step < 200:
                step += 1
                with manager.begin() as txn:
                    txn.sql(
                        f"UPDATE employee SET salary = {step} "
                        f"WHERE id = {writer_id}"
                    )
                final_steps[writer_id] = step
        except Exception as exc:
            failures.append(exc)

    def reader():
        query = (
            'for $s in doc("employees.xml")/employees/employee/salary '
            "return $s"
        )
        try:
            while not stop.is_set():
                archis.xquery(query, allow_fallback=False)
        except Exception as exc:
            failures.append(exc)

    threads = [
        threading.Thread(target=writer, args=(w,)) for w in range(WRITERS)
    ] + [threading.Thread(target=reader) for _ in range(READERS // 2)]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + max(seconds, 1.0) * 10
    for thread in threads[:WRITERS]:
        thread.join(timeout=max(0.1, deadline - time.monotonic()))
    stop.set()
    for thread in threads:
        thread.join(timeout=30.0)
    if any(thread.is_alive() for thread in threads):
        failures.append(RuntimeError("maintenance stress thread stuck"))
    if failures:
        archis.close()
        return f"maintenance stress errors: {failures[:3]}"

    archis.apply_pending()  # drain committed entries into the archive
    archis.drain_maintenance()
    worker = archis.maintenance.stats()
    freezes = archis.segments.freeze_count
    violations = check_archive(archis)
    snapshot = dict(
        archis.sql(
            "SELECT t.id, t.salary FROM employee_salary t "
            f"FOR SYSTEM_TIME AS OF {db.current_date}"
        ).rows
    )
    archis.close()
    if worker["error"] is not None:
        return f"maintenance worker recorded an error: {worker['error']}"
    if archis.segments.pending_rewrites:
        return (
            "drained worker left rewrites pending: "
            f"{archis.segments.pending_rewrites}"
        )
    if freezes == 0:
        return "workload never triggered a background freeze"
    if violations:
        return f"archive invariants violated: {violations[:3]}"
    if snapshot != final_steps:
        return (
            f"final snapshot diverges from committed steps: "
            f"{snapshot} != {final_steps}"
        )
    rewritten = get_registry().counter("maintenance.rows_moved").value
    print(
        f"  maintenance: {freezes} background freezes, "
        f"{sum(final_steps.values())} updates archived, snapshot exact "
        f"({rewritten} rows moved lifetime)"
    )
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--seconds",
        type=float,
        default=3.0,
        help="wall-clock budget for the server stress phase",
    )
    args = parser.parse_args()

    baseline_threads = {t.name for t in threading.enumerate()}
    baseline_sockets = socket_fds()
    errors = []
    for name, phase in (
        ("server", lambda: stress_server(args.seconds)),
        ("deadlock", stress_deadlock),
        ("group-commit", stress_group_commit),
        ("maintenance", lambda: stress_maintenance(args.seconds)),
    ):
        error = phase()
        if error:
            errors.append(f"{name}: {error}")

    # leak checks: every repro-* thread joined, every socket closed
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        leaked_threads = {
            t.name
            for t in threading.enumerate()
            if t.name not in baseline_threads
        }
        if not leaked_threads:
            break
        time.sleep(0.05)
    if leaked_threads:
        errors.append(f"leaked threads: {sorted(leaked_threads)}")
    if baseline_sockets is not None:
        final_sockets = socket_fds()
        if final_sockets > baseline_sockets:
            errors.append(
                f"leaked sockets: {final_sockets - baseline_sockets}"
            )

    if errors:
        print("CONCURRENCY STRESS FAILED", file=sys.stderr)
        for error in errors:
            print(f"  - {error}", file=sys.stderr)
        return 1
    print("concurrency stress passed: no leaked threads or sockets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
