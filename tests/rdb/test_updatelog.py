"""Update-log memory and accounting semantics.

Drained entries leave the log for good (the in-memory footprint is the
pending tail, not the full mutation history), sequence numbers stay
monotonic across drains, a failed archiver hands its unapplied suffix
back via ``requeue``, and every log instance reports its own
``updatelog.backlog`` gauge series.
"""

from repro.obs import get_registry
from repro.rdb import ColumnType, Database
from repro.rdb.updatelog import UpdateLog


def fill(log, count, day=1):
    return [
        log.append(day, "t", "insert", (index,)) for index in range(count)
    ]


class TestTrimOnDrain:
    def test_drain_leaves_only_the_pending_tail(self):
        log = UpdateLog()
        fill(log, 5)
        assert len(log) == 5
        drained = log.drain()
        assert [entry.sequence for entry in drained] == [1, 2, 3, 4, 5]
        assert len(log) == 0
        assert log.pending() == []
        assert log.consumed_count == 5

    def test_sequences_stay_monotonic_across_drains(self):
        log = UpdateLog()
        fill(log, 3)
        log.drain()
        entry = log.append(9, "t", "insert", (9,))
        assert entry.sequence == 4
        fill(log, 2, day=10)
        assert [e.sequence for e in log.pending()] == [4, 5, 6]

    def test_predicate_drain_keeps_nonmatching_entries_in_order(self):
        log = UpdateLog()
        fill(log, 6)
        drained = log.drain(lambda entry: entry.row[0] % 2 == 0)
        assert [entry.row[0] for entry in drained] == [0, 2, 4]
        assert [entry.row[0] for entry in log.pending()] == [1, 3, 5]
        assert log.consumed_count == 3


class TestRequeue:
    def test_requeue_restores_the_front_in_order(self):
        log = UpdateLog()
        fill(log, 4)
        drained = log.drain()
        log.append(7, "t", "insert", (7,))  # arrived since the drain
        log.requeue(drained[2:])
        assert [e.sequence for e in log.pending()] == [3, 4, 5]
        assert log.consumed_count == 2

    def test_requeue_nothing_is_a_noop(self):
        log = UpdateLog()
        fill(log, 2)
        log.drain()
        log.requeue([])
        assert log.pending() == []
        assert log.consumed_count == 2

    def test_requeued_entries_drain_again(self):
        log = UpdateLog()
        fill(log, 3)
        drained = log.drain()
        log.requeue(drained)
        assert log.drain() == drained
        assert log.consumed_count == 3


class TestBacklogGauge:
    def test_each_log_reports_its_own_series(self):
        gauge = get_registry().labeled_gauge(
            "updatelog.backlog", label_key="log"
        )
        first = UpdateLog(scope="test-backlog-a")
        second = UpdateLog(scope="test-backlog-b")
        fill(first, 3)
        fill(second, 1)
        assert gauge.get("test-backlog-a") == 3
        assert gauge.get("test-backlog-b") == 1
        first.drain()
        assert gauge.get("test-backlog-a") == 0
        assert gauge.get("test-backlog-b") == 1
        gauge.remove("test-backlog-a")
        gauge.remove("test-backlog-b")

    def test_close_retires_the_series(self):
        gauge = get_registry().labeled_gauge(
            "updatelog.backlog", label_key="log"
        )
        log = UpdateLog(scope="test-backlog-closed")
        fill(log, 2)
        assert "test-backlog-closed" in gauge.values
        log.close()
        # a closed log must not linger in the family: stale series would
        # accumulate per archive ever opened and poison total()
        assert "test-backlog-closed" not in gauge.values
        log.close()  # idempotent
        assert "test-backlog-closed" not in gauge.values

    def test_append_after_close_republishes(self):
        gauge = get_registry().labeled_gauge(
            "updatelog.backlog", label_key="log"
        )
        log = UpdateLog(scope="test-backlog-reopen")
        fill(log, 1)
        log.close()
        log.append(2, "t", "insert", (9,))
        assert gauge.get("test-backlog-reopen") == 2
        log.close()
        assert "test-backlog-reopen" not in gauge.values

    def test_database_close_retires_its_logs_series(self, tmp_path):
        gauge = get_registry().labeled_gauge(
            "updatelog.backlog", label_key="log"
        )
        path = str(tmp_path / "retired.db")
        db = Database(path)
        db.create_table(
            "t", [("id", ColumnType.INT)], primary_key=("id",)
        )
        db.update_log.append(1, "t", "insert", (1,))
        assert path in gauge.values
        db.close()
        assert path not in gauge.values

    def test_anonymous_logs_get_unique_scopes(self):
        a, b = UpdateLog(), UpdateLog()
        assert a.scope != b.scope

    def test_file_backed_database_scopes_by_path(self, tmp_path):
        path = str(tmp_path / "scoped.db")
        db = Database(path)
        db.create_table(
            "t", [("id", ColumnType.INT)], primary_key=("id",)
        )
        assert db.update_log.scope == path
        db.close()
