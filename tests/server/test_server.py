"""End-to-end server tests over real sockets.

Each test starts a :class:`~repro.server.Server` on an ephemeral port
and talks to it with :class:`~repro.server.Client` — the same path an
external process would use via ``python -m repro.tools serve``.
"""

import threading
import time

import pytest

from repro.errors import CatalogError, ProtocolError, ServerBusyError
from repro.server import Client, Server, protocol

from tests.txn.conftest import make_managed

QUERY = "SELECT id, name, salary FROM employee ORDER BY id"
HISTORY_XQUERY = (
    'for $s in doc("employees.xml")/employees/employee/salary return $s'
)


def thread_names():
    return {t.name for t in threading.enumerate()}


@pytest.fixture
def served():
    archis, manager = make_managed()
    server = Server(manager, archis, workers=4).start()
    host, port = server.address
    try:
        yield archis, manager, server, host, port
    finally:
        server.stop()


def connect(served, **kwargs):
    _, _, _, host, port = served
    return Client(host, port, **kwargs)


class TestProtocolBasics:
    def test_ping(self, served):
        with connect(served) as client:
            assert client.ping() is True

    def test_unknown_op_is_an_error_not_a_disconnect(self, served):
        with connect(served) as client:
            response = client.request({"op": "explode"})
            assert response["ok"] is False
            assert response["error"] == "ProtocolError"
            assert client.ping() is True  # connection survived

    def test_stats_exposes_txn_and_wal_counters(self, served):
        with connect(served) as client:
            stats = client.stats()
        assert "txn" in stats
        assert "wal_fsyncs" in stats["durability"]


class TestSqlOverTheWire:
    def test_autocommit_write_then_snapshot_read(self, served):
        with connect(served) as client:
            result = client.sql(
                "INSERT INTO employee VALUES (1, 'Bob', 60000)"
            )
            assert result["rowcount"] == 1
            client.snapshot()  # re-pin past the auto-committed write
            result = client.sql(QUERY)
            assert result["columns"] == ["id", "name", "salary"]
            assert result["rows"] == [[1, "Bob", 60000]]

    def test_autocommit_read_your_writes(self, served):
        """Without an explicit snapshot pin, a session's reads follow
        its own commits — INSERT then SELECT on one connection sees the
        new row, for autocommit and for explicit transactions alike."""
        with connect(served) as client:
            client.sql("INSERT INTO employee VALUES (1, 'Bob', 60000)")
            assert client.sql(QUERY)["rows"] == [[1, "Bob", 60000]]
            client.begin()
            client.sql("UPDATE employee SET salary = 70000 WHERE id = 1")
            client.commit()
            assert client.sql(QUERY)["rows"] == [[1, "Bob", 70000]]

    def test_transaction_lifecycle(self, served):
        with connect(served) as writer, connect(served) as reader:
            writer.begin()
            writer.sql("INSERT INTO employee VALUES (1, 'Bob', 60000)")
            # another session's snapshot cannot see the open transaction
            reader.snapshot()
            assert reader.sql(QUERY)["rows"] == []
            writer.commit()
            reader.snapshot()
            assert reader.sql(QUERY)["rows"] == [[1, "Bob", 60000]]

    def test_abort_discards_writes(self, served):
        with connect(served) as client:
            client.begin()
            client.sql("INSERT INTO employee VALUES (9, 'Ghost', 1)")
            client.abort()
            client.snapshot()
            assert client.sql(QUERY)["rows"] == []

    def test_pinned_snapshot_ignores_later_commits(self, served):
        with connect(served) as client:
            client.sql("INSERT INTO employee VALUES (1, 'Bob', 60000)")
            pinned = client.snapshot()
            client.sql("UPDATE employee SET salary = 70000 WHERE id = 1")
            # still pinned before the update
            assert client.sql(QUERY)["rows"] == [[1, "Bob", 60000]]
            assert client.snapshot() > pinned
            assert client.sql(QUERY)["rows"] == [[1, "Bob", 70000]]

    def test_sql_error_does_not_kill_the_session(self, served):
        with connect(served) as client:
            # the structured {code, message} response rebuilds the
            # engine's own exception type client-side
            with pytest.raises(CatalogError) as excinfo:
                client.sql("SELECT nope FROM missing")
            assert excinfo.value.remote_error
            assert excinfo.value.code == "CATALOG"
            assert client.ping() is True

    def test_xquery_runs_on_the_session_snapshot(self, served):
        with connect(served) as client:
            client.sql("INSERT INTO employee VALUES (1, 'Bob', 60000)")
            client.snapshot()
            client.sql("UPDATE employee SET salary = 70000 WHERE id = 1")
            # snapshot predates the update: one salary version visible
            assert len(client.xquery(HISTORY_XQUERY)) == 1
            client.snapshot()
            assert len(client.xquery(HISTORY_XQUERY)) == 2


class TestConcurrencyAndLifecycle:
    def test_concurrent_clients(self, served):
        _, manager, _, host, port = served
        failures = []

        def hammer(key):
            try:
                with Client(host, port) as client:
                    client.sql(
                        f"INSERT INTO employee VALUES ({key}, 'w{key}', 0)"
                    )
                    for step in range(3):
                        client.begin()
                        client.sql(
                            f"UPDATE employee SET salary = {step} "
                            f"WHERE id = {key}"
                        )
                        client.commit()
                    # the stable snapshot day stays below any still
                    # active transaction, so our own last commit may
                    # only become visible once other writers finish
                    deadline = time.monotonic() + 30.0
                    while time.monotonic() < deadline:
                        client.snapshot()
                        rows = client.sql(QUERY)["rows"]
                        if [key, f"w{key}", 2] in rows:
                            break
                        time.sleep(0.02)
                    assert [key, f"w{key}", 2] in rows
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(k,)) for k in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not failures, failures
        assert manager.stats()["active"] == 0

    def test_disconnect_aborts_open_transaction(self, served):
        _, manager, _, _, _ = served
        client = connect(served)
        client.begin()
        client.sql("INSERT INTO employee VALUES (5, 'Gone', 1)")
        client.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if manager.stats()["active"] == 0:
                break
            time.sleep(0.02)
        assert manager.stats()["active"] == 0
        assert manager.locks.stats() == {"held": 0, "waiting": 0}
        with connect(served) as probe:
            probe.snapshot()
            assert probe.sql(QUERY)["rows"] == []

    def test_admission_control_rejects_overflow(self):
        """workers=1 + queue_size=1: with one connection parked on the
        worker and one queued, further connects get BUSY."""
        archis, manager = make_managed()
        server = Server(manager, archis, workers=1, queue_size=1).start()
        host, port = server.address
        try:
            parked = Client(host, port)
            assert parked.ping()  # occupies the only worker
            queued = Client(host, port)
            time.sleep(0.3)  # let the acceptor queue it
            rejected = Client(host, port)
            with pytest.raises((ServerBusyError, ProtocolError)):
                rejected.ping()
            parked.close()
            queued.close()
            rejected.close()
        finally:
            server.stop()

    def test_oversized_reply_is_a_typed_error_not_a_dead_worker(
        self, monkeypatch
    ):
        """With the only worker serving it, an over-limit reply must
        come back as a ProtocolError on the same connection and leave
        the worker alive for the next client."""
        monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", 2000)
        archis, manager = make_managed()
        with manager.begin() as txn:
            for key in range(200):
                txn.sql(f"INSERT INTO employee VALUES ({key}, 'e{key}', 1)")
        server = Server(manager, archis, workers=1).start()
        host, port = server.address
        try:
            with Client(host, port, timeout=2.0) as client:
                with pytest.raises(ProtocolError, match="exceeds 2000"):
                    client.sql(QUERY)
                assert client.ping() is True
            with Client(host, port, timeout=2.0) as other:
                assert other.ping() is True
        finally:
            server.stop()

    def test_stop_leaks_no_threads(self):
        archis, manager = make_managed()
        before = thread_names()
        server = Server(manager, archis, workers=3).start()
        host, port = server.address
        client = Client(host, port)
        assert client.ping()
        server.stop()
        client.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            leaked = {
                n for n in thread_names() - before if n.startswith("repro-")
            }
            if not leaked:
                break
            time.sleep(0.05)
        assert not leaked, leaked
        # stopped server can be restarted
        server.start()
        host, port = server.address
        with Client(host, port) as again:
            assert again.ping()
        server.stop()
