"""End-to-end distributed tracing and live exposition over real sockets.

The acceptance path of observability v2: a query issued through
``server.Client`` produces a server-side root span carrying the client's
trace id, the slow-query log attributes queries to that trace, and the
``metrics``/``health`` ops expose the registry live.
"""

import time

import pytest

from repro.obs import get_registry, get_tracer
from repro.server import Client, Server

from tests.txn.conftest import make_managed

HISTORY_XQUERY = (
    'for $s in doc("employees.xml")/employees/employee/salary return $s'
)


@pytest.fixture
def served():
    archis, manager = make_managed()
    server = Server(manager, archis, workers=4).start()
    host, port = server.address
    try:
        yield archis, manager, server, host, port
    finally:
        server.stop()


@pytest.fixture
def tracing():
    tracer = get_tracer()
    tracer.enable()
    tracer.finished.clear()
    try:
        yield tracer
    finally:
        tracer.disable()
        tracer.finished.clear()


def connect(served, **kwargs):
    _, _, _, host, port = served
    return Client(host, port, **kwargs)


def server_roots(tracer, deadline=5.0):
    """The finished ``server.request`` roots, waiting out the send race.

    The client unblocks as soon as the response bytes arrive; the worker
    thread closes its root span just *after* the send, so the span can
    land in ``tracer.finished`` a beat after the client call returns.
    """
    end = time.monotonic() + deadline
    while True:
        roots = [s for s in tracer.finished if s.name == "server.request"]
        if roots or time.monotonic() >= end:
            return roots
        time.sleep(0.01)


class TestTracePropagation:
    def test_server_root_span_carries_client_trace_id(
        self, served, tracing
    ):
        with connect(served) as client:
            client.execute("INSERT INTO employee VALUES (1, 'ann', 100)")
            result = client.execute("SELECT id FROM employee")
        assert result.stats["trace_id"] == client.trace_id
        roots = server_roots(tracing)
        assert roots, "no server-side root spans recorded"
        assert {s.trace_id for s in roots} == {client.trace_id}
        # the root wraps execution and the response write as children
        child_names = {c.name for root in roots for c in root.children}
        assert {"server.execute", "server.send"} <= child_names

    def test_client_side_span_becomes_remote_parent(self, served, tracing):
        with connect(served) as client:
            with tracing.span("client.batch") as local:
                client.ping()
        roots = server_roots(tracing)
        assert roots
        assert roots[-1].trace_id == local.trace_id
        assert roots[-1].parent_id == local.span_id

    def test_each_connection_gets_its_own_trace(self, served, tracing):
        with connect(served) as a, connect(served) as b:
            assert a.trace_id != b.trace_id

    def test_slow_query_log_records_client_trace_id(self, served):
        archis, _, _, _, _ = served
        archis.slow_query_log.threshold = 0.0  # record everything
        with connect(served) as client:
            client.execute("INSERT INTO employee VALUES (1, 'ann', 100)")
            client.xquery(HISTORY_XQUERY)
        entries = list(archis.slow_query_log)
        assert entries, "slow log recorded nothing at threshold 0"
        assert entries[-1].trace_id == client.trace_id

    def test_trace_flows_with_span_recording_disabled(self, served):
        # context propagation is independent of the enabled flag: the
        # slow log still attributes queries with tracing off
        archis, _, _, _, _ = served
        archis.slow_query_log.threshold = 0.0
        assert not get_tracer().enabled
        with connect(served) as client:
            client.xquery(HISTORY_XQUERY)
        assert list(archis.slow_query_log)[-1].trace_id == client.trace_id


class TestLiveExposition:
    def test_metrics_op_returns_exposition(self, served):
        with connect(served) as client:
            client.execute("INSERT INTO employee VALUES (1, 'ann', 100)")
            text = client.metrics()
        assert "# TYPE repro_server_request_seconds histogram" in text
        assert 'repro_server_request_seconds_bucket{op="sql"' in text
        for name in (
            "repro_server_request_seconds_quantile",
            "repro_txn_commit_seconds_quantile",
            "repro_ingest_freeze_stall_seconds_quantile",
        ):
            assert f'{name}{{quantile="0.99"}}' in text

    def test_top_shows_the_plan_cache_counters(self, served, capsys):
        from repro.tools import main

        _, _, _, host, port = served
        with connect(served) as client:
            for key in (1, 2):
                client.execute(f"SELECT id FROM employee WHERE id = {key}")
        assert main(
            ["top", "--host", host, "--port", str(port), "--iterations", "1"]
        ) == 0
        out = capsys.readouterr().out
        for name in ("hits", "misses", "replans"):
            assert f"repro_plan_cache_{name} " in out

    def test_health_op_reports_gauges(self, served):
        with connect(served) as client:
            health = client.health()
        assert health["status"] == "ok"
        gauges = health["gauges"]
        assert gauges["server.sessions"] >= 1
        for name in (
            "txn.active",
            "txn.aborts",
            "buffer.occupancy",
            "pager.dirty_pages",
            "wal.size_bytes",
            "updatelog.backlog",
        ):
            assert name in gauges

    def test_stats_metrics_carry_quantiles(self, served):
        archis, _, _, _, _ = served
        with connect(served) as client:
            client.execute("INSERT INTO employee VALUES (1, 'ann', 100)")
        metrics = archis.stats()["metrics"]
        for name in (
            "server.request.seconds",
            "txn.commit.seconds",
            "ingest.freeze_stall.seconds",
        ):
            assert {"p50", "p95", "p99"} <= set(metrics[name]), name
        assert metrics["txn.commit.seconds"]["count"] >= 1

    def test_stats_returns_a_deep_copy(self, served):
        archis, _, _, _, _ = served
        first = archis.stats()
        first["metrics"].clear()
        first["segments"]["count"] = -1
        second = archis.stats()
        assert second["metrics"], "stats() aliased registry internals"
        assert second["segments"]["count"] >= 0

    def test_request_latency_recorded_per_op(self, served):
        registry = get_registry()
        histogram = registry.labeled_histogram(
            "server.request.seconds", label_key="op"
        )
        before = histogram.aggregate.count
        with connect(served) as client:
            client.ping()
            client.execute("SELECT id FROM employee")
        # the worker observes *after* sending the response, so give it a
        # moment to get scheduled past the send
        deadline = time.time() + 2.0
        while (
            histogram.aggregate.count < before + 2
            and time.time() < deadline
        ):
            time.sleep(0.01)
        assert histogram.aggregate.count >= before + 2
        labels = dict(histogram.labels())
        assert "ping" in labels and "sql" in labels
