"""Per-connection session state: one client's transactions and reads.

A session owns at most one write :class:`~repro.txn.manager.Transaction`
at a time.  Reads outside a transaction are **snapshot auto-commit**:
each SELECT runs against the session's pinned snapshot, so a client
never blocks on writers.  DML outside a transaction auto-commits through
a one-statement transaction.  Until the client pins a snapshot
explicitly with the ``snapshot`` op, the session re-pins to the latest
stable day after each of its own commits, so an autocommit INSERT is
visible to the SELECT that follows it (read-your-writes); an explicit
pin is kept until the client moves it.

Requests and responses are plain dicts (see
:mod:`repro.server.protocol`); :meth:`Session.handle` never raises —
engine errors come back as ``{"ok": false, "error": ..., "message":
...}`` so one bad statement cannot kill the connection.
"""

from __future__ import annotations

import time

from repro.errors import JobError, TxnError, error_response
from repro.obs.metrics import get_registry
from repro.obs.promtext import render_prometheus
from repro.obs.tracer import get_tracer
from repro.server.encoding import CODEC, encode_result
from repro.server.protocol import cell_default, check_request
from repro.sql.lexer import statement_keyword
from repro.sql.session import execute_sql

_REQUESTS = get_registry().labeled_counter("server.requests")
_ERRORS = get_registry().counter("server.errors")
_REQUEST_SECONDS = get_registry().labeled_histogram(
    "server.request.seconds", label_key="op"
)

_OPS = (
    "ping",
    "sql",
    "xquery",
    "begin",
    "commit",
    "abort",
    "snapshot",
    "stats",
    "metrics",
    "health",
    "job.submit",
    "job.status",
    "job.result",
    "job.cancel",
    "job.list",
)


def _with_rows(request: dict, response: dict, columns, rows) -> dict:
    """Attach a result to ``response`` in the request's encoding.

    ``columns=None`` marks an XQuery forest: ``rows`` is the item list,
    shipped as ``results``.  JSON replies keep the raw engine cells —
    :func:`~repro.server.protocol.send_message` serializes XML on the
    way out.  A binary reply keeps the column names in the header, adds
    a ``binary`` descriptor and rides the encoded frame on the transient
    ``_payload`` key; a forest travels as one ``results`` column plus a
    ``forest`` marker telling the client to unwrap it back to a list.
    """
    if request.get("enc") != "binary":
        if columns is None:
            response["results"] = rows
        else:
            response["columns"] = columns
            response["rows"] = rows
        return response
    forest = columns is None
    if forest:
        columns, rows = ["results"], [[item] for item in rows]
    frame = encode_result(rows, columns, json_default=cell_default)
    response["columns"] = columns
    response["binary"] = {
        "codec": CODEC,
        "rows": len(rows),
        "bytes": len(frame),
    }
    if forest:
        response["forest"] = True
    response["_payload"] = frame
    return response


class Session:
    """One client's view of the shared transaction manager."""

    def __init__(
        self, manager, archis=None, session_id: int = 0, jobs=None
    ) -> None:
        self.manager = manager
        self.archis = archis
        self.jobs = jobs
        self.id = session_id
        self.txn = None
        self._snapshot = manager.snapshot()
        # False until the client issues a ``snapshot`` op; while False,
        # the session re-pins after its own commits (read-your-writes).
        self._pinned = False

    # -- dispatch ----------------------------------------------------------

    def handle(
        self,
        request: dict,
        *,
        send=None,
        recv_seconds: float | None = None,
        wait_seconds: float | None = None,
    ) -> dict:
        """Execute one request dict, returning the response dict.

        The request's root span covers the whole server-side lifetime:
        ``recv_seconds`` (how long the wire read took) and
        ``wait_seconds`` (time queued on admission control) arrive as
        attributes, execution and the optional ``send`` callable run as
        child spans.  A ``trace`` field on the request —
        ``{"id": ..., "parent": ...}`` — links the root span (and the
        slow-query log) to the client's distributed trace, whether or
        not span recording is enabled.
        """
        started = time.perf_counter()
        op = request.get("op")
        trace = request.get("trace")
        if not isinstance(trace, dict):
            trace = {}
        tracer = get_tracer()
        with tracer.context(trace.get("id"), trace.get("parent")):
            with tracer.span(
                "server.request", op=op, session=self.id
            ) as span:
                if recv_seconds is not None:
                    span.set("recv_seconds", recv_seconds)
                if wait_seconds is not None:
                    span.set("wait_seconds", wait_seconds)
                with tracer.span("server.execute"):
                    response = self._execute(op, request)
                if send is not None:
                    with tracer.span("server.send"):
                        send(response)
            _REQUEST_SECONDS.observe(
                op if op in _OPS else "invalid",
                time.perf_counter() - started,
            )
        return response

    def _execute(self, op, request: dict) -> dict:
        rejection = check_request(request)
        if rejection is not None:
            _ERRORS.inc()
            return rejection
        if op not in _OPS:
            _ERRORS.inc()
            return error_response(
                code="PROTOCOL", message=f"unknown op {op!r}"
            )
        _REQUESTS.inc(op)
        try:
            return getattr(self, f"_op_{op.replace('.', '_')}")(request)
        except Exception as exc:  # noqa: BLE001 - protect the worker
            _ERRORS.inc()
            return error_response(exc)

    def close(self) -> None:
        """Abort any in-flight transaction (connection teardown)."""
        if self.txn is not None and self.txn.state == "active":
            self.txn.abort()
        self.txn = None

    # -- operations --------------------------------------------------------

    def _op_ping(self, request: dict) -> dict:
        return {"ok": True, "pong": True}

    def _op_begin(self, request: dict) -> dict:
        if self.txn is not None and self.txn.state == "active":
            raise TxnError(
                f"session {self.id} already has transaction "
                f"{self.txn.id} open"
            )
        self.txn = self.manager.begin()
        return {"ok": True, "txn": self.txn.id, "day": self.txn.day}

    def _op_commit(self, request: dict) -> dict:
        txn = self._require_txn()
        txn.commit()
        self.txn = None
        self._repin()
        return {"ok": True, "txn": txn.id, "day": txn.day}

    def _op_abort(self, request: dict) -> dict:
        txn = self._require_txn()
        txn.abort()
        self.txn = None
        return {"ok": True, "txn": txn.id}

    def _op_snapshot(self, request: dict) -> dict:
        self._snapshot = self.manager.snapshot(request.get("day"))
        self._pinned = True
        return {"ok": True, "day": self._snapshot.day}

    def _op_sql(self, request: dict) -> dict:
        text = request.get("text")
        if not isinstance(text, str):
            raise TxnError("sql op needs a 'text' string")
        params = request.get("params") or None
        if self.txn is not None and self.txn.state == "active":
            result = self.txn.sql(text, params)
        else:
            result = self._autocommit(text, params)
        if hasattr(result, "columns"):
            return _with_rows(
                request, {"ok": True}, list(result.columns), result.rows
            )
        return {"ok": True, "rowcount": result}

    def _autocommit(self, text: str, params):
        """A statement outside any transaction: SELECTs run on the
        session snapshot, anything else through a one-statement write
        transaction.  The split is decided by statement type — catching
        the snapshot's read-only rejection instead would also re-execute
        a SELECT whose TxnError had some unrelated cause."""
        db = self.manager.db
        if statement_keyword(text) == "select":
            return self._snapshot.run(execute_sql, db, text, params)
        # prepared before the transaction begins: a malformed statement
        # fails without one
        bound = db.statements.prepare(text)
        with self.manager.begin() as txn:
            result = self.manager.execute(txn, text, params, bound=bound)
        self._repin()
        return result

    def _repin(self) -> None:
        """After a commit: follow the session's own writes unless the
        client holds an explicit pin."""
        if not self._pinned:
            self._snapshot = self.manager.snapshot()

    def _op_xquery(self, request: dict) -> dict:
        if self.archis is None:
            raise TxnError("no archive attached; xquery unavailable")
        text = request.get("text")
        if not isinstance(text, str):
            raise TxnError("xquery op needs a 'text' string")
        result = self._snapshot.run(
            self.archis.xquery,
            text,
            allow_fallback=bool(request.get("allow_fallback", True)),
        )
        response = {
            "ok": True,
            "day": self._snapshot.day,
            "stats": {
                k: v
                for k, v in result.stats.items()
                if isinstance(v, (str, int, float, bool))
            },
        }
        return _with_rows(request, response, None, result.rows)

    # -- async jobs --------------------------------------------------------

    def _require_jobs(self):
        if self.jobs is None:
            raise JobError(
                "this server has no job manager; async jobs unavailable"
            )
        return self.jobs

    @staticmethod
    def _job_id(request: dict) -> str:
        job_id = request.get("job")
        if not isinstance(job_id, str):
            raise JobError("job ops need a 'job' id string")
        return job_id

    def _op_job_submit(self, request: dict) -> dict:
        text = request.get("text")
        if not isinstance(text, str):
            raise JobError("job.submit needs a 'text' string")
        job = self._require_jobs().submit(
            request.get("kind", "sql"),
            text,
            params=request.get("params") or None,
            allow_fallback=bool(request.get("allow_fallback", True)),
            day=request.get("day"),
            trace_id=get_tracer().current_trace_id(),
        )
        return {"ok": True, **job.describe()}

    def _op_job_status(self, request: dict) -> dict:
        job = self._require_jobs().get(self._job_id(request))
        return {"ok": True, **job.describe()}

    def _op_job_result(self, request: dict) -> dict:
        payload = self._require_jobs().result(self._job_id(request))
        response = {"ok": True, "day": payload["day"]}
        if "forest" in payload:
            return _with_rows(request, response, None, payload["forest"])
        return _with_rows(
            request, response, payload["columns"], payload["rows"]
        )

    def _op_job_cancel(self, request: dict) -> dict:
        job = self._require_jobs().cancel(self._job_id(request))
        return {"ok": True, **job.describe()}

    def _op_job_list(self, request: dict) -> dict:
        return {
            "ok": True,
            "jobs": [job.describe() for job in self._require_jobs().list()],
        }

    def _op_stats(self, request: dict) -> dict:
        if self.archis is not None:
            return {"ok": True, "stats": self.archis.stats()}
        return {"ok": True, "stats": {"txn": self.manager.stats()}}

    def _op_metrics(self, request: dict) -> dict:
        """The full Prometheus text exposition of the process registry."""
        return {"ok": True, "exposition": render_prometheus()}

    def _op_health(self, request: dict) -> dict:
        """Liveness plus the engine's load-bearing gauges."""
        registry = get_registry()
        return {
            "ok": True,
            "status": "ok",
            "gauges": {
                "server.sessions": registry.gauge("server.sessions").value,
                "txn.active": registry.gauge("txn.active").value,
                "txn.aborts": registry.counter("txn.aborts").value,
                "buffer.occupancy": registry.gauge(
                    "buffer.occupancy"
                ).value,
                "pager.dirty_pages": registry.gauge(
                    "pager.dirty_pages"
                ).value,
                "wal.size_bytes": registry.gauge("wal.size_bytes").value,
                "updatelog.backlog": registry.labeled_gauge(
                    "updatelog.backlog"
                ).total,
            },
        }

    def _require_txn(self):
        if self.txn is None or self.txn.state != "active":
            raise TxnError(f"session {self.id} has no open transaction")
        return self.txn
