"""A small blocking client for the wire protocol.

Used by the test-suite, the concurrency stress script and the bench
harness; also a reference implementation of the protocol for external
clients (any language that can write a 4-byte length and JSON).

Errors come back typed: the server's structured ``{code, message,
detail}`` responses are rebuilt into the one exception hierarchy of
:mod:`repro.errors` (a remote deadlock raises
:class:`~repro.errors.DeadlockError` here, a finished-with-error job
re-raises its original error class on fetch).

Construct with ``encoding="binary"`` to ask for columnar result
frames: row-bearing responses then arrive as one compact binary payload
(see :mod:`repro.server.encoding`) instead of JSON rows — same data,
several times smaller and faster to decode.  Binary rows arrive as
tuples (like engine-side results); JSON rows arrive as lists.
"""

from __future__ import annotations

import socket
import time
from contextlib import contextmanager

from repro.api import Result
from repro.errors import JobError, ProtocolError, exception_for
from repro.obs.tracer import get_tracer, new_trace_id
from repro.server.encoding import CODEC, decode_result
from repro.server.jobs import TERMINAL
from repro.server.protocol import (
    PROTOCOL_VERSION,
    recv_message,
    recv_payload,
    send_message,
)


class Client:
    """One connection to a :class:`~repro.server.server.Server`.

    Every request this client builds carries the protocol version
    (``"v"``) and a ``trace`` field: inside a client-side span the
    active trace continues onto the server (the server's root span
    becomes a child of the caller's span); outside any span the
    connection's own ``trace_id`` groups all its requests into one
    trace.  A server that does not speak the version answers with a
    structured ``UNSUPPORTED_VERSION`` error, surfaced here as
    :class:`~repro.errors.UnsupportedVersionError`.

    Every convenience method takes a keyword-only ``timeout`` that
    bounds that one request (connect/default timeouts come from the
    constructor).  The client is a context manager; leaving the
    ``with`` block closes the socket.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float | None = 30.0,
        encoding: str = "json",
    ) -> None:
        if encoding not in ("json", "binary"):
            raise ProtocolError(f"unknown result encoding {encoding!r}")
        self.encoding = encoding
        self._sock = socket.create_connection((host, port), timeout=timeout)
        #: the trace id stamped on requests sent outside any local span
        self.trace_id = new_trace_id()

    # -- plumbing ----------------------------------------------------------

    @contextmanager
    def _deadline(self, timeout: float | None):
        """Temporarily narrow the socket timeout for one request."""
        if timeout is None:
            yield
            return
        previous = self._sock.gettimeout()
        self._sock.settimeout(timeout)
        try:
            yield
        finally:
            self._sock.settimeout(previous)

    def request(
        self, message: dict, *, timeout: float | None = None
    ) -> dict:
        """Send one request and return the raw response dict.

        The message is sent as given — ``request`` is the raw escape
        hatch; the convenience wrappers below stamp the protocol version,
        trace context and result encoding themselves.  A response
        announcing a binary payload has the payload frame read and
        decoded back into its ``rows`` (or ``results``) field.
        """
        with self._deadline(timeout):
            send_message(self._sock, message)
            response = recv_message(self._sock)
            if response is None:
                raise ProtocolError("server closed the connection")
            binary = response.get("binary")
            if binary is not None:
                payload = recv_payload(self._sock)
                if binary.get("codec") != CODEC:
                    raise ProtocolError(
                        f"server sent unknown codec {binary.get('codec')!r}"
                    )
                columns, rows = decode_result(payload)
                if response.get("forest"):
                    response["results"] = [row[0] for row in rows]
                else:
                    response["columns"] = columns
                    response["rows"] = rows
        return response

    def _trace_context(self) -> dict:
        span = get_tracer().current_span()
        if span is not None and span.trace_id:
            return {"id": span.trace_id, "parent": span.span_id}
        return {"id": self.trace_id}

    def _checked(
        self, message: dict, *, timeout: float | None = None
    ) -> dict:
        message.setdefault("v", PROTOCOL_VERSION)
        message.setdefault("trace", self._trace_context())
        if self.encoding == "binary":
            message.setdefault("enc", "binary")
        response = self.request(message, timeout=timeout)
        if not response.get("ok"):
            exc = exception_for(
                response.get("code"),
                response.get("message", ""),
                error=response.get("error"),
                detail=response.get("detail"),
            )
            for key in ("offered", "supported"):
                if key in response:
                    setattr(exc, key, response[key])
            raise exc
        return response

    # -- convenience wrappers ----------------------------------------------

    def execute(
        self,
        text: str,
        *,
        params: dict | None = None,
        timeout: float | None = None,
    ) -> Result:
        """Run one SQL statement, returning a unified
        :class:`~repro.api.Result`.

        SELECTs carry rows (lists over JSON, tuples over the binary
        encoding) and column names; DML carries an empty ``rows`` with
        ``row_count`` set to the affected-row count.
        """
        message: dict = {"op": "sql", "text": text}
        if params:
            message["params"] = params
        trace = self._trace_context()
        message["trace"] = trace
        response = self._checked(message, timeout=timeout)
        stats = dict(response.get("stats") or {})
        stats.setdefault("trace_id", trace["id"])
        if "columns" in response:
            return Result(
                response["rows"], list(response["columns"]), stats=stats
            )
        return Result(
            [], None, row_count=int(response.get("rowcount", 0)), stats=stats
        )

    def ping(self, *, timeout: float | None = None) -> bool:
        return bool(
            self._checked({"op": "ping"}, timeout=timeout).get("pong")
        )

    def sql(
        self,
        text: str,
        *,
        params: dict | None = None,
        timeout: float | None = None,
    ) -> dict:
        """Returns ``{"columns", "rows"}`` for queries, ``{"rowcount"}``
        for DML."""
        message: dict = {"op": "sql", "text": text}
        if params:
            message["params"] = params
        return self._checked(message, timeout=timeout)

    def xquery(
        self,
        text: str,
        *,
        allow_fallback: bool = True,
        timeout: float | None = None,
    ) -> list:
        return self._checked(
            {"op": "xquery", "text": text, "allow_fallback": allow_fallback},
            timeout=timeout,
        )["results"]

    def begin(self, *, timeout: float | None = None) -> int:
        return self._checked({"op": "begin"}, timeout=timeout)["txn"]

    def commit(self, *, timeout: float | None = None) -> int:
        """Commit the open transaction; returns its commit day."""
        return self._checked({"op": "commit"}, timeout=timeout)["day"]

    def abort(self, *, timeout: float | None = None) -> None:
        self._checked({"op": "abort"}, timeout=timeout)

    def snapshot(
        self, day: int | None = None, *, timeout: float | None = None
    ) -> int:
        """Re-pin the session's read snapshot; returns the pinned day."""
        message: dict = {"op": "snapshot"}
        if day is not None:
            message["day"] = day
        return self._checked(message, timeout=timeout)["day"]

    def stats(self, *, timeout: float | None = None) -> dict:
        return self._checked({"op": "stats"}, timeout=timeout)["stats"]

    def metrics(self, *, timeout: float | None = None) -> str:
        """The server's Prometheus text exposition."""
        return self._checked({"op": "metrics"}, timeout=timeout)[
            "exposition"
        ]

    def health(self, *, timeout: float | None = None) -> dict:
        """Liveness check; returns ``{"status", "gauges"}``."""
        response = self._checked({"op": "health"}, timeout=timeout)
        return {
            "status": response["status"],
            "gauges": response["gauges"],
        }

    # -- async jobs --------------------------------------------------------

    def submit(
        self,
        text: str,
        *,
        kind: str = "sql",
        params: dict | None = None,
        allow_fallback: bool = True,
        day: int | None = None,
        timeout: float | None = None,
    ) -> str:
        """Submit a read-only query as an async job; returns its id.

        The id is shareable: any connection to the same server can poll
        :meth:`job_status` and fetch :meth:`job_result` with it until
        the server's result TTL evicts the finished job.
        """
        message: dict = {
            "op": "job.submit",
            "kind": kind,
            "text": text,
            "allow_fallback": allow_fallback,
        }
        if params:
            message["params"] = params
        if day is not None:
            message["day"] = day
        return self._checked(message, timeout=timeout)["job"]

    def job_status(
        self, job_id: str, *, timeout: float | None = None
    ) -> dict:
        """The job's status view: ``state``, ``progress``, timestamps."""
        response = self._checked(
            {"op": "job.status", "job": job_id}, timeout=timeout
        )
        response.pop("ok", None)
        return response

    def job_result(
        self, job_id: str, *, timeout: float | None = None
    ) -> Result:
        """Fetch a COMPLETED job's cached result as a
        :class:`~repro.api.Result`.

        XQuery jobs come back as a single-column ``results`` Result
        (one serialized element per row).  A job that finished in
        ``ERROR`` re-raises its original typed error; a job still
        PENDING/RUNNING raises :class:`~repro.errors.JobStateError`.
        """
        response = self._checked(
            {"op": "job.result", "job": job_id}, timeout=timeout
        )
        stats = {"day": response.get("day"), "job": job_id}
        if "results" in response:
            return Result(
                [[item] for item in response["results"]],
                ["results"],
                stats=stats,
            )
        return Result(
            response["rows"], list(response["columns"]), stats=stats
        )

    def job_cancel(
        self, job_id: str, *, timeout: float | None = None
    ) -> dict:
        """Request cooperative cancellation; returns the status view."""
        response = self._checked(
            {"op": "job.cancel", "job": job_id}, timeout=timeout
        )
        response.pop("ok", None)
        return response

    def job_list(self, *, timeout: float | None = None) -> list[dict]:
        """Status views of every live (non-evicted) job on the server."""
        return self._checked({"op": "job.list"}, timeout=timeout)["jobs"]

    def job_wait(
        self,
        job_id: str,
        *,
        poll: float = 0.02,
        timeout: float | None = 30.0,
    ) -> dict:
        """Poll ``job.status`` until the job reaches a terminal state.

        Returns the final status view; raises :class:`JobError` if the
        deadline passes first (the job keeps running server-side).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.job_status(job_id)
            if status["state"] in TERMINAL:
                return status
            if deadline is not None and time.monotonic() >= deadline:
                raise JobError(
                    f"job {job_id} still {status['state']} after "
                    f"{timeout:g}s"
                )
            time.sleep(poll)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
