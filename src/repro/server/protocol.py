"""The wire protocol: length-prefixed JSON messages.

Every message — request or response — is a UTF-8 JSON object preceded by
a 4-byte big-endian length.  Requests carry an ``op``, the protocol
version ``v``, plus op-specific fields; responses carry ``ok`` (bool)
plus either the result fields or ``error``/``message``:

    {"op": "sql", "v": 3, "text": "SELECT ...", "params": {...}}
    {"ok": true, "columns": [...], "rows": [[...], ...]}
    {"ok": false, "error": "DeadlockError", "message": "..."}

Operations: ``ping``, ``sql``, ``xquery``, ``begin``, ``commit``,
``abort``, ``snapshot`` (pin / re-pin the session's read snapshot),
``stats``, ``metrics`` (the Prometheus text exposition of the server's
metrics registry), ``health`` (liveness plus load gauges) and the async
job ops ``job.submit`` / ``job.status`` / ``job.result`` /
``job.cancel`` / ``job.list``.  The server answers ``BUSY``
(``error = "ServerBusyError"``) when admission control rejects a
request.  A ``sql`` request may bind ``params`` anywhere a value goes,
including the bounds of a ``FOR SYSTEM_TIME`` clause.

Distributed tracing: a request may carry a ``trace`` object —
``{"id": "<hex>", "parent": "<hex>"}`` — naming the client's trace and
(optionally) the client-side span that issued the request.  The server
adopts the id for the request's root span and its slow-query log
entries, so one trace id follows a query from the caller through the
wire into the engine.

Versioning: this build speaks exactly :data:`PROTOCOL_VERSION`.  A
request without ``v`` is served as that version; a request whose ``v``
is anything else gets a structured ``UNSUPPORTED_VERSION`` error
(``error = "UnsupportedVersionError"``, plus ``offered``/``supported``
fields) instead of a confusing decode failure.

Result encoding: a request carrying ``"enc": "binary"`` gets its rows
as one :mod:`repro.server.encoding` columnar frame.  The reply is then
two length-prefixed frames written together: the JSON header (with the
row data replaced by a ``binary`` descriptor) and the raw payload; see
:func:`send_message` / :func:`recv_payload`.  Without ``enc`` (or with
``"json"``) rows ride inline in the JSON; any other ``enc`` gets a
``PROTOCOL`` error.
"""

from __future__ import annotations

import json
import socket
import struct

from repro.errors import ProtocolError, error_response
from repro.xmlkit.dom import Element
from repro.xmlkit.serializer import serialize

#: the one wire-protocol version this build speaks
PROTOCOL_VERSION = 3

_LENGTH = struct.Struct(">I")

#: refuse anything larger than this (a corrupt prefix otherwise reads as
#: a multi-gigabyte allocation)
MAX_MESSAGE_BYTES = 16 * 1024 * 1024


def check_request(request: dict) -> dict | None:
    """The rejection for a request this server cannot serve, or ``None``.

    A ``v`` other than :data:`PROTOCOL_VERSION` gets
    ``UNSUPPORTED_VERSION`` (a missing ``v`` counts as the current
    version); an ``enc`` other than ``json``/``binary`` gets
    ``PROTOCOL``.
    """
    offered = request.get("v", PROTOCOL_VERSION)
    if offered != PROTOCOL_VERSION:
        return error_response(
            code="UNSUPPORTED_VERSION",
            message=(
                f"protocol version {offered!r} is not supported; this "
                f"server speaks {PROTOCOL_VERSION}"
            ),
            offered=offered,
            supported=[PROTOCOL_VERSION],
        )
    encoding = request.get("enc")
    if encoding not in (None, "json", "binary"):
        return error_response(
            code="PROTOCOL", message=f"unknown result encoding {encoding!r}"
        )
    return None


def cell_default(value):
    """``json.dumps`` fallback for raw engine cells (XML → serialized
    text), shared by JSON replies and binary TYPE_JSON columns."""
    if isinstance(value, Element):
        return serialize(value)
    raise TypeError(
        f"result cell of type {type(value).__name__} is not serializable"
    )


def send_message(sock: socket.socket, message: dict) -> None:
    """Write ``message`` length-prefixed to ``sock`` in one ``sendall``.

    A reply carrying rows in the binary encoding holds the encoded frame
    under the transient ``"_payload"`` key (never part of the JSON); it
    goes out as a second length-prefixed frame right behind the JSON
    header, in the same write.  Every size check runs before any byte is
    written, so an oversized message raises :class:`ProtocolError` with
    the connection still at a frame boundary.
    """
    payload = message.pop("_payload", None)
    body = json.dumps(
        message, separators=(",", ":"), default=cell_default
    ).encode("utf-8")
    parts = []
    for frame in (body,) if payload is None else (body, payload):
        if len(frame) > MAX_MESSAGE_BYTES:
            raise ProtocolError(
                f"frame of {len(frame)} bytes exceeds {MAX_MESSAGE_BYTES}"
            )
        parts += (_LENGTH.pack(len(frame)), frame)
    sock.sendall(b"".join(parts))


def recv_payload(sock: socket.socket) -> bytes:
    """Read one length-prefixed raw frame (the binary result payload
    announced by a response's ``binary`` descriptor)."""
    prefix = _recv_exact(sock, _LENGTH.size, eof_ok=False)
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"declared payload of {length} bytes exceeds {MAX_MESSAGE_BYTES}"
        )
    return _recv_exact(sock, length, eof_ok=False)


def recv_message(sock: socket.socket) -> dict | None:
    """Read one message; ``None`` on a clean EOF at a message boundary."""
    prefix = _recv_exact(sock, _LENGTH.size, eof_ok=True)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"declared message of {length} bytes exceeds {MAX_MESSAGE_BYTES}"
        )
    body = _recv_exact(sock, length, eof_ok=False)
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable message: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("messages must be JSON objects")
    return message


def _recv_exact(
    sock: socket.socket, count: int, eof_ok: bool
) -> bytes | None:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if eof_ok and remaining == count:
                return None
            raise ProtocolError(
                f"connection closed mid-message ({count - remaining} of "
                f"{count} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
