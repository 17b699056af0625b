"""Exception hierarchy and the wire error-code registry.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can distinguish library failures from programming errors.

The server and client share one error surface: every error response on
the wire carries a structured ``{code, message, detail}`` built by
:func:`error_response` from the :data:`WIRE_CODES` registry below, and
:func:`exception_for` maps a received code back onto this hierarchy —
so a ``DEADLOCK`` raised inside the engine arrives at the client as a
:class:`DeadlockError`, not a stringly-typed ``ServerError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class StorageError(ReproError):
    """Low-level storage failure (pager, pages, heap files, blobs)."""


class PageFullError(StorageError):
    """A record or payload did not fit into the target page."""


class IndexError_(ReproError):
    """B+ tree index failure (named with a trailing underscore to avoid
    shadowing the builtin :class:`IndexError`)."""


class CatalogError(ReproError):
    """Schema-level failure: unknown table/column, duplicate definitions."""


class IntegrityError(ReproError):
    """Constraint violation (duplicate primary key, type mismatch on row)."""


class SqlError(ReproError):
    """Base class for SQL front-end failures.

    Parser errors carry the source position (``line``/``column``, both
    1-based) and the offending token text so callers — and the server's
    structured error responses — can point at the exact spot in the
    statement instead of an opaque "unexpected token".
    """

    def __init__(
        self,
        message: str,
        *,
        line: int | None = None,
        column: int | None = None,
        token: str | None = None,
    ) -> None:
        super().__init__(message)
        self.line = line
        self.column = column
        self.token = token


class SqlSyntaxError(SqlError):
    """The SQL text could not be tokenized or parsed."""


class SqlPlanError(SqlError):
    """The SQL statement parsed but could not be planned or executed."""


class XmlError(ReproError):
    """XML parsing or construction failure."""


class XPathError(ReproError):
    """XPath parsing or evaluation failure."""


class XQueryError(ReproError):
    """Base class for XQuery front-end failures."""


class XQuerySyntaxError(XQueryError):
    """The XQuery text could not be tokenized or parsed."""


class XQueryTypeError(XQueryError):
    """An XQuery expression was applied to a value of the wrong kind."""


class TranslationError(ReproError):
    """XQuery-to-SQL/XML translation failed outright (bad mapping input)."""


class UnsupportedQueryError(TranslationError):
    """The query is valid XQuery but outside the translatable subset.

    Callers may fall back to native evaluation over the published H-view
    (see ``ArchIS.query(allow_fallback=True)``).
    """


class TxnError(ReproError):
    """Transaction-layer failure (invalid state transitions, lock errors)."""


class DeadlockError(TxnError):
    """Granting a lock wait would close a cycle in the wait-for graph.

    The requesting transaction is the victim: it should abort (releasing
    its locks) and may retry.
    """


class LockTimeoutError(TxnError):
    """A lock could not be acquired within the configured timeout."""


class ServerError(ReproError):
    """Server front-end failure (protocol, session management)."""


class ServerBusyError(ServerError):
    """Admission control rejected the request (queue full / too many
    in-flight requests); the client should back off and retry."""


class ProtocolError(ServerError):
    """A malformed frame or request reached the server or client."""


class UnsupportedVersionError(ProtocolError):
    """The peer speaks a wire-protocol version this build does not.

    The server answers requests carrying an unknown ``v`` field with a
    structured ``UNSUPPORTED_VERSION`` error (code, the offered version
    and the supported ones) instead of a confusing decode failure.
    """


class JobError(ServerError):
    """Async-job subsystem failure (submission, lifecycle, fetch)."""


class JobNotFoundError(JobError):
    """No job with the given id exists (never submitted, or its result
    expired past the manager's TTL and was evicted)."""


class JobStateError(JobError):
    """The operation is invalid for the job's current state (e.g.
    fetching the result of a job that is still RUNNING)."""


class ArchisError(ReproError):
    """ArchIS system-level failure (tracking, clustering, compression)."""


class CompressionError(ArchisError):
    """BlockZIP compression or decompression failure."""


# -- the wire error-code registry ------------------------------------------

#: wire error code -> exception class.  One registry for both directions:
#: the server picks the *code* for an exception it caught (most-derived
#: class wins, via :func:`code_for`), the client picks the *exception*
#: for a code it received (via :func:`exception_for`).  Codes are stable
#: API; exception class names are not.
WIRE_CODES: dict[str, type[ReproError]] = {
    "BUSY": ServerBusyError,
    "UNSUPPORTED_VERSION": UnsupportedVersionError,
    "PROTOCOL": ProtocolError,
    "JOB_NOT_FOUND": JobNotFoundError,
    "JOB_STATE": JobStateError,
    "JOB": JobError,
    "SERVER": ServerError,
    "DEADLOCK": DeadlockError,
    "LOCK_TIMEOUT": LockTimeoutError,
    "TXN": TxnError,
    "SQL_SYNTAX": SqlSyntaxError,
    "SQL_PLAN": SqlPlanError,
    "SQL": SqlError,
    "UNSUPPORTED_QUERY": UnsupportedQueryError,
    "TRANSLATION": TranslationError,
    "XQUERY_SYNTAX": XQuerySyntaxError,
    "XQUERY": XQueryError,
    "XPATH": XPathError,
    "XML": XmlError,
    "COMPRESSION": CompressionError,
    "ARCHIS": ArchisError,
    "INTEGRITY": IntegrityError,
    "CATALOG": CatalogError,
    "INDEX": IndexError_,
    "STORAGE": StorageError,
    "ERROR": ReproError,
    #: non-ReproError escaping a handler: a bug, reported but opaque
    "INTERNAL": ServerError,
}

#: exception class -> its canonical code.  ``ServerError`` backs both
#: ``SERVER`` and ``INTERNAL``; the generic code is pinned explicitly so
#: server-side ``code_for`` never reports a known error as a bug.
_CODE_OF: dict[type[ReproError], str] = {}
for _code, _cls in WIRE_CODES.items():
    _CODE_OF.setdefault(_cls, _code)
_CODE_OF[ServerError] = "SERVER"


def code_for(exc: BaseException) -> str:
    """The wire code for ``exc``: the code of the most-derived class in
    its MRO that the registry knows; ``INTERNAL`` for foreign errors."""
    override = getattr(exc, "code", None)
    if isinstance(override, str) and override in WIRE_CODES:
        return override
    for cls in type(exc).__mro__:
        code = _CODE_OF.get(cls)
        if code is not None:
            return code
    return "INTERNAL"


def error_response(
    exc: BaseException | None = None,
    *,
    code: str | None = None,
    message: str | None = None,
    detail: dict | None = None,
    **extra,
) -> dict:
    """The structured ``{ok, error, code, message, detail}`` response
    for an error, plus any ``extra`` top-level fields (e.g. the
    ``offered``/``supported`` pair of version rejections)."""
    if exc is not None:
        code = code or code_for(exc)
        message = message if message is not None else str(exc)
        if detail is None:
            detail = getattr(exc, "detail", None)
        if detail is None and isinstance(exc, SqlError):
            detail = {
                k: v
                for k, v in (
                    ("line", exc.line),
                    ("column", exc.column),
                    ("token", exc.token),
                )
                if v is not None
            } or None
        error_name = (
            type(exc).__name__
            if isinstance(exc, ReproError)
            else "InternalError"
        )
        if not isinstance(exc, ReproError):
            message = f"{type(exc).__name__}: {exc}"
    else:
        error_name = WIRE_CODES.get(code or "ERROR", ReproError).__name__
    response = {
        "ok": False,
        "error": error_name,
        "code": code or "INTERNAL",
        "message": message or "",
    }
    if detail:
        response["detail"] = detail
    response.update(extra)
    return response


def exception_for(
    code: str | None,
    message: str,
    *,
    error: str | None = None,
    detail: dict | None = None,
) -> ReproError:
    """Rebuild a typed exception from a structured error response.

    Unknown/missing codes degrade to :class:`ServerError` with the
    remote error name folded into the message, so a newer server never
    crashes an older client.  The instance carries ``code``, ``detail``
    and ``remote_error`` attributes for callers that dispatch on them.
    """
    cls = WIRE_CODES.get(code or "", None)
    if cls is None:
        cls = ServerError
        message = f"{error or 'ServerError'}: {message}"
    if issubclass(cls, SqlError):
        exc = cls(
            message,
            line=(detail or {}).get("line"),
            column=(detail or {}).get("column"),
            token=(detail or {}).get("token"),
        )
    else:
        exc = cls(message)
    exc.code = code
    exc.detail = detail
    exc.remote_error = error
    return exc
