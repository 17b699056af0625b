"""The unified query-result surface.

Every read entry point of the engine — ``ArchIS.xquery``,
``ArchIS.sql`` (time travel included), the SQL session's SELECTs and
``server.Client.execute`` — returns a :class:`Result`: the rows, the
column names (when the source has any), the row count, and a ``stats``
/ ``trace`` handle describing how the query ran.

A :class:`Result` is *not* a list: read ``result.rows``.  (Earlier
releases shimmed the bare-list shape these entry points once returned —
iteration, ``len``, indexing, list equality — behind per-process
``DeprecationWarning``s; the shim is gone.)
:class:`repro.sql.result.ResultSet` subclasses :class:`Result` and
keeps first-class sequence behaviour — that has always been its
documented API.
"""

from __future__ import annotations


class Result:
    """Rows plus metadata, returned by every query entry point.

    ``rows``
        The result rows — tuples for relational results, XML
        :class:`~repro.xmlkit.dom.Element` nodes (or scalars) for
        XQuery forests.
    ``columns``
        Column names, or ``None`` when the source has no column
        structure (an XML forest).
    ``row_count``
        ``len(rows)``; DML results carry the affected-row count here
        with an empty ``rows`` list.
    ``stats``
        A dict of execution facts (elapsed seconds, translated SQL,
        fallback reason, server day...) — whatever the producing entry
        point knows.  Never ``None``; may be empty.
        ``server.Client.execute`` adds ``trace_id``: the distributed
        trace id the request travelled under, matching the server-side
        root span and any slow-query log entries it produced.
    ``trace``
        The root span of the query's trace when tracing captured one,
        else ``None``.
    """

    __slots__ = ("rows", "columns", "_row_count", "stats", "trace")

    def __init__(
        self,
        rows: list,
        columns: list[str] | None = None,
        row_count: int | None = None,
        stats: dict | None = None,
        trace: object | None = None,
    ) -> None:
        self.rows = rows
        self.columns = columns
        self._row_count = row_count
        self.stats = stats if stats is not None else {}
        self.trace = trace

    @property
    def row_count(self) -> int:
        if self._row_count is not None:
            return self._row_count
        return len(self.rows)

    #: alias matching DB-API naming (Client.execute callers expect it)
    @property
    def rowcount(self) -> int:
        return self.row_count

    def first(self):
        return self.rows[0] if self.rows else None

    def __eq__(self, other) -> bool:
        if isinstance(other, Result):
            return self.rows == other.rows
        return NotImplemented

    # equality compares rows, but a Result is still usable as a dict key
    # (identity hash, like the lists it replaces were not — strictly
    # more permissive than before)
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        cols = f" columns={self.columns}" if self.columns else ""
        return f"<{type(self).__name__}{cols} ({self.row_count} rows)>"


__all__ = ["Result"]
