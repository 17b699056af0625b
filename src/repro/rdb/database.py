"""The Database facade: catalog + storage + clock + update log + SQL.

This is the "RDBMS" of the reproduction.  ArchIS attaches to one of these:
the current tables, the H-tables, the segment table and the BLOB store all
live inside a single :class:`Database`, exactly as in the paper's
implementation ("the 'current database' and H-tables are implemented as
tables in a same database", Section 5).
"""

from __future__ import annotations

import threading
from typing import Callable, Mapping

from repro.errors import CatalogError
from repro.rdb import txcontext
from repro.rdb.table import Table
from repro.rdb.types import Column, ColumnType, TableSchema
from repro.rdb.updatelog import UpdateLog
from repro.storage.blob import BlobStore
from repro.storage.buffer import BufferPool
from repro.storage.pager import Pager
from repro.util.timeutil import parse_date


class Database:
    """A self-contained mini relational database.

    Parameters
    ----------
    path:
        Backing file for the pager; ``None`` keeps everything in memory.
    buffer_pages:
        Buffer-pool capacity in pages.
    durability:
        ``"wal"`` (default) makes file-backed saves atomic and
        crash-recoverable through a write-ahead log; ``"none"`` writes
        pages in place.  Memory databases are always ``"none"``.
    group_commit:
        When True (default) concurrent COMMIT frames share WAL fsyncs
        (leader/follower batching); ``group_window`` holds the leader's
        fsync open for that many seconds so more followers can ride it
        — but only while the WAL's contention score says committers are
        actually arriving concurrently, so a serial client never pays
        the window (see :mod:`repro.storage.wal`).  Both only matter
        under ``"wal"`` durability.
    """

    def __init__(
        self,
        path: str | None = None,
        buffer_pages: int = 1024,
        durability: str = "wal",
        group_commit: bool = True,
        group_window: float = 0.002,
    ) -> None:
        self.pager = Pager(
            path,
            durability=durability,
            group_commit=group_commit,
            group_window=group_window,
        )
        self.pool = BufferPool(self.pager, capacity=buffer_pages)
        self.blobs = BlobStore(self.pool)
        self._tables: dict[str, Table] = {}
        # Guards the catalog dict and the clock against concurrent
        # sessions (DDL takes the transaction layer's logical "#catalog"
        # lock too; this latch covers lock-free readers).
        self._catalog_lock = threading.RLock()
        self.update_log = UpdateLog(scope=path)
        self._clock = parse_date("1985-01-01")
        self._functions: dict[str, Callable] = {}
        self._table_functions: dict[str, Callable] = {}
        #: when False, SELECT/DML run the naive logical plan unchanged —
        #: same rows, no index/segment access paths (used by equivalence
        #: tests and the bench harness to measure optimizer impact)
        self.optimizer_enabled: bool = True
        #: optional hook ``(table_name) -> SegmentHints | None`` installed
        #: by ArchIS so the segment-restriction rule can see clustering
        #: state without the SQL layer importing the archive
        self.segment_provider: Callable | None = None
        #: optional hook ``() -> hashable`` installed beside it: moves
        #: whenever that clustering state changes (segment boundaries,
        #: the compressed-table set), so cached plans stop matching
        self.segment_generation: Callable | None = None
        #: tracked tables by name (installed by ArchIS): their ``key``,
        #: ``key_table`` and ``attribute_table(column)`` let a read under
        #: a pinned day be planned over the H-tables (repro.plan.build)
        self.tracked_relations: Mapping = {}
        #: bumped by every catalog, index and function registration
        #: change; part of every statement-cache key
        self._generation = 0
        from repro.sql.cache import StatementCache

        #: plans per statement shape (:mod:`repro.sql.cache`)
        self.statements = StatementCache(self)
        #: the most recent SELECT executed through the session, as a
        #: :class:`repro.sql.cache.Bound`: its plan may be shared with
        #: other statements of the same shape; ``report()`` renders this
        #: statement's literals (EXPLAIN reads it)
        self.last_plan = None

    # -- clock ---------------------------------------------------------------

    @property
    def current_date(self) -> int:
        """The transaction-time clock, in days since the epoch.

        Transaction timestamps are drawn from this logical clock so that
        runs are deterministic; the workload driver advances it.  A write
        transaction overrides the clock for its own thread (every
        mutation it makes is stamped with the transaction's commit day).
        """
        override = txcontext.clock_day()
        if override is not None:
            return override
        return self._clock

    def set_date(self, value: int | str) -> None:
        if isinstance(value, str):
            value = parse_date(value)
        with self._catalog_lock:
            if value < self._clock:
                raise CatalogError(
                    "transaction-time clock cannot move backwards"
                )
            self._clock = value

    def advance_days(self, days: int = 1) -> None:
        with self._catalog_lock:
            self._clock += days

    def advance_to(self, value: int) -> None:
        """Move the clock forward to ``value`` if it is ahead (no-op
        otherwise).  Commits may complete out of day order, so the
        transaction layer advances with a max, never backwards."""
        with self._catalog_lock:
            if value > self._clock:
                self._clock = value

    # -- catalog ---------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: list[tuple[str, ColumnType]] | list[Column],
        primary_key: tuple[str, ...] = (),
    ) -> Table:
        cols = [
            c if isinstance(c, Column) else Column(c[0], c[1])
            for c in columns
        ]
        with self._catalog_lock:
            if name in self._tables:
                raise CatalogError(f"table {name} already exists")
            schema = TableSchema(name, cols, primary_key)
            table = Table(schema, self.pool)
            table.on_index_change = self.invalidate_plans
            self._tables[name] = table
            self.invalidate_plans()
            return table

    def drop_table(self, name: str) -> None:
        with self._catalog_lock:
            table = self.table(name)
            table.truncate()
            del self._tables[name]
            self.invalidate_plans()

    def invalidate_plans(self) -> None:
        """Drop every cached plan: the catalog, an index or a function
        registration changed."""
        with self._catalog_lock:
            self._generation += 1
        self.statements.clear()

    def plan_generation(self) -> tuple:
        """What a cached plan was planned against besides its text."""
        hook = self.segment_generation
        return (self._generation, hook() if hook is not None else None)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no table named {name}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def tables(self) -> list[str]:
        with self._catalog_lock:
            return sorted(self._tables)

    # -- scalar / table functions (UDF registry for SQL) -------------------------

    def register_function(self, name: str, fn: Callable) -> None:
        """Register a scalar SQL function (case-insensitive name)."""
        self._functions[name.lower()] = fn
        self.invalidate_plans()

    def function(self, name: str) -> Callable | None:
        return self._functions.get(name.lower())

    def register_table_function(self, name: str, fn: Callable) -> None:
        """Register a table function: callable(args...) -> iterator of rows.

        The BlockZIP blob reader is exposed this way (paper Section 8.2:
        "user-defined uncompression table functions are used to extract
        records from each BLOB").
        """
        self._table_functions[name.lower()] = fn
        self.invalidate_plans()

    def table_function(self, name: str) -> Callable | None:
        return self._table_functions.get(name.lower())

    # -- SQL -----------------------------------------------------------------------

    def sql(self, text: str, params: dict | None = None):
        """Parse, plan and execute a SQL statement.

        Returns a :class:`repro.sql.result.ResultSet` for queries or an
        affected-row count for DML.  Imported lazily to keep the storage
        layers importable on their own.
        """
        from repro.sql.session import execute_sql

        return execute_sql(self, text, params)

    # -- persistence -------------------------------------------------------------

    def save(self) -> str:
        """Persist the catalog beside a file-backed database.

        Page data is already durable through the pager; this saves the
        schema/index/blob directory so :meth:`open` can restore the
        database in another process.  Returns the sidecar path.
        """
        from repro.rdb.persistence import save_catalog

        return save_catalog(self)

    @classmethod
    def open(
        cls,
        path: str,
        buffer_pages: int = 1024,
        durability: str = "wal",
        group_commit: bool = True,
        group_window: float = 0.002,
    ) -> "Database":
        """Reopen a previously :meth:`save`-d file-backed database.

        Opening runs WAL recovery first (in the pager): a save that
        committed but crashed before its checkpoint is replayed; one that
        never committed is discarded, leaving the previous state.
        """
        from repro.rdb.persistence import load_catalog

        db = cls(
            path,
            buffer_pages,
            durability=durability,
            group_commit=group_commit,
            group_window=group_window,
        )
        load_catalog(db)
        return db

    @property
    def durability(self) -> str:
        """The pager's durability mode: ``"wal"`` or ``"none"``."""
        return self.pager.durability

    # -- measurement hooks -------------------------------------------------------

    def reset_caches(self) -> None:
        """Drop buffered pages: the cold-cache measurement protocol."""
        self.pool.reset()

    def storage_bytes(self, include_indexes: bool = True) -> int:
        """Total logical footprint: table pages + index estimates + blobs."""
        total = sum(
            t.size_bytes(include_indexes) for t in self._tables.values()
        )
        return total + self.blobs.size_bytes()

    def storage_report(self) -> dict[str, int]:
        """Per-table byte footprint plus blob storage."""
        report = {
            name: table.size_bytes() for name, table in self._tables.items()
        }
        report["<blobs>"] = self.blobs.size_bytes()
        return report

    def close(self) -> None:
        self.update_log.close()
        self.pager.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
