"""MVCC transactions over the transaction-time machinery.

The paper's central property — every past state of the database is an
immutable, queryable object — is exactly what makes concurrency cheap:

* A **snapshot transaction** pins a commit day and runs every query AS
  OF that day through the ordinary plan/segment path.  History rows are
  immutable, so snapshot reads take *no locks at all*; the only
  coordination is the thread-local AS-OF day (:mod:`repro.rdb.txcontext`)
  that the table layer uses to render intervals at the pinned day.
* A **write transaction** gets its own commit day and stamps every
  mutation with it, takes per-table exclusive locks from the
  :class:`~repro.txn.locks.LockTable` (strict 2PL, wait-for-graph
  deadlock detection), and commits through the WAL's group-commit path.

Commit days are spaced **two apart**.  The gap is what makes snapshot
visibility unambiguous: closing a history interval at day ``W`` writes
``tend = W - 1``, so with gapped days a snapshot day ``T`` can never
equal another transaction's ``W - 1`` — a stored ``tend`` at or before
the snapshot is always a closure the snapshot must honour, and one after
it always renders back to FOREVER.

Durability: heap page lists live in the catalog sidecar, so commit on a
file-backed database stages the catalog (and the ArchIS sidecar, when an
archive is attached) as META frames tagged with the transaction's id,
then appends the COMMIT frame — recovery replays all of it or none.
Abort replays the transaction's undo log in reverse (with triggers
muted), discards its update-log entries and drops its WAL dirty state.
"""

from __future__ import annotations

import contextlib
import threading
import time

from repro.errors import TxnError
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.rdb import txcontext
from repro.rdb.database import Database
from repro.sql import ast
from repro.sql.lexer import statement_keyword
from repro.sql.parser import parse_sql
from repro.sql.session import execute_prepared, execute_sql
from repro.txn.locks import HistoryLock, LockTable

_BEGUN = get_registry().counter("txn.begun")
_COMMITS = get_registry().counter("txn.commits")
_COMMIT_SECONDS = get_registry().histogram("txn.commit.seconds")
_ABORTS = get_registry().counter("txn.aborts")
_SNAPSHOTS = get_registry().counter("txn.snapshots")
_ACTIVE = get_registry().gauge("txn.active")

#: Commit days are spaced this far apart (see the module docstring).
DAY_GAP = 2

#: Pseudo-resources: DDL serializes on the catalog; DML on tracked
#: tables serializes on the shared archive structures (H-tables, the
#: segment manager) that the tracker mutates alongside the base table.
CATALOG_RESOURCE = "#catalog"
ARCHIVE_RESOURCE = "#archive"


def referenced_tables(statement) -> set[str]:
    """Every table name a statement reads, including subquery sources."""
    tables: set[str] = set()

    def visit_exprs(exprs) -> None:
        for expr in exprs:
            if expr is None:
                continue
            for node in ast.walk_exprs(expr):
                if isinstance(node, ast.Subquery):
                    visit_select(node.select)
                elif isinstance(
                    node, (ast.InSubquery, ast.ExistsSubquery)
                ):
                    visit_select(node.subquery.select)

    def visit_select(select) -> None:
        for source in ast.flat_source_refs(select.sources):
            if isinstance(source, ast.TableRef):
                tables.add(source.name)
        visit_exprs(item.expr for item in select.items)
        visit_exprs([select.where])
        visit_exprs(select.group_by)
        visit_exprs(item.expr for item in select.order_by)

    if isinstance(statement, ast.Select):
        visit_select(statement)
    elif isinstance(statement, ast.InsertSelect):
        visit_select(statement.select)
    elif isinstance(statement, ast.Insert):
        for row in statement.rows:
            visit_exprs(row)
    elif isinstance(statement, ast.Update):
        visit_exprs(expr for _, expr in statement.assignments)
        visit_exprs([statement.where])
    elif isinstance(statement, ast.Delete):
        visit_exprs([statement.where])
    return tables


class Snapshot:
    """A read-only view of the database as of one commit day.

    Queries run through the ordinary SQL/XQuery paths with the AS-OF day
    pinned on the calling thread; no locks are taken.  A snapshot may be
    shared across threads — the pin is scoped per call.

    H-table reads render intervals at the pinned day.  *Current* tables
    are mutated in place, so the planner reads a tracked one as the
    paper's snapshot query over its H-tables at the pinned day (see
    :mod:`repro.plan.build`).  Correctness beside writers in flight
    rests on the gapped commit days: an uncommitted writer's H-table
    rows open at ``tstart > T`` (invisible) and its interval closures
    write ``tend = W - 1 >= T + 1`` (still live at ``T``), so a read at
    ``T`` needs no locks.  Untracked, un-archived tables have no
    history and read as they are now.
    """

    def __init__(self, manager: "TxnManager", day: int) -> None:
        self._manager = manager
        self.day = day

    def sql(self, text: str, params=None):
        """Run a SELECT against the snapshot (planned at its day)."""
        if statement_keyword(text) != "select":
            parse_sql(text)  # a malformed statement reports as one
            raise TxnError("snapshots are read-only; use a transaction")
        return self.run(execute_sql, self._manager.db, text, params)

    def run(self, fn, *args, **kwargs):
        """Call ``fn`` with the snapshot pinned (for non-SQL read APIs,
        e.g. ``ArchIS.xquery`` or the history table functions)."""
        self._manager.apply_committed()
        with self._manager.history.read(), txcontext.reading_as_of(self.day):
            previous = txcontext.clock_day()
            txcontext.set_clock(self.day)
            try:
                return fn(*args, **kwargs)
            finally:
                txcontext.set_clock(previous)

    def __repr__(self) -> str:
        return f"<Snapshot day={self.day}>"


class Transaction:
    """One write transaction: a commit day, an undo log and locks."""

    def __init__(self, manager: "TxnManager", txn_id: int, day: int) -> None:
        self.manager = manager
        self.id = txn_id
        self.day = day
        self.undo: list[tuple] = []
        self.state = "active"

    def sql(self, text: str, params=None):
        return self.manager.execute(self, text, params)

    def commit(self) -> None:
        self.manager.commit(self)

    def abort(self) -> None:
        self.manager.abort(self)

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.state == "active":
            if exc_type is None:
                self.commit()
            else:
                self.abort()
        return False

    def __repr__(self) -> str:
        return f"<Transaction {self.id} day={self.day} {self.state}>"


class TxnManager:
    """Hands out snapshots and write transactions over one database."""

    def __init__(
        self,
        db: Database,
        archis=None,
        lock_timeout: float = 5.0,
    ) -> None:
        self.db = db
        self.archis = archis
        self.locks = LockTable(lock_timeout)
        self._lock = threading.Lock()
        self._next_txn = 1
        self._active: dict[int, Transaction] = {}
        # Set when a commit fails *after* its update-log entries were
        # drained into the H-tables: abort() can no longer take them
        # back out, so the in-process archive is untrustworthy and the
        # manager refuses new work (reopening the database recovers —
        # crash consistency is guaranteed by the txn-tagged WAL frames).
        self._poisoned: str | None = None
        # The last day whose effects are fully committed.  Starts at the
        # database clock: everything written before the manager existed
        # is by definition committed.
        self._last_completed_day = db.current_date
        self._next_day = db.current_date + DAY_GAP
        # Guards the shared H-tables: snapshot reads hold the read side,
        # update-log application / tracked DML / undo replay the write
        # side.  Applying an entry rewrites rows (closing a version can
        # move it within its page), so even MVCC-invisible mutations
        # must not run under an active history scan.  The archive already
        # owns such a lock (its maintenance worker and batch archiver
        # synchronize on it); adopt that instance so there is exactly one
        # lock per archive.
        self.history = (
            getattr(archis, "history_lock", None) if archis is not None else None
        ) or HistoryLock()
        if archis is not None:
            archis.txn_manager = self
            archis.segments.freeze_floor = self._freeze_floor

    # -- lifecycle ---------------------------------------------------------

    def begin(self) -> Transaction:
        """Start a write transaction on its own commit day."""
        self._check_poisoned()
        with self._lock:
            txn_id = self._next_txn
            self._next_txn += 1
            day = self._next_day
            self._next_day += DAY_GAP
            txn = Transaction(self, txn_id, day)
            self._active[txn_id] = txn
            _ACTIVE.set(len(self._active))
        _BEGUN.inc()
        return txn

    def snapshot(self, day: int | None = None) -> Snapshot:
        """Pin a read snapshot (defaults to the latest stable day)."""
        self._check_poisoned()
        if day is None:
            day = self.stable_day()
        _SNAPSHOTS.inc()
        return Snapshot(self, day)

    def stable_day(self) -> int:
        """The most recent day every transaction at or before which has
        completed — the default snapshot pin.

        With writers in flight this is just below the earliest active
        commit day (days are handed out in order, so everything earlier
        is settled); otherwise it is the last completed day.
        """
        with self._lock:
            if self._active:
                return min(t.day for t in self._active.values()) - DAY_GAP
            return self._last_completed_day

    def active_days(self) -> set[int]:
        with self._lock:
            return {t.day for t in self._active.values()}

    def _freeze_floor(self) -> int | None:
        """The lowest day a future archived change may still carry.

        Installed as ``SegmentManager.freeze_floor``: an active
        transaction will archive rows at its own day, and a committed
        transaction's update-log entries still pending carry theirs —
        a segment boundary drawn at or above either would strand those
        rows in a segment that does not cover them.
        """
        days = self.active_days()
        days.update(
            entry.timestamp for entry in self.db.update_log.pending()
        )
        return min(days) if days else None

    # -- statement execution ----------------------------------------------

    def execute(self, txn: Transaction, text: str, params=None, bound=None):
        """Run one statement inside ``txn`` on the calling thread.

        ``bound`` is ``text`` already prepared by the caller
        (``db.statements.prepare``), with no day pinned.
        """
        self._check_active(txn)
        self._check_poisoned()
        if bound is None:
            bound = self.db.statements.prepare(text)
        resources = self._lock_resources(bound.statement)
        for resource in resources:
            self.locks.acquire(txn.id, resource)
        txcontext.set_clock(txn.day)
        txcontext.set_undo_sink(txn.undo)
        self.db.pager.set_wal_txn(txn.id)
        # tracked DML mirrors into the shared H-tables (synchronously
        # under trigger tracking) — exclude concurrent snapshot scans
        history = (
            self.history.write()
            if ARCHIVE_RESOURCE in resources
            else contextlib.nullcontext()
        )
        try:
            with history:
                return execute_prepared(self.db, bound, params, text=text)
        finally:
            txcontext.set_clock(None)
            txcontext.set_undo_sink(None)
            self.db.pager.clear_wal_txn()

    def _lock_resources(self, statement) -> list[str]:
        if isinstance(
            statement, (ast.CreateTable, ast.CreateIndex, ast.DropTable)
        ):
            return [CATALOG_RESOURCE]
        if isinstance(
            statement, (ast.Insert, ast.InsertSelect, ast.Update, ast.Delete)
        ):
            resources = {statement.table}
            resources.update(referenced_tables(statement))
            if self._is_tracked(statement.table):
                # The tracker mirrors this DML into shared H-tables and
                # the segment manager; #archive sorts first, giving every
                # tracked-DML statement the same acquisition order.
                resources.add(ARCHIVE_RESOURCE)
            return sorted(resources)
        if isinstance(statement, ast.Select):
            # Reads *inside a write transaction* lock their tables too
            # (the lock table has no shared mode, so exclusively): the
            # current tables are mutated in place, and without a lock a
            # concurrent writer's uncommitted in-place update would leak
            # into this transaction's reads.  Lock-free point-in-time
            # reads are what snapshots are for.
            return sorted(referenced_tables(statement))
        return []

    def _is_tracked(self, table: str) -> bool:
        return self.archis is not None and table in getattr(
            self.archis, "relations", {}
        )

    # -- commit / abort ----------------------------------------------------

    def commit(self, txn: Transaction) -> None:
        self._check_active(txn)
        self._check_poisoned()
        started = time.perf_counter()
        with get_tracer().span("txn.commit", txn=txn.id, day=txn.day):
            txcontext.set_clock(txn.day)
            txcontext.set_undo_sink(None)
            self.db.pager.set_wal_txn(txn.id)
            try:
                self.apply_committed(include_day=txn.day)
                if (
                    self.db.pager.path is not None
                    and self.db.durability == "wal"
                ):
                    from repro.rdb.persistence import save_catalog

                    # Stage under the history write lock: the sidecars
                    # snapshot catalog/segment state that the background
                    # maintenance worker mutates under the same lock.
                    # The COMMIT frame below stays outside it — the
                    # group-commit leader wait must not stall appliers,
                    # and WAL transaction tags keep this transaction's
                    # staged frames isolated from the worker's tag-0
                    # commits.
                    with self.history.write():
                        save_catalog(self.db, _defer_checkpoint=True)
                        if self.archis is not None:
                            from repro.archis.persistence import (
                                stage_archive,
                            )

                            stage_archive(self.archis)
                # default cause ("txn") labels the wal.commits.cause
                # counter; passed implicitly so test doubles with narrower
                # signatures keep working
                self.db.pager.commit()
            except BaseException:
                # With a log-tracking archive the transaction's entries
                # may already be drained into the shared H-tables, and
                # abort() cannot take them back out (discard_pending
                # finds nothing; undo replay runs trigger-suppressed).
                # Poison the manager so the divergent in-process state
                # cannot serve further reads or writes.
                if (
                    self.archis is not None
                    and getattr(self.archis.profile, "tracking", None)
                    == "log"
                ):
                    self._poisoned = (
                        f"commit of transaction {txn.id} failed after its "
                        "changes were archived; reopen the database to "
                        "recover a consistent state"
                    )
                raise
            finally:
                txcontext.set_clock(None)
                self.db.pager.clear_wal_txn()
            self._complete(txn, "committed")
            self.db.advance_to(txn.day)
        _COMMIT_SECONDS.observe(time.perf_counter() - started)
        _COMMITS.inc()

    def abort(self, txn: Transaction) -> None:
        self._check_active(txn)
        with get_tracer().span("txn.abort", txn=txn.id, day=txn.day):
            # undo rewrites H-rows under trigger tracking: exclude scans
            with self.history.write():
                with txcontext.suppressed_triggers(), txcontext.no_undo():
                    self._replay_undo(txn.undo)
            txn.undo.clear()
            self.db.update_log.discard_pending(
                lambda entry: entry.timestamp == txn.day
            )
            self.db.pager.discard_wal_txn(txn.id)
            self._complete(txn, "aborted")
        _ABORTS.inc()

    @staticmethod
    def _replay_undo(undo: list[tuple]) -> None:
        """Apply inverse operations, newest first.

        Mutations may relocate rows (heap updates move RIDs), so a
        translation map chases each recorded RID to where that row lives
        *now* before undoing the next-older entry against it.
        """
        moves: dict[tuple[str, tuple], tuple] = {}

        def resolve(table, rid):
            key = (table.name, rid)
            while key in moves:
                rid = moves[key]
                key = (table.name, rid)
            return rid

        for entry in reversed(undo):
            kind, table = entry[0], entry[1]
            if kind == "insert":
                table.delete_rid(resolve(table, entry[2]))
            elif kind == "update":
                _, _, old_rids, new_rids, old_rows = entry
                back_rids = table.update_many(
                    [resolve(table, rid) for rid in new_rids], old_rows
                )
                for old_rid, back_rid in zip(old_rids, back_rids):
                    if back_rid != old_rid:
                        moves[(table.name, old_rid)] = back_rid
            elif kind == "delete":
                _, _, old_row, rid = entry
                new_rid = table.insert(old_row)
                if new_rid != rid:
                    moves[(table.name, rid)] = new_rid
            else:  # pragma: no cover - defensive
                raise TxnError(f"unknown undo entry {kind!r}")

    def _complete(self, txn: Transaction, state: str) -> None:
        with self._lock:
            self._active.pop(txn.id, None)
            if txn.day > self._last_completed_day:
                self._last_completed_day = txn.day
            _ACTIVE.set(len(self._active))
        txn.state = state
        self.locks.release_all(txn.id)

    def _check_active(self, txn: Transaction) -> None:
        if txn.state != "active":
            raise TxnError(f"transaction {txn.id} is {txn.state}")

    def _check_poisoned(self) -> None:
        # abort() stays allowed so sessions can still tear down.
        if self._poisoned is not None:
            raise TxnError(self._poisoned)

    # -- archive integration ----------------------------------------------

    def apply_committed(self, include_day: int | None = None) -> int:
        """Archive committed update-log entries into the H-tables.

        Returns the number of entries archived.  Entries stamped with a
        day belonging to a transaction still in flight stay pending
        (they are not committed yet); ``include_day`` lets a committing
        transaction apply its own entries.  No-op (returns 0) unless an
        ATLaS-profile archive is attached.

        The drain itself goes through ``archis.apply_log_entries``, that
        is through the :class:`~repro.archis.batch.BatchArchiver`
        (amortized H-table lookups, one clustering check per batch),
        inside this manager's history write lock and in day order —
        durability stays one WAL commit frame per *transaction*, not
        per batch.
        """
        if self.archis is None:
            return 0
        if getattr(self.archis.profile, "tracking", None) != "log":
            return 0
        if self.history.held_read():
            # A snapshot read on this thread re-entered (the XQuery path
            # calls apply_pending).  Its view was settled before the read
            # began — anything still pending is from a later day — and
            # applying now would rewrite H-rows under the active scan.
            return 0
        # Both the pending() check and the active-day snapshot must be
        # taken *inside* the lock.  The check: a thread mid-apply has
        # already drained the log, and a reader skipping past it here
        # would see the H-tables with a version closed but its successor
        # not yet inserted (a visibility hole).  The active set: tracked
        # DML holds the history write lock while appending its pending
        # entries, so reading active_days() under the lock freezes the
        # pending set — read before the lock, a transaction that begins
        # and writes in the gap is missing from the stale set and its
        # *uncommitted* entries get applied (and survive its abort,
        # since discard_pending then finds nothing to discard).
        with self.history.write():
            if not self.db.update_log.pending():
                return 0
            uncommitted = self.active_days()
            uncommitted.discard(include_day)
            return self.archis.apply_log_entries(
                lambda entry: entry.timestamp not in uncommitted
            )

    def stats(self) -> dict[str, object]:
        with self._lock:
            active = len(self._active)
            last = self._last_completed_day
        return {
            "active": active,
            "last_completed_day": last,
            "stable_day": self.stable_day(),
            "locks": self.locks.stats(),
        }
