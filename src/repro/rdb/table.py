"""Tables: a heap file plus secondary indexes plus trigger hooks.

Concurrency: every table carries a re-entrant **latch** (a short-lived
physical lock, distinct from the transaction layer's logical locks)
guarding heap + index mutation.  Reads materialize their result under
the latch instead of yielding lazily, so a concurrent writer can never
mutate the heap out from under an in-flight iterator.  Reads also apply
the thread's AS-OF snapshot day (see :mod:`repro.rdb.txcontext`) to
tables with ``tstart``/``tend`` columns, which is what makes snapshot
transactions lock-free: history rows are immutable, so rendering the
table as of a pinned day needs no coordination with writers at all.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

from repro.errors import CatalogError, IntegrityError
from repro.index.bptree import BPlusTree
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile, Rid
from repro.rdb import txcontext
from repro.rdb.types import TableSchema
from repro.util.timeutil import FOREVER


@dataclass
class IndexInfo:
    """Metadata + structure for one secondary index."""

    name: str
    columns: tuple[str, ...]
    tree: BPlusTree
    unique: bool = False
    #: row positions of ``columns``, resolved once at creation
    positions: tuple[int, ...] = ()


RowCallback = Callable[[str, tuple, "tuple | None"], None]
# signature: (operation, new_or_old_row, old_row_for_updates)


class _NullKey:
    """Sorts before every real value: represents NULL in index keys.

    SQL NULLs are not comparable, but B+ tree keys must have a total
    order; mapping NULL to this sentinel keeps null-keyed rows out of any
    real-valued range scan while still letting them be indexed.
    """

    __slots__ = ()

    def __lt__(self, other) -> bool:
        return other is not self

    def __gt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return True

    def __ge__(self, other) -> bool:
        return other is self

    def __eq__(self, other) -> bool:
        return other is self

    def __hash__(self) -> int:
        return 0x2170

    def __repr__(self) -> str:
        return "<NULL>"


NULL_KEY = _NullKey()


class Table:
    """A stored table.

    Maintains its indexes on every mutation and fires registered triggers
    *after* the mutation, which is how the DB2-profile ArchIS tracker
    archives changes (paper Section 5.2).
    """

    def __init__(self, schema: TableSchema, pool: BufferPool) -> None:
        self.schema = schema
        self._heap = HeapFile(pool, schema.name)
        self._indexes: dict[str, IndexInfo] = {}
        self._pk: IndexInfo | None = None
        if schema.primary_key:
            positions = tuple(schema.position(c) for c in schema.primary_key)
            self._pk = IndexInfo(
                "PRIMARY KEY", schema.primary_key, BPlusTree(), False, positions
            )
        self._triggers: list[RowCallback] = []
        #: called after an index is created or dropped (the owning
        #: Database drops its cached plans)
        self.on_index_change: Callable[[], None] | None = None
        # Physical latch (not a transaction lock): serializes heap/index
        # mutation and the snapshots reads take of them.
        self._latch = threading.RLock()
        # Temporal column positions, when present: tables carrying both
        # tstart and tend participate in AS-OF snapshot rendering.
        names = schema.column_names
        self._tstart_pos = names.index("tstart") if "tstart" in names else None
        self._tend_pos = names.index("tend") if "tend" in names else None

    # -- snapshot visibility -------------------------------------------------

    def _as_of_row(self, row: tuple, day: int) -> tuple | None:
        """Render ``row`` as it existed at snapshot day ``day``.

        History rows are immutable except for two in-place transitions a
        *later* transaction may perform: creating the row (``tstart`` in
        the future of the snapshot → invisible) and closing its interval
        (``tend`` set to the closer's day minus one; a closure after the
        snapshot renders back to FOREVER).  Write transactions commit on
        days spaced two apart, so ``tend == day`` can only mean a
        closure *visible* at the snapshot — never an ambiguous same-day
        closure by day+1.
        """
        if self._tstart_pos is None or self._tend_pos is None:
            return row
        if row[self._tstart_pos] > day:
            return None
        tend = row[self._tend_pos]
        if tend > day and tend != FOREVER:
            patched = list(row)
            patched[self._tend_pos] = FOREVER
            return tuple(patched)
        return row

    # -- metadata -----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def row_count(self) -> int:
        return self._heap.record_count

    @property
    def indexes(self) -> dict[str, IndexInfo]:
        return dict(self._indexes)

    @property
    def _pk_index(self) -> BPlusTree | None:
        return None if self._pk is None else self._pk.tree

    def _all_indexes(self) -> list[IndexInfo]:
        """The primary key's index (when there is one), then the rest."""
        pk = [] if self._pk is None else [self._pk]
        return pk + list(self._indexes.values())

    def size_bytes(self, include_indexes: bool = True) -> int:
        """On-disk footprint of heap pages (plus index estimates)."""
        total = self._heap.size_bytes()
        if include_indexes:
            for info in self._all_indexes():
                total += info.tree.approx_bytes()
        return total

    # -- triggers ------------------------------------------------------------

    def add_trigger(self, callback: RowCallback) -> None:
        """Register an after-row trigger: fired with ("insert", row, None),
        ("update", new_row, old_row) or ("delete", row, None)."""
        self._triggers.append(callback)

    def remove_trigger(self, callback: RowCallback) -> None:
        self._triggers.remove(callback)

    def _fire(self, op: str, row: tuple, old: tuple | None) -> None:
        if txcontext.triggers_suppressed():
            return
        for callback in self._triggers:
            callback(op, row, old)

    # -- indexes ------------------------------------------------------------

    def create_index(
        self, name: str, columns: tuple[str, ...], unique: bool = False
    ) -> None:
        positions = tuple(self.schema.position(c) for c in columns)
        with self._latch:
            if name in self._indexes:
                raise CatalogError(f"index {name} already exists")
            tree = BPlusTree()
            info = IndexInfo(name, columns, tree, unique, positions)
            for rid, row in self._heap.scan():
                self._index_insert(info, self._index_key(info, row), rid)
            self._indexes[name] = info
        if self.on_index_change is not None:
            self.on_index_change()

    def drop_index(self, name: str) -> None:
        with self._latch:
            if name not in self._indexes:
                raise CatalogError(f"no index named {name}")
            del self._indexes[name]
        if self.on_index_change is not None:
            self.on_index_change()

    @staticmethod
    def _index_key(info: IndexInfo, row: tuple) -> tuple:
        return tuple([
            NULL_KEY if row[p] is None else row[p] for p in info.positions
        ])

    @staticmethod
    def _index_insert(info: IndexInfo, key: tuple, rid: Rid) -> None:
        if info.unique and info.tree.search(key):
            raise IntegrityError(
                f"unique index {info.name}: duplicate key {key}"
            )
        info.tree.insert(key, rid)

    def index_keys(self) -> dict[str, tuple[BPlusTree, Callable]]:
        """Each index's tree and row-to-key function, the primary key's
        under ``"PRIMARY KEY"`` (what the consistency audit compares)."""
        return {
            info.name: (info.tree, partial(self._index_key, info))
            for info in self._all_indexes()
        }

    def find_index(self, columns: tuple[str, ...]) -> IndexInfo | None:
        """An index whose column list starts with ``columns`` (prefix match)."""
        for info in self._indexes.values():
            if info.columns[: len(columns)] == columns:
                return info
        return None

    # -- mutations -----------------------------------------------------------

    def insert(self, values: tuple) -> Rid:
        row = self.schema.validate_row(values)
        with self._latch:
            if self._pk is not None:
                key = self._index_key(self._pk, row)
                if self._pk.tree.search(key):
                    raise IntegrityError(
                        f"table {self.name}: duplicate primary key {key}"
                    )
            rid = self._heap.insert(row)
            for info in self._all_indexes():
                self._index_insert(info, self._index_key(info, row), rid)
            sink = txcontext.undo_sink()
            if sink is not None:
                sink.append(("insert", self, rid))
        self._fire("insert", row, None)
        return rid

    def insert_many(
        self,
        values_list: list[tuple],
        validated: bool = False,
        payloads: list[bytes] | None = None,
    ) -> list[Rid]:
        """Insert many rows under one latch hold, batching page writes.

        Equivalent to calling :meth:`insert` per row — same RIDs, same
        index entries, same undo records, same triggers — but the heap
        writes each filled page back once, which is what lets the freeze
        switch copy a segment's live rows without stalling appliers.
        ``validated=True`` skips per-row schema coercion for rows that
        were just read out of this table (already stored coerced).
        ``payloads`` (requires ``validated=True``) supplies the exact
        encoded bytes per row so a physical clone skips re-encoding;
        each entry must equal ``encode_record`` of its row.
        """
        if validated:
            rows = [tuple(values) for values in values_list]
        else:
            rows = [self.schema.validate_row(values) for values in values_list]
        with self._latch:
            if self._pk is not None:
                seen: set = set()
                for row in rows:
                    key = self._index_key(self._pk, row)
                    if key in seen or self._pk.tree.search(key):
                        raise IntegrityError(
                            f"table {self.name}: duplicate primary key {key}"
                        )
                    seen.add(key)
            if payloads is not None:
                rids = self._heap.insert_payloads(payloads)
            else:
                rids = self._heap.insert_many(rows)
            sink = txcontext.undo_sink()
            indexes = self._all_indexes()
            for row, rid in zip(rows, rids):
                for info in indexes:
                    self._index_insert(info, self._index_key(info, row), rid)
                if sink is not None:
                    sink.append(("insert", self, rid))
        for row in rows:
            self._fire("insert", row, None)
        return rids

    def read(self, rid: Rid) -> tuple:
        with self._latch:
            return self._heap.read(rid)

    def update_rid(self, rid: Rid, values: tuple) -> Rid:
        """Rewrite the row at ``rid``; returns the (possibly moved) RID.

        An index, the primary key's included, is touched only when the
        row moved or that index's key changed (closing a history version
        rewrites ``tend``, which no H-table index covers).
        """
        row = self.schema.validate_row(values)
        with self._latch:
            old = self._heap.read(rid)
            new_rid = self._heap.update(rid, row)
            moved = new_rid != rid
            for info in self._all_indexes():
                old_key = self._index_key(info, old)
                key = self._index_key(info, row)
                if moved or key != old_key:
                    info.tree.delete(old_key, rid)
                    self._index_insert(info, key, new_rid)
            sink = txcontext.undo_sink()
            if sink is not None:
                sink.append(("update", self, rid, new_rid, old))
        self._fire("update", row, old)
        return new_rid

    def delete_rid(self, rid: Rid) -> None:
        self.delete_many([rid])

    def delete_many(self, rids: list[Rid]) -> None:
        """Delete distinct rows, writing each touched heap page once.

        Same index entries, undo records and triggers, in the same
        order, as a :meth:`delete_rid` per rid.
        """
        with self._latch:
            olds = self._heap.read_many(rids)
            self._heap.delete_many(rids)
            sink = txcontext.undo_sink()
            indexes = self._all_indexes()
            for rid, old in zip(rids, olds):
                for info in indexes:
                    info.tree.delete(self._index_key(info, old), rid)
                if sink is not None:
                    sink.append(("delete", self, old, rid))
        for old in olds:
            self._fire("delete", old, None)

    def lookup_pk(self, key: tuple) -> Rid | None:
        """RID of the row with the given primary key, when one exists."""
        if self._pk is None:
            raise CatalogError(f"table {self.name} has no primary key")
        with self._latch:
            hits = self._pk.tree.search(key)
            return hits[0] if hits else None

    def update_where(
        self, predicate: Callable[[dict], bool], changes: dict[str, object]
    ) -> int:
        """Update all rows matching a predicate over a row dict.

        Convenience API for direct (non-SQL) callers such as the workload
        driver.  Returns the number of rows changed.
        """
        for column in changes:
            self.schema.position(column)
        with self._latch:
            victims = [
                (rid, row) for rid, row in self._heap.scan()
                if predicate(self.row_dict(row))
            ]
            for rid, row in victims:
                new_row = list(row)
                for column, value in changes.items():
                    new_row[self.schema.position(column)] = value
                self.update_rid(rid, tuple(new_row))
        return len(victims)

    def delete_where(self, predicate: Callable[[dict], bool]) -> int:
        with self._latch:
            victims = [
                rid for rid, row in self._heap.scan()
                if predicate(self.row_dict(row))
            ]
            self.delete_many(victims)
        return len(victims)

    def truncate(self) -> None:
        with self._latch:
            self._heap.truncate()
            for info in self._all_indexes():
                info.tree = BPlusTree()

    def compact(self, keep: Callable[[tuple], bool] | None = None) -> None:
        """Rewrite the heap densely and rebuild all indexes.

        ``keep`` drops the rows it rejects, no tombstone written.  Does
        not fire triggers: compaction is a physical reorganization, not a
        logical change.  Used after segment freezes and archive
        compression reclaim space (paper Section 6.1 rewrites segments).
        """
        with self._latch:
            pairs = self._heap.compact(keep)
            indexes = self._all_indexes()
            for info in indexes:
                info.tree = BPlusTree()
            for rid, row in pairs:
                for info in indexes:
                    self._index_insert(info, self._index_key(info, row), rid)

    def prune_empty_pages(self) -> int:
        """Release heap pages that hold no live records.

        RIDs never change, so indexes stay valid and no rebuild happens —
        the cheap space reclamation the background segment rewrite uses
        in place of :meth:`compact` (whose full index rebuild would hold
        the history lock for O(heap)).  Returns the pages released.
        """
        with self._latch:
            return self._heap.prune_empty_pages()

    # -- reads ----------------------------------------------------------------

    def scan(self) -> Iterator[tuple[Rid, tuple]]:
        """All (rid, row) pairs, materialized under the latch.

        Materializing makes the scan a consistent point-in-time picture
        even with concurrent writers (and fixes the pre-existing hazard
        of mutating the heap under a live iterator).  When the calling
        thread has an AS-OF day pinned, rows are rendered at that day.
        """
        with self._latch:
            items = list(self._heap.scan())
        day = txcontext.as_of_day()
        if day is None:
            return iter(items)
        out = []
        for rid, row in items:
            rendered = self._as_of_row(row, day)
            if rendered is not None:
                out.append((rid, rendered))
        return iter(out)

    def rows(self) -> Iterator[tuple]:
        return iter([row for _, row in self.scan()])

    def row_dict(self, row: tuple) -> dict[str, object]:
        return dict(zip(self.schema.column_names, row))

    def index_records_containing(
        self,
        index_name: str,
        low: tuple,
        high: tuple,
        pattern: bytes,
        high_inclusive: bool = True,
    ) -> list[tuple[bytes, tuple]]:
        """(payload, row) pairs in an index range containing ``pattern``.

        A raw-storage bulk read (no AS-OF rendering) with a byte-level
        prefilter — rows that cannot contain the searched field value
        are skipped before decoding.  Conservative: the caller must
        re-check the decoded field (the pattern can straddle another
        field's bytes).  The freeze switch uses this to pull a segment's
        live rows without decoding the dead majority, then clones the
        payloads directly (see :meth:`insert_many`'s ``payloads``).
        """
        info = self._indexes.get(index_name)
        if info is None:
            raise CatalogError(f"no index named {index_name}")
        with self._latch:
            rids = [
                rid
                for _, rid in info.tree.range(
                    low, high, True, high_inclusive
                )
            ]
            return self._heap.read_records_containing(rids, pattern)

    def index_scan(
        self,
        index_name: str,
        low: tuple | None = None,
        high: tuple | None = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[tuple[Rid, tuple]]:
        """Range-scan an index, yielding (rid, row) in key order.

        Materialized under the latch and rendered at the thread's AS-OF
        day, like :meth:`scan`.
        """
        info = self._indexes.get(index_name)
        if info is None:
            raise CatalogError(f"no index named {index_name}")
        with self._latch:
            rids = [
                rid
                for _, rid in info.tree.range(
                    low, high, low_inclusive, high_inclusive
                )
            ]
            # key-order reads revisit pages arbitrarily; the bulk read
            # parses each touched page once instead of once per row
            items = list(zip(rids, self._heap.read_many(rids)))
        day = txcontext.as_of_day()
        if day is None:
            return iter(items)
        out = []
        for rid, row in items:
            rendered = self._as_of_row(row, day)
            if rendered is not None:
                out.append((rid, rendered))
        return iter(out)
