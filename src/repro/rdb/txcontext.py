"""Per-thread execution context bridging the rdb layer and transactions.

The transaction subsystem (:mod:`repro.txn`) sits *above* the relational
layer, but tables and the clock must behave differently while a
transaction is active on the calling thread:

* **AS-OF visibility** — a snapshot read pins a day; table scans hide
  rows whose ``tstart`` lies after it and re-open intervals closed by
  later transactions, and the planner reads a tracked current table
  from its H-tables at that day (:mod:`repro.plan.build`).
* **Clock override** — a write transaction's mutations are stamped with
  the transaction's own commit day, not the shared database clock, so
  concurrent writers never interleave timestamps.
* **Undo capture** — mutations append inverse operations to the active
  transaction's undo sink, replayed on abort.
* **Trigger suppression** — undo replay must not re-archive rows, so
  triggers can be muted for the current thread.

Rather than import the transaction layer (a layering inversion), the rdb
layer consults these thread-locals; :mod:`repro.txn` sets them around
query and DML execution.  Everything here defaults to "no transaction":
single-threaded library use pays one ``getattr`` per check and behaves
exactly as before the concurrency subsystem existed.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

_LOCAL = threading.local()


# -- AS-OF snapshot day ------------------------------------------------------

def as_of_day() -> int | None:
    """The snapshot day pinned for reads on this thread, if any."""
    return getattr(_LOCAL, "as_of", None)


@contextmanager
def reading_as_of(day: int | None) -> Iterator[None]:
    """Scope an AS-OF day over a block (restores the previous value)."""
    previous = as_of_day()
    _LOCAL.as_of = day
    try:
        yield
    finally:
        _LOCAL.as_of = previous


# -- clock override ----------------------------------------------------------

def clock_day() -> int | None:
    """This thread's transaction day, overriding the database clock."""
    return getattr(_LOCAL, "clock", None)


def set_clock(day: int | None) -> None:
    _LOCAL.clock = day


# -- undo capture ------------------------------------------------------------

def undo_sink() -> list | None:
    """The active transaction's undo list for this thread, if any.

    Entries are appended by :class:`~repro.rdb.table.Table` mutations:
    ``("insert", table, rid)``, ``("update", table, old_rids, new_rids,
    old_rows)`` (one per :meth:`~repro.rdb.table.Table.update_many`) or
    ``("delete", table, old_row, rid)``.
    """
    return getattr(_LOCAL, "undo", None)


def set_undo_sink(sink: list | None) -> None:
    _LOCAL.undo = sink


# -- trigger suppression -----------------------------------------------------

def triggers_suppressed() -> bool:
    return getattr(_LOCAL, "mute_triggers", False)


@contextmanager
def suppressed_triggers() -> Iterator[None]:
    """Mute table triggers on this thread (undo replay, internal fixups)."""
    previous = triggers_suppressed()
    _LOCAL.mute_triggers = True
    try:
        yield
    finally:
        _LOCAL.mute_triggers = previous


@contextmanager
def no_undo() -> Iterator[None]:
    """Disable undo capture on this thread (used while replaying undo)."""
    previous = undo_sink()
    _LOCAL.undo = None
    try:
        yield
    finally:
        _LOCAL.undo = previous

