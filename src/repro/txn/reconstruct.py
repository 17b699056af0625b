"""Point-in-time reconstruction of tracked current tables.

Current tables are mutated in place — they carry no ``tstart``/``tend``
intervals — so a snapshot cannot read them directly: it would see later
(or worse, uncommitted) writes.  The archive already holds everything
needed: the paper's snapshot query (Section 6.3) rebuilds a relation's
state at day ``T`` from its key table (which keys were alive) and its
attribute H-tables (each attribute's value at ``T``).  Each is one
``FOR SYSTEM_TIME AS OF T`` SELECT, planned like any other time-travel
read: the segment-restriction rule narrows ``history_<t>()`` to the
segment covering ``T``, and the rows come from the table functions' one
row source (:mod:`repro.archis.tablefuncs`), heap or BlockZIP alike.

:func:`snapshot_table` materializes that reconstruction into an
ephemeral in-memory :class:`~repro.rdb.table.Table` with the current
table's schema, backed by a throwaway pager so nothing touches the real
database's storage or WAL.  Snapshot transactions substitute it for the
live table through the thread-local overlay in
:mod:`repro.rdb.txcontext`.

Correctness with writers in flight relies on the gapped-commit-day MVCC
scheme (see :mod:`repro.txn.manager`): an uncommitted writer's H-table
rows open at ``tstart > T`` (invisible) and its interval closures write
``tend = W - 1 >= T + 1`` (still live at ``T``), so the H-table read at
``T`` is snapshot-consistent without any locks.
"""

from __future__ import annotations

from repro.obs.metrics import get_registry
from repro.rdb import txcontext
from repro.rdb.table import Table
from repro.storage.buffer import BufferPool
from repro.storage.pager import Pager

_RECONSTRUCTIONS = get_registry().counter("txn.snapshot.reconstructions")


def snapshot_table(archis, relation_name: str, day: int) -> Table:
    """The state of tracked relation ``relation_name`` at day ``day``,
    as an ephemeral in-memory table with the current table's schema.

    Untracked columns (none, under the default ``track_table``) cannot
    be recovered from the archive and come back as NULL.
    """
    relation = archis.relations[relation_name]
    # one AS OF SELECT per H-table, on ``archis.db`` directly: the
    # snapshot already holds its view of the archive, and ``ArchIS.sql``
    # would re-take the history lock and drain the update log.  The day
    # is a literal because segment restriction reads only literal bounds.
    sql = archis.db.sql
    as_of = f"FOR SYSTEM_TIME AS OF {int(day)}"
    # reconstruction reads the real catalog: drop the snapshot's own
    # overlay for this block or resolving the current table's schema
    # would re-enter the provider for the name being reconstructed
    with txcontext.providing_tables(None):
        current = archis.db.table(relation_name)
        keys = sorted(
            key
            for (key,) in sql(
                f"SELECT t.id FROM {relation.key_table} t {as_of}"
            ).rows
        )
        values = {
            attribute: dict(
                sql(
                    f"SELECT t.id, t.{attribute} FROM "
                    f"{relation.attribute_table(attribute)} t {as_of}"
                ).rows
            )
            for attribute in relation.attributes
        }
    rows = []
    for key in keys:
        row = []
        for column in current.schema.column_names:
            if column == relation.key:
                row.append(key)
            elif column in values:
                row.append(values[column].get(key))
            else:
                row.append(None)
        rows.append(tuple(row))
    pool = BufferPool(Pager(None, durability="none"), capacity=256)
    view = Table(current.schema, pool)
    with txcontext.no_undo():
        for row in rows:
            view.insert(row)
    _RECONSTRUCTIONS.inc()
    return view

