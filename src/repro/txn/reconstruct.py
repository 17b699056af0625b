"""Point-in-time reconstruction of tracked current tables.

Current tables are mutated in place — they carry no ``tstart``/``tend``
intervals — so a snapshot cannot read them directly: it would see later
(or worse, uncommitted) writes.  The archive already holds everything
needed: the paper's snapshot query (Section 6.3) rebuilds a relation's
state at day ``T`` from its key table (which keys were alive) and its
attribute H-tables (each attribute's value at ``T``).

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


def _alive_keys(archis, relation, day: int) -> list:
    """Keys of ``relation`` whose key-table interval covers ``day``.

    Mirrors ``ArchIS.snapshot_rows``: restricted to the segment covering
    the day and read through the compressed archive when that segment
    has been BlockZIPed.  A sharded coordinator holds no history itself —
    the alive set is the union over its shard stores (keys are disjoint
    across shards).
    """
    stores = getattr(archis, "shard_stores", ())
    if stores:
        keys: list = []
        for store in stores:
            keys.extend(_alive_keys(store, store.relations[relation.name], day))
        return keys
    table_name = relation.key_table
    segno = archis.segments.segment_for(day)
    table = archis.db.table(table_name)
    tstart_pos = table.schema.position("tstart")
    tend_pos = table.schema.position("tend")
    if segno in archis.archive.zipped_segments(table_name):
        rows = archis.archive.read_rows(table_name, [segno])
        return [
            row[0] for row in rows if row[tstart_pos] <= day <= row[tend_pos]
        ]
    result = archis.db.sql(
        f"SELECT t.id FROM {table_name} t "
        f"WHERE t.segno = :segno AND t.tstart <= :d AND t.tend >= :d",
        {"segno": segno, "d": day},
    )
    return [row[0] for row in result.rows]


def snapshot_table(archis, relation_name: str, day: int) -> Table:
    """The state of tracked relation ``relation_name`` at day ``day``,
    as an ephemeral in-memory table with the current table's schema.

    Untracked columns (none, under the default ``track_table``) cannot
    be recovered from the archive and come back as NULL.
    """
    relation = archis.relations[relation_name]
    # reconstruction reads the real catalog: drop the snapshot's own
    # overlay for this block or resolving the current table's schema
    # would re-enter the provider for the name being reconstructed
    with txcontext.providing_tables(None):
        current = archis.db.table(relation_name)
        keys = sorted(_alive_keys(archis, relation, day))
        values = {
            attribute: dict(
                archis.snapshot_rows(relation_name, attribute, day).rows
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
