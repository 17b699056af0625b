"""ArchIS archive persistence.

Completes the persistence story: :func:`save_archive` writes an
``.archis.json`` sidecar (next to the Database catalog sidecar) holding
everything the relational layer does not know about — tracked relations,
segment-manager state, compressed-table metadata and H-view names — and
:func:`load_archive` reconstructs a fully working :class:`ArchIS` from a
saved file-backed database: trackers re-attach, table functions re-register
and queries over frozen or compressed history resume where they left off.

Durability: under WAL mode, :func:`save_archive` stages the catalog
sidecar, the archive sidecar and every pending page write in a *single*
WAL transaction and checkpoints once — a crash anywhere in the save
leaves either the complete previous state or the complete new one, never
pages from one save paired with metadata from another.
"""

from __future__ import annotations

import json
import os

from repro.errors import ArchisError, StorageError
from repro.rdb.database import Database
from repro.rdb.persistence import save_catalog
from repro.rdb.types import ColumnType
from repro.storage.atomicio import SIDECAR_VERSION

ARCHIS_SUFFIX = ".archis.json"


def sidecar_path(db_path: str) -> str:
    return db_path + ARCHIS_SUFFIX


def archive_payload(archis) -> dict:
    """The archive metadata as JSON-ready data (shared by save/staging)."""
    return {
        "version": SIDECAR_VERSION,
        "profile": archis.profile.name,
        "segments": {
            "umin": archis.segments.umin,
            "min_rows": archis.segments.min_rows,
            "live_segno": archis.segments.live_segno,
            "live_start": archis.segments.live_start,
            "last_change": archis.segments.last_change,
            "live": archis.segments.stats.live,
            "total": archis.segments.stats.total,
            "freeze_count": archis.segments.freeze_count,
            # frozen segments whose background rewrite has not finished;
            # a reopened archive resumes (idempotently) where the
            # maintenance worker left off
            "pending_rewrites": list(archis.segments.pending_rewrites),
        },
        "relations": [
            {
                "name": relation.name,
                "key": relation.key,
                "attributes": {
                    attr: ctype.value
                    for attr, ctype in relation.attributes.items()
                },
            }
            for relation in archis.relations.values()
        ],
        "documents": dict(archis._doc_names),
        "compressed": [
            {
                "table": info.table,
                "blob_table": info.blob_table,
                "segrange_table": info.segrange_table,
                "rows_compressed": info.rows_compressed,
                "blocks": info.blocks,
            }
            for info in archis.archive.compressed_tables.values()
        ],
    }


def stage_archive(archis) -> str:
    """Stage the archive sidecar in the WAL without checkpointing.

    Used by the transaction layer's commit: the catalog, the archive
    sidecar and the transaction's page writes are promoted together by
    one COMMIT frame, so a crash replays all of them or none.
    """
    if archis.db.pager.path is None:
        raise StorageError("only file-backed archives can be saved")
    data = json.dumps(archive_payload(archis)).encode("utf-8")
    return archis.db.pager.write_sidecar(ARCHIS_SUFFIX, data)


def save_archive(archis) -> str:
    """Persist the database catalog plus the ArchIS metadata sidecar."""
    if archis.db.pager.path is None:
        raise StorageError("only file-backed archives can be saved")
    if archis.maintenance is not None:
        archis.maintenance.drain()
    archis.apply_pending()
    # the write lock keeps the maintenance worker's own step commits
    # from interleaving with this staging (both are tag-0 WAL writers)
    with archis.history_lock.write():
        save_catalog(archis.db, _defer_checkpoint=True)
        path = stage_archive(archis)
        archis.db.pager.checkpoint()
    return path


def load_archive(
    path: str,
    buffer_pages: int | None = None,
    durability: str | None = None,
    config=None,
):
    """Reopen a saved archive: Database + ArchIS, ready for queries.

    ``config`` (an :class:`~repro.archis.config.ArchISConfig`) supplies
    the runtime knobs; the archive's own state — profile, U_min,
    segment-manager counters — comes from the sidecar.  The bare
    ``buffer_pages``/``durability`` arguments are kept for old callers
    and override the config when given.
    """
    from repro.archis.blobstore import CompressedTableInfo
    from repro.archis.config import ArchISConfig
    from repro.archis.htables import TrackedRelation
    from repro.archis.system import ArchIS
    from repro.archis.tablefuncs import register_history_functions
    from repro.archis.tracker import HTableWriter, LogTracker, TriggerTracker

    if config is None:
        config = ArchISConfig()
    if buffer_pages is not None:
        config = config.replace(buffer_pages=buffer_pages)
    if durability is not None:
        config = config.replace(durability=durability)

    # Open (and thereby WAL-recover) the database *before* reading the
    # archive sidecar: a committed-but-uncheckpointed save is replayed by
    # recovery, which may atomically replace the sidecar we are about to
    # read.
    db = Database.open(
        path, config.buffer_pages, durability=config.durability
    )
    try:
        meta_path = sidecar_path(path)
        if not os.path.exists(meta_path):
            raise ArchisError(f"no archive sidecar at {meta_path}")
        with open(meta_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        version = payload.get("version")
        if version != SIDECAR_VERSION:
            raise ArchisError(
                f"unsupported archive sidecar version {version!r} at "
                f"{meta_path} (this build reads version {SIDECAR_VERSION})"
            )
        # archives written by the retired key-partitioned layout keep
        # their history in per-partition files this build cannot read
        layout = payload.get("sharding") or {}
        if layout.get("shards", 1) > 1:
            raise ArchisError(
                f"archive at {path} is sharded: sharded archives are no "
                "longer supported"
            )
    except ArchisError:
        db.close()
        raise
    seg = payload["segments"]
    archis = ArchIS(
        db,
        config=config.replace(
            profile=payload["profile"],
            umin=seg["umin"],
            min_segment_rows=seg["min_rows"],
        ),
    )
    archis.segments.live_segno = seg["live_segno"]
    archis.segments.live_start = seg["live_start"]
    archis.segments.last_change = seg["last_change"]
    archis.segments.stats.live = seg["live"]
    archis.segments.stats.total = seg["total"]
    archis.segments.freeze_count = seg["freeze_count"]
    archis.segments.pending_rewrites = list(
        seg.get("pending_rewrites", [])
    )

    for spec in payload["relations"]:
        relation = TrackedRelation(
            spec["name"],
            spec["key"],
            {a: ColumnType(t) for a, t in spec["attributes"].items()},
        )
        archis.relations[relation.name] = relation
        for table_name in relation.all_tables():
            archis.segments.register_table(table_name)
            register_history_functions(archis, table_name)
        writer = HTableWriter(db, relation, archis.segments)
        archis.writers[relation.name] = writer
        if archis.profile.tracking == "triggers":
            archis.trackers[relation.name] = TriggerTracker(db, writer)
        else:
            archis.trackers[relation.name] = LogTracker(db, writer)
    archis._doc_names = dict(payload["documents"])

    for spec in payload["compressed"]:
        info = CompressedTableInfo(
            spec["table"], spec["blob_table"], spec["segrange_table"],
            spec["rows_compressed"], spec["blocks"],
        )
        archis.archive.adopt(info)
    if archis.maintenance is not None:
        # resume any rewrite a crash (or an unfinished queue) left behind
        archis.maintenance.kick()
    return archis
