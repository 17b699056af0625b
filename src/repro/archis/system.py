"""The ArchIS system facade (paper Figure 5).

Wires together the current database, H-tables, change tracking, segment
clustering, compression and the XQuery→SQL/XML translator:

- ``track_table`` registers a current table for archival (triggers in the
  ``db2`` profile, update log in ``atlas``);
- the current tables are updated through normal SQL/DML and changes flow
  into the H-tables;
- ``xquery`` answers temporal XQuery over the virtual H-documents by
  translating to SQL/XML (with native-evaluation fallback on published
  views when the query is outside the translatable subset);
- ``publish`` materializes an H-document;
- ``compress_archive`` BlockZIPs all frozen segments into BLOBs.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass
from time import perf_counter

from repro.api import Result
from repro.errors import ArchisError, UnsupportedQueryError
from repro.obs.explain import ExplainResult
from repro.obs.metrics import get_registry
from repro.obs.slowlog import SlowQueryLog
from repro.obs.tracer import get_tracer
from repro.rdb.database import Database
from repro.txn.locks import HistoryLock
from repro.archis.batch import DEFAULT_BATCH_SIZE, BatchArchiver
from repro.archis.blobstore import CompressedArchive
from repro.archis.clustering import SegmentManager
from repro.archis.config import ArchISConfig, resolve_config
from repro.archis.htables import TrackedRelation, create_htables
from repro.archis.publisher import publish_relation
from repro.archis.tracker import HTableWriter, LogTracker, TriggerTracker
from repro.archis.translator import Analyzer

_XQUERY_COUNT = get_registry().counter("archis.xquery.count")
_XQUERY_SECONDS = get_registry().histogram("archis.xquery.seconds")
_TEMPORAL_QUERIES = get_registry().counter("temporal.queries")
_TEMPORAL_SECONDS = get_registry().histogram("temporal.query.seconds")
_FALLBACKS = get_registry().labeled_counter("xquery.fallback")


@dataclass(frozen=True)
class Profile:
    """An engine profile (paper Section 7: ArchIS-DB2 vs ArchIS-ATLaS).

    ``tracking`` selects triggers vs update log; ``clustered_indexes``
    models ATLaS/BerkeleyDB's clustered index (extra storage, Fig. 11).
    Both profiles read archived history one way: ``history()``,
    ``publish()``, snapshot reads of current tables and every query go
    through the table functions' row source ``rows()``
    (:mod:`repro.archis.tablefuncs`).  The paper's one-scan UDA for the
    ATLaS temporal join (Section 8.3) is not modelled: Q6 runs as the
    translated join or as ``TEMPORAL JOIN``.
    """

    name: str
    tracking: str  # "triggers" | "log"
    clustered_indexes: bool


PROFILES = {
    "db2": Profile("db2", "triggers", clustered_indexes=False),
    "atlas": Profile("atlas", "log", clustered_indexes=True),
}


class ArchIS:
    """Archival Information System over a :class:`Database`."""

    def __init__(
        self,
        db: Database | None = None,
        *,
        config: ArchISConfig | None = None,
    ) -> None:
        config = resolve_config(config)
        if config.profile not in PROFILES:
            raise ArchisError(
                f"unknown profile {config.profile!r}; use db2 or atlas"
            )
        self.config = config
        self.db = db if db is not None else Database()
        self.profile = PROFILES[config.profile]
        #: serializes H-table mutation against snapshot reads; the
        #: transaction manager adopts this instance, and the maintenance
        #: worker takes its write side per rewrite step
        self.history_lock = HistoryLock()
        self.segments = SegmentManager(
            self.db,
            config.umin,
            config.min_segment_rows,
            mode=config.maintenance,
        )
        #: background maintenance worker (``config.maintenance ==
        #: "background"`` only); owns the physical half of every freeze
        self.maintenance = None
        if config.maintenance == "background":
            from repro.archis.maintenance import MaintenanceWorker

            self.maintenance = MaintenanceWorker(
                self, config.maintenance_step_rows
            )
            self.segments.on_freeze_request = self.maintenance.request
        self.relations: dict[str, TrackedRelation] = {}
        self.writers: dict[str, HTableWriter] = {}
        self.trackers: dict[str, object] = {}
        self.archive = CompressedArchive(self.db, self.segments)
        self._doc_names: dict[str, str] = {}
        #: set by :class:`repro.txn.TxnManager` when a transaction layer
        #: is attached; apply_pending then only archives committed entries
        self.txn_manager = None
        #: queries slower than ``slow_query_log.threshold`` seconds are
        #: kept here (bounded); set the threshold to None to disable.
        self.slow_query_log = SlowQueryLog()
        # let the segment-restriction optimizer rule see clustering
        # state, the statement cache see when it changes, and the planner
        # read tracked tables under a pinned day from their H-tables
        self.db.segment_provider = self._segment_hints
        self.db.segment_generation = self._segment_generation
        self.db.tracked_relations = self.relations
        from repro.util.timeutil import FOREVER

        # tend with 'now' substitution (paper Section 4.3): the internal
        # end-of-time marker reads as the current date.
        self.db.register_function(
            "tendval",
            lambda v: self.db.current_date if v == FOREVER else v,
        )

    # -- setup -------------------------------------------------------------------

    def track_table(
        self,
        name: str,
        key: str | None = None,
        document_name: str | None = None,
        value_indexes: bool = False,
    ) -> TrackedRelation:
        """Start archiving a current table's history.

        ``key`` defaults to the table's single-column primary key; its
        value must remain invariant over the history (paper Section 5.1).
        ``document_name`` names the H-view (default ``<name>s.xml``).
        ``value_indexes`` additionally indexes every attribute's value
        column (the paper indexes "all nodes/attributes which have values
        selected"; off by default to keep the storage profile lean).
        """
        if name in self.relations:
            raise ArchisError(f"table {name} is already tracked")
        table = self.db.table(name)
        if key is None:
            if len(table.schema.primary_key) != 1:
                raise ArchisError(
                    f"table {name}: pass key= explicitly (no single-column "
                    "primary key)"
                )
            key = table.schema.primary_key[0]
        attributes = {
            column.name: column.type
            for column in table.schema.columns
            if column.name != key
        }
        relation = TrackedRelation(name, key, attributes)
        create_htables(
            self.db, relation, self.segments.segmented, value_indexes
        )
        for table_name in relation.all_tables():
            self.segments.register_table(table_name)
        from repro.archis.tablefuncs import register_history_functions

        for table_name in relation.all_tables():
            register_history_functions(self, table_name)
        writer = HTableWriter(self.db, relation, self.segments)
        if self.profile.tracking == "triggers":
            tracker = TriggerTracker(self.db, writer)
        else:
            tracker = LogTracker(self.db, writer)
        self.relations[name] = relation
        self.writers[name] = writer
        self.trackers[name] = tracker
        # plans of this table made before it was tracked read it as is
        self.db.invalidate_plans()
        self._doc_names[document_name or f"{name}s.xml"] = name
        # archive rows that already exist in the current table
        for row in list(table.rows()):
            writer.archive_insert(row, self.db.current_date)
        return relation

    # -- change flow ---------------------------------------------------------------

    def apply_pending(self, durable: bool = False) -> int:
        """Drain the update log into H-tables (ATLaS profile).

        Returns the number of entries archived.  A no-op (returns 0)
        under trigger tracking, where archival is synchronous.  With a
        transaction manager attached, only entries of *committed*
        transactions are applied — readers running beside in-flight
        writers must never archive uncommitted changes.

        The drain goes through the
        :class:`~repro.archis.batch.BatchArchiver` in batches of
        :data:`~repro.archis.batch.DEFAULT_BATCH_SIZE` entries.
        ``durable=True`` additionally commits to the WAL once per batch
        on a file-backed archive, making each completed batch a
        crash-consistent recovery point.
        """
        if self.profile.tracking != "log":
            return 0
        if self.history_lock.held_read():
            # a reader holding the history lock (an XQuery mid-scan)
            # must not mutate the H-tables it is reading; the entries
            # stay pending for the next apply outside the read
            return 0
        if self.txn_manager is not None:
            return self.txn_manager.apply_committed()
        return BatchArchiver(self, durable=durable).apply()

    def apply_log_entries(self, predicate) -> int:
        """Apply matching update-log entries (transaction-layer hook).

        Unlike :meth:`apply_pending` this does not consult the
        transaction manager — the manager calls it with its own
        committed-entries predicate, under its apply lock.  Durability
        is the caller's concern (the transaction layer commits the whole
        transaction as one WAL frame).
        """
        if self.profile.tracking != "log":
            return 0
        return BatchArchiver(self).apply(predicate)

    # -- publication ------------------------------------------------------------------

    def publish(self, relation_name: str):
        """Materialize the H-document of one tracked relation.

        Reads through the compressed archive when segments have been
        BlockZIPed, so publication is storage-layout independent.
        """
        relation = self._relation(relation_name)
        with self.history_lock.read():
            return publish_relation(self.db, relation, self._history_of)

    def _history_of(self, table_name: str) -> list[tuple]:
        """Deduplicated ``(id, value..., tstart, tend)`` rows of an
        H-table: ``history_<t>()`` without its ``segno`` column.  The
        caller holds the history read lock."""
        seg_pos = self.db.table(table_name).schema.position("segno")
        return [
            row[:seg_pos] + row[seg_pos + 1:]
            for row in self.db.table_function(f"history_{table_name}")()
        ]

    def document_names(self) -> list[str]:
        return sorted(self._doc_names)

    def relation_for_document(self, document: str) -> TrackedRelation:
        name = self._doc_names.get(document)
        if name is None:
            raise ArchisError(f"no H-view named {document!r}")
        return self.relations[name]

    def history(self, relation_name: str, attribute: str | None = None):
        """Deduplicated history rows of the key or one attribute table."""
        relation = self._relation(relation_name)
        table = (
            relation.key_table
            if attribute is None
            else relation.attribute_table(attribute)
        )
        with self.history_lock.read():
            return self._history_of(table)

    # -- queries --------------------------------------------------------------------------

    def _segment_hints(self, table_name: str):
        """``Database.segment_provider`` hook for the optimizer rules."""
        if not self.segments.is_registered(table_name):
            return None
        from repro.plan.optimizer import SegmentHints

        compressed = table_name in self.archive.compressed_tables
        segments = self.segments
        return SegmentHints(
            compressed=compressed,
            segments_overlapping=segments.segments_overlapping,
            holds_copies=compressed
            or (segments.segmented and segments.segment_count() > 1),
        )

    def _segment_generation(self) -> tuple:
        """``Database.segment_generation`` hook: moves whenever the
        clustering state the optimizer reads changes."""
        return (self.segments.generation, tuple(self.archive.compressed_tables))

    def prepare(self, query: str):
        """Bind an XQuery to a plan through the statement cache, which
        translates a shape it does not hold (``db.statements``,
        :meth:`~repro.sql.cache.StatementCache.prepare_xquery`): two
        queries that differ only in their value literals share one
        translation and its plans.  The result's ``translation`` holds
        the SQL (literals as ``$n`` slots) and the post step; raises
        :class:`UnsupportedQueryError` for a query or a binding outside
        the translatable subset."""
        return self.db.statements.prepare_xquery(
            query, lambda text, literals: Analyzer(self).translate(text, literals)
        )

    def translate(self, query: str) -> str:
        """Translate XQuery on the H-views to SQL/XML on the H-tables.

        The returned text is the *optimized* query: the plan the
        statement cache holds for the query's shape, rendered back to
        SQL with this query's literals, so segment-restricted access
        paths (``segno = k``, ``history_<t>`` with segment or key
        arguments) appear in the SQL itself.
        """
        from repro.plan import to_sql
        from repro.plan.render import bound_literals

        bound = self.prepare(query)
        with bound_literals(bound.values):
            return to_sql(bound.plan.optimized)

    def xquery(self, query: str, allow_fallback: bool = True) -> Result:
        """Answer a temporal XQuery against the (virtual) H-documents.

        The translated SQL/XML path is used when the query falls in the
        translatable subset; otherwise, with ``allow_fallback``, the H-views
        are published and the query evaluated natively (complete but slow).

        Returns a :class:`~repro.api.Result` whose ``rows`` are the
        answer forest (XML elements and/or scalars) and whose ``stats``
        carry the translated SQL, the fallback reason (if any) and the
        elapsed seconds.  A Result is not a list: read ``result.rows``.

        Emits an ``archis.xquery`` root span (children: ``xquery.translate``,
        ``sql.execute``, ``xquery.post`` — or ``xquery.native`` on
        fallback), counts ``archis.xquery.count`` / ``xquery.fallback``
        and feeds the slow-query log.
        """
        from repro.sql.session import execute_prepared

        tracer = get_tracer()
        started = perf_counter()
        sql_text: str | None = None
        fallback_reason: str | None = None
        out: Result | None = None
        try:
            with tracer.span("archis.xquery", query=query) as span:
                self.apply_pending()
                # the read side keeps the maintenance worker (and any
                # other H-table mutator) out while the query is planned
                # and scans
                with self.history_lock.read():
                    try:
                        with tracer.span("xquery.translate"):
                            bound = self.prepare(query)
                    except UnsupportedQueryError as exc:
                        refused = exc
                    else:
                        translation = bound.translation
                        sql_text = translation.sql
                        span.set("sql", sql_text)
                        with tracer.span("sql.execute"):
                            result = execute_prepared(
                                self.db, bound, text=sql_text
                            )
                        with tracer.span("xquery.post"):
                            if translation.post is not None:
                                rows = translation.post(result)
                            else:
                                rows = result.xml()
                        out = Result(rows, stats={"sql": sql_text})
                        return out
                fallback_reason = str(refused)
                _FALLBACKS.inc(fallback_reason)
                span.set("fallback_reason", fallback_reason)
                if not allow_fallback:
                    raise refused
                with tracer.span("xquery.native"):
                    out = Result(
                        self._native_fallback(query),
                        stats={"fallback_reason": fallback_reason},
                    )
                    return out
        finally:
            elapsed = perf_counter() - started
            _XQUERY_COUNT.inc()
            _XQUERY_SECONDS.observe(elapsed)
            if out is not None:
                out.stats["seconds"] = elapsed
            self.slow_query_log.record(
                query,
                elapsed,
                sql=sql_text,
                fallback_reason=fallback_reason,
                trace_id=get_tracer().current_trace_id(),
            )

    def _native_fallback(self, query: str) -> list:
        from repro.xquery import make_context, parse_xquery
        from repro.xquery.evaluator import evaluate_query

        with get_tracer().span("xquery.publish"), self.history_lock.read():
            documents = {
                doc: publish_relation(
                    self.db, self.relations[rel], self._history_of
                )
                for doc, rel in self._doc_names.items()
            }
        ctx = make_context(documents, self.db.current_date)
        return evaluate_query(parse_xquery(query), ctx)

    # -- temporal SQL (first-class FOR SYSTEM_TIME) ------------------------------------------

    def sql(self, text: str, params=None) -> Result:
        """Execute SQL — including the temporal surface — on the archive.

        This is the SQL-native sibling of :meth:`xquery`: ``FOR
        SYSTEM_TIME`` clauses, ``TEMPORAL JOIN``, ``SELECT NORMALIZE``
        and sequenced aggregates (``tavg``/``tcount``/...) lower straight
        into the plan IR, so time-travel queries pick up segment
        restriction and index selection without any XQuery translation.  Pending changes are archived first and
        SELECTs run under the history read lock, mirroring the ``xquery``
        path; use :meth:`explain_sql` / ``db.last_plan`` for the plan.
        """
        from repro.plan.build import select_is_temporal
        from repro.sql.lexer import statement_keyword
        from repro.sql.session import execute_prepared

        if statement_keyword(text) != "select":
            return self.db.sql(text, params)
        tracer = get_tracer()
        started = perf_counter()
        with tracer.span("archis.sql", sql=text):
            self.apply_pending()
            # prepared after the drain and under the history lock: a
            # drain can freeze a segment, and the plan reads segment state
            with self.history_lock.read():
                bound = self.db.statements.prepare(text)
                result = execute_prepared(self.db, bound, params, text=text)
        elapsed = perf_counter() - started
        if select_is_temporal(bound.statement):
            _TEMPORAL_QUERIES.inc()
            _TEMPORAL_SECONDS.observe(elapsed)
            self.slow_query_log.record(
                text,
                elapsed,
                sql=text,
                trace_id=tracer.current_trace_id(),
            )
        result.stats.update({"sql": text, "seconds": elapsed})
        return result

    def explain_sql(self, text: str, params=None) -> ExplainResult:
        """Run SQL with tracing forced on and report how it ran.

        The SQL sibling of :meth:`explain`: returns the span tree, the
        statement's :class:`~repro.obs.explain.PlanReport` (where the
        segment restriction is visible) and the
        buffer-pool IO the run performed.
        """
        return self._explained(
            text, "archis.sql", lambda: self.sql(text, params),
            params=dict(params or {}),
        )

    # -- compression ----------------------------------------------------------------------------

    def compress_archive(self) -> dict[str, object]:
        """BlockZIP every tracked H-table's frozen segments into BLOBs.

        Background rewrites are drained first: compression snapshots a
        frozen segment's physical layout, so the sorted rewrite must be
        in place before its rows move into BLOBs.
        """
        self.drain_maintenance()
        report = {}
        with get_tracer().span("archis.compress_archive") as span:
            for relation in self.relations.values():
                for table_name in relation.all_tables():
                    if table_name in self.archive.compressed_tables:
                        continue
                    report[table_name] = self.archive.compress_table(
                        table_name
                    )
            span.set("tables", len(report))
        return report

    # -- persistence ------------------------------------------------------------------------

    def save(self) -> str:
        """Persist a file-backed archive (catalog + ArchIS metadata).

        Queued background rewrites are drained first so the saved
        archive carries a settled physical layout (an unfinished queue
        would still reload correctly — ``pending_rewrites`` rides in the
        sidecar — but a clean save should not need a resume).
        """
        self.drain_maintenance()
        from repro.archis.persistence import save_archive

        return save_archive(self)

    def drain_maintenance(self, timeout: float = 60.0) -> None:
        """Wait for every queued background rewrite to finish.

        A no-op outside background mode.  Re-raises an error the worker
        recorded.
        """
        if self.maintenance is not None:
            self.maintenance.drain(timeout)

    def close(self) -> None:
        """Stop maintenance and close the db."""
        if self.maintenance is not None:
            self.maintenance.stop()
        self.db.close()

    def __enter__(self) -> "ArchIS":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @classmethod
    def open(
        cls,
        path: str,
        *,
        config: ArchISConfig | None = None,
    ) -> "ArchIS":
        """Reopen an archive saved with :meth:`save` (runs WAL recovery).

        ``config`` supplies the runtime knobs (buffer pool, durability,
        cache sizes, maintenance mode); the archive's *state* — profile,
        U_min, segment boundaries — always comes from the saved sidecar.
        """
        from repro.archis.persistence import load_archive

        return load_archive(path, config=resolve_config(config))

    @property
    def durability(self) -> str:
        """The underlying pager's durability mode: ``"wal"`` or ``"none"``."""
        return self.db.durability

    # -- observability ----------------------------------------------------------------------------

    def stats(self) -> dict:
        """A full telemetry snapshot: metrics, cache, segments, slow log.

        The returned structure is a deep copy: callers may mutate or
        retain it without aliasing live registry internals, and two
        snapshots never share state.
        """
        pool = self.db.pool.stats
        pager = self.db.pager.stats
        return copy.deepcopy({
            "metrics": get_registry().snapshot(),
            "buffer": {
                "hits": pool.hits,
                "misses": pool.misses,
                "hit_rate": pool.hit_rate,
            },
            "pager": {
                "reads": pager.reads,
                "writes": pager.writes,
                "allocations": pager.allocations,
            },
            "durability": {
                "mode": self.db.durability,
                "wal_frames": get_registry().counter("wal.frames").value,
                "wal_bytes": get_registry().counter("wal.bytes").value,
                "wal_commits": get_registry().counter("wal.commits").value,
                "wal_checkpoints": get_registry().counter(
                    "wal.checkpoints"
                ).value,
                "wal_recoveries": get_registry().counter(
                    "wal.recoveries"
                ).value,
                "wal_fsyncs": get_registry().counter("wal.fsyncs").value,
                "group_commit_batched": get_registry().counter(
                    "wal.group_commit.batched"
                ).value,
                "commit_causes": dict(
                    get_registry().labeled_counter("wal.commits.cause").values
                ),
            },
            "ingest": {
                "batch_size": DEFAULT_BATCH_SIZE,
                "batches": get_registry().counter("ingest.batches").value,
                "entries": get_registry().counter("ingest.entries").value,
                "clearance_granted": get_registry().counter(
                    "ingest.clearance_granted"
                ).value,
                "clearance_denied": get_registry().counter(
                    "ingest.clearance_denied"
                ).value,
            },
            "config": self.config.as_dict(),
            "txn": (
                self.txn_manager.stats()
                if self.txn_manager is not None
                else None
            ),
            "segments": {
                "count": self.segments.segment_count(),
                "freezes": self.segments.freeze_count,
                "live_segno": self.segments.live_segno,
                "usefulness": self.segments.stats.usefulness,
            },
            "maintenance": {
                "mode": self.config.maintenance,
                "step_rows": self.config.maintenance_step_rows,
                "pending_rewrites": list(self.segments.pending_rewrites),
                "rewrites_completed": self.segments.rewrites,
                "worker": (
                    self.maintenance.stats()
                    if self.maintenance is not None
                    else None
                ),
                "freezes_enqueued": get_registry().counter(
                    "maintenance.freezes_enqueued"
                ).value,
                "freezes_completed": get_registry().counter(
                    "maintenance.freezes_completed"
                ).value,
                "steps": get_registry().counter("maintenance.steps").value,
                "rows_moved": get_registry().counter(
                    "maintenance.rows_moved"
                ).value,
            },
            "translator": {
                "cache_hits": get_registry().counter(
                    "translator.cache_hits"
                ).value,
                "cache_misses": get_registry().counter(
                    "translator.cache_misses"
                ).value,
            },
            "plan_cache": self.db.statements.stats(),
            "relations": sorted(self.relations),
            "compressed_tables": sorted(self.archive.compressed_tables),
            "slow_queries": [
                asdict(entry) for entry in self.slow_query_log
            ],
        })

    def explain(self, query: str, allow_fallback: bool = True) -> ExplainResult:
        """Run ``query`` with tracing forced on and report how it ran.

        Returns the span tree (parse/translate/execute stages), the
        translated SQL (or the fallback reason), and the buffer-pool IO
        the run performed.  Works regardless of the tracer's global
        enabled state.
        """
        return self._explained(
            query, "archis.xquery",
            lambda: self.xquery(query, allow_fallback=allow_fallback),
        )

    def _explained(self, query: str, root_name: str, run, **fields):
        """Run ``run()`` with tracing forced on and report its
        ``root_name`` span, the plan of the SQL it ran (if any) and the
        buffer-pool IO it performed."""
        registry = get_registry()
        misses = registry.counter("buffer.misses")
        hits = registry.counter("buffer.hits")
        misses_before, hits_before = misses.value, hits.value
        with get_tracer().capture() as roots:
            result = run()
        root = next(
            (s for s in reversed(roots) if s.name == root_name), roots[-1]
        )
        sql = root.attrs.get("sql")
        plan = None
        if sql is not None and self.db.last_plan is not None:
            plan = self.db.last_plan.report()
        return ExplainResult(
            query=query,
            seconds=root.duration,
            result_count=result.row_count,
            physical_reads=misses.value - misses_before,
            cache_hits=hits.value - hits_before,
            root=root,
            sql=sql,
            fallback_reason=root.attrs.get("fallback_reason"),
            plan=plan,
            **fields,
        )

    # -- measurement hooks ------------------------------------------------------------------------

    def reset_caches(self) -> None:
        """Drop buffered pages and the statement cache (translations and
        plans)."""
        self.db.reset_caches()
        self.db.statements.clear()

    def storage_bytes(self) -> int:
        """Footprint of all H-tables + compressed blobs (+ index models).

        The ATLaS profile charges its clustered-index overhead here
        (BerkeleyDB keeps tables inside a clustered B-tree; Fig. 11 shows
        the resulting storage penalty).
        """
        total = 0
        for relation in self.relations.values():
            for table_name in relation.all_tables():
                table = self.db.table(table_name)
                total += table.size_bytes(include_indexes=True)
                if self.profile.clustered_indexes:
                    # clustered index ~ one extra key entry per row plus
                    # B-tree page slack over the heap payload
                    total += table.size_bytes(include_indexes=False) // 2
            for table_name in relation.all_tables():
                info = self.archive.compressed_tables.get(table_name)
                if info is not None:
                    for row in self.db.table(info.blob_table).rows():
                        blob_id = row[4]
                        total += len(self.db.blobs.get(blob_id))
        return total

    def _relation(self, name: str) -> TrackedRelation:
        relation = self.relations.get(name)
        if relation is None:
            raise ArchisError(f"table {name} is not tracked")
        return relation
