"""Zero-dependency observability: tracing, metrics, slow log, EXPLAIN.

Every layer of the ArchIS stack reports into one process-wide
:class:`~repro.obs.metrics.MetricsRegistry` and one
:class:`~repro.obs.tracer.Tracer`.  The full metric surface is the
:data:`METRIC_INVENTORY` below — one entry per emitted metric, with its
``# HELP`` text for the Prometheus exposition
(:func:`~repro.obs.promtext.render_prometheus`).  The inventory is a
**contract**: ``scripts/lint_metrics.py`` (run by ``scripts/check.sh``)
fails the build when code under ``src/`` emits a metric name that is not
documented here.

Tracing is disabled by default (no-op spans) but *trace context* —
client-minted trace ids arriving over the wire — propagates regardless,
so the slow-query log can always attribute a query to its request.
Metrics are always on and cost an integer increment.  See
``ArchIS.stats()``, ``ArchIS.explain()``, the ``metrics``/``health``
server ops and ``python -m repro.tools obs`` / ``top``.
"""

from repro.obs.explain import ExplainResult
from repro.obs.export import JsonlSpanExporter
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LabeledCounter,
    LabeledGauge,
    LabeledHistogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.promtext import render_prometheus
from repro.obs.report import format_metrics, format_traces
from repro.obs.slowlog import SlowQuery, SlowQueryLog
from repro.obs.tracer import Span, Tracer, get_tracer

#: Every metric the engine emits, with its exposition help text.
#: Grouped by subsystem; ``scripts/lint_metrics.py`` enforces that this
#: stays in sync with the instruments registered under ``src/``.
METRIC_INVENTORY: dict[str, str] = {
    # -- storage: buffer pool and pager ---------------------------------
    "buffer.hits": "buffer-pool page requests served from cache",
    "buffer.misses": "buffer-pool page requests that hit the pager",
    "buffer.occupancy": "pages currently cached in the buffer pool",
    "pager.reads": "physical page reads",
    "pager.writes": (
        "physical page writes: PAGE frames logged at commit (WAL mode) "
        "or in-place page writes (durability none)"
    ),
    "pager.allocations": "pages allocated",
    "pager.dirty_pages": "pages in the WAL overlay awaiting checkpoint",
    # -- durability: write-ahead log ------------------------------------
    "wal.frames": "frames appended to the WAL",
    "wal.bytes": "bytes appended to the WAL",
    "wal.size_bytes": "current WAL file size",
    "wal.commits": "COMMIT frames written",
    "wal.commits.cause": "COMMIT frames by trigger (txn, ingest, ...)",
    "wal.checkpoints": "WAL checkpoints (truncations)",
    "wal.recoveries": "recovery passes that replayed a committed save",
    "wal.frames_replayed": "frames replayed during recovery",
    "wal.fsyncs": "fsync calls on the WAL file",
    "wal.fsync.seconds": "WAL fsync latency",
    "wal.group_commit.batched": "commits that rode another leader's fsync",
    "wal.group_commit.batch_size": "COMMIT frames made durable per fsync",
    "wal.group_commit.adaptive_waits": (
        "group-commit leaders that lingered the window (contended)"
    ),
    "wal.group_commit.fast_syncs": (
        "group-commit leaders that fsynced immediately (uncontended)"
    ),
    # -- sql ------------------------------------------------------------
    "sql.statements": "SQL statements executed",
    "sql.rows_scanned": "rows scanned by SQL execution",
    "sql.rows_returned": "rows returned by SQL execution",
    "sql.statement.seconds": "SQL statement execution latency",
    # -- xquery / translator --------------------------------------------
    "xquery.translations": "XQuery-to-SQL translations performed",
    "xquery.translate.seconds": "XQuery-to-SQL translation latency",
    "xquery.native.seconds": "native-evaluation fallback latency",
    "xquery.fallback": "native-evaluation fallbacks by reason",
    "translator.cache_hits": "translation-cache hits",
    "translator.cache_misses": "translation-cache misses",
    # -- archis core ----------------------------------------------------
    "archis.xquery.count": "temporal XQuery requests answered",
    "archis.xquery.seconds": "end-to-end temporal XQuery latency",
    "tracker.changes_applied": "changes archived into H-tables",
    "tracker.inserts": "archived inserts",
    "tracker.updates": "archived updates",
    "tracker.deletes": "archived deletes",
    # -- clustering / compression ---------------------------------------
    "clustering.segments_frozen": "live segments frozen",
    "clustering.rows_rewritten": "rows rewritten by freezes",
    "clustering.live_rows_copied": "live rows copied into new segments",
    "clustering.usefulness_at_freeze": "segment usefulness when frozen",
    "clustering.live_segno": "current live segment number",
    "blockzip.blocks": "BlockZIP blocks compressed",
    "blockzip.blocks_decompressed": "BlockZIP blocks decompressed",
    "blockzip.bytes_in": "bytes fed into BlockZIP",
    "blockzip.bytes_out": "compressed bytes produced by BlockZIP",
    "blockzip.tables_compressed": "H-tables compressed into blob storage",
    "blockzip.block_bytes": "compressed block sizes",
    "blockzip.compression_ratio": "per-block compression ratios",
    # -- ingest (batched archival) --------------------------------------
    "ingest.batches": "batches applied by the batch archiver",
    "ingest.entries": "update-log entries archived in batches",
    "ingest.entries_per_batch": "entries per applied batch",
    "ingest.seconds": "batched-ingest apply latency per batch",
    "ingest.freeze_stall.seconds": (
        "time one apply stalled inside a synchronous segment freeze"
    ),
    "ingest.clearance_granted": "batches granted freeze clearance",
    "ingest.clearance_denied": "batches denied freeze clearance",
    "updatelog.backlog": "update-log entries pending archival, per log",
    # -- sharding (key-partitioned stores + scatter-gather) --------------
    "shard.entries_routed": (
        "update-log entries routed to each shard store, per shard"
    ),
    "shard.applies": "cross-shard apply rounds that archived entries",
    "exchange.queries": "scatter-gather exchange executions",
    "exchange.shards_hit": "shards scanned per exchange execution",
    "exchange.shards_pruned": (
        "shard scans avoided by key-equality pruning"
    ),
    # -- background segment maintenance ---------------------------------
    "maintenance.freezes_enqueued": (
        "freeze rewrites handed to the maintenance worker"
    ),
    "maintenance.freezes_completed": (
        "freeze rewrites fully applied by the maintenance worker"
    ),
    "maintenance.steps": "bounded maintenance steps performed",
    "maintenance.step.seconds": (
        "history-lock hold time of one maintenance step"
    ),
    "maintenance.rows_moved": (
        "frozen-segment rows rewritten by the maintenance worker"
    ),
    "maintenance.queue_depth": "freeze rewrites waiting for the worker",
    "maintenance.switch.seconds": (
        "time one apply spent in the synchronous logical segment switch"
    ),
    # -- plan / optimizer -----------------------------------------------
    "plan.rules_fired": "optimizer rule firings by rule",
    # -- temporal sql (FOR SYSTEM_TIME + sequenced operators) -----------
    "temporal.clauses": "FOR SYSTEM_TIME clauses planned, by kind",
    "temporal.queries": "temporal SQL statements executed via ArchIS.sql",
    "temporal.query.seconds": "end-to-end temporal SQL latency",
    "temporal.join.rows": "rows emitted by temporal joins",
    "temporal.join.dropped": (
        "matched pairs dropped by temporal joins (no interval overlap)"
    ),
    "temporal.coalesce.rows_merged": (
        "rows absorbed into merged periods by NORMALIZE coalescing"
    ),
    "temporal.aggregate.periods": (
        "constant-value periods emitted by sequenced aggregates"
    ),
    # -- transactions ---------------------------------------------------
    "txn.begun": "write transactions begun",
    "txn.commits": "transactions committed",
    "txn.commit.seconds": "transaction commit latency",
    "txn.aborts": "transactions aborted",
    "txn.active": "write transactions currently active",
    "txn.snapshots": "read snapshots handed out",
    "txn.snapshot.reconstructions": "snapshot table reconstructions",
    "txn.deadlocks": "deadlocks detected (victim aborted the wait)",
    "txn.lock_timeouts": "lock waits that hit the wall-clock timeout",
    "txn.locks.acquired": "table/resource locks acquired",
    "txn.locks.waits": "lock acquisitions that had to wait",
    "txn.lock_wait.seconds": "time spent blocked waiting for a lock",
    # -- server ---------------------------------------------------------
    "server.connections": "TCP connections accepted",
    "server.sessions": "sessions currently being served",
    "server.busy_rejections": "requests/connections rejected with BUSY",
    "server.errors": "requests answered with an error",
    "server.requests": "requests by protocol op",
    "server.request.seconds": "request latency (received to sent) by op",
    # -- async jobs -----------------------------------------------------
    "jobs.submitted": "async jobs accepted by job.submit",
    "jobs.completed": "async jobs that finished with a result",
    "jobs.failed": "async jobs that finished in ERROR",
    "jobs.aborted": "async jobs cancelled before completing",
    "jobs.rejected": "job submissions rejected (queue full)",
    "jobs.evicted": "finished jobs evicted past the result TTL",
    "jobs.active": "jobs currently queued or running",
    "job.seconds": "async job run time (queue exit to finish)",
    # -- binary result encoding -----------------------------------------
    "encoding.binary.frames": "binary result frames encoded",
    "encoding.binary.rows": "rows shipped in binary result frames",
    "encoding.binary.bytes": "bytes of binary result frames produced",
    "encoding.binary.seconds": "binary result frame encode latency",
}

__all__ = [
    "Counter",
    "ExplainResult",
    "Gauge",
    "Histogram",
    "JsonlSpanExporter",
    "LabeledCounter",
    "LabeledGauge",
    "LabeledHistogram",
    "METRIC_INVENTORY",
    "MetricsRegistry",
    "SlowQuery",
    "SlowQueryLog",
    "Span",
    "Tracer",
    "format_metrics",
    "format_traces",
    "get_registry",
    "get_tracer",
    "render_prometheus",
]
