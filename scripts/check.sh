#!/usr/bin/env bash
# Lint + tier-1 test gate. Run from the repository root:
#
#     ./scripts/check.sh
#
# ruff is optional (config lives in pyproject.toml); the tests are not.
set -euo pipefail
cd "$(dirname "$0")/.."

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests
else
    echo "== ruff == (not installed; skipping lint)"
fi

echo "== legacy API lint =="
# The v3 API redesign removed the deprecated ArchIS config aliases
# (profile=/umin=/... on ArchIS(), buffer_pages=/durability= on
# ArchIS.open()) and the bare-list Result shim.  Fail if anything in
# the tree reaches for them again.  (Database.open keeps its own
# buffer_pages/durability parameters — the lint anchors on ArchIS.)
LEGACY="$(grep -rnE \
    'ArchIS(\.open)?\([^()]*\b(profile|umin|min_segment_rows|translation_cache_size|buffer_pages|durability)=' \
    --include='*.py' src tests examples scripts benchmarks || true)"
if [ -n "$LEGACY" ]; then
    echo "FAIL: legacy ArchIS config aliases are gone; pass config=ArchISConfig(...):" >&2
    echo "$LEGACY" >&2
    exit 1
fi
SHIM="$(grep -rnE '_WARNED_ALIASES|reset_alias_warnings|from repro\.archis\.config import .*_UNSET' \
    --include='*.py' src tests examples scripts benchmarks || true)"
if [ -n "$SHIM" ]; then
    echo "FAIL: the deprecated-alias shim machinery was removed:" >&2
    echo "$SHIM" >&2
    exit 1
fi
# Key-partitioned sharding (ArchISConfig.shards/shard_by, the shard
# stores and the Exchange operator) was deleted; keep it deleted.
SHARDING="$(grep -rnE '\bshards=|\bshard_by=|shard_stores|ExchangeOp|repro\.archis\.sharding' \
    --include='*.py' src tests examples scripts benchmarks || true)"
if [ -n "$SHARDING" ]; then
    echo "FAIL: key-partitioned sharding was removed; the single store is the only store:" >&2
    echo "$SHARDING" >&2
    exit 1
fi
# Row-at-a-time log apply (tracker.apply_log, ArchISConfig.batch_size
# and the batch_size= parameters of apply_pending) and the second freeze
# algorithm (SegmentManager._rewrite_table) were deleted: every drain is
# the BatchArchiver, every freeze the switch/rewrite/compact steps.
WRITE_PATHS="$(grep -rnE '\bapply_log\(|batch_size=None|ArchISConfig\([^()]*\bbatch_size=|apply_pending\([^()]*\bbatch_size=|_rewrite_table' \
    --include='*.py' src tests examples scripts benchmarks || true)"
if [ -n "$WRITE_PATHS" ]; then
    echo "FAIL: the update log has one drain (BatchArchiver) and freezes one algorithm:" >&2
    echo "$WRITE_PATHS" >&2
    exit 1
fi
# The hand-written history readers (ArchIS.snapshot_rows, the one-scan
# UDA and its profile flag, the publisher's second dedup) were deleted:
# every archived-row read goes through the history_<t> table function.
# (`\bhistory_rows\(` spares the spine's `history_rows` attribute.)
HISTORY_READERS="$(grep -rnE '\.snapshot_rows\(|max_increase_one_scan|one_scan_join|\bhistory_rows\(|_all_rows_of|rows_provider' \
    --include='*.py' src tests examples scripts benchmarks || true)"
if [ -n "$HISTORY_READERS" ]; then
    echo "FAIL: archived history has one reader, the history_<t> table function:" >&2
    echo "$HISTORY_READERS" >&2
    exit 1
fi
# The segment-range readers seg_<t> and slice_<t> (and their second
# (id, tstart) dedup) were folded into history_<t>(seg_lo, seg_hi,
# id_lo, id_hi): each H-table registers that one function.
SEGMENT_READERS="$(grep -rnE 'register_table_function\(\s*f?["'"'"'](seg|slice)_|\b(seg|slice)_fn\b' \
    --include='*.py' src tests examples scripts benchmarks || true)"
if [ -n "$SEGMENT_READERS" ]; then
    echo "FAIL: an H-table registers one history read, history_<t>:" >&2
    echo "$SEGMENT_READERS" >&2
    exit 1
fi
# The time-weighted aggregates (SQL tavg/tsum/..., XQuery tavg/...)
# share one per-day sweep, util/intervals.py:sweep_aggregate; a second
# sweep elsewhere in the program is a second semantics to keep in step.
SWEEPS="$(grep -rnE 'def [A-Za-z_]*sweep' --include='*.py' src \
    | grep -v '^src/repro/util/intervals\.py:' || true)"
if [ -n "$SWEEPS" ]; then
    echo "FAIL: one temporal-aggregate sweep, util/intervals.py:sweep_aggregate:" >&2
    echo "$SWEEPS" >&2
    exit 1
fi
# The executor's rows are positional tuples (expressions read row[i],
# joins concatenate tuples); the (alias, column)-keyed dict environments
# were deleted.  Keep them deleted.
ROW_DICTS="$(grep -rnE 'dict\(zip\(|\benv\.get\(' \
    --include='*.py' src/repro/plan src/repro/sql/expr.py || true)"
if [ -n "$ROW_DICTS" ]; then
    echo "FAIL: executor rows are tuples read by position, not dict environments:" >&2
    echo "$ROW_DICTS" >&2
    exit 1
fi
# A snapshot read of a tracked current table is the paper's snapshot
# query, planned over its H-tables (plan/build.py); the materialised
# copy (txn/reconstruct.py) and the thread-local table overlay that
# swapped it in were deleted.  Keep them deleted.
SNAPSHOT_COPY="$(grep -rnE 'snapshot_table|providing_tables|table_provider|repro\.txn\.reconstruct' \
    --include='*.py' src tests examples scripts benchmarks || true)"
if [ -n "$SNAPSHOT_COPY" ]; then
    echo "FAIL: snapshot reads are planned over the H-tables, not copied:" >&2
    echo "$SNAPSHOT_COPY" >&2
    exit 1
fi
# The XQuery translation cache (its LRU, its size knob, the SQL
# templates and the literal renderer that filled them) was folded into
# the statement cache: an XQuery's literals are statement slots, never
# SQL text.  Keep them gone from the program.
TRANSLATION_CACHE="$(grep -rnE '_translation_cache|class Template\b|render_literal|DEFAULT_TRANSLATION_CACHE_SIZE|translation_cache_size' \
    --include='*.py' src || true)"
if [ -n "$TRANSLATION_CACHE" ]; then
    echo "FAIL: the statement cache is the one shape cache; literals are slots:" >&2
    echo "$TRANSLATION_CACHE" >&2
    exit 1
fi
# The standalone XPath evaluator (repro.xmlkit.xpath, its XPathError
# and XPATH wire code) was deleted: XQuery paths are evaluated by
# repro.xquery.  The maintenance="off" mode went with it; umin=None is
# the configuration that never freezes.
UNREACHED="$(grep -rnE 'repro\.xmlkit\.xpath|\bXPathError\b|maintenance=["'"'"']off["'"'"']' \
    --include='*.py' src tests examples scripts benchmarks || true)"
if [ -n "$UNREACHED" ]; then
    echo "FAIL: the XPath evaluator and maintenance=\"off\" were removed:" >&2
    echo "$UNREACHED" >&2
    exit 1
fi
echo "no references to removed legacy API surface"

echo "== python 3.10 regex lint =="
# requires-python is >=3.10, whose re module rejects possessive
# quantifiers (`*+`, `++`, `?+`, `}+`) and atomic groups (`(?>`): an
# import that compiles one fails there.
PY311_RE="$(grep -rnE '(\*|\+|\?|\})\+|\(\?>' --include='*.py' src || true)"
if [ -n "$PY311_RE" ]; then
    echo "FAIL: regex syntax newer than Python 3.10:" >&2
    echo "$PY311_RE" >&2
    exit 1
fi
echo "no 3.11-only regex syntax"

echo "== metric inventory lint =="
# Every metric emitted under src/ must be documented in
# repro.obs.METRIC_INVENTORY (its # HELP text in the exposition).
python scripts/lint_metrics.py

echo "== pytest (tier 1) =="
PYTHONPATH=src python -m pytest -x -q

echo "== pytest (golden plan snapshots) =="
# The rendered plans are pinned output: a diff here means the optimizer
# or the plan renderer changed observable behavior.
PYTHONPATH=src python -m pytest -x -q tests/plan/test_golden_plans.py

echo "== pytest (crash-injection durability suite) =="
# Run the crash matrix in a dedicated temp root so we can prove that no
# recovery path leaves stray .tmp files or unreplayed WAL frames behind.
CRASH_TMP="$(mktemp -d)"
trap 'rm -rf "$CRASH_TMP"' EXIT
PYTHONPATH=src python -m pytest -x -q \
    --basetemp="$CRASH_TMP" \
    tests/storage/test_wal_recovery.py \
    tests/archis/test_crash_persistence.py

STRAY_TMP="$(find "$CRASH_TMP" -name '*.tmp' 2>/dev/null || true)"
if [ -n "$STRAY_TMP" ]; then
    echo "FAIL: recovery tests left stray .tmp files behind:" >&2
    echo "$STRAY_TMP" >&2
    exit 1
fi
# (*.db.wal = pager-managed logs; bare *.wal fixtures from the frame-codec
# unit tests are expected to keep their frames)
STRAY_WAL="$(find "$CRASH_TMP" -name '*.db.wal' -size +0c 2>/dev/null || true)"
if [ -n "$STRAY_WAL" ]; then
    echo "FAIL: recovery tests left non-empty WAL files behind:" >&2
    echo "$STRAY_WAL" >&2
    exit 1
fi
echo "no stray .tmp or WAL files left behind"

echo "== examples =="
# Every example runs end to end against the current API; one that exits
# non-zero fails the gate.
for example in examples/*.py; do
    echo "-- $example"
    PYTHONPATH=src timeout 300 python "$example" > /dev/null
done

echo "== WAL ingest smoke (spine ingest-hotkey) =="
# File-backed archive, durable WAL batches, drain/compress/save, then a
# reopen check against the oracle; exits non-zero on any wrong answer.
# Equivalence of the drain with the db2 trigger reference lives in
# tests/archis/test_batch_ingest.py.
PYTHONPATH=src timeout 300 python3 benchmarks/spine/run.py --smoke \
    --workload ingest-hotkey

echo "== read-path smokes (spine scan-plain, point-zip) =="
# Heap scans of the segmented archive, index range reads (page-at-a-time
# unpacking in HeapFile.read_many, id ranges pushed into history_<t>
# through join keys) and BlockZIP block decoding, every timed answer
# checked against the oracle; exits non-zero on any wrong answer.
PYTHONPATH=src timeout 300 python3 benchmarks/spine/run.py --smoke \
    --workload scan-plain
PYTHONPATH=src timeout 300 python3 benchmarks/spine/run.py --smoke \
    --workload point-zip
# The archive invariants on a BlockZIP-compressed archive, including the
# block directory keyed reads rely on (first keys match, never decrease).
PYTHONPATH=src timeout 120 python -m repro.tools check --compress
# The same audit, index consistency included, after the background
# worker rewrote the frozen segment in steps of 64 rows.
PYTHONPATH=src timeout 120 python -m repro.tools check --compress \
    --maintenance background --maintenance-step-rows 64

echo "== Fig. 10 scalability table =="
# The paper's 1x vs 7x query-time growth: whole-archive queries grow at
# most modestly super-linearly, single-object Q1/Q3 less than the data.
PYTHONPATH=src timeout 300 python -m pytest -q benchmarks/bench_fig10_scalability.py

echo "== benchmark answer checks =="
# The correctness tests inside the pytest-benchmark scripts, with the
# timing switched off, so their answer checks cannot rot unseen.
PYTHONPATH=src timeout 300 python -m pytest -q --benchmark-disable \
    benchmarks/bench_ablation_bufferpool.py::test_tiny_pool_still_answers_correctly \
    benchmarks/bench_ablation_indexes.py::test_answers_identical_without_indexes \
    benchmarks/bench_snapshot_vs_current.py::test_snapshot_matches_current_average

echo "== concurrency stress (bounded) =="
# Snapshot-vs-replay consistency under concurrent clients, deadlock
# breaking, group-commit batching — fails on leaked threads or sockets.
PYTHONPATH=src timeout 120 python scripts/stress_concurrency.py --seconds 3
