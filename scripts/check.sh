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
echo "no references to removed legacy API surface"

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

echo "== WAL ingest smoke (spine ingest-hotkey) =="
# File-backed archive, durable WAL batches, drain/compress/save, then a
# reopen check against the oracle; exits non-zero on any wrong answer.
# Batch-vs-row-at-a-time equivalence lives in tests/archis/test_batch_ingest.py.
PYTHONPATH=src timeout 300 python3 benchmarks/spine/run.py --smoke \
    --workload ingest-hotkey

echo "== read-path smokes (spine scan-plain, point-zip) =="
# Heap scans of the segmented archive and BlockZIP block decoding, every
# timed answer checked against the oracle; exits non-zero on any wrong answer.
PYTHONPATH=src timeout 300 python3 benchmarks/spine/run.py --smoke \
    --workload scan-plain
PYTHONPATH=src timeout 300 python3 benchmarks/spine/run.py --smoke \
    --workload point-zip
# The archive invariants on a BlockZIP-compressed archive, including the
# block directory keyed reads rely on (first keys match, never decrease).
PYTHONPATH=src timeout 120 python -m repro.tools check --compress

echo "== sharded scalability smoke benchmark =="
# Proves sharded answers match the single store and that key-equality
# pruning reaches the Exchange operator (shards=1/4 in EXPLAIN).  The
# throughput gate only applies to the full run; smoke writes to a
# scratch path so the committed BENCH JSON keeps full-run numbers.
PYTHONPATH=src timeout 300 python benchmarks/bench_fig10_scalability.py \
    --smoke --shards 4 --out "$(mktemp --suffix=.json)"

echo "== temporal SQL smoke benchmark =="
# FOR SYSTEM_TIME AS OF must answer exactly like snapshot_rows, the
# sequenced operators exactly like their XQuery equivalents, the AS OF
# EXPLAIN must show segment-restriction firing, and a keyed AS OF on a
# 4-shard archive must prune the Exchange to shards=1/4.  Performance
# ratios only gate the full run.
PYTHONPATH=src timeout 300 python benchmarks/bench_temporal_sql.py \
    --smoke --out "$(mktemp --suffix=.json)"

echo "== concurrency stress (bounded) =="
# Snapshot-vs-replay consistency under concurrent clients, deadlock
# breaking, group-commit batching — fails on leaked threads or sockets.
PYTHONPATH=src timeout 120 python scripts/stress_concurrency.py --seconds 3
