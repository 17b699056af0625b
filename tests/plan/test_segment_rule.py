"""End-to-end check of the paper's Section 6.4 segment restriction.

A snapshot query over a clustered archive must (a) fire the
segment-restriction rule, (b) return exactly the rows the unoptimized
plan returns, and (c) scan fewer rows doing it — measured through the
``sql.rows_scanned`` counter the physical operators maintain.
"""

import re

import pytest

from repro.bench.harness import build_archis
from repro.obs import get_registry
from repro.xmlkit import serialize


def snapshot_query(date):
    return (
        'for $s in doc("employees.xml")/employees/employee/salary'
        f'[tstart(.) <= xs:date("{date}") and tend(.) >= xs:date("{date}")] '
        "return $s"
    )


def canon(items):
    return sorted(
        serialize(x) if hasattr(x, "name") else repr(x) for x in items
    )


@pytest.fixture(scope="module")
def clustered():
    """A segmented archive with several frozen segments."""
    _, archis, _ = build_archis(
        employees=25, years=8, umin=0.4, min_segment_rows=64
    )
    assert archis.segments.freeze_count > 0, "dataset too small to freeze"
    return archis


def run_counted(archis, query):
    scanned = get_registry().counter("sql.rows_scanned")
    before = scanned.value
    rows = canon(archis.xquery(query, allow_fallback=False).rows)
    return rows, scanned.value - before


class TestSegmentRestrictionEndToEnd:
    def test_explain_shows_the_rule(self, clustered):
        result = clustered.explain(
            snapshot_query("1986-06-01"), allow_fallback=False
        )
        assert result.plan is not None
        assert any("segment-restriction" in r for r in result.plan.rules)

    def test_same_rows_fewer_scanned(self, clustered):
        query = snapshot_query("1986-06-01")
        optimized_rows, optimized_scanned = run_counted(clustered, query)
        assert optimized_rows  # the snapshot is not empty

        clustered.db.optimizer_enabled = False
        try:
            naive_rows, naive_scanned = run_counted(clustered, query)
        finally:
            clustered.db.optimizer_enabled = True

        assert optimized_rows == naive_rows
        assert optimized_scanned < naive_scanned

    def test_slicing_window_restricted_too(self, clustered):
        query = (
            'for $e in doc("employees.xml")/employees/employee'
            '[toverlaps(., telement(xs:date("1986-01-01"), '
            'xs:date("1986-12-31")))] '
            "return $e/name"
        )
        result = clustered.explain(query, allow_fallback=False)
        assert result.plan is not None
        assert any("segment-restriction" in r for r in result.plan.rules)

        optimized_rows, optimized_scanned = run_counted(clustered, query)
        clustered.db.optimizer_enabled = False
        try:
            naive_rows, naive_scanned = run_counted(clustered, query)
        finally:
            clustered.db.optimizer_enabled = True
        assert optimized_rows == naive_rows
        assert optimized_scanned <= naive_scanned

    def test_translate_renders_the_restricted_sql(self, clustered):
        sql = clustered.translate(snapshot_query("1986-06-01"))
        # one segment's heap rows, or the history read given its segments
        assert re.search(r"\bsegno = \d|\bhistory_employee_salary\(\d", sql)

    def test_compressed_archive_same_answers(self):
        _, archis, _ = build_archis(
            employees=15, years=5, umin=0.4, min_segment_rows=64,
            compress=True,
        )
        query = snapshot_query("1986-06-01")
        optimized_rows, _ = run_counted(archis, query)
        archis.db.optimizer_enabled = False
        try:
            naive_rows, _ = run_counted(archis, query)
        finally:
            archis.db.optimizer_enabled = True
        assert optimized_rows == naive_rows
