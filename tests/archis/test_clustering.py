"""Tests for usefulness-based segment clustering (paper Section 6)."""

import pytest

from repro.errors import ArchisError
from repro.archis.clustering import SegmentManager
from repro.util.timeutil import parse_date

from tests.archis.conftest import make_archis


def churn(archis, employees=10, rounds=12):
    """Insert employees then update salaries repeatedly to force freezes."""
    emp = archis.db.table("employee")
    for i in range(employees):
        emp.insert((i, f"e{i}", 1000 + i, "T", "d01"))
    for round_no in range(rounds):
        archis.db.advance_days(30)
        for i in range(employees):
            emp.update_where(
                lambda r, i=i: r["id"] == i, {"salary": 2000 + round_no * 100 + i}
            )
    archis.apply_pending()


class TestUsefulness:
    def test_usefulness_starts_at_one(self, archis):
        assert archis.segments.stats.usefulness == 1.0

    def test_usefulness_drops_on_updates(self, archis):
        emp = archis.db.table("employee")
        emp.insert((1, "A", 1, "T", "d"))
        archis.db.advance_days(1)
        emp.update_where(lambda r: r["id"] == 1, {"salary": 2})
        stats = archis.segments.stats
        assert stats.usefulness < 1.0

    def test_freeze_triggered_below_umin(self, archis):
        churn(archis)
        assert archis.segments.freeze_count >= 1
        assert archis.segments.segment_count() >= 2

    def test_no_freeze_when_unsegmented(self, archis_unsegmented):
        churn(archis_unsegmented)
        assert archis_unsegmented.segments.freeze_count == 0
        assert archis_unsegmented.segments.segment_count() == 1

    def test_lower_umin_fewer_segments(self):
        low = make_archis(umin=0.2, min_segment_rows=8)
        high = make_archis(umin=0.6, min_segment_rows=8)
        churn(low)
        churn(high)
        assert high.segments.freeze_count >= low.segments.freeze_count

    def test_invalid_umin(self):
        from repro.rdb import Database

        with pytest.raises(ArchisError):
            SegmentManager(Database(), umin=1.5)

    def test_freeze_requires_segmentation(self, archis_unsegmented):
        with pytest.raises(ArchisError):
            archis_unsegmented.segments.freeze()


class TestSegmentInvariants:
    def test_segment_table_intervals_are_contiguous(self, archis):
        churn(archis)
        segments = archis.segments.archived_segments()
        for (s1, _, end1), (s2, start2, _) in zip(segments, segments[1:]):
            assert s2 == s1 + 1
            assert start2 == end1 + 1

    def test_section_6_1_covering_conditions(self, archis):
        """Every tuple in a frozen segment satisfies tstart <= segend and
        tend >= segstart (paper equations 1-2)."""
        churn(archis)
        periods = dict(
            (segno, (segstart, segend))
            for segno, segstart, segend in archis.segments.archived_segments()
        )
        table = archis.db.table("employee_salary")
        for row in table.rows():
            rid, salary, tstart, tend, segno = row
            if segno not in periods:
                continue  # live segment
            segstart, segend = periods[segno]
            assert tstart <= segend
            assert tend >= segstart

    def test_frozen_segments_sorted_by_id(self, archis):
        churn(archis)
        table = archis.db.table("employee_salary")
        by_segment = {}
        for row in table.rows():
            by_segment.setdefault(row[4], []).append(row[0])
        for segno, ids in by_segment.items():
            if segno == archis.segments.live_segno:
                continue
            assert ids == sorted(ids), f"segment {segno} not clustered"

    def test_live_segment_holds_only_current_rows_after_freeze(self, archis):
        churn(archis)
        table = archis.db.table("employee_salary")
        live = archis.segments.live_segno
        # every id's live row appears exactly once in the live segment
        live_rows = [r for r in table.rows() if r[4] == live]
        assert live_rows
        for row in live_rows:
            # rows copied into a fresh live segment are current by design,
            # then may be closed by later updates
            assert row[2] <= row[3]

    def test_storage_bound_equation_3(self, archis):
        """N_seg / N_noseg <= 1 / (1 - U_min) (paper Eq. 3)."""
        churn(archis, employees=12, rounds=8)
        unsegmented = make_archis(umin=None)
        churn(unsegmented, employees=12, rounds=8)
        n_seg = archis.db.table("employee_salary").row_count
        n_noseg = unsegmented.db.table("employee_salary").row_count
        umin = archis.segments.umin
        assert n_seg / n_noseg <= 1.0 / (1.0 - umin) + 0.25  # small slack

    def test_segment_for_date(self, archis):
        churn(archis)
        (first_segno, segstart, segend) = archis.segments.archived_segments()[0]
        assert archis.segments.segment_for(segstart) == first_segno
        assert archis.segments.segment_for(segend) == first_segno
        future = parse_date("2050-01-01")
        assert archis.segments.segment_for(future) == archis.segments.live_segno

    def test_segments_overlapping_window(self, archis):
        churn(archis)
        segments = archis.segments.archived_segments()
        first, last = segments[0], segments[-1]
        window = archis.segments.segments_overlapping(first[1], last[2])
        assert set(s for s, _, _ in segments).issubset(window)

    def test_history_dedup_after_freezes(self, archis):
        """history() deduplicates the freeze redundancy."""
        churn(archis)
        unsegmented = make_archis(umin=None)
        churn(unsegmented)
        seg_history = archis.history("employee", "salary")
        noseg_history = unsegmented.history("employee", "salary")
        assert seg_history == noseg_history

    def test_as_of_equal_unsegmented(self, archis):
        churn(archis)
        unsegmented = make_archis(umin=None)
        churn(unsegmented)
        days = [parse_date("1995-03-15")]
        for _, segstart, segend in archis.segments.archived_segments():
            days += [segstart, (segstart + segend) // 2, segend, segend + 1]
        for day in days:
            query = (
                "SELECT t.id, t.salary FROM employee_salary t "
                f"FOR SYSTEM_TIME AS OF {day}"
            )
            a = sorted(archis.sql(query).rows)
            assert a == sorted(unsegmented.sql(query).rows), day
            assert a  # non-empty: every day has live employees
