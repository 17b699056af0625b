"""Tests for the interval algebra underlying every temporal operator."""

import pytest

from repro.util.intervals import (
    Interval,
    coalesce,
    coalesce_valued,
    restructure,
    sweep_aggregate,
)
from repro.util.timeutil import FOREVER, parse_date


def iv(start: str, end: str) -> Interval:
    return Interval.from_strings(start, end)


class TestConstruction:
    def test_valid(self):
        interval = iv("1995-01-01", "1995-05-31")
        assert interval.start == parse_date("1995-01-01")

    def test_reversed_raises(self):
        with pytest.raises(ValueError):
            Interval(10, 5)

    def test_point(self):
        point = Interval.point(100)
        assert point.start == point.end == 100

    def test_now_interval_is_current(self):
        assert iv("1996-02-01", "now").is_current()

    def test_str_renders_dates(self):
        assert str(iv("1995-01-01", "1995-05-31")) == "[1995-01-01, 1995-05-31]"


class TestRelations:
    def test_overlaps_true(self):
        assert iv("1995-01-01", "1995-06-30").overlaps(iv("1995-06-01", "1995-12-31"))

    def test_overlaps_shared_single_day(self):
        assert iv("1995-01-01", "1995-06-01").overlaps(iv("1995-06-01", "1995-12-31"))

    def test_overlaps_false(self):
        assert not iv("1995-01-01", "1995-05-31").overlaps(iv("1995-06-01", "1995-12-31"))

    def test_meets_adjacent_days(self):
        assert iv("1995-01-01", "1995-05-31").meets(iv("1995-06-01", "1995-12-31"))

    def test_meets_is_directional(self):
        assert not iv("1995-06-01", "1995-12-31").meets(iv("1995-01-01", "1995-05-31"))

    def test_contains(self):
        outer = iv("1994-01-01", "1998-12-31")
        inner = iv("1995-01-01", "1995-05-31")
        assert outer.contains(inner)
        assert not inner.contains(outer)

    def test_contains_self(self):
        interval = iv("1995-01-01", "1995-05-31")
        assert interval.contains(interval)

    def test_contains_point(self):
        assert iv("1994-01-01", "1998-12-31").contains_point(parse_date("1994-05-06"))
        assert not iv("1994-01-01", "1998-12-31").contains_point(parse_date("1999-01-01"))

    def test_precedes(self):
        assert iv("1995-01-01", "1995-05-31").precedes(iv("1995-06-01", "1995-12-31"))
        assert not iv("1995-01-01", "1995-06-01").precedes(iv("1995-06-01", "1995-12-31"))

    def test_equals(self):
        assert iv("1995-01-01", "1995-05-31").equals(iv("1995-01-01", "1995-05-31"))

    def test_intersect_overlapping(self):
        shared = iv("1995-01-01", "1995-06-30").intersect(iv("1995-06-01", "1995-12-31"))
        assert shared == iv("1995-06-01", "1995-06-30")

    def test_intersect_disjoint_is_none(self):
        assert iv("1995-01-01", "1995-05-31").intersect(iv("1996-01-01", "1996-12-31")) is None

    def test_timespan_inclusive(self):
        assert iv("1995-01-01", "1995-01-01").timespan() == 1
        assert iv("1995-01-01", "1995-01-31").timespan() == 31


class TestCoalesce:
    def test_merges_adjacent(self):
        merged = coalesce([iv("1995-01-01", "1995-05-31"), iv("1995-06-01", "1995-09-30")])
        assert merged == [iv("1995-01-01", "1995-09-30")]

    def test_merges_overlapping(self):
        merged = coalesce([iv("1995-01-01", "1995-07-31"), iv("1995-06-01", "1995-09-30")])
        assert merged == [iv("1995-01-01", "1995-09-30")]

    def test_keeps_gaps(self):
        merged = coalesce([iv("1995-01-01", "1995-05-31"), iv("1995-07-01", "1995-09-30")])
        assert len(merged) == 2

    def test_unsorted_input(self):
        merged = coalesce([iv("1995-06-01", "1995-09-30"), iv("1995-01-01", "1995-05-31")])
        assert merged == [iv("1995-01-01", "1995-09-30")]

    def test_empty(self):
        assert coalesce([]) == []

    def test_valued_groups_per_value(self):
        # Bob's salary history: 70000 spans two adjacent periods -> grouped.
        pairs = [
            (60000, iv("1995-01-01", "1995-05-31")),
            (70000, iv("1995-06-01", "1995-09-30")),
            (70000, iv("1995-10-01", "1996-01-31")),
        ]
        grouped = coalesce_valued(pairs)
        assert grouped == [
            (60000, iv("1995-01-01", "1995-05-31")),
            (70000, iv("1995-06-01", "1996-01-31")),
        ]

    def test_valued_same_value_with_gap_stays_split(self):
        pairs = [
            ("d01", iv("1995-01-01", "1995-05-31")),
            ("d01", iv("1996-01-01", "1996-05-31")),
        ]
        assert len(coalesce_valued(pairs)) == 2


class TestRestructure:
    def test_overlapped_periods(self):
        dept = [iv("1995-01-01", "1995-09-30"), iv("1995-10-01", "1996-12-31")]
        title = [iv("1995-01-01", "1995-09-30"), iv("1995-10-01", "1996-01-31")]
        out = restructure(dept, title)
        # Periods where both held, coalesced: the entire 1995-01-01..1996-01-31.
        assert out == [iv("1995-01-01", "1996-01-31")]

    def test_no_overlap(self):
        assert restructure([iv("1995-01-01", "1995-01-31")], [iv("1996-01-01", "1996-01-31")]) == []


def sweep(pairs, kind="avg"):
    """:func:`sweep_aggregate` over ``(value, Interval)`` pairs, its
    periods read back as ``(value, Interval)``."""
    rows = [(value, interval.start, interval.end) for value, interval in pairs]
    return [
        (value, Interval(start, end))
        for value, start, end in sweep_aggregate(rows, kind)
    ]


class TestSweepAggregate:
    def test_average_of_single_interval(self):
        out = sweep([(100.0, iv("1995-01-01", "1995-12-31"))])
        assert out == [(100.0, iv("1995-01-01", "1995-12-31"))]

    def test_average_changes_at_overlap(self):
        out = sweep(
            [
                (100.0, iv("1995-01-01", "1995-12-31")),
                (200.0, iv("1995-07-01", "1995-12-31")),
            ]
        )
        assert out == [
            (100.0, iv("1995-01-01", "1995-06-30")),
            (150.0, iv("1995-07-01", "1995-12-31")),
        ]

    def test_sum(self):
        out = sweep(
            [
                (100.0, iv("1995-01-01", "1995-12-31")),
                (200.0, iv("1995-07-01", "1995-12-31")),
            ],
            kind="sum",
        )
        assert out[-1] == (300.0, iv("1995-07-01", "1995-12-31"))

    def test_count(self):
        out = sweep(
            [
                (1.0, iv("1995-01-01", "1995-06-30")),
                (1.0, iv("1995-04-01", "1995-12-31")),
            ],
            kind="count",
        )
        assert (2.0, iv("1995-04-01", "1995-06-30")) in out

    def test_max_tracks_live_multiset(self):
        out = sweep(
            [
                (100.0, iv("1995-01-01", "1995-12-31")),
                (200.0, iv("1995-04-01", "1995-06-30")),
            ],
            kind="max",
        )
        assert out == [
            (100.0, iv("1995-01-01", "1995-03-31")),
            (200.0, iv("1995-04-01", "1995-06-30")),
            (100.0, iv("1995-07-01", "1995-12-31")),
        ]

    def test_open_now_interval_clamped(self):
        out = sweep([(50.0, Interval(0, FOREVER))])
        assert out == [(50.0, Interval(0, FOREVER))]

    def test_empty_input(self):
        assert sweep([]) == []

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            sweep([(1.0, Interval(0, 1))], kind="median")

    def test_gap_between_intervals_produces_no_phantom_period(self):
        out = sweep(
            [
                (10.0, iv("1995-01-01", "1995-01-31")),
                (20.0, iv("1995-03-01", "1995-03-31")),
            ]
        )
        assert out == [
            (10.0, iv("1995-01-01", "1995-01-31")),
            (20.0, iv("1995-03-01", "1995-03-31")),
        ]
