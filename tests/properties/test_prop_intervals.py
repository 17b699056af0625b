"""Property-based tests for the interval algebra."""

from hypothesis import given, strategies as st

from repro.util.intervals import Interval, coalesce, restructure, sweep_aggregate

DAY = st.integers(min_value=0, max_value=20000)


@st.composite
def intervals(draw):
    start = draw(DAY)
    length = draw(st.integers(min_value=0, max_value=4000))
    return Interval(start, start + length)


@given(intervals(), intervals())
def test_overlaps_is_symmetric(a, b):
    assert a.overlaps(b) == b.overlaps(a)


@given(intervals(), intervals())
def test_intersect_matches_overlaps(a, b):
    shared = a.intersect(b)
    assert (shared is not None) == a.overlaps(b)
    if shared is not None:
        assert a.contains(shared) and b.contains(shared)


@given(intervals(), intervals())
def test_precedes_excludes_overlap(a, b):
    if a.precedes(b):
        assert not a.overlaps(b)


@given(intervals(), intervals())
def test_meets_implies_union_connected(a, b):
    if a.meets(b):
        merged = a.merge(b)
        assert merged.timespan() == a.timespan() + b.timespan()


@given(st.lists(intervals(), max_size=30))
def test_coalesce_is_maximal_and_sorted(ivs):
    out = coalesce(ivs)
    for left, right in zip(out, out[1:]):
        assert left.end + 1 < right.start  # disjoint with a true gap
    assert out == sorted(out)


@given(st.lists(intervals(), max_size=30))
def test_coalesce_preserves_covered_days(ivs):
    covered = set()
    for interval in ivs:
        covered.update(range(interval.start, interval.end + 1))
    out_covered = set()
    for interval in coalesce(ivs):
        out_covered.update(range(interval.start, interval.end + 1))
    assert covered == out_covered


@given(st.lists(intervals(), max_size=30))
def test_coalesce_is_idempotent(ivs):
    once = coalesce(ivs)
    assert coalesce(once) == once


@given(st.lists(intervals(), max_size=10), st.lists(intervals(), max_size=10))
def test_restructure_subset_of_both(left, right):
    for interval in restructure(left, right):
        for day in (interval.start, interval.end):
            assert any(x.contains_point(day) for x in left)
            assert any(x.contains_point(day) for x in right)


def sweep(pairs, kind="avg"):
    """:func:`sweep_aggregate` over ``(value, Interval)`` pairs, its
    periods read back as ``(value, Interval)``."""
    rows = [(value, interval.start, interval.end) for value, interval in pairs]
    return [
        (value, Interval(start, end))
        for value, start, end in sweep_aggregate(rows, kind)
    ]


@given(
    st.lists(
        st.tuples(st.floats(min_value=1, max_value=1e6), intervals()),
        max_size=15,
    )
)
def test_sweep_aggregate_periods_are_disjoint_and_ordered(pairs):
    out = sweep(pairs)
    for (_, left), (_, right) in zip(out, out[1:]):
        assert left.end < right.start


@given(
    st.lists(
        st.tuples(st.floats(min_value=1, max_value=1e6), intervals()),
        min_size=1,
        max_size=15,
    )
)
def test_sweep_average_pointwise_correct(pairs):
    out = sweep(pairs)
    # Check the aggregate value at every period start against a brute force.
    for value, interval in out:
        live = [v for v, iv_ in pairs if iv_.contains_point(interval.start)]
        assert live, "aggregate reported a period with no live tuples"
        assert abs(sum(live) / len(live) - value) < 1e-6


@given(
    st.lists(
        st.tuples(st.floats(min_value=1, max_value=1e6), intervals()),
        max_size=15,
    )
)
def test_sweep_covers_exactly_the_live_days(pairs):
    out = sweep(pairs)
    covered = set()
    for _, interval in out:
        covered.update(range(interval.start, interval.end + 1))
    expected = set()
    for _, interval in pairs:
        expected.update(range(interval.start, interval.end + 1))
    assert covered == expected
