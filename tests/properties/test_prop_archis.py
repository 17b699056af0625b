"""Property tests: randomized update histories preserve ArchIS invariants.

The generator drives a random sequence of inserts/updates/deletes through
two ArchIS instances (segmented and unsegmented); the published H-documents
and snapshot answers must be identical, and the segmented archive must
satisfy the paper's covering conditions.
"""

from hypothesis import given, settings, strategies as st

from repro.archis import ArchIS, ArchISConfig
from repro.rdb import ColumnType, Database
from repro.util.intervals import Interval
from repro.util.timeutil import FOREVER
from repro.xmlkit import serialize


def build_pair():
    out = []
    for umin in (0.5, None):
        db = Database()
        db.set_date("1990-01-01")
        db.create_table(
            "item",
            [("id", ColumnType.INT), ("price", ColumnType.INT)],
            primary_key=("id",),
        )
        archis = ArchIS(db, config=ArchISConfig(
            profile="db2", umin=umin, min_segment_rows=6))
        archis.track_table("item", document_name="items.xml")
        out.append(archis)
    return out


operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete"]),
        st.integers(min_value=1, max_value=6),  # key
        st.integers(min_value=1, max_value=500),  # price
        st.integers(min_value=0, max_value=40),  # days to advance
    ),
    max_size=40,
)


def apply_ops(archis: ArchIS, ops) -> None:
    table = archis.db.table("item")
    live = set()
    for op, key, price, advance in ops:
        archis.db.advance_days(advance)
        if op == "insert":
            if key not in live:
                table.insert((key, price))
                live.add(key)
        elif op == "update":
            if key in live:
                table.update_where(lambda r, k=key: r["id"] == k, {"price": price})
        elif op == "delete":
            if key in live:
                table.delete_where(lambda r, k=key: r["id"] == k)
                live.discard(key)
    archis.apply_pending()


@settings(max_examples=30, deadline=None)
@given(operations)
def test_publication_independent_of_segmentation(ops):
    segmented, unsegmented = build_pair()
    apply_ops(segmented, ops)
    apply_ops(unsegmented, ops)
    a = serialize(segmented.publish("item"))
    b = serialize(unsegmented.publish("item"))
    assert a == b


@settings(max_examples=30, deadline=None)
@given(operations, st.integers(min_value=0, max_value=1200))
def test_snapshot_independent_of_segmentation(ops, offset):
    segmented, unsegmented = build_pair()
    apply_ops(segmented, ops)
    apply_ops(unsegmented, ops)
    date = segmented.db.current_date - offset
    if date < 0:
        return
    query = (
        f"SELECT t.id, t.price FROM item_price t FOR SYSTEM_TIME AS OF {date}"
    )
    assert sorted(segmented.sql(query).rows) == sorted(
        unsegmented.sql(query).rows
    )


@settings(max_examples=30, deadline=None)
@given(operations)
def test_covering_conditions_hold(ops):
    segmented, _ = build_pair()
    apply_ops(segmented, ops)
    periods = dict(
        (segno, (segstart, segend))
        for segno, segstart, segend in segmented.segments.archived_segments()
    )
    table = segmented.db.table("item_price")
    for row in table.rows():
        _, _, tstart, tend, segno = row
        if segno in periods:
            segstart, segend = periods[segno]
            assert tstart <= segend
            assert tend >= segstart


@settings(max_examples=30, deadline=None)
@given(operations)
def test_history_intervals_never_overlap_per_key(ops):
    """Attribute history invariant: per key, versions form disjoint,
    chronologically ordered intervals."""
    _, unsegmented = build_pair()
    apply_ops(unsegmented, ops)
    by_key: dict[int, list[Interval]] = {}
    for key, _, tstart, tend in unsegmented.history("item", "price"):
        by_key.setdefault(key, []).append(Interval(tstart, tend))
    for intervals in by_key.values():
        ordered = sorted(intervals)
        for left, right in zip(ordered, ordered[1:]):
            assert left.end < right.start


@settings(max_examples=30, deadline=None)
@given(operations)
def test_current_rows_match_live_history(ops):
    """The tuples with tend == forever are exactly the current table."""
    _, unsegmented = build_pair()
    apply_ops(unsegmented, ops)
    current = {
        (row[0], row[1]) for row in unsegmented.db.table("item").rows()
    }
    live_history = {
        (key, value)
        for key, value, _, tend in unsegmented.history("item", "price")
        if tend == FOREVER
    }
    assert current == live_history
