"""Property tests: SQL-native FOR SYSTEM_TIME agrees with every other
time-travel surface, whatever the storage layout.

For random update histories, on unsegmented, segmented, log-tracked
(``atlas`` profile) and BlockZIP-compressed archives alike:

- ``FOR SYSTEM_TIME AS OF d`` returns exactly the pointwise model's
  snapshot (``tests/model/oracle.py``) on every day a version starts or
  ends, for the key table and the attribute table;
- ``FOR SYSTEM_TIME FROM lo TO hi`` returns exactly the versions whose
  intervals overlap the closed-open window — the same rows a hand-written
  ``tstart/tend`` predicate selects on the full history;
- a read of the *current* table under a snapshot returns the model's
  relation on the snapshot day, on every day a version starts or ends:
  ``SELECT *``, a key filter, a non-key filter, an aggregate and a join
  with an H-table.

Prices may be NULL: a NULL attribute is a version like any other.
"""

from hypothesis import given, settings, strategies as st

from repro.archis import ArchIS, ArchISConfig
from repro.rdb import ColumnType, Database
from repro.txn import TxnManager

from tests.model.oracle import KEY, Oracle


#: label -> config overrides; the ``compressed`` variant additionally
#: BlockZIPs its frozen segments once the operations are applied, and
#: freezes eagerly so that short histories still leave rows to compress
LAYOUTS = (
    ("unsegmented", dict(umin=None)),
    ("segmented", dict(umin=0.5)),
    ("atlas", dict(profile="atlas")),
    ("compressed", dict(umin=0.95, min_segment_rows=2)),
)


def build_variants():
    variants = []
    for label, overrides in LAYOUTS:
        db = Database()
        db.set_date("1990-01-01")
        db.create_table(
            "item",
            [("id", ColumnType.INT), ("price", ColumnType.INT)],
            primary_key=("id",),
        )
        settings_ = dict(profile="db2", min_segment_rows=6)
        settings_.update(overrides)
        archis = ArchIS(db, config=ArchISConfig(**settings_))
        archis.track_table("item", document_name="items.xml")
        variants.append((label, archis))
    return variants


operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete"]),
        st.integers(min_value=1, max_value=6),  # key
        st.none() | st.integers(min_value=1, max_value=500),  # price
        st.integers(min_value=0, max_value=40),  # days to advance
    ),
    max_size=30,
)


def apply_ops(archis: ArchIS, ops) -> Oracle:
    """Apply ``ops`` to the archive; returns the model of the same
    changes (an update is history only when it changes the price)."""
    table = archis.db.table("item")
    oracle = Oracle(("price",))
    live = {}
    for op, key, price, advance in ops:
        archis.db.advance_days(advance)
        day = archis.db.current_date
        if op == "insert":
            if key not in live:
                table.insert((key, price))
                oracle.insert(day, (key, price))
                live[key] = price
        elif op == "update":
            if key in live:
                table.update_where(
                    lambda r, k=key: r["id"] == k, {"price": price}
                )
                if live[key] != price:
                    oracle.update(day, key, "price", price)
                    live[key] = price
        elif op == "delete":
            if key in live:
                table.delete_where(lambda r, k=key: r["id"] == k)
                oracle.delete(day, key)
                del live[key]
    archis.apply_pending()
    return oracle


def layouts(ops):
    """Every layout variant with ``ops`` applied, and the model."""
    for label, archis in build_variants():
        oracle = apply_ops(archis, ops)
        if label == "compressed":
            archis.compress_archive()
        yield label, archis, oracle


@settings(max_examples=10, deadline=None)
@given(operations)
def test_as_of_matches_the_model_on_every_layout(ops):
    for label, archis, oracle in layouts(ops):
        for day in oracle.days():
            # a literal day, so segment restriction picks the segment
            keys = archis.sql(
                f"SELECT t.id FROM item_id t FOR SYSTEM_TIME AS OF {day}"
            ).rows
            assert sorted(key for (key,) in keys) == sorted(
                oracle.snapshot(KEY, day)
            ), (label, day)
            got = archis.sql(
                "SELECT t.id, t.price FROM item_price t "
                f"FOR SYSTEM_TIME AS OF {day}"
            ).rows
            assert sorted(got) == sorted(
                oracle.snapshot("price", day).items()
            ), (label, day)


@settings(max_examples=10, deadline=None)
@given(
    operations,
    st.integers(min_value=0, max_value=1200),
    st.integers(min_value=1, max_value=400),
)
def test_from_to_matches_manual_window_on_every_layout(ops, start, width):
    lo, hi = start, start + width
    expected = None
    for label, archis, _ in layouts(ops):
        got = archis.sql(
            "SELECT t.id, t.price, t.tstart, t.tend FROM item_price t "
            "FOR SYSTEM_TIME FROM :lo TO :hi "
            "ORDER BY t.id, t.tstart, t.price",
            {"lo": lo, "hi": hi},
        ).rows
        spelled = archis.sql(
            "SELECT t.id, t.price, t.tstart, t.tend FROM item_price t "
            "WHERE t.tstart < :hi AND t.tend >= :lo "
            "ORDER BY t.id, t.tstart, t.price",
            {"lo": lo, "hi": hi},
        ).rows
        assert got == spelled, label
        if expected is None:
            expected = got
        else:
            # every storage layout answers the same window identically
            assert got == expected, label


@settings(max_examples=10, deadline=None)
@given(operations)
def test_current_table_under_a_snapshot_matches_the_model(ops):
    for label, archis, oracle in layouts(ops):
        manager = TxnManager(archis.db, archis)
        for day in oracle.days():
            snapshot = manager.snapshot(day)
            prices = oracle.snapshot("price", day)
            relation = sorted(
                (key, prices[key]) for key in oracle.snapshot(KEY, day)
            )
            where = (label, day)
            got = snapshot.sql("SELECT * FROM item").rows
            assert sorted(got) == relation, where
            for key in range(1, 7):
                got = snapshot.sql(
                    f"SELECT price FROM item WHERE id = {key}"
                ).rows
                assert got == [
                    (price,) for k, price in relation if k == key
                ], (where, key)
            got = snapshot.sql("SELECT id FROM item WHERE price > 250").rows
            assert sorted(got) == [
                (k,) for k, price in relation
                if price is not None and price > 250
            ], where
            known = [price for _, price in relation if price is not None]
            got = snapshot.sql("SELECT count(*), max(price) FROM item").rows
            assert got == [(len(relation), max(known, default=None))], where
            got = snapshot.sql(
                "SELECT i.id, i.price, h.price FROM item i, item_price h "
                f"FOR SYSTEM_TIME AS OF {day} WHERE i.id = h.id"
            ).rows
            assert sorted(got) == [(k, p, p) for k, p in relation], where
