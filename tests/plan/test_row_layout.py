"""The row contract of the executor's positional rows.

Below Project/Aggregate a row is a flat tuple laid out as its
operator's ``(alias, column)`` layout (a join: the left layout, then the
right).  These tests pin what every layout must keep: which interval a
TEMPORAL JOIN's aliases read, the column order of ``SELECT *`` over a
join, SET expressions reading the matched row, and the AS-OF rendering
of every index access path.
"""

import pytest

from repro.rdb import Database, txcontext
from repro.util.timeutil import FOREVER


@pytest.fixture(params=[True, False], ids=["optimized", "naive"])
def db(request):
    database = Database()
    database.optimizer_enabled = request.param
    database.sql("CREATE TABLE a (id INT, salary INT, tstart INT, tend INT)")
    database.sql("CREATE TABLE b (id INT, title VARCHAR, tstart INT, tend INT)")
    database.sql(
        "INSERT INTO a VALUES (1, 100, 10, 50), (1, 150, 51, 90), (2, 200, 5, 20)"
    )
    database.sql("INSERT INTO b VALUES (1, 'x', 30, 80), (2, 'y', 30, 40)")
    return database


class TestTemporalJoinIntervals:
    def test_every_alias_reads_the_intersection(self, db):
        rows = db.sql(
            "SELECT a.salary, a.tstart, b.tstart, a.tend, b.tend "
            "FROM a TEMPORAL JOIN b ON a.id = b.id ORDER BY a.salary"
        ).rows
        # key 2 does not overlap ([5, 20] vs [30, 40]) and is dropped
        assert rows == [(100, 30, 30, 50, 50), (150, 51, 51, 80, 80)]

    def test_unqualified_and_star_reads(self, db):
        rows = db.sql(
            "SELECT * FROM a TEMPORAL JOIN b ON a.id = b.id ORDER BY salary"
        ).rows
        assert rows == [
            (1, 100, 30, 50, 1, "x", 30, 50),
            (1, 150, 51, 80, 1, "x", 51, 80),
        ]


class TestJoinColumnOrder:
    def test_select_star_follows_from_order(self, db):
        rows = db.sql("SELECT * FROM b, a WHERE a.id = b.id AND a.salary = 200").rows
        assert rows == [(2, "y", 30, 40, 2, 200, 5, 20)]
        rows = db.sql("SELECT * FROM a, b WHERE a.id = b.id AND a.salary = 200").rows
        assert rows == [(2, 200, 5, 20, 2, "y", 30, 40)]

    def test_item_order_is_not_layout_order(self, db):
        rows = db.sql(
            "SELECT b.*, a.id, a.tend FROM a, b "
            "WHERE a.id = b.id ORDER BY a.salary"
        ).rows
        assert rows == [
            (1, "x", 30, 80, 1, 50),
            (1, "x", 30, 80, 1, 90),
            (2, "y", 30, 40, 2, 20),
        ]

    def test_cross_product_without_keys(self, db):
        rows = db.sql(
            "SELECT a.salary, b.title FROM a, b WHERE a.tstart < b.tstart "
            "ORDER BY a.salary, b.title"
        ).rows
        assert rows == [(100, "x"), (100, "y"), (200, "x"), (200, "y")]


class TestUpdateReadsTheMatchedRow:
    def test_set_reads_another_column(self, db):
        assert db.sql("UPDATE a SET salary = salary + id WHERE tstart > 6") == 2
        assert sorted(db.sql("SELECT id, salary FROM a").rows) == [
            (1, 101), (1, 151), (2, 200),
        ]

    def test_keyed_update_through_an_index(self, db):
        db.sql("CREATE INDEX a_id ON a (id)")
        assert db.sql("UPDATE a SET salary = salary * 2 + id WHERE id = 2") == 1
        assert db.sql("SELECT salary FROM a WHERE id = 2").scalar() == 402

    def test_every_set_reads_the_old_row(self, db):
        db.sql("UPDATE a SET tstart = tend, tend = tstart WHERE id = 2")
        assert db.sql("SELECT tstart, tend FROM a WHERE id = 2").rows == [(20, 5)]


class TestIndexPrefixUnderASnapshot:
    """An index scan on a prefix of a composite index renders rows at the
    pinned AS-OF day, like the heap scan and the bounded index scan."""

    @pytest.fixture
    def segmented(self):
        database = Database()
        database.sql(
            "CREATE TABLE h (id INT, salary INT, tstart INT, tend INT, segno INT)"
        )
        database.sql("CREATE INDEX h_seg ON h (segno, id)")
        table = database.table("h")
        for row in [
            (1, 10, 100, 179, 1),  # closed after day 150: renders as open
            (1, 20, 180, FOREVER, 1),  # created after day 150: invisible
            (2, 30, 160, FOREVER, 1),  # created after day 150: invisible
            (3, 40, 90, FOREVER, 2),
        ]:
            table.insert(row)
        return database

    @pytest.mark.parametrize(
        "where", ["segno = 1", "segno = 1 AND id >= 0", "segno + 0 = 1"]
    )
    def test_snapshot_rows(self, segmented, where):
        with txcontext.reading_as_of(150):
            rows = segmented.sql(f"SELECT * FROM h WHERE {where}").rows
            physical = segmented.last_plan.report().physical
        assert rows == [(1, 10, 100, FOREVER, 1)]
        expected_scan = "SeqScan" if "+" in where else "IndexScan"
        assert expected_scan in physical

    def test_unpinned_reads_are_unrendered(self, segmented):
        rows = segmented.sql("SELECT salary, tend FROM h WHERE segno = 1").rows
        assert sorted(rows) == [(10, 179), (20, FOREVER), (30, FOREVER)]
