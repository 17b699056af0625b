"""The archive against the pointwise history model on the lifecycle
edges: same-day rewrites, deletes, and a key deleted and re-inserted —
later or on the same day.  Both tracking profiles must agree with it."""

import pytest

from repro.archis import ArchIS, ArchISConfig
from repro.rdb import ColumnType, Database

from tests.model.oracle import KEY, Oracle

ATTRIBUTES = ("name", "salary")


class Recorder:
    """Drives the current table and the model with the same changes."""

    def __init__(self, profile):
        self.db = Database()
        self.db.set_date("1995-01-01")
        self.db.create_table(
            "employee",
            [
                ("id", ColumnType.INT),
                ("name", ColumnType.VARCHAR),
                ("salary", ColumnType.INT),
            ],
            primary_key=("id",),
        )
        self.archis = ArchIS(
            self.db, config=ArchISConfig(profile=profile, umin=None)
        )
        self.archis.track_table("employee")
        self.table = self.db.table("employee")
        self.oracle = Oracle(ATTRIBUTES)
        self.rows = {}

    def day(self, days=1):
        self.db.advance_days(days)

    def insert(self, row):
        self.rows[row[0]] = self.table.insert(row)
        self.oracle.insert(self.db.current_date, row)

    def update(self, key, name, salary):
        old = self.table.read(self.rows[key])
        self.rows[key] = self.table.update_rid(self.rows[key], (key, name, salary))
        for attr, before, after in zip(ATTRIBUTES, old[1:], (name, salary)):
            if before != after:
                self.oracle.update(self.db.current_date, key, attr, after)

    def delete(self, key):
        self.table.delete_rid(self.rows.pop(key))
        self.oracle.delete(self.db.current_date, key)

    def check(self):
        self.archis.apply_pending()
        for attr in (KEY, *ATTRIBUTES):
            assert self.archis.history("employee", attr) == (
                self.oracle.history(attr)
            ), attr
        for day in self.oracle.days():
            for attr in ATTRIBUTES:
                got = dict(
                    self.archis.sql(
                        f"SELECT t.id, t.{attr} FROM employee_{attr} t "
                        f"FOR SYSTEM_TIME AS OF {day}"
                    ).rows
                )
                assert got == self.oracle.snapshot(attr, day), (attr, day)


@pytest.fixture(params=["db2", "atlas"])
def recorder(request):
    return Recorder(request.param)


def test_updates_close_and_same_day_updates_replace(recorder):
    recorder.insert((1, "ann", 100))
    recorder.day()
    recorder.update(1, "ann", 110)
    recorder.update(1, "ann", 120)  # same day: replaces the day's version
    recorder.day(3)
    recorder.update(1, "anne", 120)
    recorder.check()


def test_delete_then_reinsert_later_leaves_a_gap(recorder):
    recorder.insert((1, "ann", 100))
    recorder.insert((2, "bob", 200))
    recorder.day(2)
    recorder.delete(1)
    recorder.day(5)
    recorder.insert((1, "ann", 150))
    recorder.check()
    first, second = recorder.oracle.chains[KEY][1]
    assert second[0] - first[1] == 6  # absent for five days


def test_delete_and_reinsert_on_the_same_day(recorder):
    recorder.insert((1, "ann", 100))
    recorder.day(2)
    recorder.delete(1)
    recorder.insert((1, "anna", 130))
    recorder.check()


def test_insert_delete_reinsert_within_one_day(recorder):
    """A version opened and closed on day T keeps [T, T]; re-inserting
    the key that day reopens it with the new values."""
    recorder.insert((1, "ann", 100))
    recorder.day()
    recorder.insert((2, "bob", 200))
    recorder.delete(2)
    recorder.check()
    recorder.insert((2, "bert", 210))
    recorder.check()
