"""The statement cache: one plan per statement shape, guarded per binding.

Each edge case below is built so that it fails when the key component or
guard it covers is taken away: a cached plan then answers a binding it
was not planned for, and the answer (or the plan) differs from a fresh
one.
"""

import sys
import threading

import pytest

from repro.archis import ArchIS, ArchISConfig
from repro.rdb import ColumnType, Database
from repro.sql import parse_sql
from repro.sql.lexer import shape, tokenize
from repro.sql.planner import SelectPlan
from repro.txn import TxnManager
from repro.util.timeutil import format_date, parse_date

START = parse_date("1990-01-01")
KEYS = (1, 2, 3, 4, 5)


def build(compress: bool = False) -> ArchIS:
    """Five keys, a salary change per key every ten days, frozen twice:
    segment 1 covers days 0-20, segment 2 days 21-40, segment 3 is live."""
    db = Database()
    db.set_date(START)
    db.create_table(
        "employee",
        [("id", ColumnType.INT), ("salary", ColumnType.INT)],
        primary_key=("id",),
    )
    archis = ArchIS(db, config=ArchISConfig(
        profile="atlas", umin=0.01, min_segment_rows=4
    ))
    archis.track_table("employee", document_name="employees.xml")
    table = db.table("employee")
    for key in KEYS:
        table.insert((key, 1000 * key))
    for number in range(6):
        db.advance_days(10)
        for key in KEYS:
            table.update_where(
                lambda r, k=key: r["id"] == k,
                {"salary": 1000 * key + number},
            )
        archis.apply_pending()
        if number in (1, 3):
            archis.segments.freeze()
    if compress:
        archis.compress_archive()
    return archis


@pytest.fixture
def archis():
    return build()


def counts(db) -> tuple:
    stats = db.statements.stats()
    return stats["hits"], stats["misses"], stats["replans"]


def moved(db, before) -> tuple:
    return tuple(b - a for a, b in zip(before, counts(db)))


def naive(archis, text, params=None):
    archis.db.optimizer_enabled = False
    try:
        return archis.sql(text, params).rows
    finally:
        archis.db.optimizer_enabled = True


def as_of(day: int, key) -> str:
    return (
        "SELECT t.id, t.salary FROM employee_salary t "
        f"FOR SYSTEM_TIME AS OF DATE '{format_date(day)}' WHERE t.id = {key}"
    )


class TestShape:
    def test_literals_are_blanked_and_positioned_like_tokens(self):
        text = "SELECT a FROM t WHERE b = 42 AND c = 'it''s'"
        key, literals = shape(text)
        assert literals == [(26, "42"), (37, "it's")]
        tokens = {t.pos: t.value for t in tokenize(text)}
        assert all(tokens[pos] == value for pos, value in literals)
        assert key == shape("SELECT a FROM t WHERE b = 7 AND c = 'x'")[0]
        assert key != shape("SELECT a FROM t WHERE b = 'x' AND c = 7")[0]

    def test_structural_literals_stay_in_the_key(self):
        one, literals = shape("SELECT a FROM t LIMIT 1")
        assert literals == []
        assert one != shape("SELECT a FROM t LIMIT 5")[0]
        _, literals = shape(
            "SELECT XMLElement(NAME 'e', XMLAttributes(a AS 'x'), 'text') FROM t"
        )
        assert [value for _, value in literals] == ["text"]


class TestEdges:
    @pytest.mark.parametrize("compress", [False, True])
    def test_window_moving_to_the_live_segment_replans(self, compress):
        """(a) The plan for a frozen date reads one frozen segment; the
        same shape on a live date must not reuse it."""
        archis = build(compress)
        frozen, live = START + 15, archis.db.current_date
        before = counts(archis.db)
        first = archis.sql(as_of(frozen, 3)).rows
        second = archis.sql(as_of(live, 3)).rows
        assert moved(archis.db, before) == (0, 1, 1)
        assert first == naive(archis, as_of(frozen, 3)) == [(3, 3000)]
        assert second == naive(archis, as_of(live, 3)) == [(3, 3005)]

    @pytest.mark.parametrize(
        "event",
        ["freeze", "compress", "create index", "table function", "optimizer"],
    )
    def test_planning_state_changes_invalidate(self, archis, event):
        """(b) Each change to what planning reads makes the next run of
        a cached shape plan anew."""
        text = as_of(archis.db.current_date, 2)
        want = archis.sql(text).rows
        archis.sql(text)
        before = counts(archis.db)
        if event == "freeze":
            archis.segments.freeze()
        elif event == "compress":
            archis.compress_archive()
        elif event == "create index":
            archis.db.sql("CREATE INDEX sal_ix ON employee_salary (salary)")
        elif event == "table function":
            archis.db.register_table_function("nothing", lambda: iter(()))
        else:
            archis.db.optimizer_enabled = False
        assert archis.sql(text).rows == want
        assert moved(archis.db, before) == (0, 1, 0)

    def test_limits_do_not_share_a_plan(self):
        """(c) LIMIT n is part of the key: each count keeps its own
        (cached) plan."""
        db = Database()
        db.sql("CREATE TABLE t (id INT)")
        for number in range(10):
            db.sql(f"INSERT INTO t VALUES ({number})")
        one = db.statements.prepare("SELECT id FROM t ORDER BY id LIMIT 1")
        five = db.statements.prepare("SELECT id FROM t ORDER BY id LIMIT 5")
        assert one.plan is not five.plan
        assert db.sql("SELECT id FROM t ORDER BY id LIMIT 1").rows == [(0,)]
        assert len(db.sql("SELECT id FROM t ORDER BY id LIMIT 5").rows) == 5
        again = db.statements.prepare("SELECT id FROM t ORDER BY id LIMIT 5")
        assert again.plan is five.plan

    def test_snapshot_overlay_does_not_share_a_plan(self, archis):
        """(d) Under a snapshot the current table is an index-less
        reconstruction; a plan probing its index must not reach it."""
        db = archis.db
        db.sql("CREATE INDEX employee_id ON employee (id)")
        manager = TxnManager(db, archis)
        text = "SELECT id, salary FROM employee WHERE id = 3"
        outside = db.statements.prepare(text)
        assert "IndexScan" in outside.report().optimized
        snapshot = manager.snapshot()
        assert snapshot.sql(text).rows == [(3, 3005)]
        inside = db.last_plan
        assert inside.plan is not outside.plan
        assert "IndexScan" not in inside.report().optimized
        assert db.sql(text).rows == [(3, 3005)]

    def test_null_and_string_keys_match_nothing(self, archis):
        """(e) A cached int-key plan bound to NULL or a string key
        answers nothing (the index probe refuses a value of another
        kind), and a float literal key plans without key arguments."""
        text = (
            "SELECT t.salary FROM employee_salary t FOR SYSTEM_TIME AS OF "
            f"DATE '{format_date(archis.db.current_date)}' WHERE t.id = :k"
        )
        assert archis.sql(text, {"k": 3}).rows == [(3005,)]
        before = counts(archis.db)
        assert archis.sql(text, {"k": None}).rows == []
        assert archis.sql(text, {"k": "3"}).rows == []
        assert moved(archis.db, before) == (2, 0, 0)
        span = (
            "SELECT t.salary FROM employee_salary t FOR SYSTEM_TIME FROM "
            f"DATE '{format_date(START)}' TO DATE "
            f"'{format_date(archis.db.current_date)}' WHERE t.id = "
        )
        keyed = archis.sql(span + "3").rows
        before = counts(archis.db)
        assert archis.sql(span + "3.0").rows == keyed
        assert moved(archis.db, before) == (0, 0, 1)
        assert "(3, 3)" not in str(archis.db.last_plan.report().rules)

    def test_threads_sharing_a_plan_get_their_own_answers(self, archis):
        """(f) One cached plan, more threads than cores, each its own key;
        a short switch interval interleaves their executions."""
        day = archis.db.current_date
        want = {key: archis.sql(as_of(day, key)).rows for key in KEYS}
        errors = []

        def run(key):
            for _ in range(60):
                rows = archis.sql(as_of(day, key)).rows
                if rows != want[key]:
                    errors.append((key, rows))

        threads = [threading.Thread(target=run, args=(k,)) for k in KEYS]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert want == {key: [(key, 1000 * key + 5)] for key in KEYS}


class TestPlansMatchFreshPlanning:
    """A binding served from the cache plans (and renders) exactly as
    planning the statement from scratch would."""

    @pytest.fixture
    def db(self):
        database = Database()
        database.sql("CREATE TABLE a (x INT, y INT)")
        database.sql("CREATE TABLE b (x INT, z INT)")
        database.sql("CREATE INDEX a_x ON a (x)")
        return database

    @pytest.mark.parametrize("texts", [
        [
            "SELECT a.y FROM a WHERE a.y > 2 * {}",
        ],
        [
            "SELECT a.y, b.z FROM a, b WHERE a.x = b.x AND a.x = {} "
            "AND a.x = 4",
        ],
        [
            "SELECT a.y FROM a WHERE a.x = -{}",
        ],
    ])
    def test_each_binding_renders_like_a_fresh_plan(self, db, texts):
        for template in texts:
            for value in (3, 4, 5, 4, 3):
                text = template.format(value)
                cached = db.statements.prepare(text).report().format()
                fresh = SelectPlan(db, parse_sql(text)).report().format()
                assert cached == fresh, text


def test_counters_report_a_miss_a_hit_and_a_replan(archis):
    """``ArchIS.stats()['plan_cache']`` reads the three counters."""
    before = archis.stats()["plan_cache"]
    archis.sql(as_of(START + 15, 1))  # miss
    archis.sql(as_of(START + 16, 2))  # hit: same segment
    archis.sql(as_of(archis.db.current_date, 1))  # replan: live segment
    after = archis.stats()["plan_cache"]
    assert {
        name: after[name] - before[name]
        for name in ("hits", "misses", "replans")
    } == {"hits": 1, "misses": 1, "replans": 1}
    assert after["capacity"] == 256
    assert after["size"] >= 2
