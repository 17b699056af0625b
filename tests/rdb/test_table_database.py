"""Tests for Table and Database behaviour: CRUD, indexes, triggers, log."""

import pytest

from repro.errors import CatalogError, IntegrityError
from repro.rdb import ColumnType, Database


@pytest.fixture
def db():
    return Database()


@pytest.fixture
def emp(db):
    table = db.create_table(
        "employee",
        [
            ("id", ColumnType.INT),
            ("name", ColumnType.VARCHAR),
            ("salary", ColumnType.INT),
        ],
        primary_key=("id",),
    )
    return table


class TestCrud:
    def test_insert_and_scan(self, emp):
        emp.insert((1, "Bob", 60000))
        emp.insert((2, "Ann", 70000))
        assert [r[1] for r in emp.rows()] == ["Bob", "Ann"]
        assert emp.row_count == 2

    def test_duplicate_pk_rejected(self, emp):
        emp.insert((1, "Bob", 60000))
        with pytest.raises(IntegrityError):
            emp.insert((1, "Evil", 0))

    def test_lookup_pk(self, emp):
        emp.insert((5, "Eve", 1))
        rid = emp.lookup_pk((5,))
        assert emp.read(rid) == (5, "Eve", 1)
        assert emp.lookup_pk((99,)) is None

    def test_update_where(self, emp):
        emp.insert((1, "Bob", 60000))
        emp.insert((2, "Ann", 70000))
        changed = emp.update_where(lambda r: r["name"] == "Bob", {"salary": 66000})
        assert changed == 1
        assert sorted(r[2] for r in emp.rows()) == [66000, 70000]

    def test_delete_where(self, emp):
        emp.insert((1, "Bob", 60000))
        emp.insert((2, "Ann", 70000))
        assert emp.delete_where(lambda r: r["salary"] > 65000) == 1
        assert [r[1] for r in emp.rows()] == ["Bob"]

    def test_update_keeps_pk_index_consistent(self, emp):
        emp.insert((1, "Bob", 60000))
        emp.update_where(lambda r: r["id"] == 1, {"name": "Robert" * 30})
        rid = emp.lookup_pk((1,))
        assert emp.read(rid)[1] == "Robert" * 30

    def test_type_validation_on_insert(self, emp):
        with pytest.raises(IntegrityError):
            emp.insert((1, 42, 60000))

    def test_truncate(self, emp):
        emp.insert((1, "Bob", 60000))
        emp.truncate()
        assert emp.row_count == 0
        assert emp.lookup_pk((1,)) is None


class TestSetAtATimeWrites:
    def build(self, db, name):
        table = db.create_table(
            name,
            [
                ("id", ColumnType.INT),
                ("name", ColumnType.VARCHAR),
                ("salary", ColumnType.INT),
            ],
            primary_key=("id",),
        )
        table.create_index(f"{name}_salary", ("salary",))
        rids = [table.insert((i, "n" * 200, i % 4)) for i in range(30)]
        return table, rids

    def test_delete_many_matches_delete_rid_per_row(self):
        from repro.rdb import txcontext

        outcomes = []
        for delete in (
            lambda table, rids: [table.delete_rid(r) for r in rids],
            lambda table, rids: table.delete_many(rids),
        ):
            table, rids = self.build(Database(), "emp")
            fired = []
            table.add_trigger(lambda op, row, old: fired.append((op, row)))
            undo = []
            txcontext.set_undo_sink(undo)
            try:
                delete(table, rids[3:25:3])
            finally:
                txcontext.set_undo_sink(None)
            info = table.indexes["emp_salary"]
            outcomes.append((
                list(table.scan()),
                list(info.tree.items()),
                [(entry[0], entry[2], entry[3]) for entry in undo],
                fired,
            ))
        assert outcomes[0] == outcomes[1]
        assert len(outcomes[0][2]) == 8

    def test_in_place_update_keeps_index_entry_order(self, emp):
        """A non-key update whose rid stays put leaves every index as is:
        the row keeps its place among equal keys."""
        emp.create_index("emp_salary", ("salary",))
        first = emp.insert((1, "Bob", 5))
        emp.insert((2, "Ann", 5))
        assert emp.update_rid(first, (1, "Bo", 5)) == first
        info = emp.indexes["emp_salary"]
        assert [rid for _, rid in info.tree.items()][0] == first
        assert emp.lookup_pk((1,)) == first

    def test_key_change_and_relocation_move_index_entries(self, emp):
        emp.create_index("emp_salary", ("salary",))
        rid = emp.insert((1, "Bob", 5))
        emp.insert((2, "Ann", 6))
        moved = emp.update_rid(rid, (1, "Bob" * 100, 7))
        assert moved != rid
        assert emp.lookup_pk((1,)) == moved
        assert list(emp.index_scan("emp_salary", (7,), (7,))) == [
            (moved, (1, "Bob" * 100, 7))
        ]
        assert list(emp.index_scan("emp_salary", (5,), (5,))) == []

    def test_compact_keep_rebuilds_indexes_over_survivors(self, db):
        table, _ = self.build(db, "emp2")
        table.compact(keep=lambda row: row[2] == 1)
        assert sorted(r[0] for r in table.rows()) == list(range(1, 30, 4))
        assert table.lookup_pk((0,)) is None
        assert table.read(table.lookup_pk((5,)))[0] == 5
        assert [row[0] for _, row in table.index_scan(
            "emp2_salary", (1,), (1,)
        )] == list(range(1, 30, 4))


class TestIndexes:
    def test_create_index_and_scan(self, emp):
        for i in range(20):
            emp.insert((i, f"n{i}", i * 100))
        emp.create_index("emp_salary", ("salary",))
        rows = [row for _, row in emp.index_scan("emp_salary", (500,), (900,))]
        assert [r[2] for r in rows] == [500, 600, 700, 800, 900]

    def test_index_built_over_existing_rows(self, emp):
        emp.insert((1, "Bob", 60000))
        emp.create_index("by_name", ("name",))
        rows = [row for _, row in emp.index_scan("by_name", ("Bob",), ("Bob",))]
        assert rows == [(1, "Bob", 60000)]

    def test_index_maintained_on_update_delete(self, emp):
        emp.insert((1, "Bob", 60000))
        emp.create_index("by_name", ("name",))
        emp.update_where(lambda r: r["id"] == 1, {"name": "Bobby"})
        assert [r for _, r in emp.index_scan("by_name", ("Bob",), ("Bob",))] == []
        assert len(list(emp.index_scan("by_name", ("Bobby",), ("Bobby",)))) == 1
        emp.delete_where(lambda r: True)
        assert list(emp.index_scan("by_name")) == []

    def test_unique_index(self, emp):
        emp.create_index("uq_name", ("name",), unique=True)
        emp.insert((1, "Bob", 1))
        with pytest.raises(IntegrityError):
            emp.insert((2, "Bob", 2))

    def test_find_index_prefix(self, emp):
        emp.create_index("comp", ("name", "salary"))
        assert emp.find_index(("name",)) is not None
        assert emp.find_index(("salary",)) is None

    def test_duplicate_index_name(self, emp):
        emp.create_index("i", ("name",))
        with pytest.raises(CatalogError):
            emp.create_index("i", ("salary",))

    def test_drop_index(self, emp):
        emp.create_index("i", ("name",))
        emp.drop_index("i")
        with pytest.raises(CatalogError):
            emp.drop_index("i")


class TestUniqueKeysCheckedBeforeWriting:
    """A write that would repeat a primary or unique key raises and leaves
    the heap and every index as they were."""

    @pytest.fixture
    def kv(self, db):
        table = db.create_table(
            "kv", [("k", ColumnType.INT), ("v", ColumnType.INT)],
            primary_key=("k",),
        )
        table.create_index("kv_v", ("v",), unique=True)
        table.insert((1, 10))
        return table

    def index_entries(self, table):
        return {name: sorted(tree.items()) for name, (tree, _) in
                table.index_keys().items()}

    def assert_unchanged(self, table, rows, entries):
        assert list(table.rows()) == rows
        assert self.index_entries(table) == entries

    def test_insert_repeating_a_unique_key(self, kv):
        entries = self.index_entries(kv)
        with pytest.raises(IntegrityError, match="unique index kv_v"):
            kv.insert((2, 10))
        self.assert_unchanged(kv, [(1, 10)], entries)

    def test_insert_many_repeating_a_unique_key(self, kv):
        entries = self.index_entries(kv)
        for rows in ([(2, 20), (3, 10)], [(2, 20), (3, 20)]):
            with pytest.raises(IntegrityError, match="unique index kv_v"):
                kv.insert_many(rows)
            self.assert_unchanged(kv, [(1, 10)], entries)

    @pytest.mark.parametrize("new", [(1, 20), (2, 10)])
    def test_update_to_a_taken_key(self, kv, new):
        rid = kv.insert((2, 20))
        entries = self.index_entries(kv)
        with pytest.raises(IntegrityError):
            kv.update_rid(rid, new)
        self.assert_unchanged(kv, [(1, 10), (2, 20)], entries)

    def test_update_keeping_its_own_keys(self, kv):
        rid = kv.lookup_pk((1,))
        kv.update_rid(rid, (1, 10))
        kv.update_rid(rid, (3, 30))
        assert list(kv.rows()) == [(3, 30)]

    def test_sql_update_to_a_taken_primary_key(self, db):
        db.sql("CREATE TABLE u (id INT, v INT, PRIMARY KEY (id))")
        db.sql("INSERT INTO u VALUES (1, 1)")
        db.sql("INSERT INTO u VALUES (2, 2)")
        with pytest.raises(IntegrityError, match="duplicate primary key"):
            db.sql("UPDATE u SET id = 1 WHERE id = 2")
        assert sorted(db.sql("SELECT id, v FROM u").rows) == [(1, 1), (2, 2)]
        assert db.sql("SELECT v FROM u WHERE id = 2").rows == [(2,)]


class TestMultiRowUpdate:
    """A multi-row ``UPDATE`` checks its new keys as one set, before it
    writes: the outcome does not depend on the order of the rows."""

    @pytest.fixture
    def u(self, db):
        db.sql("CREATE TABLE u (id INT, v INT, PRIMARY KEY (id))")
        db.sql("CREATE UNIQUE INDEX u_v ON u (v)")
        return db

    def fill(self, db, ids):
        for key in ids:  # heap order is insertion order
            db.sql(f"INSERT INTO u VALUES ({key}, {key * 100})")

    def contents(self, db):
        table = db.table("u")
        entries = {
            name: sorted(tree.items())
            for name, (tree, _) in table.index_keys().items()
        }
        return sorted(db.sql("SELECT id, v FROM u").rows), entries

    @pytest.mark.parametrize(
        "ids, assignment, expected",
        [
            ((5, 1, 2), "id = id * 2", [2, 4, 10]),
            ((1, 2, 3), "id = id + 1", [2, 3, 4]),
            ((3, 2, 1), "id = id + 1", [2, 3, 4]),
            ((1, 2, 3), "id = 4 - id, v = v + 100", [1, 2, 3]),
        ],
    )
    def test_key_shifts_succeed(self, u, ids, assignment, expected):
        self.fill(u, ids)
        assert u.sql(f"UPDATE u SET {assignment}") == 3
        rows, _ = self.contents(u)
        assert [key for key, _ in rows] == expected
        for key in expected:  # every key is reachable through the index
            assert len(u.sql(f"SELECT v FROM u WHERE id = {key}").rows) == 1

    @pytest.mark.parametrize(
        "statement, message",
        [
            ("UPDATE u SET id = id + 1 WHERE id < 3", "duplicate primary key"),
            ("UPDATE u SET id = 7", "duplicate primary key"),
            ("UPDATE u SET v = 300 WHERE id = 1", "unique index u_v"),
            ("UPDATE u SET v = v + 100 WHERE id < 3", "unique index u_v"),
        ],
    )
    def test_a_real_collision_changes_nothing(self, u, statement, message):
        self.fill(u, (3, 1, 2))
        before = self.contents(u)
        with pytest.raises(IntegrityError, match=message):
            u.sql(statement)
        assert self.contents(u) == before

    def test_undo_restores_a_key_shift(self, u):
        from repro.rdb import txcontext
        from repro.txn.manager import TxnManager

        self.fill(u, (1, 2, 3))
        before = self.contents(u)
        undo = []
        txcontext.set_undo_sink(undo)
        try:
            u.sql("UPDATE u SET id = id + 1, v = v + 100")
        finally:
            txcontext.set_undo_sink(None)
        assert len(undo) == 1
        TxnManager._replay_undo(undo)
        assert self.contents(u) == before


class TestBulkInsert:
    def test_insert_many_equals_sequential_inserts(self, emp):
        rows = [(i, f"n{i}", i * 100) for i in range(50)]
        emp.create_index("by_salary", ("salary",))
        rids = emp.insert_many(rows)
        assert [row for _, row in emp.scan()] == rows
        assert emp.read(rids[7]) == rows[7]
        # indexes were maintained per row
        hit = [r for _, r in emp.index_scan("by_salary", (700,), (700,))]
        assert hit == [(7, "n7", 700)]

    def test_insert_many_rejects_duplicate_pk(self, emp):
        emp.insert((1, "Bob", 1))
        with pytest.raises(IntegrityError):
            emp.insert_many([(2, "A", 2), (1, "dup", 3)])
        with pytest.raises(IntegrityError):
            emp.insert_many([(3, "B", 4), (3, "B-again", 5)])

    def test_insert_many_fires_triggers(self, emp):
        seen = []
        emp.add_trigger(lambda op, row, old: seen.append((op, row[0])))
        emp.insert_many([(1, "a", 1), (2, "b", 2)])
        assert seen == [("insert", 1), ("insert", 2)]

    def test_insert_many_with_payloads_clones_bytes(self, emp):
        from repro.storage.record import encode_record

        rows = [(1, "a", 10), (2, "b", 20)]
        emp.insert_many(
            rows, validated=True, payloads=[encode_record(r) for r in rows]
        )
        assert [row for _, row in emp.scan()] == rows

    def test_prune_empty_pages_preserves_content_and_indexes(self, emp):
        emp.create_index("by_salary", ("salary",))
        rows = [(i, "pad" * 40, i) for i in range(400)]
        emp.insert_many(rows)
        emp.delete_where(lambda r: r["id"] < 390)
        assert emp.prune_empty_pages() > 0
        kept = [row for _, row in emp.scan()]
        assert kept == rows[390:]
        # rids did not move: the index still resolves every survivor
        for i in range(390, 400):
            hit = [r for _, r in emp.index_scan("by_salary", (i,), (i,))]
            assert hit == [rows[i]]


class TestTriggers:
    def test_insert_trigger_fires(self, emp):
        events = []
        emp.add_trigger(lambda op, row, old: events.append((op, row, old)))
        emp.insert((1, "Bob", 60000))
        assert events == [("insert", (1, "Bob", 60000), None)]

    def test_update_trigger_sees_old_row(self, emp):
        events = []
        emp.insert((1, "Bob", 60000))
        emp.add_trigger(lambda op, row, old: events.append((op, row, old)))
        emp.update_where(lambda r: r["id"] == 1, {"salary": 61000})
        assert events == [("update", (1, "Bob", 61000), (1, "Bob", 60000))]

    def test_delete_trigger(self, emp):
        events = []
        emp.insert((1, "Bob", 60000))
        emp.add_trigger(lambda op, row, old: events.append(op))
        emp.delete_where(lambda r: True)
        assert events == ["delete"]

    def test_remove_trigger(self, emp):
        events = []
        cb = lambda op, row, old: events.append(op)  # noqa: E731
        emp.add_trigger(cb)
        emp.remove_trigger(cb)
        emp.insert((1, "Bob", 60000))
        assert events == []


class TestDatabase:
    def test_catalog(self, db, emp):
        assert db.has_table("employee")
        assert db.tables() == ["employee"]
        with pytest.raises(CatalogError):
            db.table("missing")

    def test_duplicate_table(self, db, emp):
        with pytest.raises(CatalogError):
            db.create_table("employee", [("x", ColumnType.INT)])

    def test_drop_table(self, db, emp):
        db.drop_table("employee")
        assert not db.has_table("employee")

    def test_clock(self, db):
        db.set_date("1995-06-01")
        before = db.current_date
        db.advance_days(10)
        assert db.current_date == before + 10
        with pytest.raises(CatalogError):
            db.set_date("1990-01-01")

    def test_update_log_manual(self, db):
        db.update_log.append(db.current_date, "t", "insert", (1,))
        db.update_log.append(db.current_date, "t", "delete", (1,))
        assert len(db.update_log.pending()) == 2
        drained = db.update_log.drain()
        assert [e.op for e in drained] == ["insert", "delete"]
        assert db.update_log.pending() == []

    def test_storage_report(self, db, emp):
        emp.insert((1, "Bob", 60000))
        report = db.storage_report()
        assert report["employee"] > 0
        assert db.storage_bytes() >= report["employee"]

    def test_reset_caches_is_cold(self, db, emp):
        emp.insert((1, "Bob", 60000))
        db.reset_caches()
        db.pool.reset_stats()
        list(emp.rows())
        assert db.pool.stats.misses >= 1

    def test_function_registry(self, db):
        db.register_function("toverlaps", lambda *a: True)
        assert db.function("TOVERLAPS") is not None
        assert db.function("missing") is None

    def test_table_function_registry(self, db):
        db.register_table_function("unzip", lambda blob: iter(()))
        assert db.table_function("UNZIP") is not None
