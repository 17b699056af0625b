"""End-to-end temporal SQL on the archive: ArchIS.sql / explain_sql.

The SQL-native FOR SYSTEM_TIME path must agree with the engine's other
time-travel surfaces (``snapshot_rows``, the ``history_`` functions) on
single stores, segmented stores and sharded coordinators — and the plans
must show the paper's access-path work (segment restriction, Exchange
shard pruning) actually firing.
"""

import pytest

from repro import ArchIS, ArchISConfig
from repro.obs import get_registry
from repro.rdb import ColumnType, Database
from repro.util.timeutil import parse_date


def build(shards=None, shard_by=None, **overrides):
    db = Database()
    db.set_date("1995-01-01")
    db.create_table(
        "employee",
        [
            ("id", ColumnType.INT),
            ("name", ColumnType.VARCHAR),
            ("salary", ColumnType.INT),
        ],
        primary_key=("id",),
    )
    settings = dict(min_segment_rows=8, shards=shards, shard_by=shard_by)
    settings.update(overrides)
    archis = ArchIS(db, config=ArchISConfig(**settings))
    archis.track_table("employee", document_name="employees.xml")
    return archis


def churn(archis, employees=9, rounds=6):
    emp = archis.db.table("employee")
    for i in range(employees):
        emp.insert((i, f"e{i}", 1000 + i))
    for round_no in range(rounds):
        archis.db.advance_days(30)
        for i in range(employees):
            emp.update_where(
                lambda r, i=i: r["id"] == i,
                {"salary": 2000 + round_no * 100 + i},
            )
    archis.apply_pending()


AS_OF = "1995-02-15"


def as_of_sql(date=AS_OF):
    return (
        "SELECT t.id, t.salary FROM employee_salary t "
        f"FOR SYSTEM_TIME AS OF DATE '{date}' ORDER BY t.id"
    )


class TestAsOfAgainstSnapshots:
    @pytest.mark.parametrize("shards", [None, 4])
    def test_matches_snapshot_rows(self, shards):
        archis = build(shards=shards, shard_by="hash" if shards else None)
        churn(archis)
        got = archis.sql(as_of_sql()).rows
        want = sorted(
            (row[0], row[1])
            for row in archis.snapshot_rows(
                "employee", "salary", parse_date(AS_OF)
            ).rows
        )
        assert [tuple(r) for r in got] == want

    def test_segmented_plan_restricts_segments(self):
        archis = build()
        churn(archis)
        explained = archis.explain_sql(as_of_sql())
        assert explained.result_count == 9
        assert any(
            "segment-restriction" in rule for rule in explained.plan.rules
        )

    def test_non_select_delegates_to_the_database(self):
        archis = build()
        churn(archis)
        result = archis.sql("SELECT count(*) FROM employee")
        assert result.rows == [(9,)]


class TestShardedTemporalSql:
    def test_key_equality_prunes_to_one_shard(self):
        archis = build(shards=4, shard_by="hash")
        churn(archis)
        registry = get_registry()
        hit = registry.histogram("exchange.shards_hit")
        before = hit.count
        result = archis.sql(
            "SELECT t.id, t.salary FROM employee_salary t "
            f"FOR SYSTEM_TIME AS OF DATE '{AS_OF}' WHERE t.id = 3"
        )
        assert [tuple(r) for r in result.rows] == [(3, 2003)]
        assert hit.count == before + 1
        pruned = registry.counter("exchange.shards_pruned")
        assert pruned.value > 0

    def test_windowed_scan_agrees_with_unsharded(self):
        sharded = build(shards=4, shard_by="hash")
        churn(sharded)
        plain = build()
        churn(plain)
        window = (
            "SELECT t.id, t.salary, t.tstart, t.tend FROM employee_salary t "
            "FOR SYSTEM_TIME FROM DATE '1995-02-01' TO DATE '1995-04-01' "
            "ORDER BY t.id, t.tstart"
        )
        assert sharded.sql(window).rows == plain.sql(window).rows


class TestTemporalOperatorsOnArchive:
    def test_temporal_join_across_attributes(self):
        archis = build()
        churn(archis)
        rows = archis.sql(
            "SELECT a.id, a.salary, b.name, a.tstart, a.tend "
            "FROM employee_salary a TEMPORAL JOIN employee_name b "
            "ON a.id = b.id WHERE a.id = 1 ORDER BY a.tstart"
        ).rows
        assert rows  # every salary version pairs with the stable name
        assert all(row[2] == "e1" for row in rows)
        starts = [row[3] for row in rows]
        assert starts == sorted(starts)

    def test_tavg_matches_xquery_temporal_aggregate(self):
        archis = build()
        churn(archis)
        sql_rows = archis.sql(
            "SELECT tavg(t.salary) FROM employee_salary t"
        ).rows
        xml = archis.xquery(
            'for $s in doc("employees.xml")/employees/employee/salary '
            "return tavg($s)"
        ).rows
        assert len(sql_rows) == len(xml)
        from repro.util.timeutil import parse_date as pd

        for (value, tstart, tend), element in zip(sql_rows, xml):
            assert float(element.children[0].value) == pytest.approx(value)
            assert pd(element.get("tstart")) == tstart

    def test_temporal_metrics_flow(self):
        archis = build()
        churn(archis)
        registry = get_registry()
        queries = registry.counter("temporal.queries")
        before = queries.value
        archis.sql(as_of_sql())
        assert queries.value == before + 1


class TestWindowAcrossFreezes:
    """A version closed on a freeze boundary day is counted once by a
    FROM..TO window spanning the boundary (``slice_`` keeps the copy in
    the later segment, where the version was still live)."""

    def test_version_closed_on_the_boundary_counts_once(self):
        archis = build(min_segment_rows=4, umin=0.01, profile="atlas")
        emp = archis.db.table("employee")
        for i in range(3):
            emp.insert((i, f"e{i}", 1000 + i))
        for round_no in range(4):
            archis.db.advance_days(1)
            for i in range(3):
                emp.update_where(
                    lambda r, i=i: r["id"] == i,
                    {"salary": 1000 + i + 10 * round_no},
                )
            archis.apply_pending()
            if round_no < 3:
                archis.segments.freeze()
        segments = archis.segments.archived_segments()
        assert len(segments) >= 2
        low, high = segments[0][1], segments[1][2]
        history = archis.history("employee", "salary")
        assert any(tend == segments[0][2] for _, _, _, tend in history)
        for where, keys in (("", {0, 1, 2}), (" WHERE t.id = 1", {1})):
            got = archis.sql(
                "SELECT t.id, t.salary, t.tstart, t.tend FROM employee_salary t "
                f"FOR SYSTEM_TIME FROM {low} TO {high}{where}"
            ).rows
            want = [
                tuple(row)
                for row in history
                if row[0] in keys and row[2] < high and row[3] >= low
            ]
            assert sorted(got) == sorted(want)

    def test_version_opened_and_closed_on_the_boundary_day_is_kept(self):
        # day D: key 1 is updated and then deleted, so its new version
        # is (D, D) and closed before the freeze at segend = D; its only
        # copy is in segment 1, yet its tend equals segend(1)
        archis = build(min_segment_rows=4, umin=0.01, profile="atlas")
        emp = archis.db.table("employee")
        for i in range(3):
            emp.insert((i, f"e{i}", 1000 + i))
        archis.db.advance_days(1)
        for i in range(3):
            emp.update_where(
                lambda r, i=i: r["id"] == i, {"salary": 2000 + i}
            )
        emp.delete_where(lambda r: r["id"] == 1)
        archis.apply_pending()
        archis.segments.freeze()
        boundary = archis.segments.archived_segments()[0][2]
        archis.db.advance_days(1)
        for i in (0, 2):
            emp.update_where(
                lambda r, i=i: r["id"] == i, {"salary": 3000 + i}
            )
        archis.apply_pending()
        assert (1, 2001, boundary, boundary) in archis.history(
            "employee", "salary"
        )
        for where in ("", " WHERE t.id = 1"):
            query = (
                "SELECT t.id, t.salary, t.tstart, t.tend FROM employee_salary t "
                f"FOR SYSTEM_TIME FROM 0 TO {boundary + 10}{where}"
            )
            plan = archis.explain_sql(query).plan.optimized
            assert "slice_employee_salary(1, 2" in plan
            got = sorted(archis.sql(query).rows)
            archis.db.optimizer_enabled = False
            try:
                naive = sorted(archis.sql(query).rows)
            finally:
                archis.db.optimizer_enabled = True
            assert (1, 2001, boundary, boundary) in got
            assert got == naive


class TestKeyedReads:
    """``id = :k`` reaches the history functions as key arguments; a
    NULL or wrongly typed key matches nothing, as in the naive plan."""

    @pytest.mark.parametrize("key", [3, None, "3", 99])
    def test_param_key_answers_like_the_naive_plan(self, key):
        archis = build()
        churn(archis)
        archis.compress_archive()
        for clause in (
            f"AS OF DATE '{AS_OF}'",  # one compressed segment: seg_
            "FROM 0 TO 99999",  # every segment: slice_
        ):
            query = (
                "SELECT t.id, t.salary, t.tstart FROM employee_salary t "
                f"FOR SYSTEM_TIME {clause} WHERE t.id = :k"
            )
            keyed = sorted(archis.sql(query, {"k": key}).rows)
            archis.db.optimizer_enabled = False
            try:
                naive = sorted(archis.sql(query, {"k": key}).rows)
            finally:
                archis.db.optimizer_enabled = True
            assert keyed == naive
            assert bool(keyed) == (key == 3)
