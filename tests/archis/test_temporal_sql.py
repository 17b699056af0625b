"""End-to-end temporal SQL on the archive: ArchIS.sql / explain_sql.

The SQL-native FOR SYSTEM_TIME path must agree with the pointwise
history model (``tests/model/oracle.py``) and with the engine's other
temporal surfaces (XQuery, the ``history_`` functions) on single and
segmented stores — and the plans must show the paper's access-path work
(segment restriction) actually firing.
"""

import pytest

from repro import ArchIS, ArchISConfig
from repro.obs import get_registry
from repro.rdb import ColumnType, Database
from repro.util.timeutil import parse_date

from tests.model.oracle import Oracle


def build(**overrides):
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
    settings = dict(min_segment_rows=8)
    settings.update(overrides)
    archis = ArchIS(db, config=ArchISConfig(**settings))
    archis.track_table("employee", document_name="employees.xml")
    return archis


def churn(archis, employees=9, rounds=6):
    """Insert ``employees`` rows, then raise every salary ``rounds``
    times 30 days apart; returns the model of the same changes."""
    db = archis.db
    emp = db.table("employee")
    model = Oracle(("name", "salary"))
    for i in range(employees):
        emp.insert((i, f"e{i}", 1000 + i))
        model.insert(db.current_date, (i, f"e{i}", 1000 + i))
    for round_no in range(rounds):
        db.advance_days(30)
        for i in range(employees):
            salary = 2000 + round_no * 100 + i
            emp.update_where(lambda r, i=i: r["id"] == i, {"salary": salary})
            model.update(db.current_date, i, "salary", salary)
    archis.apply_pending()
    return model


AS_OF = "1995-02-15"


def as_of_sql(date=AS_OF):
    return (
        "SELECT t.id, t.salary FROM employee_salary t "
        f"FOR SYSTEM_TIME AS OF DATE '{date}' ORDER BY t.id"
    )


class TestAsOfAgainstSnapshots:
    def test_matches_the_model(self):
        archis = build()
        model = churn(archis)
        for day in [parse_date(AS_OF), *model.days()]:
            got = archis.sql(
                "SELECT t.id, t.salary FROM employee_salary t "
                f"FOR SYSTEM_TIME AS OF {day} ORDER BY t.id"
            ).rows
            assert got == sorted(model.snapshot("salary", day).items()), day

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

    @pytest.mark.parametrize("compress", [False, True])
    def test_temporal_join_matches_xquery_overlapinterval(self, compress):
        from repro.bench import build_archis

        _, archis, _ = build_archis(
            employees=32,
            years=6,
            umin=0.4,
            min_segment_rows=32,
            compress=compress,
        )
        assert archis.segments.segment_count() >= 2
        rows = archis.sql(
            "SELECT a.id, a.salary, b.title, a.tstart, a.tend "
            "FROM employee_salary a TEMPORAL JOIN employee_title b "
            "ON a.id = b.id"
        ).rows
        xml = archis.xquery(
            'for $e in doc("employees.xml")/employees/employee '
            "for $s in $e/salary for $t in $e/title "
            "where not(empty(overlapinterval($s, $t))) "
            "return overlapinterval($s, $t)",
            allow_fallback=False,
        ).rows
        assert rows
        assert sorted((row[3], row[4]) for row in rows) == sorted(
            (parse_date(e.get("tstart")), parse_date(e.get("tend")))
            for e in xml
        )

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
    FROM..TO window spanning the boundary (``history_<t>(lo, hi)`` keeps
    its first copy, whose end the close repaired)."""

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
            assert "history_employee_salary(1, 2" in plan
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
            f"AS OF DATE '{AS_OF}'",  # one compressed segment
            "FROM 0 TO 99999",  # every segment
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
