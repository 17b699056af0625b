"""Golden-plan snapshots: the rendered output of representative plans.

These pin the EXPLAIN format (``SelectPlan.report().format()``) and the
optimized-SQL rendering so plan regressions show up as a readable diff.
Run by ``scripts/check.sh``.
"""

import textwrap

import pytest

from repro.plan.render import to_sql
from repro.rdb import Database
from repro.sql import parse_sql
from repro.sql.planner import SelectPlan


@pytest.fixture
def db():
    database = Database()
    database.sql(
        "CREATE TABLE employee (id INT, name VARCHAR, salary INT, deptno INT)"
    )
    database.sql("CREATE TABLE dept (deptno INT, dname VARCHAR)")
    database.sql("CREATE INDEX emp_dept ON employee (deptno, salary)")
    return database


def report_of(db, sql):
    plan = SelectPlan(db, parse_sql(sql))
    return plan, plan.report().format()


def golden(text):
    return textwrap.dedent(text).strip("\n")


class TestGoldenPlans:
    def test_fold_and_pushdown(self, db):
        plan, report = report_of(
            db,
            "SELECT e.name FROM employee AS e WHERE e.salary > 2 * 30000 "
            "ORDER BY e.name",
        )
        assert report == golden(
            """
            rules:
              constant-folding: folded 1 constant expression(s)
              predicate-pushdown: 1 predicate(s) into e
            logical plan:
              Project [e.name]
                Sort [e.name]
                  Filter [e.salary > 2 * 30000]
                    Scan employee AS e
            optimized plan:
              Project [e.name]
                Sort [e.name]
                  Scan employee AS e [e.salary > 60000]
            physical plan:
              Project
                Sort
                  SeqScan employee AS e
            """
        )
        assert to_sql(plan.optimized) == (
            "SELECT e.name FROM employee AS e WHERE e.salary > 60000 "
            "ORDER BY e.name"
        )

    def test_index_and_hash_join(self, db):
        plan, report = report_of(
            db,
            "SELECT e.name, d.dname FROM employee AS e, dept AS d "
            "WHERE e.deptno = d.deptno AND e.deptno = 7 "
            "AND e.salary >= 50000",
        )
        assert report == golden(
            """
            rules:
              predicate-pushdown: 1 predicate(s) into d
              predicate-pushdown: 2 predicate(s) into e
              index-selection: e: employee via index emp_dept
              join-selection: hash join on e.deptno = d.deptno
            logical plan:
              Project [e.name, d.dname]
                Filter [e.deptno = d.deptno AND e.deptno = 7 AND e.salary >= 50000]
                  Join [nested]
                    Scan employee AS e
                    Scan dept AS d
            optimized plan:
              Project [e.name, d.dname]
                Join [hash] on e.deptno = d.deptno
                  IndexScan employee AS e using emp_dept eq [deptno = 7] range salary in [50000, +inf] [e.salary >= 50000]
                  Scan dept AS d [d.deptno = 7]
            physical plan:
              Project
                HashJoin on e.deptno = d.deptno
                  IndexScan employee AS e using emp_dept
                  SeqScan dept AS d
            """
        )

    def test_aggregate_plan_unchanged(self, db):
        plan, report = report_of(
            db, "SELECT count(*), e.deptno FROM employee AS e GROUP BY e.deptno"
        )
        assert report == golden(
            """
            rules:
              (none fired)
            logical plan:
              Aggregate [count(*), e.deptno] group by [e.deptno]
                Scan employee AS e
            optimized plan:
              Aggregate [count(*), e.deptno] group by [e.deptno]
                Scan employee AS e
            physical plan:
              Aggregate
                SeqScan employee AS e
            """
        )
        assert to_sql(plan.optimized) == (
            "SELECT count(*), e.deptno FROM employee AS e GROUP BY e.deptno"
        )

    def test_optimized_sql_reparses_to_the_same_plan(self, db):
        """to_sql output is valid SQL that plans back to the same shape."""
        sql = (
            "SELECT e.name FROM employee AS e, dept AS d "
            "WHERE e.deptno = d.deptno AND e.salary > 10 + 20"
        )
        first = SelectPlan(db, parse_sql(sql))
        second = SelectPlan(db, parse_sql(to_sql(first.optimized)))
        assert to_sql(second.optimized) == to_sql(first.optimized)


@pytest.fixture
def temporal_db():
    """Two H-tables plus the hooks ArchIS would install: registered
    ``history_`` functions and a segment provider that answers one
    uncompressed segment for ``emp_salary`` (so the Section 6.4 segment
    restriction fires deterministically)."""
    from repro.plan import SegmentHints

    database = Database()
    database.sql(
        "CREATE TABLE emp_salary "
        "(id INT, salary INT, tstart INT, tend INT, segno INT)"
    )
    database.sql(
        "CREATE TABLE emp_title "
        "(id INT, title VARCHAR, tstart INT, tend INT, segno INT)"
    )
    database.register_table_function("history_emp_salary", lambda: iter(()))
    database.register_table_function("history_emp_title", lambda: iter(()))
    database.segment_provider = lambda name: (
        SegmentHints(False, lambda lo, hi: [2])
        if name == "emp_salary"
        else None
    )
    return database


class TestGoldenTemporalPlans:
    """FOR SYSTEM_TIME and the sequenced operators, rendered end to end."""

    def test_as_of_drives_segment_restriction(self, temporal_db):
        plan, report = report_of(
            temporal_db,
            "SELECT t.id, t.salary FROM TABLE(history_emp_salary()) "
            "AS t(id, salary, tstart, tend, segno) "
            "FOR SYSTEM_TIME AS OF 4000",
        )
        assert report == golden(
            """
            rules:
              segment-restriction: t: history_emp_salary() -> emp_salary WHERE segno = 2
            logical plan:
              Project [t.id, t.salary]
                FunctionScan history_emp_salary() AS t [t.tstart <= 4000 AND t.tend >= 4000]
            optimized plan:
              Project [t.id, t.salary]
                Scan emp_salary AS t [t.tstart <= 4000 AND t.tend >= 4000 AND t.segno = 2]
            physical plan:
              Project
                SeqScan emp_salary AS t
            """
        )
        assert to_sql(plan.optimized) == (
            "SELECT t.id, t.salary FROM emp_salary AS t "
            "WHERE t.tstart <= 4000 AND t.tend >= 4000 AND t.segno = 2"
        )

    def test_key_reaches_the_history_function(self, temporal_db):
        plan, report = report_of(
            temporal_db,
            "SELECT t.salary FROM TABLE(history_emp_salary()) "
            "AS t(id, salary, tstart, tend, segno) WHERE t.id = 4",
        )
        assert report == golden(
            """
            rules:
              predicate-pushdown: 1 predicate(s) into t
              segment-restriction: t: history_emp_salary() -> history_emp_salary(4, 4) for id = 4
            logical plan:
              Project [t.salary]
                Filter [t.id = 4]
                  FunctionScan history_emp_salary() AS t
            optimized plan:
              Project [t.salary]
                FunctionScan history_emp_salary(4, 4) AS t [t.id = 4]
            physical plan:
              Project
                FunctionScan history_emp_salary AS t
            """
        )
        assert to_sql(plan.optimized) == (
            "SELECT t.salary FROM TABLE(history_emp_salary(4, 4)) "
            "AS t(id, salary, tstart, tend, segno) WHERE t.id = 4"
        )
        again = SelectPlan(temporal_db, parse_sql(to_sql(plan.optimized)))
        assert to_sql(again.optimized) == to_sql(plan.optimized)

    def test_temporal_join_reads_through_history_functions(self, temporal_db):
        plan, report = report_of(
            temporal_db,
            "SELECT a.id, a.salary, b.title, a.tstart, a.tend "
            "FROM emp_salary a TEMPORAL JOIN emp_title b ON a.id = b.id",
        )
        assert report == golden(
            """
            rules:
              (none fired)
            logical plan:
              Project [a.id, a.salary, b.title, a.tstart, a.tend]
                TemporalJoin on a.id = b.id intersect [tstart, tend]
                  FunctionScan history_emp_salary() AS a
                  FunctionScan history_emp_title() AS b
            optimized plan:
              Project [a.id, a.salary, b.title, a.tstart, a.tend]
                TemporalJoin on a.id = b.id intersect [tstart, tend]
                  FunctionScan history_emp_salary() AS a
                  FunctionScan history_emp_title() AS b
            physical plan:
              Project
                TemporalJoin on a.id = b.id
                  FunctionScan history_emp_salary AS a
                  FunctionScan history_emp_title AS b
            """
        )
        assert to_sql(plan.optimized) == (
            "SELECT a.id, a.salary, b.title, a.tstart, a.tend "
            "FROM TABLE(history_emp_salary()) "
            "AS a(id, salary, tstart, tend, segno) "
            "TEMPORAL JOIN TABLE(history_emp_title()) "
            "AS b(id, title, tstart, tend, segno) ON a.id = b.id"
        )

    def test_normalize_plan(self, temporal_db):
        plan, report = report_of(
            temporal_db,
            "SELECT NORMALIZE t.id, t.tstart, t.tend FROM emp_salary t",
        )
        assert report == golden(
            """
            rules:
              (none fired)
            logical plan:
              Coalesce periods at [1, 2]
                Project [t.id, t.tstart, t.tend]
                  FunctionScan history_emp_salary() AS t
            optimized plan:
              Coalesce periods at [1, 2]
                Project [t.id, t.tstart, t.tend]
                  FunctionScan history_emp_salary() AS t
            physical plan:
              Coalesce
                Project
                  FunctionScan history_emp_salary AS t
            """
        )
        assert to_sql(plan.optimized) == (
            "SELECT NORMALIZE t.id, t.tstart, t.tend "
            "FROM TABLE(history_emp_salary()) "
            "AS t(id, salary, tstart, tend, segno)"
        )

    def test_sequenced_aggregate_plan(self, temporal_db):
        plan, report = report_of(
            temporal_db,
            "SELECT t.id, tavg(t.salary) FROM emp_salary t GROUP BY t.id",
        )
        assert report == golden(
            """
            rules:
              (none fired)
            logical plan:
              SequencedAggregate [avg] [t.id, tavg(t.salary), t.tstart, t.tend] group by [t.id]
                FunctionScan history_emp_salary() AS t
            optimized plan:
              SequencedAggregate [avg] [t.id, tavg(t.salary), t.tstart, t.tend] group by [t.id]
                FunctionScan history_emp_salary() AS t
            physical plan:
              SequencedAggregate [avg]
                FunctionScan history_emp_salary AS t
            """
        )
        assert to_sql(plan.optimized) == (
            "SELECT t.id, tavg(t.salary) FROM TABLE(history_emp_salary()) "
            "AS t(id, salary, tstart, tend, segno) GROUP BY t.id"
        )

    def test_temporal_sql_reparses_to_the_same_plan(self, temporal_db):
        for sql in (
            "SELECT a.id, b.title FROM emp_salary a "
            "TEMPORAL JOIN emp_title b ON a.id = b.id",
            "SELECT NORMALIZE t.id, t.tstart, t.tend FROM emp_salary t",
            "SELECT t.id, tavg(t.salary) FROM emp_salary t GROUP BY t.id",
        ):
            first = SelectPlan(temporal_db, parse_sql(sql))
            second = SelectPlan(
                temporal_db, parse_sql(to_sql(first.optimized))
            )
            assert to_sql(second.optimized) == to_sql(first.optimized)
