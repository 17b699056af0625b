"""Unit tests for the optimizer rules, one class per rule.

Every rule must preserve result semantics, so each class also checks the
rewritten plan (or the full pipeline) against the unoptimized answer.
"""

import pytest

from repro.plan import PlanContext, SegmentHints, build_logical, nodes, rules
from repro.rdb import Database
from repro.sql import ast, parse_sql
from repro.sql.planner import SelectPlan, function_registry, source_scope


@pytest.fixture
def db():
    database = Database()
    database.sql(
        "CREATE TABLE employee (id INT, name VARCHAR, salary INT, "
        "PRIMARY KEY (id))"
    )
    database.sql(
        "INSERT INTO employee VALUES "
        "(1, 'Bob', 60000), (2, 'Ann', 72000), (3, 'Carl', 55000)"
    )
    database.sql("CREATE TABLE dept (deptno INT, dname VARCHAR)")
    database.sql("INSERT INTO dept VALUES (1, 'eng'), (2, 'ops')")
    return database


def plan_and_ctx(db, sql):
    select = parse_sql(sql)
    scope = source_scope(db, select.sources)
    ctx = PlanContext(db, scope, function_registry(db))
    return build_logical(select, scope), ctx


def only_leaf(plan):
    found = list(nodes.leaves(plan))
    assert len(found) == 1
    return found[0]


def rows_with_and_without_optimizer(db, sql):
    optimized = db.sql(sql).rows
    db.optimizer_enabled = False
    try:
        naive = db.sql(sql).rows
    finally:
        db.optimizer_enabled = True
    return optimized, naive


class TestConstantFolding:
    def test_arithmetic_folds_inside_predicates(self, db):
        plan, ctx = plan_and_ctx(
            db, "SELECT e.id FROM employee AS e WHERE e.salary > 1000 * 60"
        )
        plan, details = rules.fold_constants(plan, ctx)
        assert details == ["folded 1 constant expression(s)"]
        predicate = plan.child.predicates[0]
        assert predicate.right == ast.Literal(60000)

    def test_true_conjunct_drops_the_filter(self, db):
        plan, ctx = plan_and_ctx(
            db, "SELECT e.id FROM employee AS e WHERE 1 = 1"
        )
        plan, details = rules.fold_constants(plan, ctx)
        assert details
        assert isinstance(plan.child, nodes.Scan)

    def test_false_conjunct_is_kept_as_contradiction(self, db):
        plan, ctx = plan_and_ctx(
            db, "SELECT e.id FROM employee AS e WHERE 1 = 2"
        )
        plan, _ = rules.fold_constants(plan, ctx)
        assert plan.child.predicates == (rules._FALSE,)

    def test_division_by_zero_is_left_alone(self, db):
        plan, ctx = plan_and_ctx(
            db, "SELECT e.id FROM employee AS e WHERE e.salary > 1 / 0"
        )
        plan, details = rules.fold_constants(plan, ctx)
        assert details == []

    def test_folded_query_answers_unchanged(self, db):
        sql = "SELECT id FROM employee WHERE salary >= 30000 * 2 ORDER BY id"
        optimized, naive = rows_with_and_without_optimizer(db, sql)
        assert optimized == naive == [(1,), (2,)]

    def test_false_where_returns_no_rows(self, db):
        assert db.sql("SELECT id FROM employee WHERE 1 = 0").rows == []


class TestPredicatePushdown:
    def test_single_alias_conjunct_moves_into_scan(self, db):
        plan, ctx = plan_and_ctx(
            db, "SELECT e.name FROM employee AS e WHERE e.salary > 60000"
        )
        plan, details = rules.push_down_predicates(plan, ctx)
        assert details == ["1 predicate(s) into e"]
        scan = plan.child
        assert isinstance(scan, nodes.Scan)
        assert len(scan.predicates) == 1

    def test_join_conjunct_stays_in_filter(self, db):
        plan, ctx = plan_and_ctx(
            db,
            "SELECT e.name FROM employee AS e, dept AS d "
            "WHERE e.id = d.deptno AND e.salary > 1",
        )
        plan, details = rules.push_down_predicates(plan, ctx)
        assert details == ["1 predicate(s) into e"]
        filter_node = plan.child
        assert isinstance(filter_node, nodes.Filter)
        assert len(filter_node.predicates) == 1  # only the join conjunct

    def test_equality_crosses_the_join(self, db):
        plan, ctx = plan_and_ctx(
            db,
            "SELECT e.name FROM employee AS e, dept AS d "
            "WHERE e.id = d.deptno AND e.id = 2",
        )
        plan, details = rules.push_down_predicates(plan, ctx)
        assert details == ["1 predicate(s) into d", "1 predicate(s) into e"]
        dept = [leaf for leaf in nodes.leaves(plan) if leaf.alias == "d"][0]
        assert dept.predicates == (
            ast.BinaryOp("=", ast.ColumnRef("d", "deptno"), ast.Literal(2)),
        )
        assert len(plan.child.predicates) == 1  # the join conjunct stays

    def test_stated_equality_is_not_derived_again(self, db):
        plan, ctx = plan_and_ctx(
            db,
            "SELECT e.name FROM employee AS e, dept AS d "
            "WHERE e.id = d.deptno AND e.id = 2 AND 2 = d.deptno",
        )
        plan, details = rules.push_down_predicates(plan, ctx)
        assert details == ["1 predicate(s) into d", "1 predicate(s) into e"]

    @pytest.mark.parametrize("constant", ["1", "NULL"])
    def test_crossed_equality_answers_unchanged(self, db, constant):
        optimized, naive = rows_with_and_without_optimizer(
            db,
            "SELECT e.name, d.dname FROM employee AS e, dept AS d "
            f"WHERE e.id = d.deptno AND d.deptno = {constant}",
        )
        assert optimized == naive


class TestSegmentRestriction:
    DATE = 4000

    def history_scan(self, predicates):
        return nodes.FunctionScan(
            "history_employee",
            (),
            "t",
            ("id", "name", "tstart", "tend", "segno"),
            tuple(predicates),
        )

    def snapshot_predicates(self):
        return (
            ast.BinaryOp(
                "<=", ast.ColumnRef("t", "tstart"), ast.Literal(self.DATE)
            ),
            ast.BinaryOp(
                ">=", ast.ColumnRef("t", "tend"), ast.Literal(self.DATE)
            ),
        )

    def ctx(self, compressed, segnos):
        db = Database()
        db.segment_provider = lambda name: (
            SegmentHints(compressed, lambda lo, hi: list(segnos))
            if name == "employee"
            else None
        )
        return PlanContext(db, None, {})

    def test_single_uncompressed_segment_becomes_heap_scan(self):
        plan = self.history_scan(self.snapshot_predicates())
        plan, details = rules.restrict_segments(plan, self.ctx(False, [2]))
        assert isinstance(plan, nodes.Scan)
        assert plan.table == "employee"
        assert plan.predicates[-1] == ast.BinaryOp(
            "=", ast.ColumnRef("t", "segno"), ast.Literal(2)
        )
        assert details == ["t: history_employee() -> employee WHERE segno = 2"]

    def test_single_compressed_segment_gets_segment_arguments(self):
        plan = self.history_scan(self.snapshot_predicates())
        plan, details = rules.restrict_segments(plan, self.ctx(True, [2]))
        assert isinstance(plan, nodes.FunctionScan)
        assert plan.function == "history_employee"
        assert plan.args == (ast.Literal(2), ast.Literal(2))

    def test_multi_segment_window_gets_segment_arguments(self):
        predicates = (
            ast.FunctionCall(
                "toverlaps",
                (
                    ast.ColumnRef("t", "tstart"),
                    ast.ColumnRef("t", "tend"),
                    ast.Literal(100),
                    ast.Literal(200),
                ),
            ),
        )
        plan = self.history_scan(predicates)
        plan, details = rules.restrict_segments(plan, self.ctx(False, [1, 2, 3]))
        assert isinstance(plan, nodes.FunctionScan)
        assert plan.function == "history_employee"
        assert plan.args == (ast.Literal(1), ast.Literal(3))

    def test_reversed_comparison_is_recognized(self):
        predicates = (
            ast.BinaryOp(
                ">=", ast.Literal(self.DATE), ast.ColumnRef("t", "tstart")
            ),
            ast.BinaryOp(
                "<=", ast.Literal(self.DATE), ast.ColumnRef("t", "tend")
            ),
        )
        plan = self.history_scan(predicates)
        plan, details = rules.restrict_segments(plan, self.ctx(False, [1]))
        assert isinstance(plan, nodes.Scan)
        assert details

    def key_predicate(self, value):
        return ast.BinaryOp("=", ast.ColumnRef("t", "id"), value)

    def test_key_without_window_becomes_key_arguments(self):
        plan = self.history_scan((self.key_predicate(ast.Literal(7)),))
        plan, details = rules.restrict_segments(plan, self.ctx(True, [1]))
        assert plan.function == "history_employee"
        assert plan.args == (
            ast.Literal(None), ast.Literal(None), ast.Literal(7), ast.Literal(7)
        )
        assert plan.predicates == (self.key_predicate(ast.Literal(7)),)
        assert details == [
            "t: history_employee() -> history_employee(NULL, NULL, 7, 7) "
            "for id = 7"
        ]

    def test_key_param_joins_the_window_arguments(self):
        key = ast.Param("k")
        plan = self.history_scan(
            self.snapshot_predicates() + (self.key_predicate(key),)
        )
        plan, details = rules.restrict_segments(plan, self.ctx(True, [2]))
        assert plan.function == "history_employee"
        assert plan.args == (ast.Literal(2), ast.Literal(2), key, key)
        assert details == [
            "t: history_employee() -> history_employee(2, 2, :k, :k) for id = :k"
        ]

    def test_key_rewrite_is_idempotent(self):
        plan = self.history_scan((self.key_predicate(ast.Literal(7)),))
        ctx = self.ctx(True, [1])
        once, _ = rules.restrict_segments(plan, ctx)
        twice, details = rules.restrict_segments(once, ctx)
        assert twice is once
        assert details == []

    def test_single_uncompressed_segment_keeps_the_key_in_predicates(self):
        plan = self.history_scan(
            self.snapshot_predicates() + (self.key_predicate(ast.Literal(7)),)
        )
        plan, _ = rules.restrict_segments(plan, self.ctx(False, [2]))
        assert isinstance(plan, nodes.Scan)  # index selection takes the key
        assert self.key_predicate(ast.Literal(7)) in plan.predicates

    def test_text_key_is_not_an_argument(self):
        plan = self.history_scan((self.key_predicate(ast.Literal("7")),))
        rewritten, details = rules.restrict_segments(
            plan, self.ctx(True, [1])
        )
        assert rewritten is plan
        assert details == []

    def test_no_window_means_no_rewrite(self):
        predicates = (
            ast.BinaryOp(">", ast.ColumnRef("t", "salary"), ast.Literal(5)),
        )
        plan = self.history_scan(predicates)
        rewritten, details = rules.restrict_segments(
            plan, self.ctx(False, [1])
        )
        assert rewritten is plan
        assert details == []

    def test_no_hints_means_no_rewrite(self):
        plan = self.history_scan(self.snapshot_predicates())
        db = Database()  # no segment_provider
        rewritten, details = rules.restrict_segments(
            plan, PlanContext(db, None, {})
        )
        assert rewritten is plan
        assert details == []


class TestIndexSelection:
    def test_equality_predicate_becomes_index_scan(self, db):
        db.sql("CREATE INDEX emp_salary ON employee (salary)")
        plan, ctx = plan_and_ctx(
            db, "SELECT e.name FROM employee AS e WHERE e.salary = 60000"
        )
        plan, _ = rules.push_down_predicates(plan, ctx)
        plan, details = rules.select_indexes(plan, ctx)
        assert details == ["e: employee via index emp_salary"]
        scan = only_leaf(plan)
        assert isinstance(scan, nodes.IndexScan)
        assert scan.eq == (("salary", ast.Literal(60000)),)
        assert scan.predicates == ()  # equality conjunct consumed

    def test_range_conjunct_stays_residual(self, db):
        db.sql("CREATE INDEX emp_salary ON employee (salary)")
        plan, ctx = plan_and_ctx(
            db, "SELECT e.name FROM employee AS e WHERE e.salary > 55000"
        )
        plan, _ = rules.push_down_predicates(plan, ctx)
        plan, _ = rules.select_indexes(plan, ctx)
        scan = only_leaf(plan)
        assert isinstance(scan, nodes.IndexScan)
        assert scan.range_column == "salary"
        assert scan.low == ast.Literal(55000)
        assert not scan.low_inclusive
        assert len(scan.predicates) == 1  # range kept as residual filter

    def test_no_index_no_rewrite(self, db):
        plan, ctx = plan_and_ctx(
            db, "SELECT d.dname FROM dept AS d WHERE d.deptno = 1"
        )
        plan, _ = rules.push_down_predicates(plan, ctx)
        plan, details = rules.select_indexes(plan, ctx)
        assert details == []
        assert isinstance(only_leaf(plan), nodes.Scan)

    def test_null_equality_on_an_index_matches_nothing(self, db):
        db.sql("CREATE INDEX emp_salary ON employee (salary)")
        assert db.sql("SELECT name FROM employee WHERE salary = NULL").rows == []
        assert db.sql(
            "SELECT name FROM employee WHERE salary = :s", {"s": None}
        ).rows == []

    def test_index_scan_answers_match_heap_scan(self, db):
        db.sql("CREATE INDEX emp_salary ON employee (salary)")
        sql = (
            "SELECT name FROM employee WHERE salary >= 55000 "
            "AND salary < 72000 ORDER BY name"
        )
        optimized, naive = rows_with_and_without_optimizer(db, sql)
        assert optimized == naive == [("Bob",), ("Carl",)]


class TestJoinSelection:
    def test_equi_conjunct_becomes_hash_join(self, db):
        plan, ctx = plan_and_ctx(
            db,
            "SELECT e.name FROM employee AS e, dept AS d "
            "WHERE e.id = d.deptno",
        )
        plan, details = rules.select_joins(plan, ctx)
        assert details == ["hash join on e.id = d.deptno"]
        join = plan.child
        assert isinstance(join, nodes.Join)
        assert join.strategy == "hash"
        assert join.pairs == ((("e", "id"), ("d", "deptno")),)

    def test_non_equi_join_stays_nested(self, db):
        plan, ctx = plan_and_ctx(
            db,
            "SELECT e.name FROM employee AS e, dept AS d "
            "WHERE e.id > d.deptno",
        )
        plan, details = rules.select_joins(plan, ctx)
        assert details == []
        assert isinstance(plan.child, nodes.Filter)

    def test_join_answers_match_nested_loop(self, db):
        sql = (
            "SELECT e.name, d.dname FROM employee AS e, dept AS d "
            "WHERE e.id = d.deptno ORDER BY e.name"
        )
        optimized, naive = rows_with_and_without_optimizer(db, sql)
        assert optimized == naive == [("Ann", "ops"), ("Bob", "eng")]


class TestPipeline:
    def test_rule_firings_are_recorded_in_order(self, db):
        db.sql("CREATE INDEX emp_salary ON employee (salary)")
        plan = SelectPlan(
            db,
            parse_sql(
                "SELECT e.name FROM employee AS e, dept AS d "
                "WHERE e.id = d.deptno AND e.salary = 2 * 30000"
            ),
        )
        names = [firing.rule for firing in plan.rule_firings]
        assert names == [
            "constant-folding",
            "predicate-pushdown",
            "index-selection",
            "join-selection",
        ]

    def test_optimizer_disabled_keeps_the_naive_plan(self, db):
        db.optimizer_enabled = False
        try:
            plan = SelectPlan(
                db,
                parse_sql("SELECT e.id FROM employee AS e WHERE e.id = 1"),
            )
        finally:
            db.optimizer_enabled = True
        assert plan.rule_firings == ()
        assert plan.optimized is plan.logical
