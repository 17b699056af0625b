"""Edge-case tests for the SQL engine: parser corners, NULL semantics,
INSERT..SELECT, params everywhere, planner choices."""

import pytest

from repro.errors import SqlPlanError, SqlSyntaxError
from repro.rdb import Database


@pytest.fixture
def db():
    database = Database()
    database.sql(
        "CREATE TABLE t (a INT, b VARCHAR, c FLOAT, d DATE)"
    )
    database.sql(
        "INSERT INTO t VALUES "
        "(1, 'x', 1.5, DATE '2000-01-01'), "
        "(2, 'y', NULL, DATE '2000-06-01'), "
        "(3, NULL, 2.5, NULL)"
    )
    return database


class TestParserCorners:
    def test_semicolon_tolerated(self, db):
        assert len(db.sql("SELECT a FROM t;")) == 3

    def test_comment_skipped(self, db):
        assert db.sql("SELECT a FROM t WHERE a = 1 -- trailing\n").rows == [(1,)]

    def test_quoted_identifiers(self, db):
        assert db.sql('SELECT "a" FROM "t" WHERE "a" = 2').rows == [(2,)]

    def test_string_escape_doubled_quote(self, db):
        db.sql("INSERT INTO t (a, b) VALUES (9, 'O''Brien')")
        assert db.sql("SELECT b FROM t WHERE a = 9").scalar() == "O'Brien"

    def test_keywords_case_insensitive(self, db):
        assert len(db.sql("select A from T wHeRe a > 0")) == 3

    def test_missing_from_raises(self, db):
        with pytest.raises(SqlSyntaxError):
            db.sql("SELECT 1")

    def test_unbalanced_parens(self, db):
        with pytest.raises(SqlSyntaxError):
            db.sql("SELECT a FROM t WHERE (a = 1")

    def test_garbage_after_statement(self, db):
        with pytest.raises(SqlSyntaxError):
            db.sql("SELECT a FROM t banana loose")

    def test_varchar_with_size(self, db):
        db.sql("CREATE TABLE sized (name VARCHAR(20))")
        db.sql("INSERT INTO sized VALUES ('ok')")
        assert db.sql("SELECT name FROM sized").scalar() == "ok"


class TestNullSemantics:
    def test_null_comparison_filters_row(self, db):
        # c IS NULL for a=2; c > 1 must not match it
        assert sorted(r[0] for r in db.sql("SELECT a FROM t WHERE c > 1")) == [1, 3]

    def test_null_in_arithmetic_propagates(self, db):
        assert db.sql("SELECT c + 1 FROM t WHERE a = 2").scalar() is None

    def test_coalesce(self, db):
        assert db.sql("SELECT coalesce(c, 0) FROM t WHERE a = 2").scalar() == 0

    def test_nullif(self, db):
        assert db.sql("SELECT nullif(a, 1) FROM t WHERE a = 1").scalar() is None

    def test_order_by_with_nulls(self, db):
        result = db.sql("SELECT b FROM t ORDER BY b")
        assert result.column(0)[0] is None  # nulls first in our ordering

    def test_concat_treats_null_as_empty(self, db):
        assert db.sql("SELECT b || '!' FROM t WHERE a = 3").scalar() == "!"

    def test_count_star_vs_count_column(self, db):
        assert db.sql("SELECT count(*) FROM t").scalar() == 3
        assert db.sql("SELECT count(c) FROM t").scalar() == 2

    def test_avg_skips_nulls(self, db):
        assert db.sql("SELECT avg(c) FROM t").scalar() == 2.0


@pytest.fixture(params=[True, False], ids=["optimized", "unoptimized"])
def pairs(request):
    database = Database()
    database.optimizer_enabled = request.param
    database.sql("CREATE TABLE n (id INT, v INT)")
    database.sql("INSERT INTO n VALUES (6, 3), (7, 0), (8, NULL)")
    return database


class TestDivision:
    """SQL ``/`` is true division; a zero divisor is an error when the
    row is evaluated, whether or not the optimizer folds constants."""

    def test_constant_division_is_true_division(self, pairs):
        assert pairs.sql("SELECT 7 / 2 FROM n WHERE id = 6").scalar() == 3.5
        assert pairs.sql("SELECT id FROM n WHERE 7 / 2 = 3.5").rows == [
            (6,), (7,), (8,),
        ]

    def test_per_row_division(self, pairs):
        assert pairs.sql("SELECT id / v FROM n WHERE id <> 7").rows == [
            (2.0,), (None,),
        ]

    def test_zero_divisor_in_a_row_raises(self, pairs):
        with pytest.raises(SqlPlanError, match="division by zero"):
            pairs.sql("SELECT id / v FROM n")

    def test_constant_zero_divisor_raises_at_execution(self, pairs):
        with pytest.raises(SqlPlanError, match="division by zero"):
            pairs.sql("SELECT id FROM n WHERE 1 / 0 = 1")

    def test_a_zero_divisor_is_not_folded_away(self, pairs):
        """No row evaluates ``1 / 0`` here, so nothing raises: planning
        leaves the division to execution."""
        pairs.sql("CREATE TABLE empty (id INT)")
        assert pairs.sql("SELECT id FROM empty WHERE 1 / 0 = 1").rows == []

    def test_a_folded_shape_does_not_hide_a_zero_divisor(self, pairs):
        assert len(pairs.sql("SELECT id FROM n WHERE 4 / 2 = 2")) == 3
        with pytest.raises(SqlPlanError, match="division by zero"):
            pairs.sql("SELECT id FROM n WHERE 4 / 0 = 2")


class TestInsertSelect:
    def test_insert_select_copies(self, db):
        db.sql("CREATE TABLE t2 (a INT, b VARCHAR, c FLOAT, d DATE)")
        count = db.sql("INSERT INTO t2 SELECT * FROM t WHERE a <= 2")
        assert count == 2
        assert db.sql("SELECT count(*) FROM t2").scalar() == 2

    def test_insert_select_with_columns(self, db):
        db.sql("CREATE TABLE narrow (a INT, b VARCHAR)")
        db.sql("INSERT INTO narrow (a, b) SELECT a, b FROM t WHERE a = 1")
        assert db.sql("SELECT * FROM narrow").rows == [(1, "x")]

    def test_insert_select_transform(self, db):
        db.sql("CREATE TABLE doubled (a INT)")
        db.sql("INSERT INTO doubled (a) SELECT a * 10 FROM t")
        assert sorted(db.sql("SELECT a FROM doubled").column(0)) == [10, 20, 30]


class TestParams:
    def test_param_in_insert(self, db):
        db.sql("INSERT INTO t (a, b) VALUES (:a, :b)", {"a": 7, "b": "p"})
        assert db.sql("SELECT b FROM t WHERE a = 7").scalar() == "p"

    def test_param_in_update(self, db):
        db.sql("UPDATE t SET b = :nb WHERE a = :k", {"nb": "zz", "k": 1})
        assert db.sql("SELECT b FROM t WHERE a = 1").scalar() == "zz"

    def test_param_in_delete(self, db):
        db.sql("DELETE FROM t WHERE a = :k", {"k": 2})
        assert db.sql("SELECT count(*) FROM t").scalar() == 2

    def test_param_used_twice(self, db):
        result = db.sql(
            "SELECT a FROM t WHERE a >= :v AND a <= :v", {"v": 2}
        )
        assert result.rows == [(2,)]


class TestPlannerChoices:
    def test_self_join_aliases(self, db):
        result = db.sql(
            "SELECT x.a, y.a FROM t x, t y WHERE x.a < y.a ORDER BY x.a, y.a"
        )
        assert result.rows == [(1, 2), (1, 3), (2, 3)]

    def test_join_key_with_nulls_excluded(self, db):
        db.sql("CREATE TABLE u (b VARCHAR)")
        db.sql("INSERT INTO u VALUES ('x'), (NULL)")
        result = db.sql("SELECT t.a FROM t, u WHERE t.b = u.b")
        assert result.rows == [(1,)]  # NULL join keys never match

    def test_filter_pushed_before_join(self, db):
        db.sql("CREATE TABLE v (a INT)")
        db.sql("INSERT INTO v VALUES (1), (2)")
        result = db.sql(
            "SELECT t.a FROM t, v WHERE t.a = v.a AND t.a = 1"
        )
        assert result.rows == [(1,)]

    def test_index_chosen_over_scan_gives_same_rows(self, db):
        before = sorted(db.sql("SELECT a FROM t WHERE a >= 2").rows)
        db.sql("CREATE INDEX ix_a ON t (a)")
        db.reset_caches()
        after = sorted(db.sql("SELECT a FROM t WHERE a >= 2").rows)
        assert before == after

    def test_date_param_range_on_index(self, db):
        db.sql("CREATE INDEX ix_d ON t (d)")
        result = db.sql(
            "SELECT a FROM t WHERE d >= :lo AND d <= :hi",
            {"lo": 0, "hi": 10**6},
        )
        assert sorted(r[0] for r in result) == [1, 2]

    def test_group_by_expression_key(self, db):
        db.sql("INSERT INTO t (a, b) VALUES (11, 'x')")
        result = db.sql(
            "SELECT b, count(*) FROM t WHERE b IS NOT NULL GROUP BY b ORDER BY b"
        )
        assert result.rows == [("x", 2), ("y", 1)]

    def test_aggregate_with_case(self, db):
        result = db.sql(
            "SELECT sum(CASE WHEN a > 1 THEN 1 ELSE 0 END) FROM t"
        )
        assert result.scalar() == 2


class TestResultSet:
    def test_scalar_requires_1x1(self, db):
        with pytest.raises(ValueError):
            db.sql("SELECT a FROM t").scalar()

    def test_column_by_name(self, db):
        assert db.sql("SELECT a, b FROM t WHERE a = 1").column("b") == ["x"]

    def test_first_on_empty(self, db):
        assert db.sql("SELECT a FROM t WHERE a = 99").first() is None

    def test_iteration_and_len(self, db):
        result = db.sql("SELECT a FROM t")
        assert len(result) == len(list(result))

    def test_repr(self, db):
        assert "ResultSet" in repr(db.sql("SELECT a FROM t"))
