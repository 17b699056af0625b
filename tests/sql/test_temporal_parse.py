"""Parsing the temporal SQL surface: FOR SYSTEM_TIME, TEMPORAL JOIN,
NORMALIZE — plus the positioned syntax errors the lexer/parser now carry.
"""

import pytest

from repro.errors import SqlSyntaxError
from repro.sql import ast, parse_sql
from repro.sql.lexer import tokenize
from repro.util.timeutil import FOREVER, parse_date


class TestTemporalClauses:
    def test_as_of_date_literal(self):
        select = parse_sql(
            "SELECT t.id FROM emp t FOR SYSTEM_TIME AS OF DATE '1995-02-15'"
        )
        (ref,) = select.sources
        assert isinstance(ref, ast.TableRef)
        assert ref.temporal == ast.TemporalClause(
            "as_of", ast.DateLiteral(parse_date("1995-02-15"))
        )

    def test_as_of_now_keyword_string(self):
        select = parse_sql("SELECT t.id FROM emp t FOR SYSTEM_TIME AS OF 'now'")
        (ref,) = select.sources
        assert ref.temporal.low == ast.DateLiteral(FOREVER)

    def test_from_to_window(self):
        select = parse_sql(
            "SELECT t.id FROM emp t FOR SYSTEM_TIME "
            "FROM '1995-01-01' TO '1996-01-01'"
        )
        (ref,) = select.sources
        assert ref.temporal.kind == "from_to"
        assert ref.temporal.low == ast.DateLiteral(parse_date("1995-01-01"))
        assert ref.temporal.high == ast.DateLiteral(parse_date("1996-01-01"))

    def test_between_and_window(self):
        select = parse_sql(
            "SELECT t.id FROM emp t FOR SYSTEM_TIME "
            "BETWEEN '1995-01-01' AND '1996-01-01'"
        )
        (ref,) = select.sources
        assert ref.temporal.kind == "between"

    def test_params_as_bounds(self):
        select = parse_sql(
            "SELECT t.id FROM emp t FOR SYSTEM_TIME FROM :lo TO :hi"
        )
        (ref,) = select.sources
        assert ref.temporal.low == ast.Param("lo")
        assert ref.temporal.high == ast.Param("hi")

    def test_clause_on_table_function(self):
        select = parse_sql(
            "SELECT t.id FROM TABLE(history_emp()) AS t(id, v, tstart, tend) "
            "FOR SYSTEM_TIME AS OF 100"
        )
        (ref,) = select.sources
        assert isinstance(ref, ast.TableFunctionRef)
        assert ref.temporal.kind == "as_of"
        assert ref.temporal.low == ast.Literal(100)

    def test_where_and_order_by_still_parse_after_clause(self):
        select = parse_sql(
            "SELECT t.id FROM emp t FOR SYSTEM_TIME AS OF 5 "
            "WHERE t.id = 1 ORDER BY t.id"
        )
        assert select.where is not None
        assert select.order_by

    def test_bad_date_is_a_syntax_error(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("SELECT t.id FROM emp t FOR SYSTEM_TIME AS OF 'nonsense'")

    def test_to_stays_usable_as_a_column_name(self):
        select = parse_sql("SELECT t.to FROM emp t WHERE t.to = 3")
        assert select.items[0].expr == ast.ColumnRef("t", "to")


class TestTemporalJoinAndNormalize:
    def test_temporal_join_parses_to_join_ref(self):
        select = parse_sql(
            "SELECT a.id FROM emp_a a TEMPORAL JOIN emp_b b ON a.id = b.id"
        )
        (ref,) = select.sources
        assert isinstance(ref, ast.TemporalJoinRef)
        assert isinstance(ref.left, ast.TableRef)
        assert isinstance(ref.right, ast.TableRef)
        assert list(r.alias for r in ast.flat_source_refs(select.sources)) == [
            "a",
            "b",
        ]

    def test_temporal_join_is_left_associative(self):
        select = parse_sql(
            "SELECT a.id FROM ta a TEMPORAL JOIN tb b ON a.id = b.id "
            "TEMPORAL JOIN tc c ON a.id = c.id"
        )
        (ref,) = select.sources
        assert isinstance(ref, ast.TemporalJoinRef)
        assert isinstance(ref.left, ast.TemporalJoinRef)

    def test_sides_can_carry_their_own_clauses(self):
        select = parse_sql(
            "SELECT a.id FROM ta a FOR SYSTEM_TIME AS OF 9 "
            "TEMPORAL JOIN tb b FOR SYSTEM_TIME AS OF 9 ON a.id = b.id"
        )
        (ref,) = select.sources
        assert ref.left.temporal.kind == "as_of"
        assert ref.right.temporal.kind == "as_of"

    def test_normalize_flag(self):
        select = parse_sql("SELECT NORMALIZE t.id, t.tstart, t.tend FROM emp t")
        assert select.normalize
        plain = parse_sql("SELECT t.id FROM emp t")
        assert not plain.normalize

    def test_select_is_temporal_classification(self):
        from repro.plan.build import select_is_temporal

        assert select_is_temporal(
            parse_sql("SELECT t.id FROM emp t FOR SYSTEM_TIME AS OF 5")
        )
        assert select_is_temporal(
            parse_sql("SELECT a.id FROM ta a TEMPORAL JOIN tb b ON a.id = b.id")
        )
        assert select_is_temporal(parse_sql("SELECT tavg(t.v) FROM emp t"))
        assert select_is_temporal(
            parse_sql("SELECT NORMALIZE t.id, t.tstart, t.tend FROM emp t")
        )
        assert not select_is_temporal(parse_sql("SELECT t.id FROM emp t"))


class TestPositionedErrors:
    def test_tokens_carry_line_and_column(self):
        tokens = tokenize("SELECT a\nFROM b")
        from_token = next(t for t in tokens if t.value == "from")
        assert (from_token.line, from_token.column) == (2, 1)
        b_token = next(t for t in tokens if t.value == "b")
        assert (b_token.line, b_token.column) == (2, 6)

    def test_lexer_error_is_positioned(self):
        with pytest.raises(SqlSyntaxError) as info:
            tokenize("SELECT a FROM b WHERE a = ~3")
        assert info.value.line == 1
        assert info.value.column == 27

    def test_parser_error_names_the_offending_token(self):
        with pytest.raises(SqlSyntaxError) as info:
            parse_sql("SELECT t.id\nFROM emp t WHERE ORDER BY t.id")
        err = info.value
        assert err.line == 2
        assert err.token == "order"
        assert "line 2" in str(err)

    def test_error_at_end_of_input(self):
        with pytest.raises(SqlSyntaxError) as info:
            parse_sql("SELECT t.id FROM emp t WHERE")
        assert "end of input" in str(info.value)
