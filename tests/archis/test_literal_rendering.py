"""XQuery literals reach the SQL only through one renderer.

A string tested for equality with a numeric column is written as a
number only when it is that number's own text; any other such string,
and any string ordered against a numeric column, is not translated, so
the native evaluator answers.  A string compared with a string column is
an escaped SQL string, and an ``xs:date`` an escaped ``DATE '…'``.  So
a hostile literal never becomes SQL, and the answer equals the native
evaluator's.
"""

import pytest

from repro.archis.translator import core
from repro.bench.harness import build_archis
from repro.errors import ReproError, UnsupportedQueryError

DOC = 'doc("employees.xml")/employees/employee'


@pytest.fixture(scope="module")
def archis():
    _, archis, _ = build_archis(employees=30, umin=0.4)
    return archis


def both(archis, query):
    translated = archis.xquery(query, allow_fallback=False).rows
    native = archis._native_fallback(query)
    return translated, native


def answered(archis, query):
    """The answer, the native evaluator's, and whether it was translated."""
    result = archis.xquery(query)
    native = archis._native_fallback(query)
    return result.rows, native, "fallback_reason" not in result.stats


def render_literal(kind, value):
    return core.render_literal(kind, value)


class TestRenderLiteral:
    def test_a_numbers_own_text_is_that_number(self):
        assert render_literal("numeric", "17") == "17"
        assert render_literal("numeric", "4.5") == "4.5"
        assert render_literal("numeric", "-1") == "-1"

    @pytest.mark.parametrize(
        "text", ["0 or 1=1", "bob", "5's", " 5", "007", "3.0", "1e3", "nan", ""]
    )
    def test_any_other_string_is_not_translated(self, text):
        with pytest.raises(UnsupportedQueryError):
            render_literal("numeric", text)

    def test_strings_are_escaped(self):
        assert render_literal("value", "a'b") == "'a''b'"
        assert render_literal("value", "0 or 1=1") == "'0 or 1=1'"

    def test_numbers_and_null(self):
        assert render_literal("value", 7) == "7"
        assert render_literal("value", 7.0) == "7"
        assert render_literal("value", 2.5) == "2.5"
        assert render_literal("value", None) == "NULL"
        assert render_literal("numeric", 3) == "3"

    def test_date_is_escaped(self):
        assert render_literal("date", "1990-01-01") == "DATE '1990-01-01'"
        assert render_literal("date", "x' OR '1'='1") == "DATE 'x'' OR ''1''=''1'"


class TestHostileLiteralsMatchNothing:
    @pytest.mark.parametrize(
        "key", ["0 or 1=1", "bob", "5's", "1) OR (1=1", "1; DROP TABLE employee"]
    )
    def test_key_string_answers_like_native(self, archis, key):
        query = f'count({DOC}[id="{key}"]/salary)'
        got, native, translated = answered(archis, query)
        assert got == native == [0]
        assert not translated
        with pytest.raises(UnsupportedQueryError):
            archis.translation(query)

    def test_injected_or_adds_no_rows(self, archis):
        query = f'for $s in {DOC}[id="0 or 1=1"]/salary return $s'
        got, native, _ = answered(archis, query)
        assert got == native == []

    def test_numeric_string_still_finds_its_key(self, archis):
        key = archis.db.table("employee").rows().__next__()[0]
        query = f'count({DOC}[id="{key}"]/salary)'
        translated, native = both(archis, query)
        assert translated == native
        assert translated[0] > 0

    def test_string_column_literal_is_escaped(self, archis):
        query = f"count({DOC}[name=\"x' OR '1'='1\"]/salary)"
        translated, native = both(archis, query)
        assert translated == native == [0]

    def test_injected_date_is_a_typed_error(self, archis):
        query = (
            f'count({DOC}/salary[tstart(.) >= '
            "xs:date(\"1990-01-01' OR 1=1 OR '1\")])"
        )
        sql = archis.translation(query).sql
        assert "DATE '1990-01-01'' OR 1=1 OR ''1'" in sql
        with pytest.raises(ReproError):
            archis.xquery(query, allow_fallback=False)
        with pytest.raises(ReproError):
            archis._native_fallback(query)


class TestStringsAgainstNumericColumns:
    """The native evaluator compares a string literal with a value's
    text as strings; the translated query answers the same."""

    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    @pytest.mark.parametrize(
        "text", ["-1", " 5", "1e3", "bob", "60000", "007", "4.5", "0 or 1=1"]
    )
    def test_salary_comparison_answers_like_native(self, archis, op, text):
        query = f'count({DOC}/salary[. {op} "{text}"])'
        got, native, _ = answered(archis, query)
        assert got == native

    @pytest.mark.parametrize("op", ["<", ">="])
    def test_an_ordered_string_is_not_translated(self, archis, op):
        query = f'count({DOC}[id {op} "-1"]/salary)'
        got, native, translated = answered(archis, query)
        assert got == native
        assert not translated

    def test_a_numbers_own_text_is_translated(self, archis):
        key = next(archis.db.table("employee").rows())[0]
        for text in (str(key), "-1"):
            query = f'count({DOC}[id="{text}"]/salary)'
            got, native, translated = answered(archis, query)
            assert got == native
            assert translated
