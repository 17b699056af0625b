"""XQuery literals reach the SQL only as slot values, never as text.

The translator names each literal by a slot (``$n``, ``DATE $n``) and
binds its value by the slot's kind.  A string tested for equality with
a numeric column binds as a number only when it is that number's own
text; any other such string, and any string ordered against a numeric
column, is not translated, so the native evaluator answers.  A string
compared with a string column binds as that string, and an ``xs:date``
as its day number.  So a hostile literal never becomes SQL, and the
answer equals the native evaluator's.
"""

import pytest

from repro.archis.translator import Analyzer, Translation
from repro.bench.harness import build_archis
from repro.errors import ReproError, UnsupportedQueryError, XQueryTypeError
from repro.util.timeutil import parse_date
from repro.xquery.parser import query_shape

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


def slot_value(kind, value):
    """The value a literal binds to a slot of ``kind``."""
    return Translation("", slots=((kind, 0),)).bind([(0, value)])[0]


class TestSlotValues:
    def test_a_numbers_own_text_is_that_number(self):
        assert slot_value("numeric", "17") == 17
        assert slot_value("numeric", "4.5") == 4.5
        assert slot_value("numeric", "-1") == -1

    @pytest.mark.parametrize(
        "text", ["0 or 1=1", "bob", "5's", " 5", "007", "3.0", "1e3", "nan", ""]
    )
    def test_any_other_string_is_not_translated(self, text):
        with pytest.raises(UnsupportedQueryError):
            slot_value("numeric", text)

    def test_strings_stay_strings(self):
        assert slot_value("value", "a'b") == "a'b"
        assert slot_value("value", "0 or 1=1") == "0 or 1=1"

    def test_numbers_and_null(self):
        assert slot_value("value", 7) == 7
        assert type(slot_value("value", 7.0)) is int
        assert slot_value("value", 7.0) == 7
        assert slot_value("value", 2.5) == 2.5
        assert slot_value("value", None) is None
        assert slot_value("numeric", 3) == 3

    def test_date_is_a_day_number(self):
        assert slot_value("date", "1990-01-01") == parse_date("1990-01-01")
        with pytest.raises(XQueryTypeError):
            slot_value("date", "x' OR '1'='1")


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
            archis.prepare(query)

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
        sql = Analyzer(archis).translate(query, query_shape(query)[1]).sql
        assert "DATE $0" in sql and "OR 1=1" not in sql
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
