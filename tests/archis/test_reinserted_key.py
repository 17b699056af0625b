"""A key deleted and inserted again keeps one history per attribute.

The key table holds one row per lifetime of a key, so a translation
that joins it to an attribute history on ``id`` alone repeats every
attribute version once per lifetime.  Each attribute version belongs to
exactly one lifetime — the one that holds its start — and the
translated answers equal the native evaluator's on the published
H-document.

The native evaluator also answers with one ``employee`` element per
key: a count of employees counts a key once across its lifetimes, and
an attribute test in a step predicate (``employee[salary > 52000]``)
selects each employee once, however many of its versions qualify.
"""

import pytest

from repro.xmlkit.dom import Element
from repro.xmlkit.serializer import serialize

from tests.archis.conftest import make_archis

DOC = 'doc("employees.xml")/employees/employee'


@pytest.fixture(scope="module")
def archis():
    """Key 1: inserted, updated, deleted and inserted again; key 2 lives on."""
    archis = make_archis()
    db = archis.db
    employee = db.table("employee")
    employee.insert((1, "Ann", 50000, "QA", "d01"))
    employee.insert((2, "Bo", 40000, "Dev", "d02"))
    db.set_date("1995-06-01")
    employee.update_where(lambda r: r["id"] == 1, {"salary": 55000, "title": "Lead"})
    db.set_date("1996-01-01")
    employee.delete_where(lambda r: r["id"] == 1)
    db.set_date("1997-01-01")
    employee.insert((1, "Ann", 60000, "QA", "d01"))
    archis.apply_pending()
    return archis


def _canonical(rows) -> list:
    return sorted(
        serialize(row) if isinstance(row, Element) else str(row) for row in rows
    )


QUERIES = {
    # Q1: the key's salary on a day
    "q1": f'for $s in {DOC}[id="1"]/salary[tstart(.) <= xs:date("1995-08-01") '
    'and tend(.) >= xs:date("1995-08-01")] return $s',
    "q1_second_lifetime": f'for $s in {DOC}[id="1"]/salary[tstart(.) <= '
    'xs:date("1997-01-01") and tend(.) >= xs:date("1997-01-01")] return $s',
    # Q3: the key's salary history
    "q3": f'for $s in {DOC}[id="1"]/salary return $s',
    "count": f'count({DOC}[id="1"]/salary)',
    "count_title": f'count({DOC}[id="1"]/title)',
    "where_on_key": f"for $e in {DOC} for $s in $e/salary "
    "where $e/id = 1 return $s",
    "two_attributes": f'for $e in {DOC}[id="1"] for $s in $e/salary '
    "for $t in $e/title return <p>{$s}{$t}</p>",
    "two_attributes_where": f"for $e in {DOC} for $s in $e/salary "
    "for $t in $e/title where $e/id = 1 return <p>{$s}{$t}</p>",
    # an attribute test in a step predicate is existential
    "attribute_test": f"count({DOC}[salary > 52000]/title)",
    "attribute_test_titles": f"for $t in {DOC}[salary > 52000]/title return $t",
    "nested_attribute_test": f"count({DOC}[salary[. > 52000]]/name)",
    "two_attribute_tests": f'count({DOC}[salary > 52000 and title = "QA"]/title)',
    "key_and_attribute_test": f'count({DOC}[id="1"][salary > 52000]/title)',
    # one employee element per key
    "entity_count": f'count({DOC}[id="1"])',
    "entity_count_tested": f"count({DOC}[salary > 30000])",
    # a where clause over an attribute returns each employee once
    "entity_count_flwor": f"count(for $e in {DOC} "
    "where $e/salary > 52000 return $e)",
}


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_translated_answer_equals_native(archis, name):
    query = QUERIES[name]
    translated = archis.xquery(query, allow_fallback=False).rows
    assert _canonical(translated) == _canonical(archis._native_fallback(query))


def test_each_salary_version_comes_back_once(archis):
    rows = archis.xquery(QUERIES["q3"], allow_fallback=False).rows
    assert sorted(row.text() for row in rows) == ["50000", "55000", "60000"]
    assert archis.xquery(QUERIES["count"], allow_fallback=False).rows == [3]


def test_key_versions_pair_by_lifetime(archis):
    sql = archis.translate(QUERIES["q3"])
    assert "t1.tstart <= t2.tstart" in sql
    assert "t2.tstart <= t1.tend" in sql


def test_an_attribute_test_selects_each_employee_once(archis):
    """Key 1 has two salaries above 52000 and three title versions."""
    query = QUERIES["attribute_test"]
    assert archis.xquery(query, allow_fallback=False).rows == [3]
    assert " IN (SELECT " in archis.translate(query)


def test_an_employee_counts_once_across_lifetimes(archis):
    assert archis.xquery(QUERIES["entity_count"], allow_fallback=False).rows == [1]
    assert archis.xquery(
        QUERIES["entity_count_tested"], allow_fallback=False
    ).rows == [2]
