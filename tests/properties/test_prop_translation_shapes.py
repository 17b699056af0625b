"""Property tests: a translation bound from the shape cache is the cold one.

The translation cache keys an XQuery on its shape — the text with its
value literals blanked — and keeps the SQL with one hole per literal.
For random literal values over the paper's Q1–Q6 shapes, ``tavg`` and
``order by``, a translation bound from a shape warmed by another binding
must be byte for byte the SQL a cold ``translate()`` writes (or refuse
the binding for the same reason), and the query must answer as it does
after every cache is dropped.
"""

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.archis.translator import translate
from repro.errors import UnsupportedQueryError
from repro.obs import get_registry
from repro.util.timeutil import format_date, parse_date
from repro.xmlkit import serialize

from tests.archis.conftest import make_archis
from tests.archis.test_clustering import churn

DOC = 'doc("employees.xml")/employees/employee'
FIRST = parse_date("1995-01-01")
LAST = FIRST + 12 * 30


def snapshot(on):
    return f'[tstart(.) <= xs:date("{on}") and tend(.) >= xs:date("{on}")]'


#: each shape, as a function of one binding's values
SHAPES = {
    "Q1": lambda v: f'for $s in {DOC}[id="{v.key}"]/salary{snapshot(v.day)} return $s',
    "Q2": lambda v: f"avg({DOC}/salary{snapshot(v.day)})",
    "Q3": lambda v: f'for $s in {DOC}[id="{v.key}"]/salary return $s',
    "Q4": lambda v: f"count({DOC}[id={v.number}]/salary)",
    "Q5": lambda v: (
        f"count({DOC}/salary[toverlaps(., telement("
        f'xs:date("{v.day}"), xs:date("{v.later}"))) and . > {v.number}])'
    ),
    "Q6": lambda v: (
        f"max(for $e in {DOC} for $a in $e/salary for $b in $e/salary "
        f'where tstart($a) >= xs:date("{v.day}") '
        "and tstart($b) > tstart($a) "
        f"and tstart($b) - tstart($a) <= {v.number} return $b - $a)"
    ),
    "tavg": lambda v: f'tavg({DOC}[id="{v.key}"]/salary)',
    "order_by": lambda v: (
        f'for $s in {DOC}/salary[. > {v.number}] '
        "order by tstart($s) descending return $s"
    ),
}


class Binding:
    def __init__(self, key, number, day, width):
        self.key = key.replace('"', '""')  # an XQuery string literal's escape
        self.number = number
        self.day = format_date(day)
        self.later = format_date(day + width)


def bindings():
    return st.builds(
        Binding,
        key=st.one_of(
            st.integers(-2, 12).map(str),
            st.text(st.sampled_from("ab5 '\"=;-0or1()"), max_size=10),
        ),
        number=st.one_of(st.integers(0, 4000), st.floats(0, 4000).map(round2)),
        day=st.integers(FIRST - 10, LAST + 10),
        width=st.integers(0, 400),
    )


def round2(value):
    return round(value, 2)


@pytest.fixture(scope="module")
def archis():
    archis = make_archis(umin=0.4, min_segment_rows=8)
    churn(archis, employees=10, rounds=12)
    assert archis.segments.segment_count() > 1
    return archis


def answer(archis, query):
    try:
        rows = archis.xquery(query, allow_fallback=False).rows
    except Exception as exc:  # the same typed error both ways
        return type(exc).__name__
    return [serialize(r) if hasattr(r, "name") else r for r in rows]


def sql_of(translation, query):
    """The translation's SQL, or the reason a binding is not translated
    (a key string that is not its number's own text)."""
    try:
        return translation(query).sql
    except UnsupportedQueryError as exc:
        return str(exc)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_bound_translation_equals_the_cold_one(archis, shape):
    hits = get_registry().counter("translator.cache_hits")
    write = SHAPES[shape]

    @seed(36)
    @settings(max_examples=12, deadline=None)
    @given(first=bindings(), second=bindings())
    def check(first, second):
        archis.reset_caches()
        sql_of(archis.translation, write(first))  # the shape's one miss
        query = write(second)
        before = hits.value
        warm = sql_of(archis.translation, query)
        assert hits.value == before + 1, query
        cold = sql_of(lambda q: translate(archis, q), query)
        assert warm == cold, query
        warm_rows = answer(archis, query)
        archis.reset_caches()
        assert answer(archis, query) == warm_rows, query

    check()
