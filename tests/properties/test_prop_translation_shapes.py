"""Property tests: an answer bound from the shape cache is the cold one.

The statement cache keys an XQuery on its shape — the text with its
value literals blanked — and keeps its translation, whose SQL names
each literal by a slot, beside the shape's plans.  For random literal
values over the paper's Q1–Q6 shapes, ``tavg`` and ``order by`` — keys
that are numbers, hostile strings or ``"-1"``, numbers that are whole or
fractional, dates on and off the archive's days — a query answered from
a shape warmed by another binding (a cache hit) must answer as it does
cold, after every cache is dropped, or be refused for the same reason.
"""

import pytest
from hypothesis import given, seed, settings, strategies as st

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
            st.just("-1"),
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
    """The answer, or the error (type and reason) that refused it."""
    try:
        rows = archis.xquery(query, allow_fallback=False).rows
    except Exception as exc:  # the same typed error both ways
        return f"{type(exc).__name__}: {exc}"
    return [serialize(r) if hasattr(r, "name") else r for r in rows]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_warm_answer_equals_the_cold_one(archis, shape):
    hits = get_registry().counter("translator.cache_hits")
    write = SHAPES[shape]

    @seed(36)
    @settings(max_examples=12, deadline=None)
    @given(first=bindings(), second=bindings())
    def check(first, second):
        archis.reset_caches()
        answer(archis, write(first))  # the shape's one miss
        query = write(second)
        before = hits.value
        warm = answer(archis, query)
        assert hits.value == before + 1, query
        archis.reset_caches()
        assert answer(archis, query) == warm, query

    check()
