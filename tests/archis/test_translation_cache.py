"""XQuery shapes in the statement cache.

The statement cache keys an XQuery on its shape (its text with the
value literals blanked), so two bindings of one shape share one
translation and its plans.  The translator's SQL names each literal by
a slot (``$n``), so a hit converts the new literals and checks the plan
guards: it translates nothing and writes, lexes or parses no SQL.
Clustering and compression changes move the plan generation, so they
invalidate the shape.
"""

import threading

import pytest

from repro.obs import get_registry
from repro.sql import cache
from repro.util.timeutil import format_date, parse_date
from repro.xmlkit import serialize

from tests.archis.conftest import load_bob_history, make_archis
from tests.archis.test_clustering import churn

DOC = 'doc("employees.xml")/employees/employee'
QUERY = f"for $s in {DOC}/salary return $s"
FIRST_DAY = parse_date("1995-01-01")
DAYS = [FIRST_DAY + 36 * i for i in range(10)]


def q1(key, day):
    on = format_date(day)
    return (
        f'for $s in {DOC}[id="{key}"]/salary[tstart(.) <= xs:date("{on}") '
        f'and tend(.) >= xs:date("{on}")] return $s'
    )


def shape(i):
    """A query of its own shape per ``i``: the variable name is part of
    the shape, unlike a literal."""
    return f'for $s{i} in {DOC}[id="{i}"]/salary return $s{i}'


def counters():
    registry = get_registry()
    return (
        registry.counter("translator.cache_hits"),
        registry.counter("translator.cache_misses"),
    )


def counts():
    """The counters a warm binding must not move, and the hits."""
    registry = get_registry()
    return {
        "translations": registry.counter("xquery.translations").value,
        "plan_misses": registry.counter("plan.cache.misses").value,
        "rules_fired": registry.labeled_counter("plan.rules_fired").total,
        "replans": registry.counter("plan.cache.replans").value,
        "hits": registry.counter("translator.cache_hits").value,
    }


def answer(archis, query):
    rows = archis.xquery(query, allow_fallback=False).rows
    return [serialize(r) if hasattr(r, "name") else r for r in rows]


@pytest.fixture(scope="module")
def segmented():
    archis = make_archis(umin=0.4, min_segment_rows=8)
    churn(archis, employees=10, rounds=12)
    assert archis.segments.segment_count() > 1
    return archis


class TestXQueryShapes:
    def test_repeat_translation_hits_the_cache(self, archis):
        load_bob_history(archis)
        hits, misses = counters()
        first = archis.translate(QUERY)
        misses_after_first = misses.value
        hits_before = hits.value
        second = archis.translate(QUERY)
        assert second == first
        assert hits.value == hits_before + 1
        assert misses.value == misses_after_first

    def test_xquery_execution_uses_the_same_cache(self, archis):
        load_bob_history(archis)
        hits, _ = counters()
        archis.xquery(QUERY, allow_fallback=False)
        hits_before = hits.value
        archis.xquery(QUERY, allow_fallback=False)
        assert hits.value > hits_before

    def test_stats_expose_cache_metrics(self, archis):
        load_bob_history(archis)
        archis.translate(QUERY)
        stats = archis.stats()
        assert stats["translator"]["cache_misses"] >= 1
        assert stats["plan_cache"]["size"] >= 1

    def test_freeze_invalidates_the_shape(self):
        archis = make_archis(umin=0.4, min_segment_rows=2)
        load_bob_history(archis)
        _, misses = counters()
        archis.translate(QUERY)
        before = misses.value
        archis.segments.freeze()  # generation moves on
        archis.translate(QUERY)
        assert misses.value == before + 1

    def test_compression_invalidates_the_shape(self, archis):
        load_bob_history(archis)
        _, misses = counters()
        archis.translate(QUERY)
        before = misses.value
        archis.compress_archive()
        archis.translate(QUERY)
        assert misses.value == before + 1

    def test_reset_caches_drops_the_shape(self, archis):
        load_bob_history(archis)
        _, misses = counters()
        archis.translate(QUERY)
        archis.reset_caches()
        before = misses.value
        archis.translate(QUERY)
        assert misses.value == before + 1


class TestBindings:
    def test_two_bindings_are_one_miss_and_one_hit(self, archis):
        load_bob_history(archis)
        hits, misses = counters()
        hits_before, misses_before = hits.value, misses.value
        first = archis.prepare(
            f'for $s in {DOC}[id="1001"]/salary'
            '[tstart(.) <= xs:date("1996-01-01")] return $s'
        )
        second = archis.prepare(
            f'for $s in {DOC}[id="7"]/salary'
            '[tstart(.) <= xs:date("1999-12-31")] return $s'
        )
        assert (misses.value - misses_before, hits.value - hits_before) == (1, 1)
        assert second.translation is first.translation
        assert "t1.id = $0" in first.translation.sql
        assert "DATE $1" in first.translation.sql
        assert first.values == (1001, parse_date("1996-01-01"))
        assert second.values == (7, parse_date("1999-12-31"))

    def test_warm_bindings_translate_and_plan_nothing(self, segmented):
        """100 bindings of Q1 over ten keys and ten days, after one pass
        over the days has planned every segment the days fall in."""
        for day in DAYS:
            segmented.xquery(q1(0, day), allow_fallback=False)
        before = counts()
        for key in range(10):
            for day in DAYS:
                segmented.xquery(q1(key, day), allow_fallback=False)
        after = counts()
        assert after["hits"] - before["hits"] == 100
        for name in ("translations", "plan_misses", "rules_fired", "replans"):
            assert after[name] == before[name], name

    def test_a_replan_does_not_translate(self, segmented):
        segmented.reset_caches()
        segmented.xquery(q1(1, DAYS[0]), allow_fallback=False)
        before = counts()
        segmented.xquery(q1(1, DAYS[-1]), allow_fallback=False)
        after = counts()
        # the last day lies in another segment: a second plan
        assert after["replans"] == before["replans"] + 1
        assert after["translations"] == before["translations"]

    def test_a_warm_answer_is_the_cold_one(self, segmented):
        queries = [q1(key, day) for key in (2, 5) for day in DAYS[::3]]
        warm = {}
        for query in queries:
            warm[query] = answer(segmented, query)
        for query in queries:
            segmented.reset_caches()
            assert answer(segmented, query) == warm[query], query

    @pytest.mark.parametrize(
        "content",
        [
            # a number in the content: lifted, but written as text
            "{floor}",
            # quotes in the content: the shape pass lifts `" {k} "` as
            # one string, while the parser reads the enclosed `{k}` as a
            # literal the shape pass did not lift
            '" {{{floor}}} "',
        ],
    )
    def test_constructor_text_pins_the_shape(self, archis, content):
        """A literal the shape pass and the translator disagree on pins
        the translation to its own text, and every binding still answers
        exactly as a cold translation does."""
        load_bob_history(archis)
        hits, misses = counters()
        misses_before = misses.value
        texts = [
            f"for $s in {DOC}/salary"
            f"[. > {floor}] return <pay>{content.format(floor=floor)}</pay>"
            for floor in (1, 2, 1)
        ]
        warm = [answer(archis, text) for text in texts]
        assert misses.value - misses_before == 3
        assert warm[0] != warm[1]
        for text, rows in zip(texts, warm):
            archis.reset_caches()
            assert answer(archis, text) == rows
        hits_before = hits.value
        answer(archis, texts[0])
        assert hits.value == hits_before + 1


def test_no_literal_value_is_sql_text(segmented):
    """Every literal of a query reaches the SQL as a slot: none of their
    texts appears in the SQL the query ran as."""
    key, day, later, floor = "7", "1995-04-17", "1995-09-02", "2817.5"
    queries = [
        q1(key, parse_date(day)),
        f'count({DOC}[id="{key}"]/salary)',
        f"count({DOC}/salary[toverlaps(., telement("
        f'xs:date("{day}"), xs:date("{later}"))) and . > {floor}])',
        f'for $e in {DOC} for $n in $e/name where $n = "zq\'x" return $n',
        f"tavg({DOC}[id={key}]/salary)",
        f"for $s in {DOC}/salary[. > {floor}] order by tstart($s) "
        "descending return $s",
    ]
    for query in queries:
        sql = segmented.xquery(query, allow_fallback=False).stats["sql"]
        assert "$0" in sql, query
        for text in (key, day, later, floor, "zq", "1995", "2817"):
            assert text not in sql, (query, text)


def test_the_cache_stays_bounded(archis, monkeypatch):
    monkeypatch.setattr(cache, "CAPACITY", 4)
    load_bob_history(archis)
    _, misses = counters()
    for i in range(10):
        archis.translate(shape(i))
    assert archis.stats()["plan_cache"]["size"] <= 4
    before = misses.value
    archis.translate(shape(0))  # the oldest shape went first
    assert misses.value == before + 1


def test_concurrent_bindings_answer_as_one_thread_does(segmented):
    queries = [q1(key % 10, DAYS[key % 7]) for key in range(12)]
    expected = {query: answer(segmented, query) for query in queries}
    segmented.reset_caches()
    failures = []

    def run(worker):
        try:
            for i in range(20):
                query = queries[(worker + i) % len(queries)]
                if answer(segmented, query) != expected[query]:
                    failures.append(query)
        except Exception as exc:  # pragma: no cover - surfaced below
            failures.append(exc)

    threads = [threading.Thread(target=run, args=(w,)) for w in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not failures, failures
