"""The XQuery → Translation LRU cache on :class:`ArchIS`.

The cache is keyed on a query's shape (its text with the value literals
blanked), so two bindings of one shape share an entry.  Repeat
translations must hit the cache, clustering/compression changes must
invalidate it (the optimized SQL embeds segment numbers), and the cache
must stay bounded.
"""

import pytest

from repro.archis.system import DEFAULT_TRANSLATION_CACHE_SIZE
from repro.obs import get_registry

from tests.archis.conftest import load_bob_history, make_archis

QUERY = (
    'for $s in doc("employees.xml")/employees/employee/salary '
    "return $s"
)


def shape(i):
    """A query of its own shape per ``i``: the variable name is part of
    the shape, unlike a literal."""
    return (
        f'for $s{i} in doc("employees.xml")/employees/employee'
        f'[id="{i}"]/salary return $s{i}'
    )


def counters():
    registry = get_registry()
    return (
        registry.counter("translator.cache_hits"),
        registry.counter("translator.cache_misses"),
    )


class TestTranslationCache:
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
        stats = archis.stats()["translator"]
        assert stats["cache_size"] >= 1
        assert stats["cache_misses"] >= 1

    def test_freeze_invalidates_cached_translations(self):
        archis = make_archis(umin=0.4, min_segment_rows=2)
        load_bob_history(archis)
        _, misses = counters()
        archis.translate(QUERY)
        before = misses.value
        archis.segments.freeze()  # generation moves on
        archis.translate(QUERY)
        assert misses.value == before + 1

    def test_compression_invalidates_cached_translations(self, archis):
        load_bob_history(archis)
        _, misses = counters()
        archis.translate(QUERY)
        before = misses.value
        archis.compress_archive()
        archis.translate(QUERY)
        assert misses.value == before + 1

    def test_two_bindings_of_one_shape_are_one_miss_and_one_hit(self, archis):
        load_bob_history(archis)
        hits, misses = counters()
        hits_before, misses_before = hits.value, misses.value
        first = archis.translation(
            'for $s in doc("employees.xml")/employees/employee'
            '[id="1001"]/salary[tstart(.) <= xs:date("1996-01-01")] return $s'
        )
        second = archis.translation(
            'for $s in doc("employees.xml")/employees/employee'
            '[id="7"]/salary[tstart(.) <= xs:date("1999-12-31")] return $s'
        )
        assert (misses.value - misses_before, hits.value - hits_before) == (1, 1)
        assert len(archis._translation_cache) == 1
        assert "id = 1001" in first.sql and "DATE '1996-01-01'" in first.sql
        assert "id = 7" in second.sql and "DATE '1999-12-31'" in second.sql

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
    def test_a_literal_read_as_structure_pins_the_entry(self, archis, content):
        """A literal the shape pass and the translator disagree on pins
        the entry to its own text, and every binding still translates
        exactly."""
        from repro.archis.translator import translate

        load_bob_history(archis)
        hits, misses = counters()
        misses_before = misses.value
        texts = [
            'for $s in doc("employees.xml")/employees/employee/salary'
            f"[. > {floor}] return <pay>{content.format(floor=floor)}</pay>"
            for floor in (1, 2, 1)
        ]
        for text in texts:
            assert archis.translation(text).sql == translate(archis, text).sql
        assert misses.value - misses_before == 3
        hits_before = hits.value
        archis.translation(texts[0])
        assert hits.value == hits_before + 1

    def test_cache_is_bounded(self, archis):
        load_bob_history(archis)
        for i in range(DEFAULT_TRANSLATION_CACHE_SIZE + 10):
            archis.translation(shape(i))
        assert (
            len(archis._translation_cache) == DEFAULT_TRANSLATION_CACHE_SIZE
        )

    def test_cache_size_is_configurable(self):
        archis = make_archis(translation_cache_size=3)
        load_bob_history(archis)
        assert archis.stats()["translator"]["cache_capacity"] == 3
        for i in range(10):
            archis.translation(shape(i))
        assert len(archis._translation_cache) == 3

    def test_cache_size_must_be_positive(self):
        with pytest.raises(Exception):
            make_archis(translation_cache_size=0)

    def test_cache_is_thread_safe_under_concurrent_translation(self):
        import threading

        archis = make_archis(translation_cache_size=8)
        load_bob_history(archis)
        failures = []

        def translate(worker_id):
            try:
                for i in range(20):
                    archis.translation(shape((worker_id + i) % 12))
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        threads = [
            threading.Thread(target=translate, args=(w,)) for w in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not failures, failures
        assert len(archis._translation_cache) == 8

    def test_reset_caches_clears_the_cache(self, archis):
        load_bob_history(archis)
        archis.translate(QUERY)
        archis.reset_caches()
        assert len(archis._translation_cache) == 0
