"""Tests for the XQuery → SQL/XML translator (paper Algorithm 1).

The strongest check is equivalence: for each query the translated SQL/XML
result must match native XQuery evaluation over the published H-views.
"""

import pytest

from repro.errors import UnsupportedQueryError
from repro.xmlkit import serialize
from repro.xquery import make_context, parse_xquery
from repro.xquery.evaluator import evaluate

from tests.archis.conftest import load_bob_history, make_archis


@pytest.fixture(params=["db2", "atlas"])
def loaded(request):
    archis = make_archis(profile=request.param)
    load_bob_history(archis)
    emp = archis.db.table("employee")
    archis.db.set_date("1997-02-01")
    emp.insert((1002, "Ann", 72000, "Sr Engineer", "d01"))
    emp.insert((1003, "Carl", 55000, "Engineer", "d03"))
    archis.db.set_date("1997-06-15")
    archis.apply_pending()
    return archis


def native(archis, query):
    docs = {"employees.xml": archis.publish("employee")}
    ctx = make_context(docs, archis.db.current_date)
    return evaluate(parse_xquery(query), ctx)


def as_texts(seq):
    return sorted(
        serialize(item) if hasattr(item, "name") else str(item) for item in seq
    )


QUERY_PROJECTION = (
    'for $t in doc("employees.xml")/employees/employee[name="Bob"]/title '
    "return $t"
)
QUERY_SNAPSHOT = (
    'for $s in doc("employees.xml")/employees/employee/salary'
    '[tstart(.) <= xs:date("1995-07-01") and tend(.) >= xs:date("1995-07-01")] '
    "return $s"
)
QUERY_SLICING = (
    'for $e in doc("employees.xml")/employees/employee'
    '[toverlaps(., telement(xs:date("1995-01-01"), xs:date("1995-12-31")))] '
    "return $e/name"
)
QUERY_HISTORY_ONE = (
    'for $s in doc("employees.xml")/employees/employee[id="1001"]/salary '
    "return $s"
)
QUERY_COUNT = 'count(doc("employees.xml")/employees/employee/salary)'
QUERY_AVG_SNAPSHOT = (
    'avg(doc("employees.xml")/employees/employee/salary'
    '[tstart(.) <= xs:date("1997-03-01") and tend(.) >= xs:date("1997-03-01")])'
)
QUERY_TAVG = (
    'let $s := doc("employees.xml")/employees/employee/salary '
    "return tavg($s)"
)


class TestTranslationSql:
    def test_projection_sql_shape(self, loaded):
        sql = loaded.translate(QUERY_PROJECTION)
        assert "XMLElement" in sql
        assert "employee_title" in sql
        assert "employee_name" in sql
        # the name test selects each employee once: a subquery on id
        assert ".id IN (SELECT " in sql

    def test_snapshot_gets_segment_restriction(self):
        archis = make_archis(umin=0.4, min_segment_rows=8)
        from tests.archis.test_clustering import churn

        churn(archis)
        assert archis.segments.freeze_count >= 1
        sql = archis.translate(
            'for $s in doc("employees.xml")/employees/employee/salary'
            '[tstart(.) <= xs:date("1995-03-15") and '
            'tend(.) >= xs:date("1995-03-15")] return $s'
        )
        assert "segno" in sql

    def test_unsegmented_has_no_segment_restriction(self):
        archis = make_archis(umin=None)
        load_bob_history(archis)
        sql = archis.translate(QUERY_SNAPSHOT)
        assert "segno" not in sql

    def test_count_translates_to_aggregate(self, loaded):
        sql = loaded.translate(QUERY_COUNT)
        assert sql.lower().startswith("select count(*)")

    def test_untranslatable_raises(self, loaded):
        with pytest.raises(UnsupportedQueryError):
            loaded.translate(
                'for $e in doc("employees.xml")//salary return $e'
            )

    def test_order_by_translates(self, loaded):
        sql = loaded.translate(
            'for $e in doc("employees.xml")/employees/employee '
            "order by string($e/name) return $e/name"
        )
        assert "ORDER BY" in sql

    def test_translation_is_fast(self, loaded):
        import time

        start = time.perf_counter()
        for _ in range(100):
            loaded.translate(QUERY_PROJECTION)
        per_query = (time.perf_counter() - start) / 100
        # paper: < 0.1 ms; allow generous slack for Python
        assert per_query < 0.05


class TestEquivalenceWithNative:
    """Translated SQL/XML results == native evaluation on published views."""

    @pytest.mark.parametrize(
        "query",
        [
            QUERY_PROJECTION,
            QUERY_SNAPSHOT,
            QUERY_SLICING,
            QUERY_HISTORY_ONE,
        ],
        ids=["projection", "snapshot", "slicing", "history-one"],
    )
    def test_element_queries(self, loaded, query):
        translated = loaded.xquery(query, allow_fallback=False).rows
        reference = native(loaded, query)
        assert as_texts(translated) == as_texts(reference)

    def test_count(self, loaded):
        assert loaded.xquery(QUERY_COUNT, allow_fallback=False).rows == native(
            loaded, QUERY_COUNT
        )

    def test_avg_snapshot(self, loaded):
        got = loaded.xquery(QUERY_AVG_SNAPSHOT, allow_fallback=False).rows
        want = native(loaded, QUERY_AVG_SNAPSHOT)
        assert abs(got[0] - want[0]) < 1e-9

    def test_tavg(self, loaded):
        got = loaded.xquery(QUERY_TAVG, allow_fallback=False).rows
        want = native(loaded, QUERY_TAVG)
        assert as_texts(got) == as_texts(want)

    def test_temporal_join_max(self, loaded):
        query = (
            'max(for $e in doc("employees.xml")/employees/employee '
            "for $a in $e/salary for $b in $e/salary "
            "where tstart($b) > tstart($a) return $b - $a)"
        )
        got = loaded.xquery(query, allow_fallback=False).rows
        want = native(loaded, query)
        assert got == want
        assert got[0] == 10000  # Bob: 70000 - 60000

    def test_order_by_equivalent_to_native(self, loaded):
        query = (
            'for $e in doc("employees.xml")/employees/employee '
            "order by string($e/name) return $e/name"
        )
        translated = loaded.xquery(query, allow_fallback=False).rows
        reference = native(loaded, query)
        assert [e.text() for e in translated] == [e.text() for e in reference]
        assert [e.text() for e in translated] == ["Ann", "Bob", "Carl"]

    def test_order_by_descending(self, loaded):
        query = (
            'for $s in doc("employees.xml")/employees/employee[id="1001"]'
            "/salary order by tstart($s) descending return $s"
        )
        out = loaded.xquery(query, allow_fallback=False).rows
        starts = [e.get("tstart") for e in out]
        assert starts == sorted(starts, reverse=True)

    def test_query7_since_translates(self, loaded):
        """Paper QUERY 7 (A since B) is in the translatable subset."""
        query = (
            'for $e in doc("employees.xml")/employees/employee'
            ' let $m:= $e/title[.="Sr Engineer" and tend(.)=current-date()]'
            ' let $d:=$e/deptno[.="d01" and tcontains($m, .)]'
            " where not(empty($d)) and not(empty($m))"
            " return <employee>{$e/id, $e/name}</employee>"
        )
        translated = loaded.xquery(query, allow_fallback=False).rows
        reference = native(loaded, query)
        assert as_texts(translated) == as_texts(reference)
        assert len(translated) == 1
        assert translated[0].first("name").text() == "Ann"

    def test_fallback_answers_untranslatable(self, loaded):
        query = (
            'for $e in doc("employees.xml")/employees/employee '
            "where every $s in $e/salary satisfies $s > 50000 "
            "return $e/name"
        )
        out = loaded.xquery(query, allow_fallback=True).rows
        assert len(out) >= 1

    def test_no_fallback_raises(self, loaded):
        with pytest.raises(UnsupportedQueryError):
            loaded.xquery(
                'for $e in doc("employees.xml")/employees/employee '
                "where every $s in $e/salary satisfies $s > 50000 "
                "return $e/name",
                allow_fallback=False,
            )


class TestEquivalenceUnderStorageVariants:
    """The same query must return identical results on unsegmented,
    segmented and compressed storage (and both profiles)."""

    def make_variants(self):
        from tests.archis.test_clustering import churn

        variants = {}
        for name, kwargs in (
            ("unsegmented", {"umin": None}),
            ("segmented", {"umin": 0.4, "min_segment_rows": 8}),
            ("compressed", {"umin": 0.4, "min_segment_rows": 8}),
            ("atlas", {"profile": "atlas", "umin": 0.4, "min_segment_rows": 8}),
        ):
            archis = make_archis(**{"profile": "db2", **kwargs})
            churn(archis, employees=8, rounds=12)
            archis.apply_pending()
            if name == "compressed":
                archis.compress_archive()
            variants[name] = archis
        return variants

    @pytest.mark.parametrize(
        "query",
        [
            'for $s in doc("employees.xml")/employees/employee/salary'
            '[tstart(.) <= xs:date("1995-06-15") and '
            'tend(.) >= xs:date("1995-06-15")] return $s',
            'count(doc("employees.xml")/employees/employee/salary)',
            'for $s in doc("employees.xml")/employees/employee[id="3"]/salary '
            "return $s",
        ],
        ids=["snapshot", "history-count", "history-one"],
    )
    def test_all_variants_agree(self, query):
        variants = self.make_variants()
        results = {
            name: as_texts(archis.xquery(query, allow_fallback=False).rows)
            for name, archis in variants.items()
        }
        baseline = results.pop("unsegmented")
        for name, got in results.items():
            assert got == baseline, f"{name} diverged"


class TestDistinctCount:
    """count(distinct-values(...)) maps to COUNT(DISTINCT ...): the
    paper's exact Q5 semantics (count employees, not salary versions)."""

    def test_translation_shape(self, loaded):
        sql = loaded.translate(
            'count(distinct-values(doc("employees.xml")/employees/employee'
            '[salary[. > 50000]]/id))'
        )
        assert "count(DISTINCT" in sql

    def test_equivalence_with_native(self, loaded):
        query = (
            'count(distinct-values(doc("employees.xml")/employees/employee'
            '[salary[toverlaps(., telement(xs:date("1995-01-01"), '
            'xs:date("1996-12-31"))) and . > 50000]]/id))'
        )
        got = loaded.xquery(query, allow_fallback=False).rows
        want = native(loaded, query)
        assert got == want

    def test_distinct_deduplicates_multi_version_matches(self, loaded):
        # Bob has two salary versions > 50000: versions count 2, employees 1
        versions = loaded.xquery(
            'count(doc("employees.xml")/employees/employee[name="Bob"]'
            "/salary[. > 50000])",
            allow_fallback=False,
        )
        employees = loaded.xquery(
            'count(distinct-values(doc("employees.xml")/employees/employee'
            '[name="Bob"][salary[. > 50000]]/id))',
            allow_fallback=False,
        )
        assert versions.rows == [2]
        assert employees.rows == [1]
