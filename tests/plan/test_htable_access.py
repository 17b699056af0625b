"""How plain SQL reaches an H-table.

A plain ``FROM employee_salary`` (no ``FOR SYSTEM_TIME``) reads the
table's history: once the archive has more than one segment, a version
live at a freeze is stored in both, and once it is compressed, frozen
rows live in BLOBs, so the heap alone is not the history.  A one-segment
archive keeps the heap scan.

Index selection takes ``BETWEEN`` as the two bounds of a range, so a
one-segment window read with an id range probes ``(segno, id)`` instead
of reading its whole segment; a bound of another kind than the column
matches nothing, as the residual ``BETWEEN`` does.
"""

import pytest

from repro.bench.harness import build_archis
from repro.obs import get_registry
from repro.plan import nodes

ID = 100000
COLUMNS = "SELECT t.id, t.tstart, t.segno FROM employee_salary t"
AS_OF = "SELECT t.id, t.salary FROM employee_salary t FOR SYSTEM_TIME AS OF 7000 "


@pytest.fixture(scope="module", params=[False, True], ids=["plain", "zip"])
def archis(request):
    _, archis, _ = build_archis(
        employees=24, years=8, min_segment_rows=32, compress=request.param
    )
    assert archis.segments.segment_count() > 1
    return archis


def history(archis, table="employee_salary"):
    return list(archis.db.table_function(f"history_{table}")())


def leaves(plan):
    return list(nodes.leaves(plan))


class TestPlainReads:
    def test_each_version_comes_back_once(self, archis):
        rows = archis.sql(COLUMNS).rows
        want = [(row[0], row[-3], row[-1]) for row in history(archis)]
        assert sorted(rows) == sorted(want)
        assert len(set(rows)) == len(rows)

    def test_an_aggregate_counts_each_version_once(self, archis):
        count = archis.sql("SELECT count(*) FROM employee_salary").scalar()
        assert count == len(history(archis))
        keys = archis.sql("SELECT count(*) FROM employee_id k").scalar()
        assert keys == len(history(archis, "employee_id"))

    def test_the_read_goes_through_the_history_function(self, archis):
        archis.sql(COLUMNS)
        [leaf] = leaves(archis.db.last_plan.plan.optimized)
        assert isinstance(leaf, nodes.FunctionScan)
        assert leaf.function == "history_employee_salary"

    def test_one_segment_keeps_the_heap_scan(self):
        _, archis, _ = build_archis(employees=6, years=2)
        assert archis.segments.segment_count() == 1
        rows = archis.sql(COLUMNS).rows
        [leaf] = leaves(archis.db.last_plan.plan.optimized)
        assert isinstance(leaf, nodes.Scan)
        assert len(rows) == len(history(archis))


class TestBetweenProbesTheIndex:
    @pytest.fixture(scope="class")
    def plain(self):
        _, archis, _ = build_archis(employees=24, years=8, min_segment_rows=32)
        return archis

    def scanned(self, archis, where):
        counter = get_registry().counter("sql.rows_scanned")
        before = counter.value
        rows = sorted(archis.sql(AS_OF + where).rows)
        return rows, counter.value - before

    def test_between_scans_what_the_two_comparisons_scan(self, plain):
        rows, scanned = self.scanned(
            plain, f"WHERE t.id BETWEEN {ID + 3} AND {ID + 4}"
        )
        [leaf] = leaves(plain.db.last_plan.plan.optimized)
        assert isinstance(leaf, nodes.IndexScan)
        assert leaf.range_column == "id"
        want, want_scanned = self.scanned(
            plain, f"WHERE t.id >= {ID + 3} AND t.id <= {ID + 4}"
        )
        assert rows == want and len(rows) == 2
        assert scanned == want_scanned
        assert scanned < 20

    @pytest.mark.parametrize(
        "bounds", ["'a' AND 'b'", f"{ID + 3} AND 'b'", f"NULL AND {ID + 4}"]
    )
    def test_a_bound_of_another_kind_matches_nothing(self, plain, bounds):
        self.scanned(plain, f"WHERE t.id BETWEEN {ID + 1} AND {ID + 9}")
        rows, scanned = self.scanned(plain, f"WHERE t.id BETWEEN {bounds}")
        assert rows == [] and scanned == 0
