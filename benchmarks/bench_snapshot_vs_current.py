"""Section 7.1: snapshot on the archive vs query on the current database.

Paper: the archived snapshot query (Q2) runs ~27% slower than the same
aggregate computed directly on the current table — the price of the
segment redundancy.  Shape asserted: the archive snapshot is slower than
the current-table query, but by a small constant factor, not by the size
of the history.
"""

import pytest

from repro.bench import averaged, build_setup, run_archis_cold
from repro.bench.queries import q2_snapshot_avg


@pytest.fixture(scope="module")
def setup():
    return build_setup(employees=50, years=17)


def current_avg(setup):
    setup.archis.reset_caches()
    import time

    start = time.perf_counter()
    setup.archis.db.sql("SELECT avg(e.salary) FROM employee e").scalar()
    return time.perf_counter() - start


def test_snapshot_vs_current(setup):
    # snapshot "as of now" on the archive
    today = setup.archis.db.current_date
    from repro.util.timeutil import format_date

    query = q2_snapshot_avg(format_date(today))
    archive_cost = averaged(
        lambda: run_archis_cold(setup.archis, query), 5
    ).seconds
    current_cost = sum(current_avg(setup) for _ in range(5)) / 5
    slowdown = archive_cost / max(current_cost, 1e-9)
    print(
        f"\n== snapshot-on-archive vs current-table query ==\n"
        f"  current table: {current_cost*1000:.2f} ms\n"
        f"  archive snapshot: {archive_cost*1000:.2f} ms "
        f"({slowdown:.2f}x; paper: ~1.27x)"
    )
    assert slowdown < 25, (
        f"archive snapshot should be within a small factor of the current "
        f"query, got {slowdown:.1f}x"
    )


def test_snapshot_matches_current_average(setup):
    """Correctness: the as-of-now snapshot equals the current table's avg."""
    from repro.util.timeutil import format_date

    today = setup.archis.db.current_date
    query = q2_snapshot_avg(format_date(today))
    snapshot = setup.archis.xquery(query.xquery, allow_fallback=False).rows[0]
    current = setup.archis.db.sql(
        "SELECT avg(e.salary) FROM employee e"
    ).scalar()
    assert abs(snapshot - current) < 1e-6
