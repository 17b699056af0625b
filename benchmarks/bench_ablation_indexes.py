"""Ablation: the (segno, tstart) history indexes.

DESIGN.md calls out that ArchIS's snapshot fast path depends on every
index being augmented with segno (paper §6.3).  This ablation drops the
indexes and measures the snapshot query falling back to heap scans.
"""

import pytest

from repro.bench import (
    averaged,
    build_archis,
    format_table,
    run_archis_cold,
)
from repro.bench.queries import q2_snapshot_avg


@pytest.fixture(scope="module")
def engines():
    generator, indexed, _ = build_archis(employees=50, years=17, umin=0.4)
    _, stripped, _ = build_archis(employees=50, years=17, umin=0.4)
    for table_name in stripped.relations["employee"].all_tables():
        table = stripped.db.table(table_name)
        for index_name in list(table.indexes):
            table.drop_index(index_name)
    # warm both engines once so measurements exclude first-call setup
    probe = q2_snapshot_avg(generator.mid_history_date())
    indexed.xquery(probe.xquery, allow_fallback=False)
    stripped.xquery(probe.xquery, allow_fallback=False)
    return generator, indexed, stripped


def test_ablation_table(engines):
    generator, indexed, stripped = engines
    query = q2_snapshot_avg(generator.mid_history_date())
    with_idx = averaged(lambda: run_archis_cold(indexed, query), 3)
    without_idx = averaged(lambda: run_archis_cold(stripped, query), 3)
    print(
        "\n== ablation: snapshot with vs without (segno, tstart) indexes ==\n"
        + format_table(
            ["variant", "ms", "physical reads"],
            [
                ["indexed", f"{with_idx.seconds*1000:.2f}", with_idx.physical_reads],
                ["no indexes", f"{without_idx.seconds*1000:.2f}", without_idx.physical_reads],
            ],
        )
    )
    assert with_idx.physical_reads <= without_idx.physical_reads, (
        "the index should not read more pages than a heap scan"
    )


def test_answers_identical_without_indexes(engines):
    generator, indexed, stripped = engines
    query = q2_snapshot_avg(generator.mid_history_date())
    a = indexed.xquery(query.xquery, allow_fallback=False)
    b = stripped.xquery(query.xquery, allow_fallback=False)
    assert abs(a.rows[0] - b.rows[0]) < 1e-9
