"""Ablation: buffer-pool size and clustering locality.

Segment clustering's IO story (paper §6.1, "records are globally
temporally clustered on segments") shows up as buffer-pool locality: a
snapshot query on a clustered archive touches a small set of pages that
fit a tiny pool, while the unclustered archive scatters its reads.  This
ablation measures cold physical reads for snapshot queries under small
pools.
"""

import pytest

from repro.bench import build_archis, format_table
from repro.bench.queries import q2_snapshot_avg


@pytest.fixture(scope="module")
def engines():
    generator, clustered, _ = build_archis(employees=50, years=17, umin=0.4)
    _, unclustered, _ = build_archis(employees=50, years=17, umin=None)
    return generator, clustered, unclustered


def cold_reads(archis, query, pool_pages):
    archis.db.pool.set_capacity(pool_pages)
    archis.reset_caches()
    before = archis.db.pager.io_stats()
    archis.xquery(query.xquery, allow_fallback=False)
    return archis.db.pager.io_stats().delta(before).reads


def test_ablation_table(engines):
    generator, clustered, unclustered = engines
    query = q2_snapshot_avg(generator.mid_history_date())
    rows = []
    for pool in (4, 16, 256):
        c = cold_reads(clustered, query, pool)
        u = cold_reads(unclustered, query, pool)
        rows.append([pool, c, u])
    print(
        "\n== ablation: snapshot physical reads vs buffer-pool size ==\n"
        + format_table(
            ["pool pages", "clustered reads", "unclustered reads"], rows
        )
        + "\nnote: below the segment's page footprint the (segno, tstart)"
        "\nindex visits the segment's pages in timestamp order and can"
        "\nthrash a tiny LRU pool — the flip side of index-ordered access"
        "\nover id-clustered pages."
    )
    # once the pool holds one segment, clustering reads no more pages
    for pool, c, u in rows:
        if pool >= 16:
            assert c <= u + 2, (
                f"pool={pool}: clustered {c} vs unclustered {u}"
            )


def test_tiny_pool_still_answers_correctly(engines):
    generator, clustered, unclustered = engines
    query = q2_snapshot_avg(generator.mid_history_date())
    clustered.db.pool.set_capacity(2)
    clustered.reset_caches()
    small = clustered.xquery(query.xquery, allow_fallback=False)
    clustered.db.pool.set_capacity(1024)
    big = clustered.xquery(query.xquery, allow_fallback=False)
    assert abs(small.rows[0] - big.rows[0]) < 1e-9
