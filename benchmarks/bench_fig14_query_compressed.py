"""Fig. 14: query performance with compression.

Paper: ArchIS keeps its large advantage on compressed data (Q2 67x on
ATLaS / 37x on DB2 vs Tamino; Q5 46x / 26x), and ATLaS's compressed
performance is "very close" to uncompressed, because snapshot queries only
decompress the few BlockZIP blocks covering their segment.
"""

from repro.bench import (
    averaged,
    compare_engines,
    print_comparison,
    run_archis_cold,
)

PAPER_NOTES = {
    "Q2": "paper: 67x (ATLaS) / 37x (DB2) vs Tamino",
    "Q5": "paper: 46x / 26x",
    "Q6": "paper: 6s via one-scan UDA",
}


def test_fig14_table(setup_compressed, queries):
    results = compare_engines(setup_compressed, queries, repeats=2)
    print_comparison(
        "Fig. 14: compressed ArchIS vs native XML DB", results, PAPER_NOTES
    )
    for key in ("Q1", "Q2", "Q5"):
        pair = results[key]
        assert pair["archis"].seconds < pair["native"].seconds, (
            f"{key}: compressed ArchIS should still beat the native store"
        )


def test_compressed_snapshot_near_uncompressed(setup_compressed, setup_atlas, queries):
    """Snapshot cost with compression stays in the same ballpark
    (paper: "the performance with compression is very close to that
    without compression" on ATLaS)."""
    q2 = queries[1]
    compressed = averaged(
        lambda: run_archis_cold(setup_compressed.archis, q2), 3
    )
    plain = averaged(lambda: run_archis_cold(setup_atlas.archis, q2), 3)
    assert compressed.seconds < plain.seconds * 10, (
        f"compressed snapshot {compressed.seconds*1000:.1f}ms vs "
        f"plain {plain.seconds*1000:.1f}ms"
    )


def test_snapshot_decompresses_fraction_of_blocks(setup_compressed):
    """The BlockZIP payoff: a snapshot touches a strict subset of blocks."""
    archis = setup_compressed.archis
    info = archis.archive.compressed_tables["employee_salary"]
    segments = [s for s, _, _ in archis.segments.archived_segments()]
    assert len(segments) >= 2, "need several frozen segments for this check"
    one = archis.archive.blocks_touched("employee_salary", segments[:1])
    total = info.blocks
    assert one < total, (
        f"one segment should need fewer than all {total} blocks, got {one}"
    )


def test_q2_compressed_archis(benchmark, setup_compressed, queries):
    benchmark(lambda: run_archis_cold(setup_compressed.archis, queries[1]))


def test_q5_compressed_archis(benchmark, setup_compressed, queries):
    benchmark(lambda: run_archis_cold(setup_compressed.archis, queries[4]))
