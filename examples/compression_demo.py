"""BlockZIP compression demo (paper Section 8).

Generates a 17-year employee history, freezes segments, compresses the
archive with BlockZIP, and shows that (a) storage shrinks dramatically,
(b) snapshot queries still answer from a handful of decompressed blocks,
and (c) every query returns the same answers as before compression.

Run:  python examples/compression_demo.py
"""

from repro.bench import build_archis, default_queries, format_table
from repro.xmlkit import serialize


def main() -> None:
    generator, archis, _ = build_archis(
        employees=50, years=17, umin=0.4, min_segment_rows=512
    )
    queries = default_queries(generator)
    before_bytes = archis.storage_bytes()
    before_answers = {
        q.key: archis.xquery(q.xquery, allow_fallback=False).rows
        for q in queries
    }

    report = archis.compress_archive()
    print("== BlockZIP compression report ==")
    rows = [
        [info.table, info.rows_compressed, info.blocks]
        for info in report.values()
    ]
    print(format_table(["H-table", "rows compressed", "blocks"], rows))

    after_bytes = archis.storage_bytes()
    print(
        f"\narchive storage: {before_bytes:,} -> {after_bytes:,} bytes "
        f"({after_bytes / before_bytes:.0%})"
    )

    # block-granular access: a snapshot touches a fraction of the blocks
    segments = [s for s, _, _ in archis.segments.archived_segments()]
    info = archis.archive.compressed_tables["employee_salary"]
    one = archis.archive.blocks_touched("employee_salary", segments[:1])
    print(
        f"salary archive: {info.blocks} blocks total; a one-segment "
        f"snapshot decompresses only {one}"
    )

    # answers are unchanged
    def canon(seq):
        return [
            serialize(x) if hasattr(x, "name") else repr(x) for x in seq
        ]

    print("\n== answers before vs after compression ==")
    for query in queries:
        after = archis.xquery(query.xquery, allow_fallback=False).rows
        same = canon(after) == canon(before_answers[query.key])
        print(f"  {query.key}: {'identical' if same else 'DIVERGED!'}")
        assert same


if __name__ == "__main__":
    main()
