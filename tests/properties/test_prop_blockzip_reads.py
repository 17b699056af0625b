"""Property tests: a keyed BlockZIP read equals the full-decode filter.

``CompressedArchive.read_rows(t, segnos, (lo, hi))`` reads the table's
block directory once, admits blocks by bisection over their first keys
and cuts each inflated block to the wanted rows by bisection on its
``(segno, id)`` order.  For random segment sets (compressed, live,
frozen after compression, unknown) and id ranges (ids that straddle a
block boundary, absent ids, ids below the first or above the last, an
empty range) it must return exactly the rows, in order, that inflating
every block and filtering returns; and it must inflate exactly the
blocks the linear first-key rule admits.  Both hold on an archive
compressed in memory and on one saved and reopened.
"""

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.archis import ArchIS
from repro.obs import get_registry

from tests.archis.conftest import make_archis
from tests.archis.test_archive_persistence import build
from tests.properties.test_prop_decode import reference_block

#: all-integer rows (blocks decode lazily), and rows with a string
TABLES = ("employee_salary", "employee_name")
EMPLOYEES = 12  # ids 0..11
UNKNOWN_SEGMENT = 99


def compressed(archis):
    fill(archis)
    archis.archive.block_size = 120  # a few rows per block
    archis.compress_archive()
    # a segment frozen after compression stays in the heap
    churn_more(archis)
    return archis


def fill(archis):
    """Salaries change every round; names, of varying length, every
    third round per employee."""
    emp = archis.db.table("employee")
    for i in range(EMPLOYEES):
        emp.insert((i, f"e{i}", 1000 + i, "T", "d01"))
    for round_no in range(24):
        archis.db.advance_days(30)
        for i in range(EMPLOYEES):
            changes = {"salary": 2000 + round_no * 100 + i}
            if round_no % 3 == i % 3:
                changes["name"] = f"e{i}" + "x" * round_no
            emp.update_where(lambda r, i=i: r["id"] == i, changes)
    archis.apply_pending()


def churn_more(archis):
    emp = archis.db.table("employee")
    for round_no in range(6):
        archis.db.advance_days(30)
        for i in range(EMPLOYEES):
            emp.update_where(
                lambda r, i=i: r["id"] == i, {"salary": 9000 + round_no + i}
            )
    archis.apply_pending()
    archis.segments.freeze()


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    in_memory = compressed(make_archis(umin=0.4, min_segment_rows=8))
    path = str(tmp_path_factory.mktemp("blockzip") / "archive.db")
    saved = compressed(build(path))
    saved.save()
    saved.db.close()
    reopened = ArchIS.open(path)
    yield {"memory": in_memory, "reopened": reopened}
    reopened.db.close()


def blob_rows(archis, table):
    info = archis.archive.compressed_tables[table]
    return sorted(archis.db.table(info.blob_table).rows())


def full_filter(archis, table, segnos, key):
    """Every block inflated record by record, in block order, then
    filtered."""
    schema = archis.db.table(table).schema
    seg_pos = schema.position("segno")
    id_pos = schema.position("id")
    rows = []
    for _, _, _, _, blob_id, _ in blob_rows(archis, table):
        rows.extend(reference_block(archis.db.blobs.get(blob_id)))
    return [
        row
        for row in rows
        if (segnos is None or row[seg_pos] in segnos)
        and (key is None or key[0] <= row[id_pos] <= key[1])
    ]


def admitted_linearly(archis, table, segnos, key):
    """The first-key rule block by block: a block of a segment's range is
    read unless it starts above ``(segno, hi)`` (and so does every later
    one) or the next block starts below ``(segno, lo)``."""
    info = archis.archive.compressed_tables[table]
    ranges = {
        segno: (start, end)
        for segno, start, end, _, _ in archis.db.table(info.segrange_table).rows()
    }
    first = {
        blockno: (segno, startid)
        for blockno, segno, _, _, _, startid in blob_rows(archis, table)
    }
    wanted = set()
    for segno in ranges if segnos is None else segnos:
        if segno not in ranges:
            continue
        start, end = ranges[segno]
        for blockno in range(start, end + 1):
            if key is not None:
                if first[blockno] > (segno, key[1]):
                    break
                following = first.get(blockno + 1)
                if following is not None and following < (segno, key[0]):
                    continue
            wanted.add(blockno)
    return sorted(wanted)


def boundary_ids(archis, table):
    """Ids next to where a block starts, plus ones outside every block."""
    ids = {-5, -1, 0, EMPLOYEES - 1, EMPLOYEES, 100}
    for _, _, _, _, _, startid in blob_rows(archis, table):
        ids.update((startid - 1, startid, startid + 1))
    return sorted(ids)


@st.composite
def reads(draw, archis, table):
    segments = [s for s, _, _ in archis.segments.archived_segments()]
    segments += [archis.segments.live_segno, UNKNOWN_SEGMENT]
    segnos = draw(
        st.none()
        | st.lists(st.sampled_from(segments), min_size=1, max_size=4, unique=True)
    )
    ids = boundary_ids(archis, table)
    key = draw(st.none() | st.tuples(st.sampled_from(ids), st.sampled_from(ids)))
    return segnos, key


@pytest.mark.parametrize("table", TABLES)
@pytest.mark.parametrize("layout", ["memory", "reopened"])
def test_keyed_reads_equal_the_full_decode_filter(archives, layout, table):
    archis = archives[layout]
    archive = archis.archive
    zipped = set(archive.zipped_segments(table))
    frozen = {s for s, _, _ in archis.segments.archived_segments()}
    assert len(zipped) >= 2 and frozen - zipped  # compressed, and frozen after
    info = archive.compressed_tables[table]
    assert info.blocks > 2 * len(zipped)
    decompressed = get_registry().counter("blockzip.blocks_decompressed")

    @seed(37)
    @settings(max_examples=150, deadline=None)
    @given(read=reads(archis, table))
    def check(read):
        segnos, key = read
        before = decompressed.value
        got = archive.read_rows(table, segnos, key)
        inflated = decompressed.value - before
        if segnos is None and key is None:
            assert got == full_filter(archis, table, None, None)
            assert inflated == info.blocks
            return
        assert got == full_filter(archis, table, segnos, key), read
        admitted = admitted_linearly(archis, table, segnos, key)
        assert archive.directory(table).blocks_for(
            sorted(zipped if segnos is None else segnos), key
        ) == admitted
        assert inflated == len(admitted), read

    check()


@pytest.mark.parametrize("layout", ["memory", "reopened"])
def test_unzip_yields_the_blocks_in_range(archives, layout):
    """``unzip_<t>(startblock, endblock)`` yields the rows of the blocks
    numbered ``startblock..endblock`` (an open end when NULL), in block
    order: a bound below 0 or past the last block selects no block there."""
    archis = archives[layout]
    table = "employee_salary"
    unzip = archis.db.table_function(f"unzip_{table}")
    blocks = blob_rows(archis, table)
    bounds = st.none() | st.integers(-len(blocks) - 2, len(blocks) + 2)

    @seed(41)
    @settings(max_examples=60, deadline=None)
    @given(start=bounds, end=bounds)
    def check(start, end):
        expected = []
        for blockno, _, _, _, blob_id, _ in blocks:
            if (start is None or blockno >= start) and (
                end is None or blockno <= end
            ):
                expected.extend(reference_block(archis.db.blobs.get(blob_id)))
        assert list(unzip(start, end)) == expected, (start, end)

    check()
