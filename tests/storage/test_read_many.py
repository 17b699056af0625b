"""Page-at-a-time reads: ``HeapFile.read_many`` and ``Table.rows``.

``read_many`` unpacks the wanted slots of an append-only all-integer
page straight from its image once the page contributes a second rid,
and reads any other page record by record; either way it must answer
exactly what a ``read`` per rid does.
"""

import random

import pytest

from repro.errors import StorageError
from repro.rdb import ColumnType, Database, txcontext
from repro.storage import heap as heap_module
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.pager import Pager
from repro.util.timeutil import FOREVER


@pytest.fixture
def pool():
    return BufferPool(Pager(), capacity=64)


def int_rows(count):
    return [(i, i * 7, 1000 + i, 2000 + i, i % 3) for i in range(count)]


def mixed_rows(count):
    return [
        (i, None if i % 4 == 0 else f"name{i}", None if i % 5 == 0 else i * 10)
        for i in range(count)
    ]


def per_rid(heap, rids):
    return [heap.read(rid) for rid in rids]


def orders(rids, seed):
    """Key-order-like visits: shuffled, reversed, every third, and
    one rid per page."""
    rng = random.Random(seed)
    shuffled = list(rids)
    rng.shuffle(shuffled)
    one_per_page = list({rid[0]: rid for rid in rids}.values())
    return [shuffled, rids[::-1], rids[::3], one_per_page, rids[:1], []]


class TestReadManyEqualsReadPerRid:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_uniform_integer_pages(self, pool, seed):
        heap = HeapFile(pool)
        rids = heap.insert_many(int_rows(400))
        assert heap.page_count > 3
        for rids_ in orders(rids, seed):
            assert heap.read_many(rids_) == per_rid(heap, rids_)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_strings_and_nulls(self, pool, seed):
        heap = HeapFile(pool)
        rids = heap.insert_many(mixed_rows(300))
        for rids_ in orders(rids, seed):
            assert heap.read_many(rids_) == per_rid(heap, rids_)

    def test_equal_length_records_that_are_not_all_integer(self, pool):
        # a float field is as long as an integer one: the page's records
        # all have one length, yet it must not be unpacked as integers
        heap = HeapFile(pool)
        rids = heap.insert_many(
            [(i, float(i) if i == 5 else i, i) for i in range(20)]
        )
        assert heap.read_many(rids[::-1]) == per_rid(heap, rids[::-1])
        assert heap.read_many(rids)[5] == (5, 5.0, 5)

    def test_tombstoned_page(self, pool):
        heap = HeapFile(pool)
        rids = heap.insert_many(int_rows(200))
        heap.delete_many(rids[1:40:2])
        live = [rid for rid in rids if rid not in set(rids[1:40:2])]
        for rids_ in orders(live, 4):
            assert heap.read_many(rids_) == per_rid(heap, rids_)

    def test_shrunk_update_page(self, pool):
        heap = HeapFile(pool)
        rids = heap.insert_many(int_rows(200))
        # a NULL shortens the payload: the row is rewritten in place
        assert heap.update(rids[3], (3, None, 1003, 2003, 0)) == rids[3]
        for rids_ in orders(rids, 5):
            assert heap.read_many(rids_) == per_rid(heap, rids_)
        assert heap.read_many(rids[:5])[3] == (3, None, 1003, 2003, 0)

    def test_repeated_rids(self, pool):
        heap = HeapFile(pool)
        rids = heap.insert_many(int_rows(50))
        wanted = [rids[4], rids[9], rids[4]]
        assert heap.read_many(wanted) == per_rid(heap, wanted)

    def test_uniform_page_is_unpacked_after_its_first_rid(
        self, pool, monkeypatch
    ):
        heap = HeapFile(pool)
        rids = heap.insert_many(int_rows(40))
        assert heap.page_count == 1
        expected = per_rid(heap, rids[::2])
        calls = []
        real = heap_module.decode_record
        monkeypatch.setattr(
            heap_module, "decode_record",
            lambda payload: calls.append(payload) or real(payload),
        )
        assert heap.read_many(rids[::2]) == expected
        assert len(calls) == 1  # the first rid, read before the check
        heap.read_many(rids[:1])  # a single-rid page is decoded alone
        assert len(calls) == 2


class TestReadManyRaises:
    @pytest.mark.parametrize("others", [0, 3])
    def test_deleted_slot(self, pool, others):
        heap = HeapFile(pool)
        rids = heap.insert_many(int_rows(30))
        heap.delete(rids[7])
        with pytest.raises(StorageError, match="deleted"):
            heap.read_many(rids[:others] + [rids[7]])

    @pytest.mark.parametrize("others", [0, 3])
    def test_out_of_range_slot(self, pool, others):
        heap = HeapFile(pool)
        rids = heap.insert_many(int_rows(30))
        page_no = rids[0][0]
        with pytest.raises(StorageError, match="out of range"):
            heap.read_many(rids[:others] + [(page_no, 30)])
        with pytest.raises(StorageError, match="out of range"):
            heap.read_many(rids[:others] + [(page_no, -1)])


class TestWholeTableReads:
    @pytest.fixture
    def table(self):
        db = Database()
        table = db.create_table(
            "h",
            [
                ("id", ColumnType.INT),
                ("v", ColumnType.VARCHAR),
                ("tstart", ColumnType.INT),
                ("tend", ColumnType.INT),
            ],
        )
        rows = [
            (i, None if i % 6 == 0 else f"v{i}", 10 * i, 10 * i + 15)
            for i in range(300)
        ]
        rows += [(i, "open", 10 * i, FOREVER) for i in range(300, 320)]
        rids = table.insert_many(rows)
        table.delete_many(rids[50:60])
        return table

    def test_heap_rows_equal_scan(self, pool):
        heap = HeapFile(pool)
        rids = heap.insert_many(int_rows(150) + mixed_rows(150))
        heap.delete_many(rids[10:20])
        assert heap.rows() == [row for _, row in heap.scan()]

    @pytest.mark.parametrize("day", [None, 5, 1500, 3150])
    def test_table_rows_equal_scan(self, table, day):
        with txcontext.reading_as_of(day):
            expected = [row for _, row in table.scan()]
            assert list(table.rows()) == expected
        if day is not None:  # the pinned day hides later versions
            assert len(expected) < table.row_count
