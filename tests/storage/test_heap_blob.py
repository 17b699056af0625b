"""Tests for heap files and the blob store."""

import pytest

from repro.errors import StorageError
from repro.storage.blob import BlobStore
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.page import PAGE_SIZE
from repro.storage.pager import Pager


@pytest.fixture
def pool():
    return BufferPool(Pager(), capacity=64)


class TestHeapFile:
    def test_insert_read(self, pool):
        heap = HeapFile(pool)
        rid = heap.insert((1, "Bob", 60000))
        assert heap.read(rid) == (1, "Bob", 60000)

    def test_many_inserts_span_pages(self, pool):
        heap = HeapFile(pool)
        rids = [heap.insert((i, "name" * 20, i * 10)) for i in range(500)]
        assert heap.page_count > 1
        assert heap.read(rids[499]) == (499, "name" * 20, 4990)

    def test_scan_returns_all_in_order(self, pool):
        heap = HeapFile(pool)
        for i in range(100):
            heap.insert((i,))
        assert [row[0] for _, row in heap.scan()] == list(range(100))

    def test_delete_removes_from_scan(self, pool):
        heap = HeapFile(pool)
        rid = heap.insert((1,))
        keep = heap.insert((2,))
        heap.delete(rid)
        assert [row for _, row in heap.scan()] == [(2,)]
        assert heap.read(keep) == (2,)
        assert heap.record_count == 1

    def test_read_deleted_raises(self, pool):
        heap = HeapFile(pool)
        rid = heap.insert((1,))
        heap.delete(rid)
        with pytest.raises(StorageError):
            heap.read(rid)

    def test_update_in_place(self, pool):
        heap = HeapFile(pool)
        rid = heap.insert((1, "longer-value"))
        new_rid = heap.update(rid, (1, "short"))
        assert new_rid == rid
        assert heap.read(rid) == (1, "short")

    def test_update_relocates_when_bigger(self, pool):
        heap = HeapFile(pool)
        rid = heap.insert((1, "a"))
        heap.insert((2, "b"))  # take the adjacent space
        new_rid = heap.update(rid, (1, "a" * 200))
        assert new_rid != rid
        assert heap.read(new_rid) == (1, "a" * 200)
        assert heap.record_count == 2

    def test_relocating_update_encodes_the_record_once(self, pool, monkeypatch):
        import repro.storage.heap as heap_module

        heap = HeapFile(pool)
        rid = heap.insert((1, "a"))
        heap.insert((2, "b"))
        calls = []
        encode = heap_module.encode_record

        def counting(values):
            calls.append(values)
            return encode(values)

        monkeypatch.setattr(heap_module, "encode_record", counting)
        assert heap.update(rid, (1, "a" * 200)) != rid
        assert calls == [(1, "a" * 200)]

    def test_delete_many_writes_each_page_once(self, pool):
        heap = HeapFile(pool)
        rids = [heap.insert((i, "x" * 300)) for i in range(40)]
        assert heap.page_count > 2
        victims = rids[::2]
        before = pool.pager.io_stats()
        heap.delete_many(victims)
        writes = pool.pager.io_stats().delta(before).writes
        assert writes == len({page_no for page_no, _ in victims})
        assert [row[0] for _, row in heap.scan()] == list(range(1, 40, 2))
        assert heap.record_count == 20

    def test_compact_keep_drops_rejected_records(self, pool):
        heap = HeapFile(pool)
        for i in range(30):
            heap.insert((i,))
        pairs = heap.compact(keep=lambda row: row[0] % 3 == 0)
        assert [row for _, row in pairs] == [(i,) for i in range(0, 30, 3)]
        assert [heap.read(rid) for rid, _ in pairs] == [row for _, row in pairs]
        assert heap.record_count == 10

    def test_two_heaps_share_pool_but_not_pages(self, pool):
        a = HeapFile(pool, "a")
        b = HeapFile(pool, "b")
        a.insert((1,))
        b.insert((2,))
        assert set(a.page_numbers).isdisjoint(b.page_numbers)

    def test_truncate(self, pool):
        heap = HeapFile(pool)
        for i in range(10):
            heap.insert((i,))
        heap.truncate()
        assert list(heap.scan()) == []
        assert heap.record_count == 0

    def test_size_bytes(self, pool):
        heap = HeapFile(pool)
        heap.insert((1,))
        assert heap.size_bytes() == PAGE_SIZE


class TestBulkPaths:
    """The batched read/write paths the freeze switch rides on."""

    def test_insert_many_matches_sequential_inserts(self, pool):
        one = HeapFile(pool, "one")
        many = HeapFile(pool, "many")
        rows = [(i, "name" * 10, i * 3) for i in range(300)]
        sequential = [one.insert(row) for row in rows]
        bulk = many.insert_many(rows)
        # identical rids (page offsets aside) and identical content
        assert [r[1] for r in bulk] == [r[1] for r in sequential]
        assert [row for _, row in many.scan()] == rows
        assert many.record_count == 300

    def test_insert_many_continues_a_partial_page(self, pool):
        heap = HeapFile(pool)
        heap.insert((0, "x"))
        rids = heap.insert_many([(1, "y"), (2, "z")])
        assert rids[0][0] == heap.page_numbers[0]  # same page as row 0
        assert [row for _, row in heap.scan()] == [(0, "x"), (1, "y"), (2, "z")]

    def test_insert_payloads_round_trips(self, pool):
        from repro.storage.record import encode_record

        heap = HeapFile(pool)
        rows = [(i, f"v{i}") for i in range(50)]
        heap.insert_payloads([encode_record(row) for row in rows])
        assert [row for _, row in heap.scan()] == rows

    def test_read_many_returns_rows_in_rid_order(self, pool):
        heap = HeapFile(pool)
        rows = [(i, "pad" * 30) for i in range(200)]
        rids = [heap.insert(row) for row in rows]
        shuffled = rids[::-2] + rids[::2]  # arbitrary page-hopping order
        want = [rows[rids.index(rid)] for rid in shuffled]
        assert heap.read_many(shuffled) == want

    def test_read_many_raises_on_deleted_record(self, pool):
        heap = HeapFile(pool)
        rid = heap.insert((1,))
        heap.delete(rid)
        with pytest.raises(StorageError):
            heap.read_many([rid])

    def test_read_records_containing_prefilters_without_losing_matches(
        self, pool
    ):
        from repro.storage.record import encoded_int

        heap = HeapFile(pool)
        rids = [heap.insert((i, 999_999 if i % 3 == 0 else i)) for i in range(30)]
        hits = heap.read_records_containing(rids, encoded_int(999_999))
        assert [row for _, row in hits] == [
            (i, 999_999) for i in range(30) if i % 3 == 0
        ]

    def test_prune_empty_pages_keeps_surviving_rids(self, pool):
        heap = HeapFile(pool)
        rows = [(i, "pad" * 40) for i in range(300)]
        rids = [heap.insert(row) for row in rows]
        # empty out every page except the one holding the last record
        survivor = rids[-1]
        for rid in rids[:-1]:
            if rid[0] != survivor[0]:
                heap.delete(rid)
        before = heap.page_count
        dropped = heap.prune_empty_pages()
        assert dropped > 0
        assert heap.page_count == before - dropped
        assert heap.read(survivor) == rows[-1]
        # survivors on the kept page are still scannable
        kept = [row for _, row in heap.scan()]
        assert rows[-1] in kept


class TestBlobStore:
    def test_roundtrip_small(self, pool):
        store = BlobStore(pool)
        blob_id = store.put(b"compressed-bytes")
        assert store.get(blob_id) == b"compressed-bytes"

    def test_roundtrip_multi_page(self, pool):
        store = BlobStore(pool)
        data = bytes(range(256)) * 64  # 16 KiB
        blob_id = store.put(data)
        assert store.get(blob_id) == data

    def test_exact_page_boundary(self, pool):
        store = BlobStore(pool)
        data = b"p" * PAGE_SIZE
        assert store.get(store.put(data)) == data

    def test_empty_blob(self, pool):
        store = BlobStore(pool)
        assert store.get(store.put(b"")) == b""

    def test_distinct_ids(self, pool):
        store = BlobStore(pool)
        a = store.put(b"a")
        b = store.put(b"b")
        assert a != b
        assert store.get(a) == b"a"

    def test_delete(self, pool):
        store = BlobStore(pool)
        blob_id = store.put(b"x")
        store.delete(blob_id)
        assert blob_id not in store
        with pytest.raises(StorageError):
            store.get(blob_id)

    def test_unknown_id_raises(self, pool):
        with pytest.raises(StorageError):
            BlobStore(pool).get(42)

    def test_size_accounting(self, pool):
        store = BlobStore(pool)
        store.put(b"tiny")
        assert store.size_bytes() == PAGE_SIZE
        store.put(b"q" * (PAGE_SIZE + 1))
        assert store.size_bytes() == 3 * PAGE_SIZE

    def test_non_bytes_raises(self, pool):
        with pytest.raises(StorageError):
            BlobStore(pool).put("text")  # type: ignore[arg-type]
