"""Tests for the pager and buffer pool, including IO accounting."""

import pytest

from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.page import PAGE_SIZE
from repro.storage.pager import Pager


class TestPager:
    def test_memory_pager_allocate_read_write(self):
        pager = Pager()
        page_no = pager.allocate()
        pager.write_page(page_no, b"a" * PAGE_SIZE)
        assert pager.read_page(page_no) == b"a" * PAGE_SIZE

    def test_file_pager_persists(self, tmp_path):
        path = str(tmp_path / "data.db")
        with Pager(path) as pager:
            page_no = pager.allocate()
            pager.write_page(page_no, b"z" * PAGE_SIZE)
        with Pager(path) as pager:
            assert pager.page_count == 1
            assert pager.read_page(0) == b"z" * PAGE_SIZE

    def test_io_stats_count_physical_ops(self):
        pager = Pager()
        page_no = pager.allocate()
        pager.read_page(page_no)
        pager.read_page(page_no)
        stats = pager.io_stats()
        assert stats.reads == 2
        assert stats.allocations == 1

    def test_stats_delta(self):
        pager = Pager()
        page_no = pager.allocate()
        before = pager.io_stats()
        pager.read_page(page_no)
        assert pager.io_stats().delta(before).reads == 1

    def test_out_of_range_read_raises(self):
        pager = Pager()
        with pytest.raises(StorageError):
            pager.read_page(0)

    def test_wrong_size_write_raises(self):
        pager = Pager()
        page_no = pager.allocate()
        with pytest.raises(StorageError):
            pager.write_page(page_no, b"short")

    def test_truncate_resets(self):
        pager = Pager()
        pager.allocate()
        pager.truncate()
        assert pager.page_count == 0

    def test_closed_pager_raises(self):
        pager = Pager()
        pager.close()
        with pytest.raises(StorageError):
            pager.allocate()

    def test_size_bytes(self):
        pager = Pager()
        pager.allocate()
        pager.allocate()
        assert pager.size_bytes() == 2 * PAGE_SIZE


class TestBufferPool:
    def test_miss_then_hit(self):
        pager = Pager()
        pool = BufferPool(pager, capacity=4)
        page_no = pool.allocate()
        pool.reset()  # cold
        pool.get(page_no)
        pool.get(page_no)
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1

    def test_miss_costs_physical_read(self):
        pager = Pager()
        pool = BufferPool(pager, capacity=4)
        page_no = pool.allocate()
        pool.reset()
        before = pager.io_stats()
        pool.get(page_no)
        pool.get(page_no)
        assert pager.io_stats().delta(before).reads == 1

    def test_lru_eviction(self):
        pager = Pager()
        pool = BufferPool(pager, capacity=2)
        pages = [pool.allocate() for _ in range(3)]
        pool.reset()
        pool.get(pages[0])
        pool.get(pages[1])
        pool.get(pages[2])  # evicts pages[0]
        before = pager.io_stats()
        pool.get(pages[0])
        assert pager.io_stats().delta(before).reads == 1

    def test_write_through(self):
        pager = Pager()
        pool = BufferPool(pager, capacity=2)
        page_no = pool.allocate()
        pool.put(page_no, b"q" * PAGE_SIZE)
        # Read through a fresh pool: data must already be on "disk".
        other = BufferPool(pager, capacity=2)
        assert other.get(page_no) == b"q" * PAGE_SIZE

    def test_reset_makes_reads_cold(self):
        pager = Pager()
        pool = BufferPool(pager, capacity=4)
        page_no = pool.allocate()
        pool.get(page_no)
        pool.reset()
        pool.reset_stats()
        pool.get(page_no)
        assert pool.stats.misses == 1

    def test_hit_rate(self):
        pager = Pager()
        pool = BufferPool(pager, capacity=4)
        page_no = pool.allocate()
        pool.reset()
        pool.get(page_no)
        pool.get(page_no)
        assert pool.stats.hit_rate == 0.5

    def test_capacity_validation(self):
        with pytest.raises(StorageError):
            BufferPool(Pager(), capacity=0)

    def test_bad_page_image_raises(self):
        pool = BufferPool(Pager(), capacity=2)
        page_no = pool.allocate()
        with pytest.raises(StorageError):
            pool.put(page_no, b"bad")


class TestBufferPoolFrames:
    """Frames are immutable ``bytes`` shared by the cache and the pager."""

    def test_mutating_the_put_buffer_leaves_the_cache_alone(self, tmp_path):
        pager = Pager(str(tmp_path / "frames.db"))
        pool = BufferPool(pager, capacity=2)
        page_no = pool.allocate()
        image = bytearray(b"a" * PAGE_SIZE)
        pool.put(page_no, image)
        image[:4] = b"zzzz"
        assert pool.get(page_no) == b"a" * PAGE_SIZE
        # nor the WAL overlay a fresh pool reads through
        assert BufferPool(pager, capacity=2).get(page_no) == b"a" * PAGE_SIZE
        pager.close()

    def test_a_hit_returns_the_cached_object(self):
        pool = BufferPool(Pager(), capacity=2)
        page_no = pool.allocate()
        image = b"h" * PAGE_SIZE
        pool.put(page_no, image)
        first = pool.get(page_no)
        assert isinstance(first, bytes)
        assert first is image
        assert pool.get(page_no) is first
        assert pool.stats.hits == 2

    def test_a_later_put_does_not_change_an_image_handed_out(self):
        pool = BufferPool(Pager(), capacity=2)
        page_no = pool.allocate()
        pool.put(page_no, b"1" * PAGE_SIZE)
        before = pool.get(page_no)
        pool.put(page_no, bytearray(b"2" * PAGE_SIZE))
        assert before == b"1" * PAGE_SIZE
        assert pool.get(page_no) == b"2" * PAGE_SIZE
