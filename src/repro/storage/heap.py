"""Heap files: unordered collections of records addressed by RID.

A RID is ``(page_no, slot_no)``.  A heap file owns a contiguous run of pages
inside a shared buffer pool/pager.  Page numbers are tracked per heap (heaps
are allocated interleaved in one file), so a heap scan touches exactly its
own pages — this is what makes segment clustering measurable.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Iterator

from repro.errors import PageFullError, StorageError
from repro.storage.buffer import BufferPool
from repro.storage.page import (
    SlottedPage,
    decode_uniform_page,
    page_records,
    read_slot,
)
from repro.storage.record import decode_record, encode_record

Rid = tuple[int, int]


class HeapFile:
    """Append-mostly record heap over a buffer pool.

    A write is one page round trip (fetch, mutate a page copy, put); the
    ``*_many`` calls pay it once per touched page, not per record.
    """

    def __init__(self, pool: BufferPool, name: str = "heap") -> None:
        self._pool = pool
        self._name = name
        self._pages: list[int] = []
        self._live = 0

    @property
    def name(self) -> str:
        return self._name

    @property
    def page_numbers(self) -> list[int]:
        return list(self._pages)

    @property
    def page_count(self) -> int:
        return len(self._pages)

    @property
    def record_count(self) -> int:
        return self._live

    def insert(self, values: tuple) -> Rid:
        """Append a record, returning its RID."""
        return self.insert_payloads([encode_record(values)])[0]

    def insert_many(self, rows: list[tuple]) -> list[Rid]:
        """Append many records, writing each filled page back once.

        Produces exactly the RIDs a sequence of :meth:`insert` calls
        would (append-only, same order) — it only batches the per-row
        pool round-trip (fetch, whole-page serialize, write-through)
        into one per page, which is what makes the freeze switch's
        live-copy cheap enough for the ingest path.
        """
        return self.insert_payloads(
            [encode_record(values) for values in rows]
        )

    def insert_payloads(self, payloads: list[bytes]) -> list[Rid]:
        """Bulk-append pre-encoded record payloads (see :meth:`insert_many`).

        The physical-clone path: maintenance copies a row to another
        segment by splicing the stored payload instead of re-encoding
        the decoded tuple.  Callers must pass payloads produced by
        :func:`~repro.storage.record.encode_record`.
        """
        rids: list[Rid] = []
        page_no: int | None = self._pages[-1] if self._pages else None
        page = SlottedPage(self._pool.get(page_no)) if page_no is not None else None
        dirty = False
        fresh = False
        for payload in payloads:
            while True:
                if page is None:
                    page_no = self._pool.allocate()
                    self._pages.append(page_no)
                    page = SlottedPage(self._pool.get(page_no))
                    dirty = False
                    fresh = True
                try:
                    slot = page.insert(payload)
                except PageFullError:
                    if fresh:
                        raise  # a fresh page always fits sane records
                    if dirty:
                        self._pool.put(page_no, page.to_bytes())
                    page = None
                    continue
                dirty = True
                fresh = False
                self._live += 1
                rids.append((page_no, slot))
                break
        if dirty:
            self._pool.put(page_no, page.to_bytes())
        return rids

    def read(self, rid: Rid) -> tuple:
        """Fetch the record at ``rid``."""
        page_no, slot_no = rid
        payload = read_slot(self._pool.get(page_no), slot_no)
        if payload is None:
            raise StorageError(f"record {rid} is deleted")
        return decode_record(payload)

    def update(self, rid: Rid, values: tuple) -> Rid:
        """Rewrite the record at ``rid``; may relocate it.

        Returns the (possibly new) RID.  Callers maintaining indexes must
        re-key when the RID changes.
        """
        page_no, slot_no = rid
        payload = encode_record(values)
        page = SlottedPage(self._pool.get(page_no))
        if page.update_in_place(slot_no, payload):
            self._pool.put(page_no, page.to_bytes())
            return rid
        page.delete(slot_no)
        self._pool.put(page_no, page.to_bytes())
        self._live -= 1
        return self.insert_payloads([payload])[0]

    def delete(self, rid: Rid) -> None:
        """Tombstone the record at ``rid``."""
        self.delete_many([rid])

    def delete_many(self, rids: list[Rid]) -> None:
        """Tombstone distinct records, writing each touched page once."""
        pages: dict[int, SlottedPage] = {}
        for page_no, slot_no in rids:
            page = pages.get(page_no)
            if page is None:
                page = pages[page_no] = SlottedPage(self._pool.get(page_no))
            page.delete(slot_no)
        for page_no, page in pages.items():
            self._pool.put(page_no, page.to_bytes())
        self._live -= len(rids)

    def read_many(self, rids: list[Rid]) -> list[tuple]:
        """Fetch many records, fetching each touched page only once.

        Row-at-a-time :meth:`read` pays a pool fetch (an LRU lookup under
        the pool lock) plus page-header parsing per record; an index range
        scan in key order revisits the same pages in arbitrary order and
        multiplies that cost.  Grouping by page keeps bulk reads linear
        in pages touched, not records read.  Results come back in
        ``rids`` order.
        """
        images: dict[int, bytes] = {}
        out = []
        for rid in rids:
            page_no, slot_no = rid
            image = images.get(page_no)
            if image is None:
                image = images[page_no] = self._pool.get(page_no)
            payload = read_slot(image, slot_no)
            if payload is None:
                raise StorageError(f"record {rid} is deleted")
            out.append(decode_record(payload))
        return out

    def read_records_containing(
        self, rids: list[Rid], pattern: bytes
    ) -> list[tuple[bytes, tuple]]:
        """Decode only the records whose payload contains ``pattern``.

        Byte-level prefilter over a bulk read (see
        :func:`~repro.storage.record.encoded_int`): records whose raw
        payload cannot contain the searched field value are skipped
        before any decoding.  Conservative — callers must re-check the
        decoded field.  Returns matching ``(payload, row)`` pairs in
        ``rids`` order; the raw payload rides along so physical clones
        can splice it instead of re-encoding.
        """
        images: dict[int, bytes] = {}
        out = []
        for rid in rids:
            page_no, slot_no = rid
            image = images.get(page_no)
            if image is None:
                image = images[page_no] = self._pool.get(page_no)
            payload = read_slot(image, slot_no)
            if payload is None:
                raise StorageError(f"record {rid} is deleted")
            if pattern in payload:
                out.append((payload, decode_record(payload)))
        return out

    def scan(self) -> Iterator[tuple[Rid, tuple]]:
        """Iterate live records in page order.

        A page only ever appended to decodes in one run
        (:func:`~repro.storage.page.decode_uniform_page`); any other page
        decodes record by record.
        """
        for page_no in self._pages:
            image = self._pool.get(page_no)
            rows = decode_uniform_page(image)
            if rows is not None:
                yield from zip(zip(repeat(page_no), range(len(rows))), rows)
                continue
            for slot_no, payload in page_records(image):
                yield (page_no, slot_no), decode_record(payload)

    def adopt_pages(self, pages: list[int]) -> None:
        """Attach existing pages (catalog restore) and recount records."""
        self._pages = list(pages)
        self._live = sum(1 for _ in self.scan())

    def compact(self, keep: Callable | None = None) -> list[tuple[Rid, tuple]]:
        """Rewrite live records densely into fresh pages.

        ``keep`` drops the records it rejects, unwritten.  Returns the
        surviving ``(rid, record)`` pairs in their new storage order.
        RIDs change, so callers owning indexes must rebuild them (see
        ``Table.compact``).  Old pages are released from this heap's page
        list (the shared pager file is append-only; released pages model
        reclaimed space).
        """
        rows = [r for _, r in self.scan() if keep is None or keep(r)]
        self._pages.clear()
        self._live = 0
        return list(zip(self.insert_many(rows), rows))

    def prune_empty_pages(self) -> int:
        """Drop pages with no live records from this heap's page list.

        Surviving records keep their RIDs (nothing is rewritten), so
        callers' indexes stay valid — unlike :meth:`compact`.  Costs one
        page-header walk instead of a full decode/re-encode pass; the
        background segment rewrite relies on this, because its deletes
        empty whole pages (the frozen segment's rows were clustered) and
        a full compact would stall concurrent appliers for O(heap).

        Returns the number of pages released.
        """
        kept = []
        for page_no in self._pages:
            if page_records(self._pool.get(page_no)):
                kept.append(page_no)
        dropped = len(self._pages) - len(kept)
        self._pages = kept
        return dropped

    def truncate(self) -> None:
        """Forget every record.  Pages are abandoned, not reclaimed; the
        database compacts by rebuilding files, as the paper's segment
        rewrite does."""
        for page_no in self._pages:
            page = SlottedPage(self._pool.get(page_no))
            for slot_no, _ in page.records():
                page.delete(slot_no)
            self._pool.put(page_no, page.to_bytes())
        self._pages.clear()
        self._live = 0

    def size_bytes(self) -> int:
        """Bytes occupied by this heap's pages."""
        from repro.storage.page import PAGE_SIZE

        return len(self._pages) * PAGE_SIZE
