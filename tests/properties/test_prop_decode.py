"""Differential properties for the run decoders of the read path.

Every fast path — the all-integer branch of ``decode_record``,
``decode_uniform_page``, the heap scan built on it and the one-run
BlockZIP block — must agree with decoding record by record, on
histories that mix uniform and irregular pages.
"""

import struct
import zlib

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.archis.compression import compress_records, decompress_block
from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.page import SlottedPage, decode_uniform_page
from repro.storage.pager import Pager
from repro.storage.record import decode_record, encode_record

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
field = st.one_of(
    st.none(),
    INT64,
    st.sampled_from([-(2**63), 2**63 - 1, 0, -1]),
    st.booleans(),
    st.floats(allow_nan=False, width=64),
    st.text(max_size=12),
    st.binary(max_size=12),
)


def stored(row: tuple) -> tuple:
    """What a row decodes to: bools are stored as integers."""
    return tuple(int(v) if isinstance(v, bool) else v for v in row)


def int_row(width: int):
    return st.tuples(*[INT64] * width)


def mixed_row(width: int):
    return st.tuples(*[field] * width)


def shaped_row(width: int):
    # mostly the all-integer H-table shape, so pages and blocks often
    # stay uniform and the run decoders actually run
    return st.one_of(int_row(width), int_row(width), mixed_row(width))


def reference_block(data: bytes) -> list[tuple]:
    raw = zlib.decompress(data)
    rows, offset = [], 0
    while offset < len(raw):
        (length,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        rows.append(decode_record(raw[offset : offset + length]))
        offset += length
    return rows


@seed(31)
@settings(max_examples=300, deadline=None)
@given(st.integers(1, 20).flatmap(mixed_row))
def test_record_roundtrip_wide_rows(row):
    # 1-20 fields: null bitmaps of 1-3 bytes
    assert decode_record(encode_record(row)) == stored(row)


@seed(31)
@settings(max_examples=150, deadline=None)
@given(st.integers(1, 20).flatmap(lambda n: st.lists(int_row(n), max_size=3)))
def test_all_int_rows_decode_like_the_general_loop(rows):
    from repro.storage.record import _decode_fields

    for row in rows:
        payload = encode_record(row)
        assert decode_record(payload) == _decode_fields(payload) == row


def history(width: int, max_ops: int):
    """Ops on one shape of row.  Half the histories are append-and-update
    only over all-integer rows, which keeps pages uniform; the rest mix
    shapes, deletes and shrinking updates."""
    uniform = st.lists(
        st.tuples(
            st.sampled_from(["insert"] * 6 + ["update"]),
            st.integers(0, 10_000),
            int_row(width),
        ),
        max_size=max_ops,
    )
    mixed = st.lists(
        st.tuples(
            st.sampled_from(["insert"] * 6 + ["update", "delete"]),
            st.integers(0, 10_000),
            shaped_row(width),
        ),
        max_size=max_ops,
    )
    return st.one_of(uniform, mixed)


@seed(31)
@settings(max_examples=120, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: history(n, 120)))
def test_uniform_page_decode_matches_per_record(ops):
    page = SlottedPage()
    model: dict[int, tuple] = {}
    for op, pick, row in ops:
        payload = encode_record(row)
        if op == "insert":
            if len(payload) > page.free_space():
                continue
            model[page.insert(payload)] = stored(row)
        elif model:
            slot = sorted(model)[pick % len(model)]
            if op == "delete":
                page.delete(slot)
                del model[slot]
            elif page.update_in_place(slot, payload):
                model[slot] = stored(row)
    per_record = [decode_record(p) for _, p in page.records()]
    assert per_record == [model[s] for s in sorted(model)]
    fast = decode_uniform_page(page.to_bytes())
    assert fast is None or fast == per_record


@seed(31)
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: history(n, 300)))
def test_heap_reads_match_a_model(ops):
    heap = HeapFile(BufferPool(Pager(), capacity=16))
    model: dict[tuple, tuple] = {}
    for op, pick, row in ops:
        if op == "insert":
            model[heap.insert(row)] = stored(row)
        elif model:
            rid = sorted(model)[pick % len(model)]
            if op == "delete":
                heap.delete(rid)
                del model[rid]
            else:
                del model[rid]
                model[heap.update(rid, row)] = stored(row)
    expected = sorted(model.items())
    assert list(heap.scan()) == expected
    rids = [rid for rid, _ in expected]
    assert [heap.read(rid) for rid in rids] == [row for _, row in expected]
    assert heap.read_many(rids[::-1]) == [row for _, row in expected][::-1]


@seed(31)
@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 10).flatmap(
        lambda n: st.one_of(
            st.lists(int_row(n), max_size=200), st.lists(shaped_row(n), max_size=200)
        )
    ),
    st.integers(min_value=200, max_value=4000),
)
def test_decompress_block_matches_per_record_loop(rows, block_size):
    for block in compress_records(rows, block_size=block_size):
        assert decompress_block(block) == reference_block(block.data)


@seed(31)
@settings(max_examples=80, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.lists(int_row(n), max_size=200)))
def test_uniform_block_decodes_in_one_run(rows):
    payloads = [encode_record(row) for row in rows]
    data = zlib.compress(b"".join(struct.pack("<I", len(p)) + p for p in payloads))
    assert decompress_block(data) == reference_block(data) == rows


@seed(31)
@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 10),
    st.integers(0, 10_000),
    st.integers(0, 10_000),
    st.integers(0, 255).filter(lambda b: b not in b"ifsb"),
)
def test_corrupt_tag_in_uniform_page_raises_from_scan(width, which, field_no, bad):
    pool = BufferPool(Pager(), capacity=16)
    heap = HeapFile(pool)
    rows = [tuple(range(i, i + width)) for i in range(200)]
    heap.insert_many(rows)
    page_no = heap.page_numbers[0]
    image = bytearray(pool.get(page_no))
    assert decode_uniform_page(bytes(image)) is not None
    length = len(encode_record(rows[0]))
    records = SlottedPage(bytes(image)).slot_count
    record_start = 4096 - (which % records + 1) * length
    tag_at = record_start + 1 + (width + 7) // 8 + 9 * (field_no % width)
    assert image[tag_at] == ord("i")
    image[tag_at] = bad
    pool.put(page_no, bytes(image))
    with pytest.raises(StorageError):
        list(heap.scan())
