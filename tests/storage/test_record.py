"""Tests for the binary record codec."""

import pytest

from repro.errors import StorageError
from repro.storage.record import decode_record, encode_record


def roundtrip(values):
    return decode_record(encode_record(values))


def test_ints():
    assert roundtrip((1, -5, 0)) == (1, -5, 0)


def test_large_ints():
    assert roundtrip((2**62, -(2**62))) == (2**62, -(2**62))


def test_floats():
    assert roundtrip((1.5, -2.25)) == (1.5, -2.25)


def test_strings():
    assert roundtrip(("Bob", "Sr Engineer", "")) == ("Bob", "Sr Engineer", "")


def test_unicode():
    assert roundtrip(("部門",)) == ("部門",)


def test_bytes():
    assert roundtrip((b"\x00\x01\xff",)) == (b"\x00\x01\xff",)


def test_nulls():
    assert roundtrip((None, 1, None, "x")) == (None, 1, None, "x")


def test_all_null():
    assert roundtrip((None, None)) == (None, None)


def test_empty_tuple():
    assert roundtrip(()) == ()


def test_bools_become_ints():
    assert roundtrip((True, False)) == (1, 0)


def test_mixed_row_like_htable():
    row = (100022, 40000, 6625, 6990)  # id, salary, tstart, tend
    assert roundtrip(row) == row


def test_unsupported_type_raises():
    with pytest.raises(StorageError):
        encode_record(({"a": 1},))


def test_oversized_string_raises():
    with pytest.raises(StorageError):
        encode_record(("x" * 70000,))


def test_decode_empty_raises():
    with pytest.raises(StorageError):
        decode_record(b"")


def test_decode_corrupt_tag_raises():
    good = encode_record((1,))
    bad = good[:2] + b"z" + good[3:]
    with pytest.raises(StorageError):
        decode_record(bad)


def test_encoded_int_is_the_field_encoding():
    from repro.storage.record import encoded_int

    # the pattern an int field contributes appears verbatim in any
    # record holding that value, so substring search is a sound prefilter
    assert encoded_int(42) in encode_record((1, "x", 42))
    assert encoded_int(43) not in encode_record((1, "x", 42))


# -- malformed payloads: every cut and every pad is a typed error -----------

MIXED = (7, "Sr Engineer", b"\x00\xff", 2.5, None, "部門")


@pytest.mark.parametrize("cut", range(len(encode_record(MIXED))))
def test_every_truncation_of_a_mixed_row_raises(cut):
    with pytest.raises(StorageError):
        decode_record(encode_record(MIXED)[:cut])


@pytest.mark.parametrize("row", [MIXED, (1, 2, 3, 4, 5), (None,), ()])
def test_trailing_byte_raises(row):
    with pytest.raises(StorageError):
        decode_record(encode_record(row) + b"\x00")


def test_bitmap_without_fields_raises():
    with pytest.raises(StorageError):
        decode_record(b"\x03")


def test_truncated_int_raises():
    with pytest.raises(StorageError):
        decode_record(encode_record((1, 2))[:-3])


def test_truncated_trailing_string_raises():
    with pytest.raises(StorageError):
        decode_record(encode_record((1, "abc"))[:-1])


def test_invalid_utf8_raises():
    good = encode_record(("ab",))
    with pytest.raises(StorageError):
        decode_record(good[:-2] + b"\xff\xfe")


def test_blockzip_block_with_truncated_record_raises():
    import struct
    import zlib

    from repro.archis.compression import decompress_block

    payload = encode_record((1, "abc"))[:-1]
    block = zlib.compress(struct.pack("<I", len(payload)) + payload)
    with pytest.raises(StorageError):
        decompress_block(block)


# -- the all-integer fast path and the run decoder -------------------------


def test_all_int_row_at_int64_bounds():
    row = (2**63 - 1, -(2**63), 0, -1, 1)
    assert roundtrip(row) == row


def test_all_int_row_with_null_takes_the_general_path():
    # the NULL makes the payload shorter, so the fixed length check fails
    assert roundtrip((1, None, 3)) == (1, None, 3)


def test_corrupt_tag_in_all_int_row_raises():
    good = encode_record((1, 2, 3))
    bad = good[:11] + b"z" + good[12:]
    with pytest.raises(StorageError):
        decode_record(bad)


def test_decode_run_contiguous_and_prefixed():
    import struct

    from repro.storage.record import decode_run

    rows = [(i, i * 3, 6000 + i, 7000 + i, i % 4) for i in range(20)]
    payloads = [encode_record(row) for row in rows]
    length = len(payloads[0])
    assert decode_run(b"".join(payloads), 0, 20, length, length) == rows
    prefixed = b"".join(struct.pack("<I", length) + p for p in payloads)
    assert decode_run(prefixed, 4, 20, length + 4, length) == rows
    assert decode_run(b"", 0, 0, length, length) == []


def test_decode_run_rejects_other_shapes():
    from repro.storage.record import decode_run

    ints = encode_record((1, 2, 3))
    text = encode_record((1, 2, "x" * 6))
    assert len(ints) == len(text)  # same length, different shape
    assert decode_run(ints + text, 0, 2, len(ints), len(ints)) is None
    assert decode_run(ints, 0, 2, len(ints), len(ints)) is None  # too short
    nulls = encode_record((1, None, 3, 4, 5, 6, 7, 8, 9, 10))
    assert decode_run(nulls, 0, 1, len(nulls), len(nulls)) is None
