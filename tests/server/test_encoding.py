"""The colframe1 binary result codec: round trips, sizes, edge shapes."""

import json
import struct

import pytest

from repro.errors import ProtocolError
from repro.server.encoding import (
    CODEC,
    FLAG_COL_DICT,
    FLAG_ZLIB,
    MAGIC,
    TYPE_DATE,
    decode_result,
    encode_result,
)


def round_trip(rows, columns, **kwargs):
    frame = encode_result(rows, columns, **kwargs)
    names, decoded = decode_result(frame)
    assert names == columns
    return frame, decoded


def as_tuples(rows):
    return [tuple(row) for row in rows]


class TestRoundTrip:
    def test_typed_columns(self):
        rows = [
            (1, "Ann", 60000.5, True),
            (2, "Bob", 70000.0, False),
            (3, "Carl", 0.25, True),
        ]
        _, decoded = round_trip(rows, ["id", "name", "salary", "active"])
        assert decoded == rows

    def test_large_and_negative_ints_widen(self):
        rows = [(-(2**40), 2**40), (0, -1), (2**40, 5)]
        _, decoded = round_trip(rows, ["a", "b"])
        assert decoded == rows

    def test_nulls_round_trip_in_every_column_kind(self):
        rows = [
            (None, None, None, None),
            (7, "x", 1.5, True),
            (None, None, None, None),
        ]
        _, decoded = round_trip(rows, ["i", "s", "f", "b"])
        assert decoded == rows

    def test_all_null_column(self):
        rows = [(None,), (None,)]
        _, decoded = round_trip(rows, ["void"])
        assert decoded == rows

    def test_mixed_kind_column_falls_back_to_json(self):
        # a column mixing strings and ints cannot take a typed block;
        # the per-column JSON fallback still round-trips it exactly
        rows = [(1, "x"), (2, 3), (3, [1, {"k": None}])]
        _, decoded = round_trip(rows, ["id", "anything"])
        assert as_tuples(decoded) == [
            (1, "x"),
            (2, 3),
            (3, [1, {"k": None}]),
        ]

    def test_forced_date_tag_round_trips_day_counts(self):
        rows = [(9131,), (9497,)]
        frame = encode_result(rows, ["tstart"], [TYPE_DATE])
        _, decoded = decode_result(frame)
        assert decoded == rows

    def test_empty_result(self):
        _, decoded = round_trip([], ["id", "name"])
        assert decoded == []

    def test_zero_columns(self):
        frame = encode_result([], [])
        names, decoded = decode_result(frame)
        assert names == []
        assert decoded == []

    def test_non_ascii_strings(self):
        rows = [("héllo",), ("日本語",), ("",)]
        _, decoded = round_trip(rows, ["s"])
        assert decoded == rows


class TestDictionaryEncoding:
    def test_repetitive_column_is_dict_encoded_and_smaller(self):
        statuses = ["active", "retired", "on-leave"]
        rows = [(statuses[i % 3],) for i in range(3000)]
        frame, decoded = round_trip(rows, ["status"])
        assert decoded == rows
        # the dict flag is set on the one column (offset: magic+flags,
        # rows u32 + cols u16, name_len u16 + 6-byte name, type+width)
        col_flags = frame[4 + 6 + 2 + len("status") + 2]
        assert col_flags & FLAG_COL_DICT
        plain = sum(len(s) + 1 for (s,) in rows)  # lower bound, no dict
        assert len(frame) < plain

    def test_high_cardinality_column_stays_plain(self):
        rows = [(f"unique-{i}",) for i in range(50)]
        frame, decoded = round_trip(rows, ["s"])
        assert decoded == rows
        col_flags = frame[4 + 6 + 2 + 1 + 2]
        assert not col_flags & FLAG_COL_DICT


class TestCompression:
    def test_compressed_frame_round_trips_and_shrinks(self):
        rows = [(i, "employee", i * 2) for i in range(5000)]
        columns = ["id", "kind", "v"]
        raw = encode_result(rows, columns)
        packed = encode_result(rows, columns, compress=True)
        assert packed[3] & FLAG_ZLIB
        assert len(packed) < len(raw)
        assert decode_result(packed) == decode_result(raw)

    def test_tiny_frames_skip_compression(self):
        frame = encode_result([(1,)], ["id"], compress=True)
        assert not frame[3] & FLAG_ZLIB


class TestSizeVsJson:
    def test_frame_at_least_2x_smaller_than_json_on_100k_rows(self):
        """The size gate: a realistic 100k-row result encodes >= 2x
        smaller than the JSON rows even without zlib (the wire-level
        workload is the benchmark spine's ``serve-mixed``)."""
        rows = [
            (i, f"emp-{i % 997}", 40000 + (i % 50) * 500, i % 2 == 0)
            for i in range(100_000)
        ]
        columns = ["id", "name", "salary", "active"]
        frame = encode_result(rows, columns)
        json_bytes = len(
            json.dumps([list(r) for r in rows], separators=(",", ":")).encode()
        )
        assert len(frame) * 2 <= json_bytes, (len(frame), json_bytes)
        _, decoded = decode_result(frame)
        assert decoded[:3] == rows[:3] and len(decoded) == len(rows)


class TestMalformedFrames:
    def test_bad_magic_rejected(self):
        with pytest.raises(ProtocolError, match="magic"):
            decode_result(b"XXX\x00" + b"\x00" * 16)

    def test_unknown_type_tag_rejected(self):
        frame = bytearray(encode_result([(1,)], ["id"]))
        # corrupt the type tag byte (after name_len u16 + 2-byte name)
        frame[4 + 6 + 2 + 2] = 99
        with pytest.raises(ProtocolError, match="type tag"):
            decode_result(bytes(frame))

    def test_codec_name_is_stable(self):
        # clients check this before decoding; renaming it is a protocol
        # break, not a refactor
        assert CODEC == "colframe1"
        assert MAGIC == b"CF1"

    def test_oversized_int_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="8-byte"):
            encode_result([(1 << 70,)], ["huge"])
