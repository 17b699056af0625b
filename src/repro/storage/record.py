"""Binary record codec.

Rows are serialized into a compact, self-describing binary format so that
heap pages hold real bytes: storage-size experiments (paper Figs. 7, 11, 13)
measure actual on-disk footprints, not Python object counts.

Supported field types:

``i``  64-bit signed integer (also used for DATE as days since epoch)
``f``  64-bit float
``s``  UTF-8 string, 2-byte length prefix
``b``  raw bytes, 4-byte length prefix
``n``  NULL (encoded in the null bitmap, no payload)

A payload is exactly ``count, bitmap, fields``: :func:`decode_record`
raises :class:`~repro.errors.StorageError` on a truncated field, an
unknown tag or a byte after the last field, so a cut or padded payload
never decodes to a plausible row.

Most H-table rows are NULL-free and all-integer (``id, value, tstart,
tend, segno``).  Such a record has the fixed length ``1 + ceil(n/8) +
9n`` with a zero bitmap and an ``i`` tag every 9 bytes, so
:func:`decode_record` recognises it with two slice comparisons and
unpacks it with one precompiled :class:`struct.Struct`.
:func:`decode_run` does the same for a whole run of equal-length
records (a page written append-only, a BlockZIP block) in one
``struct`` call.  Any other payload takes the field-by-field loop.
"""

from __future__ import annotations

import struct
from functools import lru_cache

from repro.errors import StorageError

_INT = struct.Struct("<q")
_FLOAT = struct.Struct("<d")
_SHORT = struct.Struct("<H")
_LONG = struct.Struct("<I")

#: tag byte -> codec: fixed-width fields, then length-prefixed ones
_FIXED = {ord("i"): _INT, ord("f"): _FLOAT}
_PREFIXED = {ord("s"): _SHORT, ord("b"): _LONG}
_STR_TAG = ord("s")


def encode_record(values: tuple) -> bytes:
    """Serialize a tuple of Python values into record bytes.

    The layout is: field count (1 byte), null bitmap (ceil(n/8) bytes),
    per-field type tag + payload.
    """
    count = len(values)
    if count > 255:
        raise StorageError(f"record too wide: {count} fields")
    bitmap = bytearray((count + 7) // 8)
    parts: list[bytes] = []
    for position, value in enumerate(values):
        if value is None:
            bitmap[position // 8] |= 1 << (position % 8)
            continue
        if isinstance(value, bool):
            # bools are stored as integers; keep them out of the float path
            parts.append(b"i" + _INT.pack(int(value)))
        elif isinstance(value, int):
            parts.append(b"i" + _INT.pack(value))
        elif isinstance(value, float):
            parts.append(b"f" + _FLOAT.pack(value))
        elif isinstance(value, str):
            raw = value.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise StorageError("string field exceeds 65535 bytes")
            parts.append(b"s" + _SHORT.pack(len(raw)) + raw)
        elif isinstance(value, (bytes, bytearray)):
            raw = bytes(value)
            parts.append(b"b" + _LONG.pack(len(raw)) + raw)
        else:
            raise StorageError(
                f"unsupported field type: {type(value).__name__}"
            )
    return bytes([count]) + bytes(bitmap) + b"".join(parts)


def encoded_int(value: int) -> bytes:
    """The exact bytes an integer field contributes to a record payload.

    A payload that does not *contain* this pattern cannot hold ``value``
    in any integer field, so substring search (C speed) works as a
    conservative prefilter before :func:`decode_record` — callers must
    still re-check the decoded field, since the pattern can also appear
    inside a different field's bytes.
    """
    return b"i" + _INT.pack(value)


@lru_cache(maxsize=512)
def _int_struct(count: int, gap: int = 0) -> struct.Struct:
    """Unpacks the all-integer record of ``count`` fields that follows
    ``gap`` skipped bytes, skipping its count byte, bitmap and tags."""
    header = 1 + (count + 7) // 8
    return struct.Struct("<" + "x" * (gap + header) + "xq" * count)


def _int_layout(count: int) -> tuple:
    """``(length, header, zero bitmap, tags, struct)`` of the all-integer
    record with ``count`` fields."""
    header = 1 + (count + 7) // 8
    return (
        header + 9 * count,
        header,
        bytes(header - 1),
        b"i" * count,
        _int_struct(count),
    )


_INT_LAYOUTS = tuple(_int_layout(count) for count in range(256))


def decode_record(data: bytes) -> tuple:
    """Deserialize record bytes produced by :func:`encode_record`."""
    if not data:
        raise StorageError("empty record payload")
    length, header, zeros, tags, layout = _INT_LAYOUTS[data[0]]
    if (
        len(data) == length
        and data[header::9] == tags
        and data[1:header] == zeros
    ):
        return layout.unpack(data)
    return _decode_fields(data)


def _truncated(position: int) -> StorageError:
    return StorageError(f"corrupt record: field {position} is truncated")


def _decode_fields(data: bytes) -> tuple:
    """Field-by-field decode of any payload the all-integer check rejects."""
    end = len(data)
    count = data[0]
    offset = 1 + (count + 7) // 8
    if offset > end:
        raise StorageError("corrupt record: truncated null bitmap")
    bitmap = data[1:offset]
    values: list[object] = []
    for position in range(count):
        if bitmap[position // 8] & (1 << (position % 8)):
            values.append(None)
            continue
        if offset >= end:
            raise _truncated(position)
        tag = data[offset]
        codec = _FIXED.get(tag)
        if codec is not None:
            start, offset = offset + 1, offset + 1 + codec.size
            if offset > end:
                raise _truncated(position)
            (value,) = codec.unpack_from(data, start)
        else:
            codec = _PREFIXED.get(tag)
            if codec is None:
                raise StorageError(f"corrupt record: unknown tag {bytes([tag])!r}")
            start = offset + 1 + codec.size
            if start > end:
                raise _truncated(position)
            (length,) = codec.unpack_from(data, offset + 1)
            offset = start + length
            if offset > end:
                raise _truncated(position)
            value = data[start:offset]
            if tag == _STR_TAG:
                try:
                    value = value.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise StorageError(f"corrupt record: {exc}") from exc
        values.append(value)
    if offset != end:
        raise StorageError(
            f"corrupt record: {end - offset} bytes after the last field"
        )
    return tuple(values)


def int_run(
    data: bytes, start: int, count: int, stride: int, length: int
) -> struct.Struct | None:
    """The ``struct`` that unpacks one record of an all-integer run.

    Record ``i`` is the ``length`` bytes at ``start + i * stride``; the
    ``stride - length`` bytes before each record (a length prefix, say)
    are skipped, so the struct unpacks from ``start - (stride - length)
    + i * stride``.  Every record of the run is checked first: ``None``
    when any is not a NULL-free all-integer record of exactly
    ``length`` bytes — the caller then decodes record by record.
    """
    gap = stride - length
    low = start - gap
    high = low + count * stride
    if count <= 0 or length <= 0 or gap < 0 or low < 0 or high > len(data):
        return None
    fields = data[start]
    size, header, _, _, _ = _INT_LAYOUTS[fields]
    if size != length or data[start:high:stride] != bytes((fields,)) * count:
        return None
    zeros = bytes(count)
    for position in range(1, header):
        if data[start + position : high : stride] != zeros:
            return None
    tags = b"i" * count
    for position in range(header, length, 9):
        if data[start + position : high : stride] != tags:
            return None
    return _int_struct(fields, gap)


def decode_run(
    data: bytes, start: int, count: int, stride: int, length: int
) -> list[tuple] | None:
    """Decode ``count`` all-integer records in one ``struct`` call.

    The records are laid out as :func:`int_run` describes.  Returns the
    rows in address order, or ``None`` when any record of the run is not
    a NULL-free all-integer record of exactly ``length`` bytes.
    """
    if count <= 0:
        return []
    layout = int_run(data, start, count, stride, length)
    if layout is None:
        return None
    low = start - (stride - length)
    return list(layout.iter_unpack(memoryview(data)[low : low + count * stride]))
