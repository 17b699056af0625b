"""BlockZIP: block-granularity database compression (paper Section 8.1).

Instead of compressing a segment as one stream, BlockZIP emits a sequence
of independently decompressible blocks, each targeting ``block_size``
compressed bytes (paper Algorithm 2: sample the data for a compression
factor, guess how many records fit, compress, and adjust).  Snapshot and
slicing queries then decompress only the blocks whose sid range they touch.

Records are serialized with the storage layer's record codec, length-
prefixed inside the block so decompression is self-describing.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import CompressionError
from repro.obs.metrics import (
    DEFAULT_RATIO_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    get_registry,
)
from repro.storage.record import decode_record, encode_record, int_run

_LEN = struct.Struct("<I")

_BYTES_IN = get_registry().counter("blockzip.bytes_in")
_BYTES_OUT = get_registry().counter("blockzip.bytes_out")
_BLOCKS = get_registry().counter("blockzip.blocks")
_BLOCKS_DECOMPRESSED = get_registry().counter("blockzip.blocks_decompressed")
_BLOCK_BYTES = get_registry().histogram(
    "blockzip.block_bytes", DEFAULT_SIZE_BUCKETS
)
_RATIO = get_registry().histogram(
    "blockzip.compression_ratio", DEFAULT_RATIO_BUCKETS
)

#: The paper uses 4000-byte blocks for its experiments (Section 8.2).
DEFAULT_BLOCK_SIZE = 4000


@dataclass(frozen=True)
class CompressedBlock:
    """One BlockZIP output block.

    ``start_sid``/``end_sid`` are the ordinal positions (0-based) of the
    first and last record inside the whole input stream; the blob table
    stores them so a reader can binary-search for the blocks it needs.
    """

    data: bytes
    start_sid: int
    end_sid: int

    @property
    def record_count(self) -> int:
        return self.end_sid - self.start_sid + 1


def _pack_records(records: Sequence[bytes]) -> bytes:
    return b"".join(_LEN.pack(len(r)) + r for r in records)


def compress_records(
    rows: Iterable[tuple],
    block_size: int = DEFAULT_BLOCK_SIZE,
    level: int = 6,
) -> list[CompressedBlock]:
    """BlockZIP-compress a row stream into ~block_size compressed blocks.

    Follows Algorithm 2's adaptive shape: start from an estimated
    records-per-block, compress, and grow/shrink the estimate from the
    observed compressed size.  Oversized blocks are split by bisection so
    no block exceeds ``2 * block_size`` compressed bytes.
    """
    encoded = [encode_record(row) for row in rows]
    if not encoded:
        return []
    # Sample for an initial compression factor f0 (Algorithm 2 line 3).
    sample = _pack_records(encoded[: min(len(encoded), 64)])
    compressed_sample = zlib.compress(sample, level)
    factor = max(len(sample) / max(len(compressed_sample), 1), 1.0)
    avg_record = max(len(sample) / min(len(encoded), 64), 1.0)
    per_block = max(int(block_size * factor / avg_record), 1)

    blocks: list[CompressedBlock] = []
    position = 0
    while position < len(encoded):
        count = min(per_block, len(encoded) - position)
        chunk = encoded[position : position + count]
        data = zlib.compress(_pack_records(chunk), level)
        # Adjust the estimate from what we observed (lines 10-21).
        if len(data) < block_size and position + count < len(encoded):
            gap = block_size - len(data)
            extra = int(gap * factor / avg_record)
            if extra >= 1:
                count = min(count + extra, len(encoded) - position)
                chunk = encoded[position : position + count]
                data = zlib.compress(_pack_records(chunk), level)
        while len(data) > 2 * block_size and count > 1:
            count = max(count // 2, 1)
            chunk = encoded[position : position + count]
            data = zlib.compress(_pack_records(chunk), level)
        blocks.append(
            CompressedBlock(data, position, position + count - 1)
        )
        observed = len(data) / max(count, 1)
        per_block = max(int(block_size / max(observed, 1.0)), 1)
        position += count
    bytes_in = sum(len(e) for e in encoded)
    bytes_out = sum(len(b.data) for b in blocks)
    _BYTES_IN.inc(bytes_in)
    _BYTES_OUT.inc(bytes_out)
    _BLOCKS.inc(len(blocks))
    for block in blocks:
        _BLOCK_BYTES.observe(len(block.data))
    if bytes_in:
        _RATIO.observe(bytes_out / bytes_in)
    return blocks


def decompress_block(block: CompressedBlock | bytes) -> list[tuple]:
    """Decompress one block back into row tuples."""
    rows = block_rows(block)
    return list(rows) if isinstance(rows, RowRun) else rows


def block_rows(block: CompressedBlock | bytes) -> RowRun | list[tuple]:
    """Decompress one block into a sequence of its rows.  A block of
    equal-length all-integer records — most H-table blocks — comes back
    as a :class:`RowRun`, which decodes a row only when it is read."""
    data = block.data if isinstance(block, CompressedBlock) else block
    try:
        raw = zlib.decompress(data)
    except zlib.error as exc:
        raise CompressionError(f"corrupt BlockZIP block: {exc}") from exc
    _BLOCKS_DECOMPRESSED.inc()
    run = _uniform_run(raw)
    if run is not None:
        return run
    rows = []
    offset = 0
    end = len(raw)
    while offset < end:
        start = offset + _LEN.size
        if start > end:
            raise CompressionError("corrupt BlockZIP block: truncated length")
        (length,) = _LEN.unpack_from(raw, offset)
        offset = start + length
        rows.append(decode_record(raw[start:offset]))
    return rows


class RowRun:
    """The rows of an inflated block of equal-length all-integer records.

    Every record was checked when the run was made (see
    :func:`~repro.storage.record.int_run`), so row ``i`` is one
    ``struct`` unpack at ``i * stride`` and a slice one ``iter_unpack``:
    a bisection over the rows decodes only the rows it probes.
    """

    __slots__ = ("_raw", "_layout", "_stride", "_count")

    def __init__(self, raw: bytes, layout, stride: int, count: int) -> None:
        self._raw = raw
        self._layout = layout
        self._stride = stride
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[tuple]:
        return self._layout.iter_unpack(self._raw)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._count)
            if step != 1:
                raise ValueError("a RowRun slice takes every row")
            if stop <= start:
                return []
            view = memoryview(self._raw)[start * self._stride : stop * self._stride]
            return list(self._layout.iter_unpack(view))
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError("RowRun index out of range")
        return self._layout.unpack_from(self._raw, index * self._stride)


def _uniform_run(raw: bytes) -> RowRun | None:
    """The rows of a block whose length prefixes are all equal and whose
    records are all-integer (see :func:`~repro.storage.record.int_run`),
    else ``None``."""
    if len(raw) < _LEN.size:
        return None
    (length,) = _LEN.unpack_from(raw, 0)
    stride = _LEN.size + length
    count, rest = divmod(len(raw), stride)
    if rest or any(
        raw[k::stride] != raw[k : k + 1] * count for k in range(_LEN.size)
    ):
        return None
    layout = int_run(raw, _LEN.size, count, stride, length)
    return None if layout is None else RowRun(raw, layout, stride, count)


def iter_all_rows(blocks: Iterable[CompressedBlock | bytes]) -> Iterator[tuple]:
    """Decompress a sequence of blocks into a row stream."""
    for block in blocks:
        yield from decompress_block(block)


def compression_ratio(blocks: Sequence[CompressedBlock], raw_bytes: int) -> float:
    """Compressed size over raw size."""
    compressed = sum(len(b.data) for b in blocks)
    return compressed / raw_bytes if raw_bytes else 0.0
