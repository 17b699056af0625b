"""Slotted pages.

A page is a fixed-size byte buffer laid out the classical way: a header,
a slot directory growing from the front and record payloads growing from the
back.  Deleted slots are tombstoned so record ids (page_no, slot_no) stay
stable, which the heap file and indexes rely on.

Layout (little-endian):

    [0:2)   slot count (including tombstones)
    [2:4)   free-space pointer (offset of the lowest used payload byte)
    [4:..)  slot directory: (offset: u16, length: u16) per slot;
            offset == 0xFFFF marks a tombstone
    ...
    [free .. PAGE_SIZE) record payloads
"""

from __future__ import annotations

import struct
from functools import lru_cache

from repro.errors import PageFullError, StorageError
from repro.storage.record import decode_run

PAGE_SIZE = 4096

_HEADER = struct.Struct("<HH")
_COUNT = struct.Struct("<H")
_SLOT = struct.Struct("<HH")
_TOMBSTONE = 0xFFFF


class SlottedPage:
    """A mutable slotted page over a ``bytearray`` buffer."""

    def __init__(self, data: bytes | bytearray | None = None) -> None:
        if data is None:
            self._buf = bytearray(PAGE_SIZE)
            self._set_header(0, PAGE_SIZE)
        else:
            if len(data) != PAGE_SIZE:
                raise StorageError(
                    f"page buffer must be {PAGE_SIZE} bytes, got {len(data)}"
                )
            self._buf = bytearray(data)

    # -- header helpers -------------------------------------------------

    def _header(self) -> tuple[int, int]:
        slot_count, free_ptr = _HEADER.unpack_from(self._buf, 0)
        if free_ptr == 0:
            # A zero-filled (freshly allocated) page: no record payload can
            # ever end at offset 0, so 0 is safely read as "empty page".
            free_ptr = PAGE_SIZE
        return slot_count, free_ptr

    def _set_header(self, slot_count: int, free_ptr: int) -> None:
        _HEADER.pack_into(self._buf, 0, slot_count, free_ptr)

    def _slot(self, slot_no: int) -> tuple[int, int]:
        return _SLOT.unpack_from(self._buf, _HEADER.size + slot_no * _SLOT.size)

    def _set_slot(self, slot_no: int, offset: int, length: int) -> None:
        _SLOT.pack_into(
            self._buf, _HEADER.size + slot_no * _SLOT.size, offset, length
        )

    # -- public API -------------------------------------------------------

    @property
    def slot_count(self) -> int:
        """Number of slots, including tombstones."""
        return self._header()[0]

    def free_space(self) -> int:
        """Bytes available for one more record (including its slot entry)."""
        slot_count, free_ptr = self._header()
        directory_end = _HEADER.size + slot_count * _SLOT.size
        gap = free_ptr - directory_end
        return max(0, gap - _SLOT.size)

    def insert(self, payload: bytes) -> int:
        """Insert a record payload, returning its slot number."""
        if not payload:
            raise StorageError("cannot insert empty payload")
        if len(payload) > self.free_space():
            raise PageFullError(
                f"payload of {len(payload)} bytes does not fit "
                f"({self.free_space()} free)"
            )
        slot_count, free_ptr = self._header()
        offset = free_ptr - len(payload)
        self._buf[offset:free_ptr] = payload
        self._set_slot(slot_count, offset, len(payload))
        self._set_header(slot_count + 1, offset)
        return slot_count

    def read(self, slot_no: int) -> bytes | None:
        """Return the payload at ``slot_no``, or None for a tombstone."""
        return read_slot(self._buf, slot_no)

    def delete(self, slot_no: int) -> None:
        """Tombstone a slot.  The payload space is not reclaimed in place;
        heap compaction happens when segments are rewritten (paper §6.1)."""
        if slot_no < 0 or slot_no >= self.slot_count:
            raise StorageError(f"slot {slot_no} out of range")
        self._set_slot(slot_no, _TOMBSTONE, 0)

    def update_in_place(self, slot_no: int, payload: bytes) -> bool:
        """Overwrite a record if the new payload is no larger.

        Returns False when the payload does not fit, in which case the
        caller must delete + reinsert elsewhere.
        """
        offset, length = self._slot(slot_no)
        if offset == _TOMBSTONE:
            raise StorageError(f"slot {slot_no} is deleted")
        if len(payload) > length:
            return False
        self._buf[offset : offset + len(payload)] = payload
        self._set_slot(slot_no, offset, len(payload))
        return True

    def records(self) -> list[tuple[int, bytes]]:
        """All live ``(slot_no, payload)`` pairs in slot order."""
        return page_records(self._buf)

    def to_bytes(self) -> bytes:
        """The raw page image."""
        return bytes(self._buf)


# -- reads straight from a page image ------------------------------------
#
# The heap reads pool images (``bytes``) through these functions instead
# of wrapping each one in a mutable ``SlottedPage``, which would copy it.


def read_slot(image: bytes | bytearray, slot_no: int) -> bytes | None:
    """The payload at ``slot_no`` of a page image, or None for a tombstone."""
    (slot_count,) = _COUNT.unpack_from(image, 0)
    if slot_no < 0 or slot_no >= slot_count:
        raise StorageError(f"slot {slot_no} out of range")
    offset, length = _SLOT.unpack_from(
        image, _HEADER.size + slot_no * _SLOT.size
    )
    if offset == _TOMBSTONE:
        return None
    return bytes(image[offset : offset + length])


@lru_cache(maxsize=256)
def _directory(slot_count: int) -> struct.Struct:
    return struct.Struct("<" + "HH" * slot_count)


def page_records(image: bytes | bytearray) -> list[tuple[int, bytes]]:
    """All live ``(slot_no, payload)`` pairs of a page image in slot order.

    The slot directory is unpacked once, not re-read per slot.
    """
    (slot_count,) = _COUNT.unpack_from(image, 0)
    if _HEADER.size + slot_count * _SLOT.size > PAGE_SIZE:
        raise StorageError(f"corrupt page: {slot_count} slots")
    directory = _directory(slot_count).unpack_from(image, _HEADER.size)
    return [
        (slot_no, bytes(image[offset : offset + length]))
        for slot_no, (offset, length) in enumerate(
            zip(directory[0::2], directory[1::2])
        )
        if offset != _TOMBSTONE
    ]


@lru_cache(maxsize=256)
def _packed_directory(slot_count: int, length: int) -> bytes:
    """The slot directory of ``slot_count`` live ``length``-byte records
    appended to an empty page: offsets descend contiguously from the end."""
    return b"".join(
        _SLOT.pack(PAGE_SIZE - (slot_no + 1) * length, length)
        for slot_no in range(slot_count)
    )


def decode_uniform_page(image: bytes | bytearray) -> list[tuple] | None:
    """Decode a page that was only ever appended to, in one run.

    Applies when every slot is live, every record has the same length and
    the payloads sit contiguously below ``PAGE_SIZE`` in slot order — the
    shape ``insert`` alone produces — and the records are all-integer
    (see :func:`~repro.storage.record.decode_run`).  Returns the rows in
    slot order, or ``None`` for any other page.
    """
    slot_count, free_ptr = _HEADER.unpack_from(image, 0)
    if slot_count == 0:
        return None
    _, length = _SLOT.unpack_from(image, _HEADER.size)
    start = PAGE_SIZE - slot_count * length
    if (
        length == 0
        or free_ptr != start
        or image[_HEADER.size : _HEADER.size + slot_count * _SLOT.size]
        != _packed_directory(slot_count, length)
    ):
        return None
    rows = decode_run(image, start, slot_count, length, length)
    if rows is not None:
        rows.reverse()
    return rows
