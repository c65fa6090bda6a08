"""NSM slotted pages with fixed-length tuples.

The paper stores tuples consecutively in 4096-byte NSM pages so the
generated code can walk a page as an array (``page->data + t *
tuple_size``).  This module reproduces exactly that layout:

* ``PAGE_SIZE`` bytes per page, the first ``HEADER_SIZE`` of which hold
  the tuple count;
* tuples are fixed length and stored back to back starting right after
  the header, so slot ``t`` lives at ``HEADER_SIZE + t * tuple_size``.
"""

from __future__ import annotations

import struct
from typing import Any, Iterator, Sequence

from repro.errors import PageFullError, StorageError
from repro.storage.schema import Schema

#: Physical page size, as in the paper (Section IV, "pages of 4096 bytes").
PAGE_SIZE = 4096

#: Page header: ``uint32 num_tuples`` plus reserved bytes kept for
#: alignment; generated code never reads past ``num_tuples``.
HEADER_SIZE = 8

_HEADER_CODEC = struct.Struct("<I4x")


class Page:
    """One NSM page holding fixed-length tuples of a single schema."""

    __slots__ = ("schema", "data", "_tuple_size", "_capacity")

    def __init__(self, schema: Schema, data: bytearray | None = None):
        self.schema = schema
        self._tuple_size = schema.tuple_size
        if self._tuple_size > PAGE_SIZE - HEADER_SIZE:
            raise StorageError(
                f"tuple size {self._tuple_size} exceeds page payload"
            )
        self._capacity = (PAGE_SIZE - HEADER_SIZE) // self._tuple_size
        if data is None:
            self.data = bytearray(PAGE_SIZE)
            _HEADER_CODEC.pack_into(self.data, 0, 0)
        else:
            if len(data) != PAGE_SIZE:
                raise StorageError(
                    f"page buffer must be {PAGE_SIZE} bytes, got {len(data)}"
                )
            self.data = data

    # -- header accessors ---------------------------------------------------
    @property
    def num_tuples(self) -> int:
        return _HEADER_CODEC.unpack_from(self.data, 0)[0]

    @num_tuples.setter
    def num_tuples(self, value: int) -> None:
        _HEADER_CODEC.pack_into(self.data, 0, value)

    @property
    def capacity(self) -> int:
        """Maximum number of tuples this page can hold."""
        return self._capacity

    @property
    def tuple_size(self) -> int:
        return self._tuple_size

    @property
    def is_full(self) -> bool:
        return self.num_tuples >= self._capacity

    # -- tuple access ---------------------------------------------------------
    def slot_offset(self, slot: int) -> int:
        """Byte offset of tuple ``slot`` inside the page buffer."""
        return HEADER_SIZE + slot * self._tuple_size

    def insert(self, encoded: bytes) -> int:
        """Append an already-encoded tuple; returns its slot number."""
        if len(encoded) != self._tuple_size:
            raise StorageError(
                f"encoded tuple is {len(encoded)} bytes, expected "
                f"{self._tuple_size}"
            )
        slot = self.num_tuples
        if slot >= self._capacity:
            raise PageFullError("page is full")
        off = self.slot_offset(slot)
        self.data[off:off + self._tuple_size] = encoded
        self.num_tuples = slot + 1
        return slot

    def overwrite(self, slot: int, encoded: bytes) -> None:
        """Replace the tuple in ``slot`` in place (fixed width: it fits)."""
        if not 0 <= slot < self.num_tuples:
            raise StorageError(f"slot {slot} out of range")
        if len(encoded) != self._tuple_size:
            raise StorageError(
                f"encoded tuple is {len(encoded)} bytes, expected "
                f"{self._tuple_size}"
            )
        off = self.slot_offset(slot)
        self.data[off:off + self._tuple_size] = encoded

    def raw(self, slot: int) -> bytes:
        """The encoded bytes of the tuple in ``slot``."""
        if not 0 <= slot < self.num_tuples:
            raise StorageError(f"slot {slot} out of range")
        off = self.slot_offset(slot)
        return bytes(self.data[off:off + self._tuple_size])

    def insert_row(self, row: Sequence[Any]) -> int:
        """Encode and append a Python row; returns its slot number."""
        return self.insert(self.schema.encode(row))

    def read(self, slot: int) -> tuple:
        """Decode the tuple in ``slot`` into Python values."""
        if not 0 <= slot < self.num_tuples:
            raise StorageError(f"slot {slot} out of range")
        return self.schema.decode(self.data, self.slot_offset(slot))

    def read_field(self, slot: int, column: int) -> Any:
        """Decode one field of one tuple (direct offset access)."""
        if not 0 <= slot < self.num_tuples:
            raise StorageError(f"slot {slot} out of range")
        return self.schema.decode_field(
            self.data, self.slot_offset(slot), column
        )

    def rows(self) -> Iterator[tuple]:
        """Decode every tuple on the page, in slot order."""
        decode = self.schema.decode
        offset = HEADER_SIZE
        size = self._tuple_size
        for _ in range(self.num_tuples):
            yield decode(self.data, offset)
            offset += size

    def clear(self) -> None:
        """Logically empty the page (slots become reusable)."""
        self.num_tuples = 0

    def __len__(self) -> int:
        return self.num_tuples

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"Page({self.num_tuples}/{self._capacity} tuples)"
