"""Fixed-size record stores and Neo4j-style dynamic (chained) records.

Two storage primitives live here:

* :class:`FixedRecordStore` — struct-packed, fixed-size records placed in
  page slots.  A B+Tree resolves record ID -> slot because Hermes cannot
  rely on contiguous ID allocation once records migrate between servers
  (paper Section 4); freed slots are recycled.
* :class:`DynamicStore` — variable-length blobs split across fixed-size
  chained chunks, exactly like Neo4j's dynamic string/array stores; the
  property store keeps its keys and values here.
"""

from __future__ import annotations

import abc
import struct
from typing import Any, Iterator, List, Optional, Tuple

from repro.exceptions import (
    PageError,
    RecordDeletedError,
    RecordNotFoundError,
    StorageError,
)
from repro.storage.btree import BPlusTree
from repro.storage.pages import PagedFile

#: Null pointer in record link fields (chains end here).
NULL_REF = -1

#: Bit 0 of the flags byte that opens every fixed-slot layout.  A freed
#: slot is all zero bytes, so its flag reads clear.
FLAG_IN_USE = 0x1

#: ``(flags, record_id)`` — the prefix every fixed-slot layout starts with.
_HEADER = struct.Struct("<Bq")


class RecordCodec(abc.ABC):
    """Packs one record type to/from its fixed-size byte layout.

    A subclass sets ``FORMAT``; the class gets one precompiled
    :class:`struct.Struct` (``STRUCT``) and its ``record_size`` when it is
    defined, so no record read or write re-parses the format string.
    """

    #: struct format of the record (little-endian, no padding)
    FORMAT: str = ""
    STRUCT: struct.Struct = struct.Struct("")
    record_size: int = 0

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.STRUCT = struct.Struct(cls.FORMAT)
        cls.record_size = cls.STRUCT.size

    @abc.abstractmethod
    def pack(self, record: Any) -> bytes:
        """Record object -> exactly ``record_size`` bytes."""

    @abc.abstractmethod
    def unpack(self, payload: bytes) -> Any:
        """Bytes -> record object."""

    def header(self, payload: bytes) -> Tuple[bool, int]:
        """Cheap peek: ``(in_use, record_id)`` — used to rebuild indexes."""
        flags, record_id = _HEADER.unpack_from(payload)
        return bool(flags & FLAG_IN_USE), record_id


class FixedRecordStore:
    """Slotted fixed-size record storage with a B+Tree ID index."""

    def __init__(
        self,
        codec: RecordCodec,
        paged_file: Optional[PagedFile] = None,
        btree_order: int = 64,
    ):
        self.codec = codec
        self.pages = paged_file or PagedFile()
        self.record_size = codec.record_size
        if self.record_size > self.pages.page_size:
            raise PageError(
                f"record size {self.record_size} exceeds page size "
                f"{self.pages.page_size}"
            )
        self.slots_per_page = self.pages.page_size // self.record_size
        self._index = BPlusTree(order=btree_order)
        self._free_slots: List[int] = []
        self._next_slot = self.pages.num_pages * self.slots_per_page
        if self.pages.num_pages:
            self._rebuild_index()

    # ------------------------------------------------------------------
    def _slot_location(self, slot: int) -> Tuple[int, int]:
        page, slot_in_page = divmod(slot, self.slots_per_page)
        return page, slot_in_page * self.record_size

    def _allocate_slot(self) -> int:
        if self._free_slots:
            return self._free_slots.pop()
        slot = self._next_slot
        self._next_slot += 1
        if slot // self.slots_per_page >= self.pages.num_pages:
            self.pages.allocate_page()
        return slot

    # ------------------------------------------------------------------
    def write(self, record_id: int, record: Any) -> None:
        """Insert or update the record stored under ``record_id``."""
        payload = self.codec.pack(record)
        slot = self._index.get(record_id)
        if slot is None:
            slot = self._allocate_slot()
            self._index.insert(record_id, slot)
        page, offset = self._slot_location(slot)
        self.pages.write(page, offset, payload)

    def read(self, record_id: int) -> Any:
        slot = self._index.get(record_id)
        if slot is None:
            raise RecordNotFoundError(f"record {record_id} not found")
        page, offset = self._slot_location(slot)
        payload = self.pages.read(page, offset, self.record_size)
        if not payload[0] & FLAG_IN_USE:
            raise RecordDeletedError(f"record {record_id} is deleted")
        return self.codec.unpack(payload)

    def delete(self, record_id: int) -> None:
        """Tombstone the record and recycle its slot."""
        slot = self._index.get(record_id)
        if slot is None:
            raise RecordNotFoundError(f"record {record_id} not found")
        page, offset = self._slot_location(slot)
        self.pages.write(page, offset, bytes(self.record_size))
        self._index.delete(record_id)
        self._free_slots.append(slot)

    def __contains__(self, record_id: int) -> bool:
        return record_id in self._index

    def __len__(self) -> int:
        return len(self._index)

    def ids(self) -> Iterator[int]:
        return self._index.keys()

    def records(self) -> Iterator[Any]:
        for record_id in list(self._index.keys()):
            yield self.read(record_id)

    def max_id(self) -> Optional[int]:
        return self._index.max_key()

    # ------------------------------------------------------------------
    def _rebuild_index(self) -> None:
        """Scan pages after reopening: index in-use slots, free the rest."""
        self._index = BPlusTree(order=self._index.order)
        self._free_slots = []
        total_slots = self.pages.num_pages * self.slots_per_page
        self._next_slot = total_slots
        for slot in range(total_slots):
            page, offset = self._slot_location(slot)
            payload = self.pages.read(page, offset, self.record_size)
            in_use, record_id = self.codec.header(payload)
            if in_use:
                if record_id in self._index:
                    raise StorageError(
                        f"duplicate record id {record_id} found during scan"
                    )
                self._index.insert(record_id, slot)
            else:
                self._free_slots.append(slot)

    def save(self, path: str) -> None:
        self.pages.save(path)

    @classmethod
    def load(cls, path: str, codec: RecordCodec) -> "FixedRecordStore":
        return cls(codec, paged_file=PagedFile.load(path))


# ----------------------------------------------------------------------
# Dynamic (chained-chunk) storage
# ----------------------------------------------------------------------
_CHUNK_HEADER = struct.Struct("<BqqH")  # flags, chunk_id, next_chunk, length
_CHUNK_SIZE = 64
_CHUNK_PAYLOAD = _CHUNK_SIZE - _CHUNK_HEADER.size


class _ChunkCodec(RecordCodec):
    FORMAT = f"<BqqH{_CHUNK_PAYLOAD}s"

    def pack(self, record: Tuple[bool, int, int, bytes]) -> bytes:
        in_use, chunk_id, next_chunk, payload = record
        if len(payload) > _CHUNK_PAYLOAD:
            raise StorageError("chunk payload too large")
        flags = FLAG_IN_USE if in_use else 0
        return self.STRUCT.pack(
            flags,
            chunk_id,
            next_chunk,
            len(payload),
            payload.ljust(_CHUNK_PAYLOAD, b"\0"),
        )

    def unpack(self, payload: bytes) -> Tuple[bool, int, int, bytes]:
        flags, chunk_id, next_chunk, length, data = self.STRUCT.unpack(payload)
        return bool(flags & FLAG_IN_USE), chunk_id, next_chunk, data[:length]


class DynamicStore:
    """Variable-length blob storage over chained fixed-size chunks."""

    def __init__(self, paged_file: Optional[PagedFile] = None):
        self._store = FixedRecordStore(_ChunkCodec(), paged_file=paged_file)
        max_existing = self._store.max_id()
        self._next_chunk_id = 0 if max_existing is None else max_existing + 1

    def store(self, blob: bytes) -> int:
        """Write a blob; returns the head chunk ID."""
        chunks = [
            blob[offset : offset + _CHUNK_PAYLOAD]
            for offset in range(0, len(blob), _CHUNK_PAYLOAD)
        ] or [b""]
        head = self._next_chunk_id
        self._next_chunk_id += len(chunks)
        for index, payload in enumerate(chunks):
            chunk_id = head + index
            next_chunk = chunk_id + 1 if index + 1 < len(chunks) else NULL_REF
            self._store.write(chunk_id, (True, chunk_id, next_chunk, payload))
        return head

    def fetch(self, head: int) -> bytes:
        """Read the blob whose chain starts at ``head``."""
        parts: List[bytes] = []
        chunk_id = head
        seen = set()
        while chunk_id != NULL_REF:
            if chunk_id in seen:
                raise StorageError(f"cyclic chunk chain at {chunk_id}")
            seen.add(chunk_id)
            _, _, next_chunk, payload = self._store.read(chunk_id)
            parts.append(payload)
            chunk_id = next_chunk
        return b"".join(parts)

    def free(self, head: int) -> None:
        """Delete the whole chain starting at ``head``."""
        chunk_id = head
        while chunk_id != NULL_REF:
            _, _, next_chunk, _ = self._store.read(chunk_id)
            self._store.delete(chunk_id)
            chunk_id = next_chunk

    @property
    def num_chunks(self) -> int:
        return len(self._store)

    def save(self, path: str) -> None:
        self._store.save(path)

    @classmethod
    def load(cls, path: str) -> "DynamicStore":
        store = cls.__new__(cls)
        store._store = FixedRecordStore.load(path, _ChunkCodec())
        max_existing = store._store.max_id()
        store._next_chunk_id = 0 if max_existing is None else max_existing + 1
        return store
