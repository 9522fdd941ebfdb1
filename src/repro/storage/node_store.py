"""The node store: fixed-size node records.

A node record keeps only the bare minimum (paper Section 4: "basic
information on nodes"): its first relationship pointer (the head of the
doubly-linked relationship chain), its first property pointer, its read
popularity weight, and two flags — ``in_use`` and ``available``.  The
*available* flag implements the migration remove step: an unavailable node
is treated by queries as if it were not part of the local vertex set.
"""

from __future__ import annotations

from typing import Any, Iterator, NamedTuple, Optional, Tuple

from repro.storage.pages import PagedFile
from repro.storage.records import (
    FLAG_IN_USE,
    NULL_REF,
    FixedRecordStore,
    RecordCodec,
)

_FLAG_AVAILABLE = 0x2


class NodeRecord(NamedTuple):
    """One fixed-size node record (immutable; ``with_*`` returns a copy)."""

    node_id: int
    first_rel: int = NULL_REF
    first_prop: int = NULL_REF
    weight: float = 1.0
    available: bool = True

    def with_first_rel(self, rel_id: int) -> "NodeRecord":
        return NodeRecord(
            self.node_id, rel_id, self.first_prop, self.weight, self.available
        )

    def with_first_prop(self, prop_id: int) -> "NodeRecord":
        return NodeRecord(
            self.node_id, self.first_rel, prop_id, self.weight, self.available
        )

    def with_weight(self, weight: float) -> "NodeRecord":
        return NodeRecord(
            self.node_id, self.first_rel, self.first_prop, weight, self.available
        )

    def with_available(self, available: bool) -> "NodeRecord":
        return NodeRecord(
            self.node_id, self.first_rel, self.first_prop, self.weight, available
        )


class NodeCodec(RecordCodec):
    FORMAT = "<Bqqqd"

    def pack(self, record: NodeRecord) -> bytes:
        flags = FLAG_IN_USE
        if record.available:
            flags |= _FLAG_AVAILABLE
        return self.STRUCT.pack(
            flags,
            record.node_id,
            record.first_rel,
            record.first_prop,
            record.weight,
        )

    def decode(self, fields: Tuple[Any, ...]) -> NodeRecord:
        flags, node_id, first_rel, first_prop, weight = fields
        return NodeRecord(
            node_id, first_rel, first_prop, weight, bool(flags & _FLAG_AVAILABLE)
        )


class NodeStore:
    """Typed facade over the node record store."""

    def __init__(self, paged_file: Optional[PagedFile] = None):
        self._store = FixedRecordStore(NodeCodec(), paged_file=paged_file)

    def write(self, record: NodeRecord) -> None:
        self._store.write(record.node_id, record)

    def read(self, node_id: int) -> NodeRecord:
        return self._store.read(node_id)

    def is_available(self, node_id: int) -> bool:
        """From the flags byte alone: False for a missing node and for one
        in the migration *unavailable* state."""
        flags = self._store.flags(node_id)
        return flags is not None and bool(flags & _FLAG_AVAILABLE)

    def delete(self, node_id: int) -> None:
        self._store.delete(node_id)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._store

    def __len__(self) -> int:
        return len(self._store)

    def ids(self) -> Iterator[int]:
        return self._store.ids()

    def records(self) -> Iterator[NodeRecord]:
        return self._store.records()

    @property
    def size_bytes(self) -> int:
        return self._store.pages.size_bytes

    def save(self, path: str) -> None:
        self._store.save(path)

    @classmethod
    def load(cls, path: str) -> "NodeStore":
        return cls(paged_file=PagedFile.load(path))
