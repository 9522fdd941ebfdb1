"""The relationship store: fixed-size, doubly-linked relationship records.

Hermes "uses a doubly-linked list record model when keeping track of
relationships.  A node needs to know only the first relationship in the
list since the rest can be retrieved by following the links" (Section 4).
Each record therefore carries *four* link fields: previous/next in the
source endpoint's chain and previous/next in the destination endpoint's
chain.

Cross-partition edges get a **ghost** record on the partition that does
not own the relationship's properties: the ghost preserves the graph
structure (so adjacency lists remain fully local) but holds no property
chain.
"""

from __future__ import annotations

from typing import Any, Iterator, NamedTuple, Optional, Tuple

from repro.exceptions import StorageError
from repro.storage.pages import PagedFile
from repro.storage.records import (
    FLAG_IN_USE,
    NULL_REF,
    FixedRecordStore,
    RecordCodec,
)

_FLAG_GHOST = 0x2


class RelationshipRecord(NamedTuple):
    """One fixed-size relationship record (immutable; ``with_*`` returns a
    copy)."""

    rel_id: int
    src: int
    dst: int
    src_prev: int = NULL_REF
    src_next: int = NULL_REF
    dst_prev: int = NULL_REF
    dst_next: int = NULL_REF
    first_prop: int = NULL_REF
    ghost: bool = False

    def _not_an_endpoint(self, node_id: int) -> StorageError:
        return StorageError(
            f"node {node_id} is not an endpoint of relationship {self.rel_id}"
        )

    def other_endpoint(self, node_id: int) -> int:
        if node_id == self.src:
            return self.dst
        if node_id == self.dst:
            return self.src
        raise self._not_an_endpoint(node_id)

    def next_for(self, node_id: int) -> int:
        """Next relationship in ``node_id``'s chain."""
        if node_id == self.src:
            return self.src_next
        if node_id == self.dst:
            return self.dst_next
        raise self._not_an_endpoint(node_id)

    def prev_for(self, node_id: int) -> int:
        if node_id == self.src:
            return self.src_prev
        if node_id == self.dst:
            return self.dst_prev
        raise self._not_an_endpoint(node_id)

    def with_links_for(
        self, node_id: int, prev_id: int, next_id: int
    ) -> "RelationshipRecord":
        """Both of ``node_id``'s chain pointers replaced at once."""
        if node_id == self.src:
            return RelationshipRecord(
                self.rel_id, self.src, self.dst, prev_id, next_id,
                self.dst_prev, self.dst_next, self.first_prop, self.ghost,
            )
        if node_id == self.dst:
            return RelationshipRecord(
                self.rel_id, self.src, self.dst, self.src_prev, self.src_next,
                prev_id, next_id, self.first_prop, self.ghost,
            )
        raise self._not_an_endpoint(node_id)

    def with_next_for(self, node_id: int, rel_id: int) -> "RelationshipRecord":
        return self.with_links_for(node_id, self.prev_for(node_id), rel_id)

    def with_prev_for(self, node_id: int, rel_id: int) -> "RelationshipRecord":
        return self.with_links_for(node_id, rel_id, self.next_for(node_id))

    def with_first_prop(self, prop_id: int) -> "RelationshipRecord":
        return RelationshipRecord(
            self.rel_id, self.src, self.dst, self.src_prev, self.src_next,
            self.dst_prev, self.dst_next, prop_id, self.ghost,
        )

    def with_ghost(self, ghost: bool) -> "RelationshipRecord":
        return RelationshipRecord(
            self.rel_id, self.src, self.dst, self.src_prev, self.src_next,
            self.dst_prev, self.dst_next, self.first_prop, ghost,
        )


class RelationshipCodec(RecordCodec):
    FORMAT = "<B8q"

    def pack(self, record: RelationshipRecord) -> bytes:
        flags = FLAG_IN_USE
        if record.ghost:
            flags |= _FLAG_GHOST
        return self.STRUCT.pack(
            flags,
            record.rel_id,
            record.src,
            record.dst,
            record.src_prev,
            record.src_next,
            record.dst_prev,
            record.dst_next,
            record.first_prop,
        )

    def decode(self, fields: Tuple[Any, ...]) -> RelationshipRecord:
        flags, rel_id, src, dst, src_prev, src_next, dst_prev, dst_next, prop = fields
        return RelationshipRecord(
            rel_id, src, dst, src_prev, src_next, dst_prev, dst_next, prop,
            bool(flags & _FLAG_GHOST),
        )


class RelationshipStore:
    """Typed facade over the relationship record store."""

    def __init__(self, paged_file: Optional[PagedFile] = None):
        self._store = FixedRecordStore(RelationshipCodec(), paged_file=paged_file)

    def write(self, record: RelationshipRecord) -> None:
        self._store.write(record.rel_id, record)

    def read(self, rel_id: int) -> RelationshipRecord:
        return self._store.read(rel_id)

    def delete(self, rel_id: int) -> None:
        self._store.delete(rel_id)

    def __contains__(self, rel_id: int) -> bool:
        return rel_id in self._store

    def __len__(self) -> int:
        return len(self._store)

    def ids(self) -> Iterator[int]:
        return self._store.ids()

    def records(self) -> Iterator[RelationshipRecord]:
        return self._store.records()

    @property
    def size_bytes(self) -> int:
        return self._store.pages.size_bytes

    def save(self, path: str) -> None:
        self._store.save(path)

    @classmethod
    def load(cls, path: str) -> "RelationshipStore":
        return cls(paged_file=PagedFile.load(path))
