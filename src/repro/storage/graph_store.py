"""GraphStore: the per-server storage engine facade (paper Section 4).

One ``GraphStore`` is the local database of one Hermes server.  It owns a
node store, a relationship store and a property store, and maintains:

* the doubly-linked relationship chains of every *local* node — a
  relationship record links into the chain of each endpoint that is
  hosted here; pointers for remote endpoints stay NULL;
* **ghost** relationship records for cross-partition edges, so that the
  adjacency list of a local node is recovered without any network I/O
  ("complete locality in finding the adjacency list of a graph node");
* property chains for nodes and (non-ghost) relationships;
* the node *available* flag used by the migration remove step;
* striped, monotonically increasing ID allocation for relationships and
  properties so no two servers ever mint the same ID.

Record ownership convention for cross-partition relationships: the
partition hosting the relationship's ``src`` endpoint holds the primary
(property-bearing) record; the other side holds the ghost.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.exceptions import StorageError, VertexUnavailableError
from repro.storage.ids import IdAllocator
from repro.storage.node_store import NodeRecord, NodeStore
from repro.storage.property_store import PropertyStore
from repro.storage.records import NULL_REF
from repro.storage.relationship_store import RelationshipRecord, RelationshipStore


@dataclass(frozen=True)
class NeighborEntry:
    """One hop out of a local node's adjacency chain."""

    neighbor: int
    rel_id: int
    ghost: bool


@dataclass(frozen=True)
class StoreStats:
    """Size accounting for one server's stores."""

    num_nodes: int
    num_relationships: int
    num_ghost_relationships: int
    num_properties: int
    bytes_nodes: int
    bytes_relationships: int
    bytes_properties: int

    @property
    def total_bytes(self) -> int:
        return self.bytes_nodes + self.bytes_relationships + self.bytes_properties


class GraphStore:
    """The local graph database of one server."""

    def __init__(self, server_id: int = 0, num_servers: int = 1):
        self.server_id = server_id
        self.nodes = NodeStore()
        self.relationships = RelationshipStore()
        self.properties = PropertyStore()
        self._rel_ids = IdAllocator(stripe=server_id, num_stripes=num_servers)
        self._prop_ids = IdAllocator(stripe=server_id, num_stripes=num_servers)
        #: optional durability observer (see cluster/durability.ServerJournal);
        #: notified after every *logical* mutation — pointer-only chain
        #: rewrites are derived state and stay silent.
        self.observer = None

    # -- observer notifications ----------------------------------------
    def _notify_node(self, node_id: int) -> None:
        if self.observer is not None:
            self.observer.node_changed(node_id)

    def _notify_node_removed(self, node_id: int) -> None:
        if self.observer is not None:
            self.observer.node_removed(node_id)

    def _notify_rel(self, rel_id: int) -> None:
        if self.observer is not None:
            self.observer.rel_changed(rel_id)

    def _notify_rel_removed(self, rel_id: int) -> None:
        if self.observer is not None:
            self.observer.rel_removed(rel_id)

    # ==================================================================
    # Nodes
    # ==================================================================
    def create_node(
        self,
        node_id: int,
        weight: float = 1.0,
        properties: Optional[Dict[str, Any]] = None,
        available: bool = True,
    ) -> NodeRecord:
        if node_id in self.nodes:
            raise StorageError(f"node {node_id} already exists")
        record = NodeRecord(node_id=node_id, weight=weight, available=available)
        self.nodes.write(record)
        for key, value in (properties or {}).items():
            self.set_node_property(node_id, key, value)
        self._notify_node(node_id)
        return self.nodes.read(node_id)

    def has_node(self, node_id: int) -> bool:
        return node_id in self.nodes

    def node(self, node_id: int) -> NodeRecord:
        return self.nodes.read(node_id)

    def is_available(self, node_id: int) -> bool:
        """False for missing nodes and for nodes in the migration
        *unavailable* state — queries treat both identically."""
        if node_id not in self.nodes:
            return False
        return self.nodes.read(node_id).available

    def set_available(self, node_id: int, available: bool) -> None:
        self.nodes.write(self.nodes.read(node_id).with_available(available))
        self._notify_node(node_id)

    def _require_available(self, node_id: int) -> NodeRecord:
        record = self.nodes.read(node_id)
        if not record.available:
            raise VertexUnavailableError(
                f"node {node_id} is unavailable (being migrated away)"
            )
        return record

    def node_weight(self, node_id: int) -> float:
        return self.nodes.read(node_id).weight

    def add_node_weight(self, node_id: int, delta: float) -> float:
        record = self.nodes.read(node_id)
        updated = record.with_weight(record.weight + delta)
        self.nodes.write(updated)
        self._notify_node(node_id)
        return updated.weight

    def delete_node(self, node_id: int) -> None:
        """Remove a node, all its relationship records and its properties."""
        self.retire_node(node_id)

    def node_ids(self) -> Iterator[int]:
        return self.nodes.ids()

    def membership(self) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        """``(available, unavailable)`` node-id sets hosted by this store.

        The store-membership enumeration the simtest auditor compares
        against the catalog: available nodes are the ones this server
        *serves*; unavailable ones are mid-migration remove-step state
        and must not appear anywhere as a serving replica.
        """
        available = set()
        unavailable = set()
        for node_id in self.nodes.ids():
            if self.nodes.read(node_id).available:
                available.add(node_id)
            else:
                unavailable.add(node_id)
        return frozenset(available), frozenset(unavailable)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    # ==================================================================
    # Relationship chains
    # ==================================================================
    def allocate_rel_id(self) -> int:
        return self._rel_ids.allocate()

    def create_relationship(
        self,
        rel_id: int,
        src: int,
        dst: int,
        ghost: bool = False,
        properties: Optional[Dict[str, Any]] = None,
    ) -> RelationshipRecord:
        """Insert a relationship record, linking into every local endpoint.

        ``rel_id`` is global: for a cross-partition edge both sides store a
        record under the same ID (one primary, one ghost).  At least one
        endpoint must be local.  Ghost records reject properties.
        """
        if src == dst:
            raise StorageError("self-relationships are not allowed")
        if rel_id in self.relationships:
            raise StorageError(f"relationship {rel_id} already exists here")
        if ghost and properties:
            raise StorageError("ghost relationships cannot carry properties")
        src_local = src in self.nodes
        dst_local = dst in self.nodes
        if not (src_local or dst_local):
            raise StorageError(
                f"neither endpoint of relationship {rel_id} is local"
            )
        self._rel_ids.observe(rel_id)
        record = RelationshipRecord(rel_id=rel_id, src=src, dst=dst, ghost=ghost)
        if src_local:
            record = self._link_into_chain(record, src)
        if dst_local:
            record = self._link_into_chain(record, dst)
        self.relationships.write(record)
        if properties:
            for key, value in properties.items():
                self.set_relationship_property(rel_id, key, value)
            record = self.relationships.read(rel_id)
        self._notify_rel(rel_id)
        return record

    def _link_into_chain(
        self, record: RelationshipRecord, node_id: int
    ) -> RelationshipRecord:
        """Head-insert ``record`` into ``node_id``'s chain (record not yet
        written; the updated record is returned for the caller to write)."""
        node = self.nodes.read(node_id)
        old_first = node.first_rel
        record = record.with_links_for(node_id, NULL_REF, old_first)
        if old_first != NULL_REF:
            first = self.relationships.read(old_first)
            self.relationships.write(first.with_prev_for(node_id, record.rel_id))
        self.nodes.write(node.with_first_rel(record.rel_id))
        return record

    def _unlink_from_chain(self, record: RelationshipRecord, node_id: int) -> None:
        prev_id = record.prev_for(node_id)
        next_id = record.next_for(node_id)
        if prev_id == NULL_REF:
            node = self.nodes.read(node_id)
            self.nodes.write(node.with_first_rel(next_id))
        else:
            prev = self.relationships.read(prev_id)
            self.relationships.write(prev.with_next_for(node_id, next_id))
        if next_id != NULL_REF:
            nxt = self.relationships.read(next_id)
            self.relationships.write(nxt.with_prev_for(node_id, prev_id))

    def has_relationship(self, rel_id: int) -> bool:
        return rel_id in self.relationships

    def chain_contains(self, node_id: int, rel_id: int) -> bool:
        """True when ``rel_id`` is already linked into ``node_id``'s chain.

        Guards against double-linking when a record was created with both
        endpoints local (``create_relationship`` links every local
        endpoint) and a later path would attach one of them again.

        O(1), by the chain-membership invariant: an endpoint's prev/next
        pointers are NULL whenever the record is not in that endpoint's
        chain (``create_relationship`` links only local endpoints, every
        unlink NULLs or deletes).  So a record is linked exactly when it
        heads the chain or has a predecessor in it.  An absent record, or
        a node that is not one of its endpoints, answers False.
        """
        node = self.nodes.read(node_id)
        if rel_id not in self.relationships:
            return False
        if node.first_rel == rel_id:
            return True
        record = self.relationships.read(rel_id)
        if node_id != record.src and node_id != record.dst:
            return False
        return record.prev_for(node_id) != NULL_REF

    def relationship(self, rel_id: int) -> RelationshipRecord:
        return self.relationships.read(rel_id)

    def delete_relationship(self, rel_id: int) -> None:
        """Unlink from all local chains, drop properties, tombstone."""
        record = self.relationships.read(rel_id)
        if record.src in self.nodes:
            self._unlink_from_chain(record, record.src)
        if record.dst in self.nodes:
            self._unlink_from_chain(record, record.dst)
        self._delete_property_chain(record.first_prop)
        self.relationships.delete(rel_id)
        self._notify_rel_removed(rel_id)

    def attach_endpoint(self, rel_id: int, node_id: int) -> None:
        """Link an existing relationship record into a local node's chain.

        Used by the migration copy step when the record's counterpart was
        already present here (the other endpoint is local) and a migrating
        endpoint arrives.
        """
        record = self.relationships.read(rel_id)
        if node_id not in self.nodes:
            raise StorageError(f"node {node_id} is not local")
        record = self._link_into_chain(record, node_id)
        self.relationships.write(record)

    def detach_endpoint(self, rel_id: int, node_id: int) -> None:
        """Unlink a relationship from one endpoint's chain, NULLing that
        side's pointers.  The record survives for the other (local)
        endpoint — this is how a local edge becomes a cross-partition one
        when one endpoint migrates away."""
        record = self.relationships.read(rel_id)
        self._unlink_from_chain(record, node_id)
        self.relationships.write(record.with_links_for(node_id, NULL_REF, NULL_REF))

    def remove_node_record(self, node_id: int) -> None:
        """Drop a node whose chain is already empty (copy-step rollback)."""
        record = self.nodes.read(node_id)
        if record.first_rel != NULL_REF:
            raise StorageError(
                f"node {node_id} still has relationships; detach them first"
            )
        self._drop_node(record)

    def _drop_node(self, record: NodeRecord) -> None:
        self._delete_property_chain(record.first_prop)
        self.nodes.delete(record.node_id)
        self._notify_node_removed(record.node_id)

    def retire_node(
        self,
        node_id: int,
        kept_ghost: Optional[Callable[[RelationshipRecord], Optional[bool]]] = None,
    ) -> int:
        """Drop ``node_id`` and its whole relationship chain in one walk.

        ``kept_ghost(record)`` decides each chain record's fate: ``None``
        deletes it; a bool keeps it for the staying local endpoint, with
        that ghost flag.  A kept record gets the departing side's pointers
        NULLed (and, when its role flips, the :meth:`set_ghost` treatment).
        A deleted record is unlinked only from the other endpoint's chain,
        when that endpoint is local.  The departing chain itself is never
        rewritten pointer by pointer: every record in it is NULLed on this
        side or deleted, and the node record goes last.  Without
        ``kept_ghost`` every record is deleted (:meth:`delete_node`).

        The resulting store is byte-identical to unlinking record by
        record (:meth:`detach_endpoint` / :meth:`delete_relationship`,
        then :meth:`remove_node_record`): the same records are deleted in
        the same order, so freed slots recycle identically, and the
        observer sees the same notifications.  Returns the number of chain
        records walked.
        """
        node = self.nodes.read(node_id)
        walked = 0
        for record in self._chain(node_id, node.first_rel):
            walked += 1
            ghost = None if kept_ghost is None else kept_ghost(record)
            if ghost is None:
                other = record.other_endpoint(node_id)
                if other in self.nodes:
                    self._unlink_from_chain(record, other)
                self._delete_property_chain(record.first_prop)
                self.relationships.delete(record.rel_id)
                self._notify_rel_removed(record.rel_id)
                continue
            record = record.with_links_for(node_id, NULL_REF, NULL_REF)
            if record.ghost == ghost:
                self.relationships.write(record)
            else:
                self._write_ghost_role(record, ghost)
        self._drop_node(node)
        return walked

    def set_ghost(self, rel_id: int, ghost: bool) -> None:
        """Flip a record between primary and ghost (migration merge step).

        Downgrading to ghost drops the property chain, since ghosts hold
        no property information.
        """
        self._write_ghost_role(self.relationships.read(rel_id), ghost)

    def _write_ghost_role(self, record: RelationshipRecord, ghost: bool) -> None:
        if ghost and record.first_prop != NULL_REF:
            self._delete_property_chain(record.first_prop)
            record = record.with_first_prop(NULL_REF)
        self.relationships.write(record.with_ghost(ghost))
        self._notify_rel(record.rel_id)

    # ==================================================================
    # Adjacency (fully local thanks to ghost records)
    # ==================================================================
    def neighbor_entries(
        self, node_id: int, include_unavailable: bool = False
    ) -> Iterator[NeighborEntry]:
        """Walk ``node_id``'s relationship chain; no remote access needed.

        ``include_unavailable`` is for internal maintenance (the migration
        remove step walks chains of nodes it already marked unavailable).
        """
        if include_unavailable:
            record = self.nodes.read(node_id)
        else:
            record = self._require_available(node_id)
        for rel in self._chain(node_id, record.first_rel):
            yield NeighborEntry(
                neighbor=rel.other_endpoint(node_id),
                rel_id=rel.rel_id,
                ghost=rel.ghost,
            )

    def _chain(self, node_id: int, first_rel: int) -> Iterator[RelationshipRecord]:
        """Decode ``node_id``'s chain from ``first_rel``, one read per record.

        The next pointer comes from the record as decoded, so a caller may
        rewrite or delete each record as it is yielded.  A chain longer
        than the store (a cycle) raises instead of looping.
        """
        rel_id = first_rel
        steps = 0
        limit = len(self.relationships) + 1
        while rel_id != NULL_REF:
            steps += 1
            if steps > limit:
                raise StorageError(f"cyclic relationship chain at node {node_id}")
            rel = self.relationships.read(rel_id)
            yield rel
            rel_id = rel.next_for(node_id)

    def neighbors(self, node_id: int) -> List[int]:
        return [entry.neighbor for entry in self.neighbor_entries(node_id)]

    def degree(self, node_id: int) -> int:
        return sum(1 for _ in self.neighbor_entries(node_id))

    # ==================================================================
    # Properties
    # ==================================================================
    def allocate_prop_id(self) -> int:
        return self._prop_ids.allocate()

    def set_node_property(self, node_id: int, key: str, value: Any) -> None:
        node = self._require_available(node_id)
        new_first = self._set_property(node.first_prop, node_id, key, value)
        if new_first != node.first_prop:
            self.nodes.write(node.with_first_prop(new_first))
        self._notify_node(node_id)

    def get_node_property(self, node_id: int, key: str, default: Any = None) -> Any:
        node = self._require_available(node_id)
        return self._get_property(node.first_prop, key, default)

    def node_properties(self, node_id: int) -> Dict[str, Any]:
        node = self._require_available(node_id)
        return self._collect_properties(node.first_prop)

    def remove_node_property(self, node_id: int, key: str) -> bool:
        node = self._require_available(node_id)
        new_first, removed = self._remove_property(node.first_prop, key)
        if new_first != node.first_prop:
            self.nodes.write(node.with_first_prop(new_first))
        if removed:
            self._notify_node(node_id)
        return removed

    def set_relationship_property(self, rel_id: int, key: str, value: Any) -> None:
        rel = self.relationships.read(rel_id)
        if rel.ghost:
            raise StorageError(
                f"relationship {rel_id} is a ghost and cannot hold properties"
            )
        new_first = self._set_property(rel.first_prop, rel_id, key, value)
        if new_first != rel.first_prop:
            self.relationships.write(rel.with_first_prop(new_first))
        self._notify_rel(rel_id)

    def get_relationship_property(
        self, rel_id: int, key: str, default: Any = None
    ) -> Any:
        rel = self.relationships.read(rel_id)
        return self._get_property(rel.first_prop, key, default)

    def relationship_properties(self, rel_id: int) -> Dict[str, Any]:
        rel = self.relationships.read(rel_id)
        return self._collect_properties(rel.first_prop)

    def remove_relationship_property(self, rel_id: int, key: str) -> bool:
        rel = self.relationships.read(rel_id)
        new_first, removed = self._remove_property(rel.first_prop, key)
        if new_first != rel.first_prop:
            self.relationships.write(rel.with_first_prop(new_first))
        if removed:
            self._notify_rel(rel_id)
        return removed

    # -- property chain helpers ----------------------------------------
    def _set_property(self, first_prop: int, owner: int, key: str, value: Any) -> int:
        """Update-or-insert into a property chain; returns the chain head."""
        prop_id = first_prop
        while prop_id != NULL_REF:
            record = self.properties.read(prop_id)
            if self.properties.key_of(record) == key:
                self.properties.update_value(record, value)
                return first_prop
            prop_id = record.next_prop
        new_id = self._prop_ids.allocate()
        self.properties.create(new_id, owner, key, value, next_prop=first_prop)
        return new_id

    def _get_property(self, first_prop: int, key: str, default: Any) -> Any:
        prop_id = first_prop
        while prop_id != NULL_REF:
            record = self.properties.read(prop_id)
            if self.properties.key_of(record) == key:
                return self.properties.value_of(record)
            prop_id = record.next_prop
        return default

    def _collect_properties(self, first_prop: int) -> Dict[str, Any]:
        collected: Dict[str, Any] = {}
        prop_id = first_prop
        while prop_id != NULL_REF:
            record = self.properties.read(prop_id)
            collected[self.properties.key_of(record)] = self.properties.value_of(
                record
            )
            prop_id = record.next_prop
        return collected

    def _remove_property(self, first_prop: int, key: str) -> Tuple[int, bool]:
        """Unlink+delete the record holding ``key``; returns (new head, found)."""
        prev: Optional[Any] = None
        prop_id = first_prop
        while prop_id != NULL_REF:
            record = self.properties.read(prop_id)
            if self.properties.key_of(record) == key:
                if prev is None:
                    new_first = record.next_prop
                else:
                    self.properties.write(prev.with_next_prop(record.next_prop))
                    new_first = first_prop
                self.properties.delete(prop_id)
                return new_first, True
            prev = record
            prop_id = record.next_prop
        return first_prop, False

    def _delete_property_chain(self, first_prop: int) -> None:
        prop_id = first_prop
        while prop_id != NULL_REF:
            record = self.properties.read(prop_id)
            next_prop = record.next_prop
            self.properties.delete(prop_id)
            prop_id = next_prop

    # ==================================================================
    # Migration payloads (used by the cluster's two-step protocol)
    # ==================================================================
    def export_node(self, node_id: int) -> Dict[str, Any]:
        """Everything the copy step must ship for one node."""
        record = self._require_available(node_id)
        relationships = [
            {
                "rel_id": rel.rel_id,
                "src": rel.src,
                "dst": rel.dst,
                "ghost": rel.ghost,
                "properties": (
                    {} if rel.ghost else self._collect_properties(rel.first_prop)
                ),
            }
            for rel in self._chain(node_id, record.first_rel)
        ]
        return {
            "node": {
                "node_id": node_id,
                "weight": record.weight,
            },
            "properties": self._collect_properties(record.first_prop),
            "relationships": relationships,
        }

    def import_node(self, payload: Dict[str, Any]) -> None:
        """Copy-step insert: node + properties (relationships are merged
        separately because ghost/primary roles depend on the catalog)."""
        node = payload["node"]
        self.create_node(
            node["node_id"],
            weight=node["weight"],
            properties=payload["properties"],
        )

    # ==================================================================
    # Logical images (durability journal / recovery fidelity)
    # ==================================================================
    def node_image(self, node_id: int) -> Dict[str, Any]:
        """Pointer-free logical content of one node, availability included.

        Unlike :meth:`node_properties` this never raises for unavailable
        nodes — the journal must capture mid-migration states too.
        """
        record = self.nodes.read(node_id)
        return {
            "weight": record.weight,
            "available": record.available,
            "properties": self._collect_properties(record.first_prop),
        }

    def relationship_image(self, rel_id: int) -> Dict[str, Any]:
        """Pointer-free logical content of one relationship record."""
        record = self.relationships.read(rel_id)
        return {
            "src": record.src,
            "dst": record.dst,
            "ghost": record.ghost,
            "properties": (
                {} if record.ghost else self._collect_properties(record.first_prop)
            ),
        }

    # ==================================================================
    # ID allocator control (membership changes / recovery)
    # ==================================================================
    def next_id_bound(self) -> int:
        """Smallest id strictly greater than anything this store has
        allocated or observed, across both allocators."""
        return max(self._rel_ids.peek(), self._prop_ids.peek())

    def rebase_ids(self, num_stripes: int, floor: int) -> None:
        """Re-stripe both allocators for a new server count.

        Every id minted after the rebase is strictly greater than
        ``floor`` (no collision with history) and congruent to this
        server's stripe mod ``num_stripes`` (no collision with peers) —
        the "generation" jump that makes server join safe.
        """
        start = floor // num_stripes + 1
        self._rel_ids = IdAllocator(
            stripe=self.server_id, num_stripes=num_stripes, start=start
        )
        self._prop_ids = IdAllocator(
            stripe=self.server_id, num_stripes=num_stripes, start=start
        )

    def set_allocator_state(
        self, num_stripes: int, rel_counter: int, prop_counter: int
    ) -> None:
        """Restore exact allocator positions (WAL recovery rebuild)."""
        self._rel_ids = IdAllocator(
            stripe=self.server_id, num_stripes=num_stripes, start=rel_counter
        )
        self._prop_ids = IdAllocator(
            stripe=self.server_id, num_stripes=num_stripes, start=prop_counter
        )

    def allocator_state(self) -> Dict[str, int]:
        return {
            "num_stripes": self._rel_ids.num_stripes,
            "rel_counter": self._rel_ids.allocated_count,
            "prop_counter": self._prop_ids.allocated_count,
        }

    # ==================================================================
    # Stats / persistence
    # ==================================================================
    def stats(self) -> StoreStats:
        ghosts = sum(1 for record in self.relationships.records() if record.ghost)
        return StoreStats(
            num_nodes=len(self.nodes),
            num_relationships=len(self.relationships),
            num_ghost_relationships=ghosts,
            num_properties=len(self.properties),
            bytes_nodes=self.nodes.size_bytes,
            bytes_relationships=self.relationships.size_bytes,
            bytes_properties=self.properties.size_bytes,
        )

    _META_FILE = "meta.json"

    def save(self, directory: str) -> None:
        """Persist all stores plus allocator state into a directory."""
        os.makedirs(directory, exist_ok=True)
        self.nodes.save(os.path.join(directory, "nodes.store"))
        self.relationships.save(os.path.join(directory, "relationships.store"))
        self.properties.save(
            os.path.join(directory, "properties.store"),
            os.path.join(directory, "dynamic.store"),
        )
        meta = {
            "server_id": self.server_id,
            "num_servers": self._rel_ids.num_stripes,
            "rel_counter": self._rel_ids.allocated_count,
            "prop_counter": self._prop_ids.allocated_count,
        }
        with open(os.path.join(directory, self._META_FILE), "w") as handle:
            json.dump(meta, handle)

    @classmethod
    def load(cls, directory: str) -> "GraphStore":
        with open(os.path.join(directory, cls._META_FILE)) as handle:
            meta = json.load(handle)
        store = cls.__new__(cls)
        store.server_id = meta["server_id"]
        store.nodes = NodeStore.load(os.path.join(directory, "nodes.store"))
        store.relationships = RelationshipStore.load(
            os.path.join(directory, "relationships.store")
        )
        store.properties = PropertyStore.load(
            os.path.join(directory, "properties.store"),
            os.path.join(directory, "dynamic.store"),
        )
        store._rel_ids = IdAllocator(
            stripe=meta["server_id"],
            num_stripes=meta["num_servers"],
            start=meta["rel_counter"],
        )
        store._prop_ids = IdAllocator(
            stripe=meta["server_id"],
            num_stripes=meta["num_servers"],
            start=meta["prop_counter"],
        )
        store.observer = None
        return store
