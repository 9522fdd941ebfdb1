"""Tests for the GraphStore facade: chains, ghosts, properties, migration
primitives, availability and persistence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import StorageError, VertexUnavailableError
from repro.storage.graph_store import GraphStore
from repro.storage.records import NULL_REF


@pytest.fixture
def store():
    s = GraphStore()
    for i in range(6):
        s.create_node(i, weight=float(i + 1))
    return s


class TestNodes:
    def test_create_and_read(self, store):
        record = store.node(3)
        assert record.node_id == 3
        assert record.weight == 4.0
        assert store.has_node(3)
        assert not store.has_node(99)

    def test_duplicate_rejected(self, store):
        with pytest.raises(StorageError):
            store.create_node(3)

    def test_weight_updates(self, store):
        assert store.add_node_weight(0, 2.5) == 3.5
        assert store.node_weight(0) == 3.5

    def test_delete_node_cleans_up(self, store):
        r1 = store.create_relationship(store.allocate_rel_id(), 0, 1)
        store.set_node_property(0, "name", "zero")
        store.delete_node(0)
        assert not store.has_node(0)
        assert not store.has_relationship(r1.rel_id)
        assert store.neighbors(1) == []

    def test_node_ids(self, store):
        assert sorted(store.node_ids()) == list(range(6))
        assert store.num_nodes == 6


class TestRelationshipChains:
    def test_adjacency_via_chain(self, store):
        for other in (1, 2, 3):
            store.create_relationship(store.allocate_rel_id(), 0, other)
        assert sorted(store.neighbors(0)) == [1, 2, 3]
        assert store.degree(0) == 3
        assert sorted(store.neighbors(1)) == [0]

    def test_chain_after_middle_delete(self, store):
        rels = [
            store.create_relationship(store.allocate_rel_id(), 0, other)
            for other in (1, 2, 3)
        ]
        store.delete_relationship(rels[1].rel_id)
        assert sorted(store.neighbors(0)) == [1, 3]
        assert store.neighbors(2) == []

    def test_chain_after_head_delete(self, store):
        rels = [
            store.create_relationship(store.allocate_rel_id(), 0, other)
            for other in (1, 2)
        ]
        # Head of the chain is the most recently inserted (rels[1]).
        store.delete_relationship(rels[1].rel_id)
        assert store.neighbors(0) == [1]

    def test_self_relationship_rejected(self, store):
        with pytest.raises(StorageError):
            store.create_relationship(store.allocate_rel_id(), 1, 1)

    def test_duplicate_rel_id_rejected(self, store):
        rel = store.create_relationship(store.allocate_rel_id(), 0, 1)
        with pytest.raises(StorageError):
            store.create_relationship(rel.rel_id, 2, 3)

    def test_both_endpoints_remote_rejected(self, store):
        with pytest.raises(StorageError):
            store.create_relationship(store.allocate_rel_id(), 100, 101)

    def test_remote_endpoint_allowed(self, store):
        rel = store.create_relationship(store.allocate_rel_id(), 0, 500)
        assert store.neighbors(0) == [500]
        assert rel.next_for(500) == NULL_REF

    def test_external_rel_id_observed(self, store):
        """Importing a record with a foreign ID must advance the allocator."""
        store.create_relationship(1000, 0, 1)
        assert store.allocate_rel_id() > 1000


class TestChainContains:
    """O(1) chain membership, for every position a record can hold."""

    def link_three(self, store):
        """0's chain after three head inserts: rels[2], rels[1], rels[0]."""
        rels = [
            store.create_relationship(store.allocate_rel_id(), 0, other).rel_id
            for other in (1, 2, 3)
        ]
        assert store.node(0).first_rel == rels[2]
        return rels

    def test_sole_record(self, store):
        rel = store.create_relationship(store.allocate_rel_id(), 0, 1)
        assert store.chain_contains(0, rel.rel_id)
        assert store.chain_contains(1, rel.rel_id)

    def test_head_middle_and_tail(self, store):
        tail, middle, head = self.link_three(store)
        for rel_id in (head, middle, tail):
            assert store.chain_contains(0, rel_id)

    def test_detached_side(self, store):
        tail, middle, head = self.link_three(store)
        store.detach_endpoint(middle, 0)
        assert not store.chain_contains(0, middle)
        assert store.chain_contains(2, middle)
        assert store.chain_contains(0, head)
        assert store.chain_contains(0, tail)
        store.detach_endpoint(head, 0)
        assert not store.chain_contains(0, head)
        assert store.chain_contains(0, tail)
        store.attach_endpoint(middle, 0)
        assert store.chain_contains(0, middle)

    def test_both_endpoints_local(self, store):
        store.create_relationship(store.allocate_rel_id(), 1, 2)
        shared = store.create_relationship(store.allocate_rel_id(), 0, 1).rel_id
        store.create_relationship(store.allocate_rel_id(), 0, 3)
        # ``shared`` heads 1's chain and is the tail of 0's.
        assert store.node(1).first_rel == shared
        assert store.node(0).first_rel != shared
        assert store.chain_contains(0, shared)
        assert store.chain_contains(1, shared)

    def test_remote_endpoint_record(self, store):
        rel = store.create_relationship(store.allocate_rel_id(), 0, 500, ghost=True)
        assert store.chain_contains(0, rel.rel_id)

    def test_absent_record(self, store):
        self.link_three(store)
        assert not store.chain_contains(0, 10**6)
        assert not store.chain_contains(4, 10**6)
        assert not store.chain_contains(4, NULL_REF)

    def test_non_endpoint(self, store):
        tail, middle, head = self.link_three(store)
        assert not store.chain_contains(1, middle)
        assert not store.chain_contains(4, head)


class TestGhosts:
    def test_ghost_has_no_properties(self, store):
        with pytest.raises(StorageError):
            store.create_relationship(
                store.allocate_rel_id(), 0, 1, ghost=True, properties={"a": 1}
            )

    def test_ghost_flag_roundtrip(self, store):
        rel = store.create_relationship(store.allocate_rel_id(), 0, 99, ghost=True)
        assert store.relationship(rel.rel_id).ghost
        entries = list(store.neighbor_entries(0))
        assert entries[0].ghost

    def test_set_ghost_drops_properties(self, store):
        rel = store.create_relationship(
            store.allocate_rel_id(), 0, 1, properties={"since": 2015}
        )
        store.set_ghost(rel.rel_id, True)
        record = store.relationship(rel.rel_id)
        assert record.ghost
        assert record.first_prop == NULL_REF
        assert store.relationship_properties(rel.rel_id) == {}

    def test_ghost_property_write_rejected(self, store):
        rel = store.create_relationship(store.allocate_rel_id(), 0, 1, ghost=True)
        with pytest.raises(StorageError):
            store.set_relationship_property(rel.rel_id, "a", 1)

    def test_ghost_upgrade(self, store):
        rel = store.create_relationship(store.allocate_rel_id(), 0, 1, ghost=True)
        store.set_ghost(rel.rel_id, False)
        store.set_relationship_property(rel.rel_id, "since", 2015)
        assert store.get_relationship_property(rel.rel_id, "since") == 2015


class TestProperties:
    def test_node_property_crud(self, store):
        store.set_node_property(0, "name", "alice")
        store.set_node_property(0, "age", 30)
        assert store.get_node_property(0, "name") == "alice"
        assert store.node_properties(0) == {"name": "alice", "age": 30}
        store.set_node_property(0, "age", 31)
        assert store.get_node_property(0, "age") == 31
        assert store.remove_node_property(0, "name")
        assert not store.remove_node_property(0, "name")
        assert store.node_properties(0) == {"age": 31}

    def test_get_with_default(self, store):
        assert store.get_node_property(0, "missing", "dflt") == "dflt"

    def test_relationship_properties(self, store):
        rel = store.create_relationship(
            store.allocate_rel_id(), 0, 1, properties={"w": 0.5}
        )
        store.set_relationship_property(rel.rel_id, "kind", "friend")
        assert store.relationship_properties(rel.rel_id) == {
            "w": 0.5,
            "kind": "friend",
        }

    def test_property_chain_removal_orders(self, store):
        for key in ("a", "b", "c"):
            store.set_node_property(1, key, key.upper())
        store.remove_node_property(1, "b")  # middle
        assert store.node_properties(1) == {"a": "A", "c": "C"}
        store.remove_node_property(1, "c")  # head (inserted last)
        assert store.node_properties(1) == {"a": "A"}


class TestAvailability:
    def test_unavailable_node_rejects_queries(self, store):
        store.set_available(0, False)
        assert not store.is_available(0)
        with pytest.raises(VertexUnavailableError):
            store.node_properties(0)
        with pytest.raises(VertexUnavailableError):
            list(store.neighbor_entries(0))

    def test_missing_node_is_unavailable(self, store):
        assert not store.is_available(404)

    def test_reenable(self, store):
        store.set_available(0, False)
        store.set_available(0, True)
        assert store.node_properties(0) == {}


class TestMigrationPrimitives:
    def test_export_import_roundtrip(self, store):
        store.set_node_property(0, "name", "zero")
        store.create_relationship(
            store.allocate_rel_id(), 0, 1, properties={"since": 2015}
        )
        payload = store.export_node(0)
        other = GraphStore(server_id=1, num_servers=2)
        other.import_node(payload)
        assert other.node_weight(0) == 1.0
        assert other.node_properties(0) == {"name": "zero"}

    def test_detach_endpoint(self, store):
        rel = store.create_relationship(store.allocate_rel_id(), 0, 1)
        store.detach_endpoint(rel.rel_id, 0)
        assert store.neighbors(0) == []
        assert store.neighbors(1) == [0]
        record = store.relationship(rel.rel_id)
        assert record.prev_for(0) == NULL_REF
        assert record.next_for(0) == NULL_REF

    def test_attach_endpoint(self, store):
        rel = store.create_relationship(store.allocate_rel_id(), 0, 1)
        store.detach_endpoint(rel.rel_id, 0)
        store.attach_endpoint(rel.rel_id, 0)
        assert store.neighbors(0) == [1]

    def test_remove_node_record_requires_empty_chain(self, store):
        store.create_relationship(store.allocate_rel_id(), 0, 1)
        with pytest.raises(StorageError):
            store.remove_node_record(0)

    def test_remove_node_record(self, store):
        store.set_node_property(5, "x", 1)
        store.remove_node_record(5)
        assert not store.has_node(5)


class TestStatsAndPersistence:
    def test_stats(self, store):
        store.create_relationship(store.allocate_rel_id(), 0, 1)
        store.create_relationship(store.allocate_rel_id(), 2, 99, ghost=True)
        store.set_node_property(0, "a", 1)
        stats = store.stats()
        assert stats.num_nodes == 6
        assert stats.num_relationships == 2
        assert stats.num_ghost_relationships == 1
        assert stats.num_properties == 1
        assert stats.total_bytes > 0

    def test_save_load_roundtrip(self, store, tmp_path):
        store.set_node_property(0, "name", "zero")
        rel = store.create_relationship(
            store.allocate_rel_id(), 0, 1, properties={"since": 2015}
        )
        store.set_available(2, False)
        directory = str(tmp_path / "db")
        store.save(directory)
        loaded = GraphStore.load(directory)
        assert sorted(loaded.node_ids()) == list(range(6))
        assert loaded.node_properties(0) == {"name": "zero"}
        assert loaded.relationship_properties(rel.rel_id) == {"since": 2015}
        assert loaded.neighbors(0) == [1]
        assert not loaded.is_available(2)
        assert loaded.allocate_rel_id() > rel.rel_id


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=60))
@settings(max_examples=50, deadline=None)
def test_chain_consistency_under_random_churn(pairs):
    """Insert/delete edges in random order; adjacency must always equal a
    plain set-based model."""
    store = GraphStore()
    for i in range(10):
        store.create_node(i)
    model = {}
    for u, v in pairs:
        if u == v:
            continue
        key = frozenset((u, v))
        if key in model:
            store.delete_relationship(model.pop(key))
        else:
            rel = store.create_relationship(store.allocate_rel_id(), u, v)
            model[key] = rel.rel_id
    for vertex in range(10):
        expected = sorted(
            next(iter(key - {vertex}))
            for key in model
            if vertex in key
        )
        assert sorted(store.neighbors(vertex)) == expected
