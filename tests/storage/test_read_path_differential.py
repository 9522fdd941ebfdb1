"""Differential and edge-case tests for the storage read path.

``GraphStore.is_available`` answers from the node's flags byte alone
(``FixedRecordStore.flags``), and ``FixedRecordStore.read`` decodes the
record in place off the page (``PagedFile.unpack``) into a NamedTuple.
Both are checked here against the code they replace, copied into this
file: the membership-then-decode availability check, and the
copy-then-``codec.unpack`` read into frozen dataclasses.
"""

import dataclasses
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import PageError, RecordDeletedError, RecordNotFoundError
from repro.storage.graph_store import GraphStore, NeighborEntry
from repro.storage.node_store import NodeRecord
from repro.storage.property_store import PropertyRecord
from repro.storage.records import FLAG_IN_USE, NULL_REF
from repro.storage.relationship_store import RelationshipRecord
from tests.storage.test_hot_path_differential import deletable, retire_decider

#: node ids a random schedule draws from; ids at or above it are never
#: created, so every check also covers never-created ids
IDS = 8


# ----------------------------------------------------------------------
# The replaced code, kept as the reference
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class LegacyNodeRecord:
    node_id: int
    first_rel: int = NULL_REF
    first_prop: int = NULL_REF
    weight: float = 1.0
    available: bool = True


@dataclasses.dataclass(frozen=True)
class LegacyRelationshipRecord:
    rel_id: int
    src: int
    dst: int
    src_prev: int = NULL_REF
    src_next: int = NULL_REF
    dst_prev: int = NULL_REF
    dst_next: int = NULL_REF
    first_prop: int = NULL_REF
    ghost: bool = False


@dataclasses.dataclass(frozen=True)
class LegacyPropertyRecord:
    prop_id: int
    owner_id: int
    next_prop: int = NULL_REF
    key_blob: int = NULL_REF
    value_blob: int = NULL_REF


def legacy_node_unpack(payload):
    flags, node_id, first_rel, first_prop, weight = struct.unpack("<Bqqqd", payload)
    return LegacyNodeRecord(node_id, first_rel, first_prop, weight, bool(flags & 0x2))


def legacy_relationship_unpack(payload):
    flags, *fields = struct.unpack("<B8q", payload)
    return LegacyRelationshipRecord(*fields, bool(flags & 0x2))


def legacy_property_unpack(payload):
    _, *fields = struct.unpack("<B5q", payload)
    return LegacyPropertyRecord(*fields)


def legacy_page_read(pages, page, offset, length):
    """The old ``PagedFile.read``: slice the page, then copy to bytes."""
    data = pages._page(page)
    if offset < 0 or offset + length > pages.page_size:
        raise PageError(f"read [{offset}, {offset + length}) exceeds page size")
    return bytes(data[offset : offset + length])


def legacy_read(fixed, unpack, record_id):
    """The old ``FixedRecordStore.read`` over the old codec ``unpack``."""
    slot = fixed._index.get(record_id)
    if slot is None:
        raise RecordNotFoundError(f"record {record_id} not found")
    page, offset = fixed._slot_location(slot)
    payload = legacy_page_read(fixed.pages, page, offset, fixed.record_size)
    if not payload[0] & FLAG_IN_USE:
        raise RecordDeletedError(f"record {record_id} is deleted")
    return unpack(payload)


def legacy_is_available(store, node_id):
    nodes = store.nodes
    return node_id in nodes and legacy_read(
        nodes._store, legacy_node_unpack, node_id
    ).available


def legacy_membership(store):
    available, unavailable = set(), set()
    for node_id in store.nodes.ids():
        if legacy_read(store.nodes._store, legacy_node_unpack, node_id).available:
            available.add(node_id)
        else:
            unavailable.add(node_id)
    return frozenset(available), frozenset(unavailable)


def assert_same_record(new, old):
    """Field for field: same names, same order, same values and types."""
    names = [field.name for field in dataclasses.fields(old)]
    assert list(new._fields) == names
    for name in names:
        new_value, old_value = getattr(new, name), getattr(old, name)
        assert type(new_value) is type(old_value), name
        assert new_value == old_value, name


# ----------------------------------------------------------------------
# Random store schedules
# ----------------------------------------------------------------------
#: "rel" is listed three times so chains grow past their head
OPS = (
    "node", "available", "rel", "rel", "rel", "delete", "delete_node", "retire",
)


def apply_op(store, op, a, b, flag, rng):
    """One schedule step; a step whose precondition fails is a no-op."""
    rel_ids = sorted(store.relationships.ids())
    if op == "node":
        if not store.has_node(a):
            store.create_node(a, weight=a + 0.5, properties={"n": a})
    elif op == "available":
        if store.has_node(a):
            store.set_available(a, flag)
    elif op == "rel":
        if a != b and (store.has_node(a) or store.has_node(b)):
            ghost = flag or not store.has_node(a)
            store.create_relationship(
                store.allocate_rel_id(),
                a,
                b,
                ghost=ghost,
                properties=None if ghost else {"w": a * IDS + b},
            )
    elif op == "delete":
        if rel_ids:
            rel_id = rel_ids[a % len(rel_ids)]
            if deletable(store, rel_id):
                store.delete_relationship(rel_id)
    elif op == "delete_node" and store.has_node(a):
        chain = [entry.rel_id for entry in store.neighbor_entries(a, True)]
        if all(deletable(store, rel_id) for rel_id in chain):
            store.delete_node(a)
    elif op == "retire" and store.has_node(a):
        store.retire_node(a, retire_decider(store, a, rng))


def assert_read_path_matches_reference(store):
    for node_id in range(IDS + 2):
        assert store.is_available(node_id) == legacy_is_available(store, node_id)
    assert store.membership() == legacy_membership(store)
    for fixed, unpack in (
        (store.nodes._store, legacy_node_unpack),
        (store.relationships._store, legacy_relationship_unpack),
        (store.properties._store, legacy_property_unpack),
    ):
        for record_id in list(fixed.ids()):
            assert_same_record(
                fixed.read(record_id), legacy_read(fixed, unpack, record_id)
            )


@given(st.integers(0, 2**32), st.integers(10, 60))
@settings(max_examples=60, deadline=None)
def test_read_path_matches_reference(seed, length):
    """After every step of a random schedule, availability (for live,
    deleted and never-created ids), membership and every live record's
    decode equal the replaced code's answers."""
    rng = random.Random(seed)
    store = GraphStore()
    for _ in range(length):
        op, a, b, flag = (
            rng.choice(OPS), rng.randrange(IDS), rng.randrange(IDS), rng.random() < 0.5
        )
        apply_op(store, op, a, b, flag, rng)
        assert_read_path_matches_reference(store)


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------
def zero_slot(fixed, record_id):
    """Clear an indexed slot's bytes in the page, leaving the index."""
    page, offset = fixed._slot_location(fixed._index.get(record_id))
    fixed.pages.write(page, offset, bytes(fixed.record_size))


class TestAvailabilityPeek:
    def test_missing_node_is_unavailable(self):
        store = GraphStore()
        assert store.is_available(42) is False
        assert store.nodes._store.flags(42) is None

    def test_flags_follow_available_bit(self):
        store = GraphStore()
        store.create_node(1)
        assert store.is_available(1) is True
        store.set_available(1, False)
        assert store.is_available(1) is False
        assert store.nodes._store.flags(1) & FLAG_IN_USE

    def test_deleted_node_is_unavailable(self):
        store = GraphStore()
        store.create_node(1)
        store.delete_node(1)
        assert store.is_available(1) is False

    def test_zeroed_indexed_slot_raises_deleted(self):
        store = GraphStore()
        store.create_node(1)
        fixed = store.nodes._store
        zero_slot(fixed, 1)
        with pytest.raises(RecordDeletedError):
            fixed.flags(1)
        with pytest.raises(RecordDeletedError):
            store.is_available(1)
        with pytest.raises(RecordDeletedError):
            fixed.read(1)

    def test_membership_splits_on_the_flag(self):
        store = GraphStore()
        for node_id in range(4):
            store.create_node(node_id)
        store.set_available(2, False)
        assert store.membership() == (frozenset({0, 1, 3}), frozenset({2}))


RECORDS = [
    NodeRecord(node_id=1),
    RelationshipRecord(rel_id=1, src=2, dst=3),
    PropertyRecord(prop_id=1, owner_id=2),
    NeighborEntry(neighbor=2, rel_id=1, ghost=False),
]


class TestImmutableRecords:
    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_field_assignment_raises(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 99)

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_no_new_attributes(self, record):
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_equal_records_compare_equal(self):
        assert NodeRecord(1, weight=2.0) == NodeRecord(1, weight=2.0)
        assert NodeRecord(1) != NodeRecord(1, available=False)
        assert RelationshipRecord(1, 2, 3).with_links_for(2, 4, 5) == (
            RelationshipRecord(1, 2, 3, src_prev=4, src_next=5)
        )
        assert PropertyRecord(1, 2).with_next_prop(3) == PropertyRecord(1, 2, 3)
        assert NeighborEntry(2, 1, True) == NeighborEntry(2, 1, True)
        assert NeighborEntry(2, 1, True) != NeighborEntry(2, 1, False)

    def test_equal_entries_from_equal_stores(self):
        stores = [GraphStore(), GraphStore()]
        for store in stores:
            for node_id in range(3):
                store.create_node(node_id)
            store.create_relationship(10, 0, 1)
            store.create_relationship(11, 0, 2, ghost=True)
        first, second = (list(store.neighbor_entries(0)) for store in stores)
        assert first == second
        assert first == [NeighborEntry(2, 11, True), NeighborEntry(1, 10, False)]
        assert stores[0].node(0) == stores[1].node(0)

    def test_defaults_and_with_methods(self):
        record = NodeRecord(5)
        assert record == NodeRecord(5, NULL_REF, NULL_REF, 1.0, True)
        assert record.with_weight(3.0).weight == 3.0
        assert record.with_available(False).available is False
        assert record.with_first_rel(7).first_rel == 7
        assert record.with_first_prop(8).first_prop == 8
        assert record.weight == 1.0  # the original is untouched
