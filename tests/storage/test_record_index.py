"""Model-based tests for the ``FixedRecordStore`` id -> slot index.

Random write / update / delete / save-and-reload schedules run against a
sorted-map model of the records plus a model of slot allocation (freed
slots are reused LIFO; a reopen frees every slot not in use, in slot
order).  After every step the store's ``read``, ``in``, ``len``,
``ids()`` order, ``records()`` order and ``max_id()`` must agree with the
model, and every record must sit in the slot the model predicts.

One fixed schedule also pins the sha256 of the page file it saves, so the
store keeps writing the same bytes it wrote when the index was a B+tree.
"""

import hashlib
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import RecordNotFoundError
from repro.storage.node_store import NodeCodec, NodeRecord
from repro.storage.pages import PagedFile
from repro.storage.records import FixedRecordStore

#: small pages (3 node records each) so schedules cross page boundaries
PAGE_SIZE = 128
#: record ids a schedule draws from: small, so updates and re-inserts of
#: deleted ids happen often
IDS = 40
ABSENT_ID = 10**9

#: sha256 of the page file ``pinned_schedule`` saves, generated with the
#: B+tree-backed store
PINNED_DIGEST = "beb4217c3a278e18b9e96c43e6dfc57910ea62ce526f4ec1ef4fc4ac8d3be135"


def make_record(record_id, version):
    return NodeRecord(
        node_id=record_id,
        first_rel=version,
        first_prop=record_id * 7,
        weight=float(version) / 4,
        available=version % 2 == 0,
    )


def reopen(store):
    """Save the pages and reopen them (``_rebuild_index`` scans slots)."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "nodes.store")
        store.save(path)
        return FixedRecordStore.load(path, NodeCodec())


def saved_bytes(store):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "nodes.store")
        store.save(path)
        with open(path, "rb") as handle:
            return handle.read()


class IndexModel:
    """Sorted-map model of the records plus the slot allocator."""

    def __init__(self, slots_per_page):
        self.slots_per_page = slots_per_page
        self.records = {}
        self.slots = {}
        self.free = []
        self.next_slot = 0

    def write(self, record_id, record):
        if record_id not in self.slots:
            if self.free:
                self.slots[record_id] = self.free.pop()
            else:
                self.slots[record_id] = self.next_slot
                self.next_slot += 1
        self.records[record_id] = record

    def delete(self, record_id):
        del self.records[record_id]
        self.free.append(self.slots.pop(record_id))

    def reopen(self):
        pages = -(-self.next_slot // self.slots_per_page)
        self.next_slot = pages * self.slots_per_page
        used = set(self.slots.values())
        self.free = [slot for slot in range(self.next_slot) if slot not in used]


def apply_step(store, model, step):
    """One schedule step on both store and model; returns the store (a
    reload replaces it)."""
    op, record_id, version = step
    if op == "write":
        record = make_record(record_id, version)
        store.write(record_id, record)
        model.write(record_id, record)
    elif op == "delete":
        if record_id in model.records:
            store.delete(record_id)
            model.delete(record_id)
        else:
            with pytest.raises(RecordNotFoundError):
                store.delete(record_id)
    else:
        store = reopen(store)
        model.reopen()
    return store


def assert_matches_model(store, model):
    ordered = sorted(model.records)
    assert len(store) == len(model.records)
    assert list(store.ids()) == ordered
    assert list(store.records()) == [model.records[i] for i in ordered]
    assert store.max_id() == (ordered[-1] if ordered else None)
    for record_id in range(IDS):
        assert (record_id in store) == (record_id in model.records)
        if record_id in model.records:
            assert store.read(record_id) == model.records[record_id]
            assert store._index.get(record_id) == model.slots[record_id]
        else:
            with pytest.raises(RecordNotFoundError):
                store.read(record_id)
    assert ABSENT_ID not in store
    assert store.pages.num_pages * store.slots_per_page >= model.next_slot


steps = st.lists(
    st.tuples(
        st.sampled_from(("write", "write", "write", "delete", "delete", "reload")),
        st.integers(0, IDS - 1),
        st.integers(0, 1000),
    ),
    max_size=120,
)


@given(steps)
@settings(max_examples=150, deadline=None)
def test_index_matches_sorted_map_model(schedule):
    store = FixedRecordStore(NodeCodec(), paged_file=PagedFile(PAGE_SIZE))
    model = IndexModel(store.slots_per_page)
    for step in schedule:
        store = apply_step(store, model, step)
        assert_matches_model(store, model)


def pinned_schedule():
    """A fixed mixed schedule: writes, updates, deletes and two reloads."""
    rng = random.Random(20150323)
    schedule = []
    for position in range(400):
        if position in (150, 300):
            schedule.append(("reload", 0, 0))
            continue
        op = rng.choice(("write", "write", "write", "delete"))
        schedule.append((op, rng.randrange(IDS * 2), rng.randrange(1000)))
    return schedule


def test_pinned_schedule_page_bytes():
    store = FixedRecordStore(NodeCodec(), paged_file=PagedFile(PAGE_SIZE))
    model = IndexModel(store.slots_per_page)
    for step in pinned_schedule():
        store = apply_step(store, model, step)
    assert hashlib.sha256(saved_bytes(store)).hexdigest() == PINNED_DIGEST
