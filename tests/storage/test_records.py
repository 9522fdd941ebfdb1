"""Tests for FixedRecordStore, DynamicStore and the ID allocator."""

import pytest

from repro.exceptions import (
    RecordDeletedError,
    RecordNotFoundError,
    StorageError,
)
from repro.storage.ids import IdAllocator
from repro.storage.node_store import NodeCodec, NodeRecord
from repro.storage.records import DynamicStore, FixedRecordStore


class TestIdAllocator:
    def test_monotonic(self):
        allocator = IdAllocator()
        ids = [allocator.allocate() for _ in range(10)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 10

    def test_striping_never_collides(self):
        a = IdAllocator(stripe=0, num_stripes=3)
        b = IdAllocator(stripe=1, num_stripes=3)
        c = IdAllocator(stripe=2, num_stripes=3)
        ids = set()
        for allocator in (a, b, c):
            for _ in range(50):
                new = allocator.allocate()
                assert new not in ids
                ids.add(new)

    def test_observe_advances(self):
        allocator = IdAllocator(stripe=0, num_stripes=2)
        allocator.observe(100)
        assert allocator.allocate() > 100

    def test_observe_negative(self):
        with pytest.raises(StorageError):
            IdAllocator().observe(-1)

    def test_peek_does_not_advance(self):
        allocator = IdAllocator()
        assert allocator.peek() == allocator.allocate()

    def test_invalid_stripe(self):
        with pytest.raises(StorageError):
            IdAllocator(stripe=3, num_stripes=2)
        with pytest.raises(StorageError):
            IdAllocator(num_stripes=0)


class TestFixedRecordStore:
    def make_store(self):
        return FixedRecordStore(NodeCodec())

    def record(self, node_id, weight=1.0):
        return NodeRecord(node_id=node_id, weight=weight)

    def test_write_read(self):
        store = self.make_store()
        store.write(7, self.record(7, weight=2.5))
        loaded = store.read(7)
        assert loaded.node_id == 7
        assert loaded.weight == 2.5

    def test_update_in_place(self):
        store = self.make_store()
        store.write(7, self.record(7, weight=1.0))
        store.write(7, self.record(7, weight=9.0))
        assert store.read(7).weight == 9.0
        assert len(store) == 1

    def test_read_missing(self):
        with pytest.raises(RecordNotFoundError):
            self.make_store().read(1)

    def test_delete_and_slot_reuse(self):
        store = self.make_store()
        for i in range(10):
            store.write(i, self.record(i))
        store.delete(3)
        assert 3 not in store
        with pytest.raises(RecordNotFoundError):
            store.read(3)
        # New record reuses the freed slot: page count unchanged.
        pages_before = store.pages.num_pages
        store.write(100, self.record(100))
        assert store.pages.num_pages == pages_before

    def test_read_tombstoned_slot_raises_deleted(self):
        """The in-use flag is read from the decoded bytes: a slot the index
        still maps but whose bytes are a tombstone is a deleted record."""
        store = self.make_store()
        store.write(7, self.record(7))  # the first record takes slot 0
        store.pages.write(0, 0, bytes(store.record_size))
        with pytest.raises(RecordDeletedError):
            store.read(7)

    def test_ids_sorted(self):
        store = self.make_store()
        for i in (5, 1, 9):
            store.write(i, self.record(i))
        assert list(store.ids()) == [1, 5, 9]
        assert store.max_id() == 9

    def test_many_records_span_pages(self):
        store = self.make_store()
        for i in range(1000):
            store.write(i, self.record(i, weight=float(i)))
        assert store.pages.num_pages > 1
        assert store.read(999).weight == 999.0

    def test_persistence_rebuilds_index(self, tmp_path):
        store = self.make_store()
        for i in range(50):
            store.write(i, self.record(i, weight=float(i)))
        store.delete(10)
        path = str(tmp_path / "nodes.bin")
        store.save(path)
        loaded = FixedRecordStore.load(path, NodeCodec())
        assert len(loaded) == 49
        assert loaded.read(49).weight == 49.0
        assert 10 not in loaded
        # Freed slots found during the scan are reusable.
        loaded.write(500, self.record(500))
        assert loaded.read(500).node_id == 500


class TestDynamicStore:
    def test_small_blob(self):
        store = DynamicStore()
        head = store.store(b"tiny")
        assert store.fetch(head) == b"tiny"

    def test_empty_blob(self):
        store = DynamicStore()
        head = store.store(b"")
        assert store.fetch(head) == b""

    def test_multi_chunk_blob(self):
        store = DynamicStore()
        blob = bytes(range(256)) * 4  # 1 KiB: several 64-byte chunks
        head = store.store(blob)
        assert store.fetch(head) == blob
        assert store.num_chunks > 10

    def test_free_releases_chunks(self):
        store = DynamicStore()
        head = store.store(b"x" * 500)
        chunks = store.num_chunks
        assert chunks > 1
        store.free(head)
        assert store.num_chunks == 0

    def test_interleaved_blobs(self):
        store = DynamicStore()
        heads = [store.store(bytes([i]) * (i * 30 + 1)) for i in range(10)]
        for i, head in enumerate(heads):
            assert store.fetch(head) == bytes([i]) * (i * 30 + 1)

    def test_persistence(self, tmp_path):
        store = DynamicStore()
        blob = b"persistent data " * 20
        head = store.store(blob)
        path = str(tmp_path / "dyn.bin")
        store.save(path)
        loaded = DynamicStore.load(path)
        assert loaded.fetch(head) == blob
        # New blobs get fresh chunk IDs after reload.
        other = loaded.store(b"more")
        assert other != head
        assert loaded.fetch(other) == b"more"
