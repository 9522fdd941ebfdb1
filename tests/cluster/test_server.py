"""Tests for the per-server request handling."""

import json
import os

import pytest

from repro.cluster.server import HermesServer
from repro.exceptions import ClusterError, LockTimeoutError
from repro.txn.manager import Transaction


def saved_files(store, directory):
    store.save(str(directory))
    return {
        name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))
    }


@pytest.fixture
def server():
    s = HermesServer(0, num_servers=2)
    for i in range(4):
        s.store.create_node(i)
    return s


class TestReads:
    def test_read_vertex_bumps_weight(self, server):
        server.store.set_node_property(1, "name", "bob")
        props = server.read_vertex(1)
        assert props == {"name": "bob"}
        assert server.store.node_weight(1) == 2.0
        assert server.reads == 1

    def test_read_missing_vertex(self, server):
        with pytest.raises(ClusterError):
            server.read_vertex(99)

    def test_read_unavailable_vertex(self, server):
        server.store.set_available(1, False)
        with pytest.raises(ClusterError):
            server.read_vertex(1)

    def test_expand(self, server):
        server.create_local_edge(server.store.allocate_rel_id(), 0, 1)
        entries = server.expand(0)
        assert [entry.neighbor for entry in entries] == [1]
        # Visit accounting belongs to the traversal engine, not expand().
        assert server.visits == 0


class TestWrites:
    def test_create_vertex(self, server):
        server.create_vertex(10, weight=2.0, properties={"a": 1})
        assert server.store.node_weight(10) == 2.0
        assert server.store.node_properties(10) == {"a": 1}
        assert server.txns.stats["committed"] == 1

    def test_create_edge(self, server):
        server.create_local_edge(server.store.allocate_rel_id(), 0, 1, {"w": 1})
        assert server.store.neighbors(0) == [1]

    def test_create_ghost_edge(self, server):
        server.create_ghost_edge(1234, 0, 999)
        record = server.store.relationship(1234)
        assert record.ghost

    def test_set_property_and_undo_on_conflict(self, server):
        server.set_property(0, "name", "first")
        # Simulate a conflicting holder so the next write aborts.
        blocker = server.txns.begin()
        blocker.lock(("node", 0))
        with pytest.raises(LockTimeoutError):
            server.set_property(0, "name", "second")
        blocker.commit()
        # The failed write rolled back: the old value survives.
        assert server.store.get_node_property(0, "name") == "first"

    def test_failed_create_vertex_rolls_back(self, server):
        blocker = server.txns.begin()
        blocker.lock(("node", 50))
        with pytest.raises(LockTimeoutError):
            server.create_vertex(50)
        blocker.commit()
        assert not server.store.has_node(50)

    def test_write_undo_restores_exact_store(self, server, tmp_path, monkeypatch):
        """A write that fails after registering its undo aborts through
        ``delete_node`` (the single-walk retire); the saved store must be
        byte-identical to the pre-write one."""
        server.create_local_edge(server.store.allocate_rel_id(), 0, 1, {"w": 1})
        server.create_local_edge(server.store.allocate_rel_id(), 1, 2)
        server.create_ghost_edge(1001, 2, 999)
        server.set_property(3, "name", "c")
        before = saved_files(server.store, tmp_path / "before")

        class WriteFailed(Exception):
            pass

        record_undo = Transaction.record_undo

        def record_then_fail(txn, undo):
            record_undo(txn, undo)
            raise WriteFailed

        monkeypatch.setattr(Transaction, "record_undo", record_then_fail)
        with pytest.raises(WriteFailed):
            server.create_vertex(10, weight=3.0, properties={"a": 1})
        monkeypatch.undo()
        assert server.txns.stats["aborted"] == 1
        assert not server.store.has_node(10)
        after = saved_files(server.store, tmp_path / "after")
        # Ids are never reused, so only the property-id counter moved on.
        meta_before = json.loads(before.pop("meta.json"))
        meta_after = json.loads(after.pop("meta.json"))
        assert meta_after.pop("prop_counter") == meta_before.pop("prop_counter") + 1
        assert meta_after == meta_before
        assert after == before

    def test_repr(self, server):
        assert "HermesServer" in repr(server)
