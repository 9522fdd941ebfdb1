"""A tour of the Neo4j-style storage engine underneath each server.

Shows the record model the paper describes in Section 4: fixed-size node
and relationship records with doubly-linked relationship chains, a
dynamic property store, ghost relationships for cross-partition edges,
the hash-map ID index, transactions with timeout-based deadlock handling,
and checksummed persistence.

Run with::

    python examples/storage_engine_tour.py
"""

import tempfile

from repro.exceptions import LockTimeoutError, VertexUnavailableError
from repro.storage import GraphStore
from repro.txn import LockMode, TransactionManager


def main() -> None:
    # Two "servers", each with its own store; IDs are striped so they
    # never collide.
    server_a = GraphStore(server_id=0, num_servers=2)
    server_b = GraphStore(server_id=1, num_servers=2)

    # --- nodes and properties -----------------------------------------
    for user, name in ((1, "alice"), (2, "bob"), (3, "carol")):
        server_a.create_node(user, properties={"name": name})
    server_b.create_node(4, properties={"name": "dave"})

    # --- local relationships: doubly-linked chains ----------------------
    friendship = server_a.create_relationship(
        server_a.allocate_rel_id(), 1, 2, properties={"since": 2015}
    )
    server_a.create_relationship(server_a.allocate_rel_id(), 1, 3)
    print("alice's adjacency (one chain walk, no index):",
          sorted(server_a.neighbors(1)))
    print("friendship properties:",
          server_a.relationship_properties(friendship.rel_id))

    # --- a cross-partition edge: primary + ghost ------------------------
    rel_id = server_a.allocate_rel_id()
    server_a.create_relationship(rel_id, 3, 4)           # primary, with props allowed
    server_b.create_relationship(rel_id, 3, 4, ghost=True)  # ghost counterpart
    print("carol sees dave locally:", server_a.neighbors(3))
    print("dave's side is a ghost:",
          server_b.relationship(rel_id).ghost)

    # --- transactions with timeout-based deadlock resolution ------------
    txns = TransactionManager(lock_timeout=0.5)
    with txns.begin() as txn:
        txn.lock(("node", 1), LockMode.EXCLUSIVE)
        server_a.set_node_property(1, "status", "online")
        txn.record_undo(lambda: server_a.remove_node_property(1, "status"))
    blocker = txns.begin()
    blocker.lock(("node", 2))
    try:
        victim = txns.begin()
        victim.lock(("node", 2))
    except LockTimeoutError as exc:
        print("conflicting writer aborted (presumed deadlock):", exc)
    blocker.commit()

    # --- the migration 'unavailable' state ------------------------------
    server_a.set_available(2, False)
    try:
        server_a.node_properties(2)
    except VertexUnavailableError:
        print("bob is mid-migration: queries treat him as absent")
    server_a.set_available(2, True)

    # --- write-ahead logging and crash recovery --------------------------
    from repro.storage import DurableRecordStore
    from repro.storage.node_store import NodeCodec, NodeRecord

    durable = DurableRecordStore(NodeCodec())
    with durable.begin() as committed:
        committed.write(1, NodeRecord(node_id=1, weight=5.0))
    loser = durable.begin()
    loser.write(1, NodeRecord(node_id=1, weight=99.0))  # never commits
    report = durable.simulate_crash_and_recover()
    print(
        "after crash recovery: weight =", durable.read(1).weight,
        f"(redid {report.redone_updates}, rolled back txns "
        f"{report.rolled_back_txns})"
    )

    # --- persistence with per-page checksums -----------------------------
    with tempfile.TemporaryDirectory() as directory:
        server_a.save(directory)
        reloaded = GraphStore.load(directory)
        print("reloaded alice:", reloaded.node_properties(1),
              "neighbors:", sorted(reloaded.neighbors(1)))
        print("store stats:", reloaded.stats())


if __name__ == "__main__":
    main()
