"""Differential tests for the migration storage hot path.

``GraphStore.chain_contains`` answers from the record's own pointers in
O(1), ``GraphStore.attach_endpoint`` skips a record already linked by the
same rule, and ``GraphStore.retire_node`` drops a vertex and its whole
chain in one walk.  All three are checked here against the code they
replace:

* a full chain walk, kept in this file as the membership oracle;
* the copy-step merge that guarded an unconditional link with
  ``chain_contains`` and then re-read the record (three reads of it);
* the per-record ``detach_endpoint`` / ``delete_relationship`` loop that
  the migration remove step and ``delete_node`` ran before, copied here
  verbatim — the stores it leaves must be byte-identical on disk and the
  durability observer must see the same notifications.
"""

import os
import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.hermes import HermesCluster
from repro.core.migration import build_migration_plan
from repro.exceptions import StorageError
from repro.storage.graph_store import GraphStore
from repro.storage.records import NULL_REF

#: node ids a random schedule draws from; edges may name ids that are
#: not (yet) local, which is how a record gets an unlinked local side
IDS = 10
#: nodes every schedule starts with (the rest appear only through steps)
INITIAL_NODES = 5
ABSENT_REL = 10**9


# ----------------------------------------------------------------------
# The replaced code, kept as the reference
# ----------------------------------------------------------------------
def walked_chain(store, node_id):
    """Oracle: the rel ids of ``node_id``'s chain, by a full walk."""
    chain = []
    rel_id = store.node(node_id).first_rel
    while rel_id != NULL_REF:
        chain.append(rel_id)
        assert len(chain) <= len(store.relationships), "cyclic chain"
        rel_id = store.relationship(rel_id).next_for(node_id)
    return chain


def legacy_retire(store, node_id, kept_ghost=None):
    """The per-record loop the single walk replaced; without
    ``kept_ghost`` it is the old ``delete_node``."""
    entries = list(store.neighbor_entries(node_id, include_unavailable=True))
    for entry in entries:
        record = store.relationship(entry.rel_id)
        ghost = None if kept_ghost is None else kept_ghost(record)
        if ghost is None:
            store.delete_relationship(entry.rel_id)
            continue
        store.detach_endpoint(entry.rel_id, node_id)
        if store.relationship(entry.rel_id).ghost != ghost:
            store.set_ghost(entry.rel_id, ghost)
    store.remove_node_record(node_id)


def legacy_attach(store, rel_id, node_id):
    """The guarded link the copy-step merge ran before ``attach_endpoint``
    skipped a linked record itself; returns the record re-read."""
    if rel_id not in walked_chain(store, node_id):
        record = store.relationship(rel_id)
        if not store.has_node(node_id):
            raise StorageError(f"node {node_id} is not local")
        node = store.node(node_id)
        store.relationships.write(store._link_into_chain(record, node))
    return store.relationship(rel_id)


def legacy_install_relationship(executor, target, arriving, rel, final_home, undo):
    """``MigrationExecutor._install_relationship`` before the merge branch
    made a single ``attach_endpoint`` call."""
    rel_id = rel["rel_id"]
    src, dst = rel["src"], rel["dst"]
    other = dst if arriving == src else src
    other_home = executor._home_after(other, final_home)
    here = target.server_id
    primary_here = executor._home_after(src, final_home) == here
    both_local_eventually = other_home == here

    if target.store.has_relationship(rel_id):
        legacy_attach(target.store, rel_id, arriving)
        undo.append(("attach", target.server_id, rel_id, arriving))
        existing = target.store.relationship(rel_id)
        should_be_ghost = not (primary_here or both_local_eventually)
        if existing.ghost and not should_be_ghost:
            target.store.set_ghost(rel_id, False)
            undo.append(("ghost", target.server_id, rel_id, True, {}))
        elif not existing.ghost and should_be_ghost:
            old_props = target.store.relationship_properties(rel_id)
            target.store.set_ghost(rel_id, True)
            undo.append(("ghost", target.server_id, rel_id, False, old_props))
        if not should_be_ghost:
            for key, value in rel.get("properties", {}).items():
                had = key in target.store.relationship_properties(rel_id)
                old = target.store.get_relationship_property(rel_id, key)
                target.store.set_relationship_property(rel_id, key, value)
                undo.append(("prop", target.server_id, rel_id, key, had, old))
        return

    ghost = not (primary_here or both_local_eventually)
    properties = rel.get("properties", {}) if not ghost else None
    target.store.create_relationship(
        rel_id, src, dst, ghost=ghost, properties=properties or None
    )
    undo.append(("create_rel", target.server_id, rel_id))


def legacy_remove_one(executor, move, final_home, report):
    """``MigrationExecutor._remove_one`` before the single-walk retire."""
    source = executor.servers[move.source]
    store = source.store
    entries = list(store.neighbor_entries(move.vertex, include_unavailable=True))
    for entry in entries:
        other = entry.neighbor
        other_here = (
            store.has_node(other)
            and executor._home_after(other, final_home) == move.source
        )
        if other_here:
            store.detach_endpoint(entry.rel_id, move.vertex)
            record = store.relationship(entry.rel_id)
            should_be_ghost = (
                executor._home_after(record.src, final_home) != move.source
            )
            if record.ghost != should_be_ghost:
                store.set_ghost(entry.rel_id, should_be_ghost)
            report.relationships_rewritten += 1
        else:
            store.delete_relationship(entry.rel_id)
            report.relationships_rewritten += 1
        report.remove_cost += executor.network.local_visit()
    store.remove_node_record(move.vertex)
    report.remove_cost += executor.network.local_visit()


class RecordingObserver:
    """Durability-observer stand-in: logs every notification in order."""

    def __init__(self):
        self.log = []

    def node_changed(self, node_id):
        self.log.append(("node", node_id))

    def node_removed(self, node_id):
        self.log.append(("node-", node_id))

    def rel_changed(self, rel_id):
        self.log.append(("rel", rel_id))

    def rel_removed(self, rel_id):
        self.log.append(("rel-", rel_id))


def saved_files(store):
    """Every file ``GraphStore.save`` writes, as bytes."""
    with tempfile.TemporaryDirectory() as directory:
        store.save(directory)
        files = {}
        for name in sorted(os.listdir(directory)):
            with open(os.path.join(directory, name), "rb") as handle:
                files[name] = handle.read()
    return files


# ----------------------------------------------------------------------
# Random store schedules
# ----------------------------------------------------------------------
def linked(store, node_id, rel_id):
    return store.has_node(node_id) and rel_id in walked_chain(store, node_id)


def deletable(store, rel_id):
    """``delete_relationship`` unlinks every local endpoint, so it needs
    the record linked into each of them."""
    record = store.relationship(rel_id)
    return all(
        linked(store, end, rel_id)
        for end in (record.src, record.dst)
        if store.has_node(end)
    )


def retire_decider(store, node_id, rng):
    """A random keep/delete choice per record, within what the old loop
    could execute: a record whose other endpoint is local but unlinked
    cannot be deleted (the unlink would corrupt that chain)."""
    choices = {}
    for rel_id in walked_chain(store, node_id):
        record = store.relationship(rel_id)
        other = record.other_endpoint(node_id)
        if store.has_node(other) and not linked(store, other, rel_id):
            choices[rel_id] = rng.random() < 0.5
        elif store.has_node(other) and rng.random() < 0.5:
            choices[rel_id] = rng.random() < 0.5
        else:
            choices[rel_id] = None
    return lambda record: choices[record.rel_id]


def apply_op(store, op, a, b, flag, rng, retire, attach):
    """One schedule step; a step whose precondition fails is a no-op."""
    rel_ids = sorted(store.relationships.ids())
    if op == "node":
        if not store.has_node(a):
            store.create_node(a, weight=float(a + 1), properties={"n": a})
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
    elif not rel_ids:
        return
    elif op in ("attach", "detach"):
        rel_id = rel_ids[a % len(rel_ids)]
        record = store.relationship(rel_id)
        end = record.src if flag else record.dst
        if op == "attach" and store.has_node(end):
            # Linked or not: a linked record must come back unchanged.
            assert attach(store, rel_id, end) == store.relationship(rel_id)
            assert linked(store, end, rel_id)
        elif op == "detach" and linked(store, end, rel_id):
            store.detach_endpoint(rel_id, end)
    elif op == "ghost":
        store.set_ghost(rel_ids[a % len(rel_ids)], flag)
    elif op == "delete":
        rel_id = rel_ids[a % len(rel_ids)]
        if deletable(store, rel_id):
            store.delete_relationship(rel_id)
    elif op in ("delete_node", "retire") and store.has_node(a):
        decide = retire_decider(store, a, rng) if op == "retire" else None
        if decide is None and not all(
            deletable(store, rel_id) for rel_id in walked_chain(store, a)
        ):
            return
        retire(store, a, decide)


#: schedule ops; "rel" is listed three times so chains grow long enough
#: to exercise head, middle and tail positions
OPS = (
    "node", "rel", "rel", "rel", "attach", "detach", "ghost", "delete",
    "delete_node", "retire",
)


def random_schedule(rng, length):
    return [
        (rng.choice(OPS), rng.randrange(IDS), rng.randrange(IDS), rng.random() < 0.5)
        for _ in range(length)
    ]


def assert_membership_matches_oracle(store):
    rel_ids = list(store.relationships.ids()) + [ABSENT_REL]
    for node_id in list(store.node_ids()):
        chain = set(walked_chain(store, node_id))
        for rel_id in rel_ids:
            assert store.chain_contains(node_id, rel_id) == (rel_id in chain), (
                node_id,
                rel_id,
            )


def retire_fast(store, node_id, kept_ghost):
    if kept_ghost is None:
        store.delete_node(node_id)
    else:
        store.retire_node(node_id, kept_ghost)


@given(st.integers(0, 2**32), st.integers(10, 80))
@settings(max_examples=80, deadline=None)
def test_chain_contains_and_retire_match_reference(seed, length):
    """After every step ``chain_contains`` equals the full-walk oracle, and
    a twin store driven through the old guarded attach and per-record
    retire loop stays identical."""
    steps = random_schedule(random.Random(seed), length)
    fast, slow = GraphStore(), GraphStore()
    for store in (fast, slow):
        for node_id in range(INITIAL_NODES):
            store.create_node(node_id)
        store.observer = RecordingObserver()
    fast_rng, slow_rng = random.Random(seed + 1), random.Random(seed + 1)
    for op, a, b, flag in steps:
        apply_op(
            fast, op, a, b, flag, fast_rng, retire_fast, GraphStore.attach_endpoint
        )
        apply_op(slow, op, a, b, flag, slow_rng, legacy_retire, legacy_attach)
        assert_membership_matches_oracle(fast)
        assert fast.observer.log == slow.observer.log
        for node_id in fast.node_ids():
            assert walked_chain(fast, node_id) == walked_chain(slow, node_id)
    assert saved_files(fast) == saved_files(slow)


# ----------------------------------------------------------------------
# Random migration plans on placed clusters
# ----------------------------------------------------------------------
def build_cluster(seed, num_vertices, num_servers):
    """A placed cluster whose nodes and primary edges carry properties,
    so ghost downgrades in the remove step free property chains."""
    rng = random.Random(seed)
    cluster = HermesCluster(num_servers)
    for vertex in range(num_vertices):
        cluster.add_vertex(
            vertex,
            weight=rng.choice([1.0, 2.0]),
            properties={"name": f"v{vertex}"},
            server=rng.randrange(num_servers),
        )
    for u in range(num_vertices):
        for v in range(u + 1, num_vertices):
            if rng.random() < 0.3:
                cluster.add_edge(u, v, properties={"since": u * 100 + v})
    return cluster


def random_moves(cluster, rng, num_servers):
    moves = {}
    for vertex in sorted(cluster.graph.vertices()):
        if rng.random() < 0.35:
            source = cluster.catalog.lookup(vertex)
            target = rng.randrange(num_servers)
            if source != target:
                moves[vertex] = (source, target)
    return moves


def migrate(cluster, moves):
    for vertex, (_, target) in moves.items():
        cluster.aux.apply_move(vertex, target, cluster.graph.neighbors(vertex))
    return cluster._executor.execute(build_migration_plan(moves))


@given(
    st.integers(0, 10**6),
    st.integers(min_value=4, max_value=18),
    st.integers(min_value=2, max_value=4),
)
@settings(max_examples=25, deadline=None)
def test_single_walk_remove_step_matches_legacy_loop(seed, num_vertices, num_servers):
    """Identical clusters, identical random plans: the single-walk remove
    step and single-read copy-step merge, against the old per-record
    remove loop and three-read merge, leave every server's saved files
    byte-identical, with identical reports and notifications."""
    fast = build_cluster(seed, num_vertices, num_servers)
    slow = build_cluster(seed, num_vertices, num_servers)
    slow._executor._remove_one = lambda move, final_home, report: (
        legacy_remove_one(slow._executor, move, final_home, report)
    )
    slow._executor._install_relationship = lambda *args: (
        legacy_install_relationship(slow._executor, *args)
    )
    for fast_server, slow_server in zip(fast.servers, slow.servers):
        fast_server.store.observer = RecordingObserver()
        slow_server.store.observer = RecordingObserver()
    rng = random.Random(seed)
    for _ in range(4):
        moves = random_moves(fast, rng, num_servers)
        if not moves:
            continue
        fast_report = migrate(fast, moves)
        slow_report = migrate(slow, moves)
        assert fast_report == slow_report
        for fast_server, slow_server in zip(fast.servers, slow.servers):
            assert saved_files(fast_server.store) == saved_files(slow_server.store)
            assert fast_server.store.observer.log == slow_server.store.observer.log
        fast.validate()
