"""Which public functions the traced run wraps.

Layers are named after the ``src/repro`` packages; METRICS.md records
which end-to-end metric each layer metric should move.  Every timed boundary
yields ``<name>_s`` (self seconds per traced episode) and
``<name>_calls`` (calls per traced episode); count-only boundaries yield
their count per traced episode.
"""

from __future__ import annotations

from repro.cluster.durability import ServerJournal
from repro.cluster.hermes import HermesCluster
from repro.cluster.migration_executor import MigrationExecutor
from repro.cluster.network import SimulatedNetwork
from repro.cluster.traversal import TraversalEngine
from repro.concurrency.engine import ConcurrentExecutor
from repro.core.auxiliary import AuxiliaryData
from repro.core.repartitioner import LightweightRepartitioner
from repro.graph.compact import GraphBuilder
from repro.serving.frontend import SHED, ServingFrontend
from repro.serving.queue import QueryQueue
from repro.serving.replicas import ReplicaSynchronizer
from repro.serving.router import GraphRouter
from repro.storage.graph_store import GraphStore


def _remote_hops(tracer, result) -> None:
    tracer.add("cluster.remote_hops", result.remote_hops)


def _iterations(tracer, result) -> None:
    tracer.add("core.iterations", result.iterations)


def _events(tracer, handle) -> None:
    if handle is not None:
        tracer.add("concurrency.events")


def _serve_outcome(tracer, outcome) -> None:
    if outcome.status == SHED:
        tracer.add("serving.shed")
    if outcome.replica_read:
        tracer.add("serving.replica_reads")


#: (owner, attribute, span name, kind, post hook); kind is "call",
#: "generator" or "count".  One span name may cover several functions.
WRAPPED = (
    (GraphStore, "create_relationship", "storage.create_relationship", "call", None),
    (GraphStore, "chain_contains", "storage.chain_contains", "call", None),
    (GraphStore, "delete_relationship", "storage.delete_relationship", "call", None),
    (GraphStore, "attach_endpoint", "storage.attach_endpoint", "call", None),
    (GraphStore, "export_node", "storage.export_node", "call", None),
    (GraphStore, "neighbor_entries", "storage.neighbor_read", "generator", None),
    (HermesCluster, "load", "cluster.load", "call", None),
    (MigrationExecutor, "execute", "cluster.migration_execute", "call", None),
    (MigrationExecutor, "migrate_steps", "cluster.migration_execute", "generator", None),
    (MigrationExecutor, "check_window_coherence", "cluster.coherence_sweep", "call", None),
    (TraversalEngine, "traverse", "cluster.traverse", "call", _remote_hops),
    (SimulatedNetwork, "remote_hop", "cluster.network_hop_calls", "count", None),
    (SimulatedNetwork, "batched_hop", "cluster.network_hop_calls", "count", None),
    (ServerJournal, "node_changed", "cluster.journal", "call", None),
    (ServerJournal, "node_removed", "cluster.journal", "call", None),
    (ServerJournal, "rel_changed", "cluster.journal", "call", None),
    (ServerJournal, "rel_removed", "cluster.journal", "call", None),
    (LightweightRepartitioner, "run", "core.phase1", "call", _iterations),
    (AuxiliaryData, "from_graph", "core.aux_bootstrap", "call", None),
    (AuxiliaryData, "apply_move", "core.apply_move", "call", None),
    (GraphBuilder, "finalize", "graph.csr_finalize", "call", None),
    (ConcurrentExecutor, "step", "concurrency.step", "call", _events),
    (ServingFrontend, "submit", "serving.submit_self", "call", _serve_outcome),
    (GraphRouter, "route_read", "serving.route", "call", None),
    (GraphRouter, "primary_of", "serving.route", "call", None),
    (QueryQueue, "try_admit", "serving.admit", "call", None),
    (ReplicaSynchronizer, "record_write", "serving.replica_sync", "call", None),
)

#: spans the workloads open around their own calls into the generators
OWN_SPANS = ("graph.generate",)

#: counts recorded by post hooks
HOOK_COUNTS = (
    "cluster.remote_hops",
    "core.iterations",
    "concurrency.events",
    "serving.shed",
    "serving.replica_reads",
)


def timed_names():
    names = []
    for _, _, name, kind, _ in WRAPPED:
        if kind != "count" and name not in names:
            names.append(name)
    return names + list(OWN_SPANS)


def count_names():
    names = []
    for _, _, name, kind, _ in WRAPPED:
        if kind == "count" and name not in names:
            names.append(name)
    return names + list(HOOK_COUNTS)


def install(tracer) -> None:
    for owner, attr, name, kind, post in WRAPPED:
        tracer.wrap(
            owner,
            attr,
            name,
            generator=kind == "generator",
            count_only=kind == "count",
            post=post,
        )
