"""The benchmark's workloads: inputs, timed phase and output checks.

Each workload is one way of driving the Hermes simulator through its
public API.  An *episode* builds fresh inputs from a sub-seed (the timed
``setup``), runs the workload's timed phase once (``run``), and checks
the outputs (``check``).  The harness in ``run.py`` repeats episodes for
the run's duration and aggregates them.

``run`` returns an :class:`Outcome`: the wall time of every operation it
submitted, how many it attempted and how many failed, and the simulated
(modelled-cluster) figures.  Simulated figures depend only on the inputs,
so every repeat of one sub-seed must reproduce them exactly; the harness
checks that too.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.cluster.clients import ClientPool
from repro.cluster.hermes import HermesCluster
from repro.concurrency.config import ConcurrencyConfig
from repro.concurrency.engine import ConcurrentExecutor
from repro.core.config import RepartitionerConfig
from repro.core.repartitioner import LightweightRepartitioner
from repro.experiments.common import apply_partition_hotspot
from repro.graph.generators import compact_powerlaw_graph, make_dataset
from repro.partitioning.hashing import HashPartitioner
from repro.partitioning.metrics import edge_cut, imbalance_factor
from repro.serving.config import ServingConfig
from repro.serving.frontend import COMPLETED, ServingFrontend
from repro.simtest.invariants import InvariantAuditor
from repro.workloads.queries import InsertVertex
from repro.workloads.traces import TraceConfig, hotspot_trace
from repro.workloads.writes import GraphEvolution

NUM_SERVERS = 8

#: simulated figures every workload reports (0 where a figure has no
#: meaning for the workload, e.g. migration cost without a migration)
SIM_KEYS = (
    "edge_cut_fraction",
    "max_imbalance",
    "migration_cost_s",
    "vertices_moved",
    "throughput_vps",
    "op_p99_ms",
)


@dataclass
class Outcome:
    """What one timed phase produced."""

    #: wall seconds of every submitted operation, in submission order
    op_wall: List[float]
    attempted: int
    failed: int
    #: simulated figures (deterministic for a sub-seed)
    sim: Dict[str, float]
    #: workload-specific results the output checks inspect
    detail: Dict[str, Any] = field(default_factory=dict)


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def bfs_ball(graph, start: int, hops: int) -> set:
    """Vertices within ``hops`` hops of ``start`` (start included)."""
    seen = {start}
    frontier = {start}
    for _ in range(hops):
        frontier = {w for u in frontier for w in graph.neighbors(u)} - seen
        seen |= frontier
    return seen


def audit_problems(cluster) -> List[str]:
    return [str(violation) for violation in InvariantAuditor().audit(cluster)]


class Workload:
    """Base class: ``setup`` -> ``run`` (timed) -> ``check``."""

    name = ""

    def __init__(self, size: Dict[str, Any]):
        self.size = size
        #: distinct sub-seeded inputs a run cycles through; the simulated
        #: figures are averaged over them so one unusual graph swings a
        #: run's result less
        self.instances = size["instances"]

    def setup(self, seed: int, tracer=None) -> Dict[str, Any]:
        raise NotImplementedError

    def run(self, state: Dict[str, Any]) -> Outcome:
        raise NotImplementedError

    def check(self, state: Dict[str, Any], outcome: Outcome, full: bool) -> List[str]:
        """Output problems (empty when correct).  ``full`` adds the
        expensive whole-cluster invariant audit."""
        raise NotImplementedError

    @staticmethod
    def _generate(tracer, build):
        if tracer is None:
            return build()
        with tracer.span("graph.generate"):
            return build()


# ----------------------------------------------------------------------
# skew-rebalance
# ----------------------------------------------------------------------
class SkewRebalance(Workload):
    """Hash placement, one partition's weights doubled, one forced
    serial ``HermesCluster.rebalance``.  One op is one rebalance."""

    name = "skew-rebalance"

    def setup(self, seed, tracer=None):
        n = self.size["n"]
        graph = self._generate(
            tracer, lambda: make_dataset("orkut", n=n, seed=seed).graph
        )
        placement = HashPartitioner().partition(graph, NUM_SERVERS)
        apply_partition_hotspot(graph, placement, hot_partition=0, multiplier=2.0)
        config = RepartitionerConfig(
            k_fraction=self.size["k_fraction"],
            max_iterations=self.size["iterations"],
            stall_iterations=None,
        )
        cluster = HermesCluster.from_graph(
            graph, NUM_SERVERS, partitioning=placement, repartitioner=config
        )
        return {"cluster": cluster}

    def run(self, state):
        cluster = state["cluster"]
        start = time.perf_counter()
        outcome = cluster.rebalance(force=True)
        wall = time.perf_counter() - start
        if outcome is None:
            sim = dict.fromkeys(SIM_KEYS, 0.0)
            return Outcome([wall], 1, 1, sim, {"result": None, "report": None})
        result, report = outcome
        sim = {
            "edge_cut_fraction": cluster.edge_cut_fraction(),
            "max_imbalance": cluster.imbalance(),
            "migration_cost_s": report.total_cost,
            "vertices_moved": float(report.vertices_moved),
            "throughput_vps": 0.0,
            "op_p99_ms": report.total_cost * 1e3,
        }
        return Outcome([wall], 1, 0, sim, {"result": result, "report": report})

    def check(self, state, outcome, full):
        cluster = state["cluster"]
        result = outcome.detail["result"]
        report = outcome.detail["report"]
        if result is None:
            return ["forced rebalance did not run"]
        problems = []
        if report.vertices_moved != len(result.moves):
            problems.append(
                f"migrated {report.vertices_moved} vertices, phase 1 planned "
                f"{len(result.moves)}"
            )
        for vertex, (_, target) in result.moves.items():
            if cluster.catalog.lookup(vertex) != target:
                problems.append(f"vertex {vertex} not catalogued on target {target}")
                break
        recomputed = edge_cut(cluster.graph, cluster.partitioning())
        if recomputed != result.final_edge_cut:
            problems.append(
                f"edge cut {recomputed} recomputed from the placement, "
                f"phase 1 reported {result.final_edge_cut}"
            )
        if full:
            problems += audit_problems(cluster)
        return problems


# ----------------------------------------------------------------------
# hotspot-reads
# ----------------------------------------------------------------------
class HotspotReads(Workload):
    """The Figure 9 protocol without a rebalance: 32 simulated clients
    (serial engine, closed loop) run a 2-hop hotspot trace through
    ``ClientPool``.  One op is one traversal."""

    name = "hotspot-reads"

    def setup(self, seed, tracer=None):
        n = self.size["n"]
        graph = self._generate(
            tracer, lambda: make_dataset("orkut", n=n, seed=seed).graph
        )
        cluster = HermesCluster.from_graph(graph.copy(), NUM_SERVERS)
        trace = list(
            hotspot_trace(
                sorted(graph.vertices()),
                sorted(cluster.catalog.vertices_on(0)),
                TraceConfig(
                    num_queries=self.size["queries"], hops=self.size["hops"], seed=seed
                ),
                hot_multiplier=2.0,
            )
        )
        return {"graph": graph, "cluster": cluster, "trace": trace, "seed": seed}

    def run(self, state):
        cluster = state["cluster"]
        clock = _OpClock(cluster)
        pool = ClientPool(cluster, num_clients=self.size["clients"])
        report = pool.run(clock.feed(state["trace"]))
        sim = {
            "edge_cut_fraction": cluster.edge_cut_fraction(),
            "max_imbalance": cluster.imbalance(),
            "migration_cost_s": 0.0,
            "vertices_moved": 0.0,
            "throughput_vps": report.throughput_vertices_per_second,
            "op_p99_ms": percentile(clock.sim, 99) * 1e3,
        }
        attempted = len(state["trace"])
        return Outcome(clock.wall, attempted, attempted - report.operations, sim)

    def check(self, state, outcome, full):
        cluster = state["cluster"]
        problems = []
        if full:
            problems += audit_problems(cluster)
        # Responses of a seeded sample of the trace's own start vertices
        # must equal a BFS ball over the input graph (hash placement,
        # nothing migrated: every vertex is reachable and available).
        rng = random.Random(("hotspot-reads-sample", state["seed"]).__repr__())
        trace = state["trace"]
        hops = self.size["hops"]
        for operation in rng.sample(trace, min(self.size["sample"], len(trace))):
            got = set(cluster.traverse(operation.start, hops).response)
            want = bfs_ball(state["graph"], operation.start, hops)
            if got != want:
                problems.append(
                    f"{hops}-hop traversal from {operation.start} returned "
                    f"{len(got)} vertices, BFS over the input finds {len(want)}"
                )
        return problems


class _OpClock:
    """Times each operation a consumer pulls from ``feed``: an op's wall
    time runs from when it is handed out until the next one is asked for;
    its simulated time is the cluster-clock advance over the same span."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.wall: List[float] = []
        self.sim: List[float] = []
        self._start: Optional[float] = None
        self._sim_start = 0.0

    def _stop(self) -> None:
        if self._start is not None:
            self.wall.append(time.perf_counter() - self._start)
            self.sim.append(self.cluster.now - self._sim_start)
            self._start = None

    def feed(self, operations):
        for operation in operations:
            self._stop()
            self._sim_start = self.cluster.now
            self._start = time.perf_counter()
            yield operation
        self._stop()


# ----------------------------------------------------------------------
# online-mix
# ----------------------------------------------------------------------
class OnlineMix(Workload):
    """Open-loop mixed traffic on the simulated clock through a
    ``ServingFrontend`` with a ``ConcurrentExecutor`` attached, on a
    durable cluster, with periodic forced online rebalances migrating
    under the traffic.  One op is one front-door submission."""

    name = "online-mix"

    def setup(self, seed, tracer=None):
        n = self.size["n"]
        graph = self._generate(
            tracer, lambda: make_dataset("orkut", n=n, seed=seed).graph
        )
        config = RepartitionerConfig(
            k=self.size["k"],
            max_iterations=self.size["iterations"],
            stall_iterations=None,
        )
        cluster = HermesCluster.from_graph(
            graph,
            NUM_SERVERS,
            repartitioner=config,
            concurrency=ConcurrencyConfig(enabled=True),
            durability=True,
        )
        frontend = ServingFrontend(
            cluster, ServingConfig(max_queue_delay=self.size["max_queue_delay"])
        )
        engine = ConcurrentExecutor(cluster)
        frontend.attach_engine(engine)
        # The auditor finds the front door and the engine here.
        cluster.serving = frontend
        cluster._concurrent_engine = engine
        return {"cluster": cluster, "frontend": frontend, "engine": engine, "seed": seed}

    def run(self, state):
        cluster = state["cluster"]
        frontend = state["frontend"]
        engine = state["engine"]
        size = self.size
        rng = random.Random(("online-mix", state["seed"]).__repr__())
        evolution = GraphEvolution(cluster.graph, seed=state["seed"])
        population = sorted(cluster.graph.vertices())
        perf = time.perf_counter
        wall: List[float] = []
        latencies: List[float] = []
        handles = []
        pending = None
        failed = 0
        visited = 0
        for index in range(size["ops"]):
            if (
                pending is None
                and index % size["rebalance_every"] == size["rebalance_every"] // 2
            ):
                pending = engine.submit_rebalance(force=True, at=frontend.now)
                handles.append(pending)
            arrival = index * size["gap"]
            client = f"client-{index % size['clients']}"
            draw = rng.random()
            if draw < size["write_fraction"]:
                operation = evolution.next_operation()
                if isinstance(operation, InsertVertex):
                    args = ("add_vertex", operation.vertex)
                else:
                    args = ("add_edge", operation.u, operation.v)
            elif draw < size["write_fraction"] + size["traverse_fraction"]:
                args = ("traverse", rng.choice(population))
            else:
                args = ("read", rng.choice(population))
            start = perf()
            outcome = frontend.submit(*args, client=client, now=arrival)
            wall.append(perf() - start)
            if outcome.status != COMPLETED:
                failed += 1
                continue
            latencies.append(outcome.latency)
            if args[0] == "add_vertex":
                population.append(args[1])
            elif args[0] == "traverse":
                visited += len(outcome.result)
            elif args[0] == "read":
                visited += 1
            if pending is not None and pending.done:
                frontend.note_topology_change()
                pending = None
        # Drain the migration still in flight (if any) after the last arrival.
        start = perf()
        engine.run()
        if pending is not None:
            frontend.note_topology_change()
        wall[-1] += perf() - start
        moved = sum(
            handle.result[1].vertices_moved
            for handle in handles
            if handle.error is None and handle.result is not None
        )
        cost = sum(
            handle.result[1].total_cost
            for handle in handles
            if handle.error is None and handle.result is not None
        )
        horizon = max(frontend.now, engine.scheduler.now)
        sim = {
            "edge_cut_fraction": cluster.edge_cut_fraction(),
            "max_imbalance": cluster.imbalance(),
            "migration_cost_s": cost,
            "vertices_moved": float(moved),
            "throughput_vps": visited / horizon if horizon else 0.0,
            "op_p99_ms": percentile(latencies, 99) * 1e3,
        }
        return Outcome(wall, size["ops"], failed, sim, {"handles": handles})

    def check(self, state, outcome, full):
        cluster = state["cluster"]
        engine = state["engine"]
        problems = list(engine.coherence_violations)
        problems += engine.monotonicity_violations()
        for handle in outcome.detail["handles"]:
            if handle.error is not None:
                problems.append(f"online rebalance failed: {handle.error!r}")
            elif not handle.done:
                problems.append("online rebalance never finished")
        # Acknowledged writes survive a crash: the recovered store equals
        # the durable pre-crash image.
        start = time.perf_counter()
        episode = cluster.crash_recover_server(state["seed"] % NUM_SERVERS)
        outcome.detail["recover_s"] = time.perf_counter() - start
        if episode["pre"] != episode["post"]:
            problems.append(
                f"server {episode['server']} recovered a store that differs "
                "from its durable pre-crash image"
            )
        if full:
            problems += audit_problems(cluster)
        return problems


# ----------------------------------------------------------------------
# csr-phase1
# ----------------------------------------------------------------------
class CsrPhase1(Workload):
    """Phase 1 alone on the CSR substrate: ``compact_powerlaw_graph``,
    hash placement, ``LightweightRepartitioner.run`` for a fixed number
    of iterations, no cluster.  One op is one phase-1 iteration (the
    first includes the auxiliary-data bootstrap)."""

    name = "csr-phase1"

    def __init__(self, size):
        super().__init__(size)
        self.config = RepartitionerConfig(
            k_fraction=size["k_fraction"],
            max_iterations=size["iterations"],
            stall_iterations=None,
        )

    def setup(self, seed, tracer=None):
        graph = self._generate(
            tracer, lambda: compact_powerlaw_graph(self.size["n"], seed=seed)
        )
        placement = HashPartitioner().partition(graph, NUM_SERVERS)
        return {"graph": graph, "placement": placement, "original": placement.copy()}

    def run(self, state):
        graph = state["graph"]
        stamps = [time.perf_counter()]
        result = LightweightRepartitioner(self.config).run(
            graph,
            state["placement"],
            on_iteration=lambda stats: stamps.append(time.perf_counter()),
        )
        wall = [b - a for a, b in zip(stamps, stamps[1:])]
        sim = {
            "edge_cut_fraction": result.final_edge_cut / graph.num_edges,
            "max_imbalance": result.final_imbalance,
            "migration_cost_s": 0.0,
            "vertices_moved": float(result.vertices_moved),
            "throughput_vps": 0.0,
            "op_p99_ms": 0.0,
        }
        return Outcome(wall, result.iterations, 0, sim, {"result": result})

    def check(self, state, outcome, full):
        graph = state["graph"]
        placement = state["placement"]
        original = state["original"]
        result = outcome.detail["result"]
        problems = []
        cut = edge_cut(graph, placement)
        if cut != result.final_edge_cut:
            problems.append(
                f"edge cut {cut} recomputed on the output, phase 1 reported "
                f"{result.final_edge_cut}"
            )
        imbalance = imbalance_factor(graph, placement)
        if not math.isclose(imbalance, result.final_imbalance, rel_tol=1e-9):
            problems.append(
                f"imbalance {imbalance!r} recomputed on the output, phase 1 "
                f"reported {result.final_imbalance!r}"
            )
        # Phase 1 promises epsilon-balance only where it stops on its own
        # plateau rule; at an iteration cap the balance is whatever the
        # last stage left (and is reported as sim_max_imbalance).
        if result.stalled and result.final_imbalance > self.config.epsilon:
            problems.append(
                f"phase 1 stopped on its plateau rule at imbalance "
                f"{result.final_imbalance!r} > epsilon {self.config.epsilon}"
            )
        for vertex in graph.vertices():
            before = original.partition_of(vertex)
            after = placement.partition_of(vertex)
            if (before != after) != (vertex in result.moves) or (
                before != after and result.moves[vertex] != (before, after)
            ):
                problems.append(f"move list disagrees with the output at vertex {vertex}")
                break
        if len(result.history) != result.iterations:
            problems.append("iteration history length differs from the iteration count")
        return problems


WORKLOADS = {
    workload.name: workload
    for workload in (SkewRebalance, HotspotReads, OnlineMix, CsrPhase1)
}

#: sizes of a measured run, and of the self-test's smoke run
SIZES = {
    "full": {
        "skew-rebalance": {"n": 200, "k_fraction": 0.02, "iterations": 6, "instances": 5},
        "hotspot-reads": {
            "n": 500, "queries": 150, "hops": 2, "clients": 32, "sample": 20,
            "instances": 2,
        },
        "online-mix": {
            "n": 200, "ops": 400, "gap": 5e-3, "max_queue_delay": 0.02, "clients": 32,
            "write_fraction": 0.2, "traverse_fraction": 0.4, "rebalance_every": 400,
            "k": 2, "iterations": 1, "instances": 6,
        },
        "csr-phase1": {"n": 10_000, "k_fraction": 0.01, "iterations": 6, "instances": 2},
    },
    "tiny": {
        "skew-rebalance": {"n": 120, "k_fraction": 0.02, "iterations": 2, "instances": 2},
        "hotspot-reads": {
            "n": 120, "queries": 40, "hops": 2, "clients": 8, "sample": 5,
            "instances": 1,
        },
        "online-mix": {
            "n": 120, "ops": 60, "gap": 5e-3, "max_queue_delay": 0.02, "clients": 8,
            "write_fraction": 0.2, "traverse_fraction": 0.4, "rebalance_every": 30,
            "k": 2, "iterations": 1, "instances": 1,
        },
        "csr-phase1": {"n": 2_000, "k_fraction": 0.01, "iterations": 2, "instances": 1},
    },
}


def make_workload(name: str, scale: str = "full") -> Workload:
    return WORKLOADS[name](SIZES[scale][name])
