"""Hermes simulator benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 hermesbench/run.py --workload skew-rebalance --seed 1 \\
        --seconds 25 --trace 0

The program under test is the ``repro`` package in ``src/``; the
benchmark imports it from there and measures it from outside.

A run repeats rounds of *episodes* until ``--seconds`` have passed (and
at least a minimum number ran).  An episode builds fresh inputs from a
sub-seed of ``--seed`` (timed as set-up), runs the workload's timed
phase, and checks its outputs.  Wall-clock figures keep the fastest
repeat of each identical unit of work, scaled to the reference host by a
fixed probe job (METRICS.md explains why); the simulated figures are
averaged over the run's distinct sub-seeds and must repeat exactly
whenever a sub-seed repeats.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced episodes on the same inputs and prints the per-layer
metrics of the traced ones (self time and calls of every wrapped
boundary, the unattributed remainder of ``run_s`` and the tracing
overhead); the spans go to ``.bench_out/`` at exit.

The last line of standard output is the JSON result.  The exit code is 0
when every output check passed, 1 when one failed, and 2 when the
benchmark cannot run (for example, ``src/repro`` is missing).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: rounds a run always completes, whatever ``--seconds`` says
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
#: hard cap so a very fast workload cannot spin forever
MAX_ROUNDS = 200
#: :func:`host_probe` on the host the bounds were sized on (2-vCPU Xeon
#: VM at 2.0 GHz, CPython 3.11) in its fast phase; calibrated wall-clock
#: figures are seconds at that host speed (see METRICS.md)
REFERENCE_PROBE_S = 0.0025


class MissingProgram(Exception):
    """The benchmark cannot run in this directory."""


def load_program():
    """Put ``src`` on the path and import the benchmark modules."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"program sources not found under {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import layers
    import tracer
    import workloads

    return layers, tracer, workloads


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Episodes
# ----------------------------------------------------------------------
def sub_seed(seed: int, instance: int) -> int:
    return abs(seed) * 1000 + instance


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _probe_once() -> float:
    start = time.perf_counter()
    index = {}
    cells = []
    for i in range(6000):
        cell = _Cell(i * 7919 % 1021, i)
        cells.append(cell)
        index[cell.key] = index.get(cell.key, 0) + cell.value
    total = 0
    for cell in cells:
        total += index[cell.key] & 15
    return time.perf_counter() - start


def host_probe() -> float:
    """Wall time of a fixed pure-Python job (dicts, small objects, lists,
    the simulator's staple operations): the median of three runs with the
    garbage collector paused.  It never touches ``repro``, so only the
    host's speed moves it."""
    gc.disable()
    try:
        return statistics.median(_probe_once() for _ in range(3))
    finally:
        gc.enable()


def run_episode(workload, seed, instance, full_check, tracer=None, layers=None):
    """Set up, run and check one episode; returns a result dict."""
    state = None
    gc.collect()
    probes = [host_probe()]
    if tracer is not None:
        layers.install(tracer)
    try:
        start = time.perf_counter()
        if tracer is None:
            state = workload.setup(sub_seed(seed, instance))
        else:
            with tracer.span("setup"):
                state = workload.setup(sub_seed(seed, instance), tracer)
        setup_s = time.perf_counter() - start
        gc.collect()
        probes.append(host_probe())
        start = time.perf_counter()
        if tracer is None:
            outcome = workload.run(state)
        else:
            with tracer.span("run"):
                outcome = workload.run(state)
        run_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.unwrap()
    probes.append(host_probe())
    problems = workload.check(state, outcome, full_check)
    return {
        "instance": instance,
        "traced": tracer is not None,
        "setup_s": setup_s,
        "run_s": run_s,
        "probes": probes,
        # host slowdown while set-up and the timed phase ran
        "setup_slowdown": (probes[0] + probes[1]) / 2 / REFERENCE_PROBE_S,
        "run_slowdown": (probes[1] + probes[2]) / 2 / REFERENCE_PROBE_S,
        "outcome": outcome,
        "problems": problems,
    }


def run_episodes(workload, seed, seconds, trace, tracer=None, layers=None):
    """Whole rounds until the time is up.  A round runs every sub-seed
    once (untraced) or twice, untraced then traced (``trace``)."""
    instances = workload.instances
    deadline = time.perf_counter() + seconds
    episodes = []
    rounds = 0
    while rounds < MAX_ROUNDS and (
        rounds < (MIN_TRACED_ROUNDS if trace else MIN_ROUNDS)
        or time.perf_counter() < deadline
    ):
        for instance in range(instances):
            for traced in (False, True) if trace else (False,):
                episodes.append(
                    run_episode(
                        workload,
                        seed,
                        instance,
                        full_check=not episodes,
                        tracer=tracer if traced else None,
                        layers=layers,
                    )
                )
        rounds += 1
    return episodes


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def determinism_problems(episodes):
    """Every repeat of a sub-seed must reproduce its simulated figures."""
    first = {}
    problems = []
    for episode in episodes:
        sim = episode["outcome"].sim
        seen = first.setdefault(episode["instance"], sim)
        if sim != seen:
            problems.append(
                f"simulated figures of sub-seed {episode['instance']} changed "
                f"between repeats: {seen} vs {sim}"
            )
    return problems


def sim_means(episodes, instances):
    by_instance = {}
    for episode in episodes:
        by_instance.setdefault(episode["instance"], episode["outcome"].sim)
    sims = [by_instance[i] for i in range(instances)]
    return {key: statistics.fmean(sim[key] for sim in sims) for key in sims[0]}


def typical_of_repeats(episodes):
    """Calibrated wall time of each identical unit of work.

    Every repeat's wall time is divided by the host slowdown its probes
    measured; per sub-seed the median over repeats is kept (METRICS.md
    explains why).  Returns the summed ``run_s`` over sub-seeds, its mean
    per sub-seed, and the time of every op position, concatenated over
    sub-seeds.
    """
    by_instance = {}
    for episode in episodes:
        by_instance.setdefault(episode["instance"], []).append(episode)
    runs = []
    ops = []
    for repeats in by_instance.values():
        runs.append(statistics.median(e["run_s"] / e["run_slowdown"] for e in repeats))
        walls = [
            [wall / e["run_slowdown"] for wall in e["outcome"].op_wall] for e in repeats
        ]
        if len({len(w) for w in walls}) == 1:
            ops += [statistics.median(position) for position in zip(*walls)]
        else:
            ops += [wall for w in walls for wall in w]
    return sum(runs), statistics.fmean(runs), ops


def end_to_end(workloads, episodes, instances):
    untraced = [episode for episode in episodes if not episode["traced"]]
    run_total, run_typical, ops = typical_of_repeats(untraced)
    sim = sim_means(episodes, instances)
    return {
        "setup_s": statistics.median(e["setup_s"] / e["setup_slowdown"] for e in untraced),
        "run_s": run_typical,
        "ops_per_s": len(ops) / run_total,
        "op_p50_ms": workloads.percentile(ops, 50) * 1e3,
        "op_p95_ms": workloads.percentile(ops, 95) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_edge_cut_fraction": sim["edge_cut_fraction"],
        "sim_max_imbalance": sim["max_imbalance"],
    }


def per_layer(layers, tracer, episodes, instances):
    traced = [episode for episode in episodes if episode["traced"]]
    count = len(traced)
    values = {}
    for name in layers.timed_names():
        values[f"{name}_s"] = tracer.self_s.get(name, 0.0) / count
        values[f"{name}_calls"] = tracer.calls.get(name, 0) / count
    for name in layers.count_names():
        values[name] = tracer.counts.get(name, 0.0) / count
    recover = [
        episode["outcome"].detail["recover_s"]
        for episode in episodes
        if "recover_s" in episode["outcome"].detail
    ]
    values["cluster.recover_s"] = statistics.median(recover) if recover else 0.0
    traced_run = sum(episode["run_s"] for episode in traced)
    values["trace.unattributed_s"] = tracer.self_s.get("run", 0.0) / count
    values["trace.unattributed_fraction"] = (
        tracer.self_s.get("run", 0.0) / traced_run if traced_run else 0.0
    )
    values["trace.setup_unattributed_s"] = tracer.self_s.get("setup", 0.0) / count
    # Tracing overhead: traced over untraced run_s, both summed over the
    # same sub-seeds.
    untraced_total, _, _ = typical_of_repeats([e for e in episodes if not e["traced"]])
    traced_total, _, _ = typical_of_repeats(traced)
    values["trace.overhead_fraction"] = traced_total / untraced_total - 1.0
    values["trace.episodes"] = float(count)
    sim = sim_means(episodes, instances)
    values["sim.migration_cost_s"] = sim["migration_cost_s"]
    values["sim.vertices_moved"] = sim["vertices_moved"]
    values["sim.throughput_vps"] = sim["throughput_vps"]
    values["sim.op_p99_ms"] = sim["op_p99_ms"]
    return values


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def git_commit():
    """The checked-out commit read from ``.git`` (None outside a clone)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest():
    """sha256 over every ``src/**/*.py`` path and content."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, episodes, percentile):
    import numpy

    untraced = [e for e in episodes if not e["traced"]]
    runs = [e["run_s"] for e in untraced]
    setups = [e["setup_s"] for e in untraced]
    probes = [p for e in untraced for p in e["probes"]]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repeats": len(untraced),
        "traced_repeats": len(episodes) - len(untraced),
        "op_samples": len(typical_of_repeats(untraced)[2]),
        "raw_run_s_min": min(runs),
        "raw_run_s_median": statistics.median(runs),
        "raw_setup_s_min": min(setups),
        "raw_setup_s_median": statistics.median(setups),
        "probe_s_p10": percentile(probes, 10),
        "probe_s_median": statistics.median(probes),
        "reference_probe_s": REFERENCE_PROBE_S,
        "parallel_selection": False,
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="input sizes; 'tiny' is the self-test's smoke size",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        layers, tracer_module, workloads = load_program()
        spec = load_spec()
    except (MissingProgram, OSError, ImportError) as exc:
        print(f"hermesbench: cannot run: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"hermesbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workload = workloads.make_workload(args.workload, args.scale)
    tracer = tracer_module.Tracer() if args.trace else None
    episodes = run_episodes(
        workload, args.seed, args.seconds, bool(args.trace), tracer, layers
    )
    problems = [p for e in episodes for p in e["problems"]]
    problems += determinism_problems(episodes)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        values = per_layer(layers, tracer, episodes, workload.instances)
        wanted = [m["name"] for m in spec["per_layer"]]
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = tracer.write_spans(
            out_dir / f"spans-{args.workload}-seed{args.seed}.csv"
        )
        print(f"spans written: {spans}")
    else:
        values = end_to_end(workloads, episodes, workload.instances)
        wanted = [m["name"] for m in spec["end_to_end"]]
    metrics = {name: {"value": values[name], "unit": units[name]} for name in wanted}

    print(
        "provenance "
        + json.dumps(provenance(args, episodes, workloads.percentile), sort_keys=True)
    )
    for name in wanted:
        print(f"{name:<40} {values[name]:>16.6g} {units[name]}")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(e["outcome"].attempted for e in episodes),
        "failed": sum(e["outcome"].failed for e in episodes),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
