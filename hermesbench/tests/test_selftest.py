"""Self-test of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest -q hermesbench/tests

Every workload runs once per trace mode; every metric ``BENCHMARK.json``
names for that mode must be printed with its unit.  Each output check is
then fed a deliberately corrupted result and must reject it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from repro.simtest.runner import _corrupt  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    return code, out.getvalue().splitlines()


def test_spec_names_every_workload():
    assert sorted(WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_metric_printed_with_unit(name, trace):
    code, lines = run_bench(
        "--workload", name, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--scale", "tiny",
    )
    result = json.loads(lines[-1])
    assert code == 0, lines[-25:]
    assert result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
            for line in lines
        ), metric["name"]
    if not trace:
        for metric in wanted:
            assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]
    assert any(line.startswith("provenance ") for line in lines)


def test_missing_program_fails_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "csr-phase1", "--seed", "1", "--seconds", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class _Toy:
    def outer(self):
        _spin(0.01)
        return sum(self.items())

    def items(self):
        for i in range(3):
            _spin(0.005)
            yield i


def test_tracer_self_times_add_up_and_generators_are_timed_while_iterated():
    original = _Toy.outer
    tracer = Tracer()
    tracer.wrap(_Toy, "outer", "toy.outer")
    tracer.wrap(_Toy, "items", "gen.items", generator=True)
    with tracer.span("run"):
        assert _Toy().outer() == 3
    tracer.unwrap()
    assert _Toy.outer is original
    assert tracer.calls["toy.outer"] == 1 and tracer.calls["gen.items"] == 1
    assert tracer.self_s["gen.items"] >= 0.015
    assert tracer.self_s["toy.outer"] >= 0.01
    spans = {name: (span_id, parent, start, end) for span_id, parent, name, start, end in tracer.spans}
    run_id, _, run_start, run_end = spans["run"]
    assert spans["toy.outer"][1] == run_id
    assert spans["gen.items"][1] == spans["toy.outer"][0]
    total = sum(tracer.self_s[name] for name in ("run", "toy.outer", "gen.items"))
    assert total == pytest.approx(run_end - run_start, abs=1e-6)


# ----------------------------------------------------------------------
# Each output check rejects a corrupted result
# ----------------------------------------------------------------------
def episode(name, seed=5):
    workload = workloads.make_workload(name, "tiny")
    state = workload.setup(seed)
    outcome = workload.run(state)
    assert workload.check(state, outcome, full=True) == []
    return workload, state, outcome


def test_skew_rebalance_rejects_a_reverted_move():
    workload, state, outcome = episode("skew-rebalance")
    vertex, (source, _) = next(iter(outcome.detail["result"].moves.items()))
    state["cluster"].catalog.move(vertex, source)
    problems = workload.check(state, outcome, full=False)
    assert any("not catalogued" in problem for problem in problems)


def test_skew_rebalance_rejects_a_wrong_cut():
    workload, state, outcome = episode("skew-rebalance")
    outcome.detail["result"].final_edge_cut += 1
    assert workload.check(state, outcome, full=False)


def test_cluster_audit_rejects_a_dropped_record():
    workload, state, outcome = episode("skew-rebalance")
    _corrupt(state["cluster"], "drop_record")
    assert workload.check(state, outcome, full=True)


def test_hotspot_reads_rejects_traversals_that_miss_vertices():
    workload, state, outcome = episode("hotspot-reads")
    store = state["cluster"].servers[1].store
    for vertex in list(store.node_ids()):
        store.set_available(vertex, False)
    problems = workload.check(state, outcome, full=False)
    assert any("BFS" in problem for problem in problems)


def test_online_mix_rejects_a_clock_violation():
    workload, state, outcome = episode("online-mix")
    _corrupt(state["cluster"], "event_skew")
    assert workload.check(state, outcome, full=False)


def test_online_mix_rejects_a_leaked_window():
    workload, state, outcome = episode("online-mix")
    _corrupt(state["cluster"], "window_leak")
    assert workload.check(state, outcome, full=True)


def test_online_mix_rejects_a_lossy_recovery(monkeypatch):
    workload, state, outcome = episode("online-mix")
    cluster = state["cluster"]
    recover = cluster.crash_recover_server

    def lossy(server_id, keep_unflushed_bytes=0):
        result = recover(server_id, keep_unflushed_bytes)
        rels = dict(result["post"]["rels"])
        rels.pop(next(iter(rels)))
        return {**result, "post": {**result["post"], "rels": rels}}

    monkeypatch.setattr(cluster, "crash_recover_server", lossy)
    problems = workload.check(state, outcome, full=False)
    assert any("pre-crash image" in problem for problem in problems)


def test_online_mix_rejects_a_failed_rebalance():
    workload, state, outcome = episode("online-mix")
    outcome.detail["handles"][0].error = RuntimeError("aborted")
    assert workload.check(state, outcome, full=False)


def test_csr_phase1_rejects_a_wrong_cut():
    workload, state, outcome = episode("csr-phase1")
    outcome.detail["result"].final_edge_cut -= 1
    assert workload.check(state, outcome, full=False)


def test_csr_phase1_rejects_an_unlisted_move():
    workload, state, outcome = episode("csr-phase1")
    placement = state["placement"]
    vertex = next(
        v for v in state["graph"].vertices() if v not in outcome.detail["result"].moves
    )
    placement.move(vertex, (placement.partition_of(vertex) + 1) % 8)
    assert workload.check(state, outcome, full=False)


def test_repeats_must_reproduce_simulated_figures():
    outcome = workloads.Outcome([0.1], 1, 0, {"edge_cut_fraction": 0.5})
    drifted = workloads.Outcome([0.1], 1, 0, {"edge_cut_fraction": 0.6})
    episodes = [
        {"instance": 0, "outcome": outcome},
        {"instance": 0, "outcome": drifted},
    ]
    assert run.determinism_problems(episodes)
