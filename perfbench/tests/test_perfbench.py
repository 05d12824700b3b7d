"""Tests of the benchmark's own code (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
import workloads
from tracer import LAYERS, OP, OpTrace, Span, Tracer, self_times
from workloads import OpResult, Workload

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _listed(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_times_subtract_direct_children_only():
    spans = [
        Span("op", "root", -1, 0.0, 10.0),
        Span("a", "a", 0, 1.0, 4.0),
        Span("b", "b", 1, 2.0, 3.0),  # grandchild: charged to a, not root
        Span("c", "c", 0, 5.0, 9.0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_op_trace_self_times_sum_to_op_wall_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.begin("earlier", "ignored")  # a span before the op's root
    tracer.end(0)
    root = len(tracer.spans)
    with tracer.span(OP, "op"):
        with tracer.span("display.panel", "p"):
            with tracer.span("core.multiplexer", "m"):
                pass
        with tracer.span("display.panel", "p"):
            pass
    trace = OpTrace()
    trace.add(tracer.spans, root)
    layer_self = sum(t.self_s for t in trace.layers.values())
    assert trace.ops == 1
    assert "earlier" not in trace.layers
    assert layer_self + trace.unattributed_s == pytest.approx(trace.wall_s)
    assert trace.per_op("display.panel")[:2] == (2, 3.0)  # (3 - 1) + 1
    assert trace.per_op("core.multiplexer") == (1, 1.0, 1000.0)
    assert trace.unattributed_s == 3.0


def test_installed_wrappers_are_removed_afterwards():
    from repro.core.multiplexer import MultiplexedStream

    original = MultiplexedStream.frame
    tracer = Tracer()
    with tracer.installed():
        assert MultiplexedStream.frame is not original
    assert MultiplexedStream.frame is original


# ----------------------------------------------------------------------
# Inputs from the seed
# ----------------------------------------------------------------------
def test_op_seeds_follow_the_workload_seed():
    wl = Workload("w", pool=32, min_ops=1)
    first = [wl.op_seed(1, i) for i in range(8)]
    assert first == [wl.op_seed(1, i) for i in range(8)]
    assert first[0] == 1  # the default seed opens with the Fig 7 run seed
    assert set(first).isdisjoint(wl.op_seed(2, i) for i in range(8))
    assert all(0 <= s < wl.pool for s in first)


def test_same_seed_same_inputs_and_fleet_join_times_differ_by_seed():
    from repro.serve import compile_receivers, parse_cohorts

    fleet = workloads.WORKLOADS["fleet"]
    cohorts = parse_cohorts(workloads.FLEET_COHORTS)

    def joins(seed):
        op_seed = fleet.op_seed(seed, 0)
        return [spec.join_s for spec in compile_receivers(cohorts, seed=op_seed)]

    assert joins(1) == joins(1)
    assert joins(1) != joins(2)


def test_transfer_payloads_repeat_per_seed():
    from repro.serve import deterministic_payload

    n = workloads.TRANSFER_PAYLOAD_BYTES
    assert deterministic_payload(n, seed=3) == deterministic_payload(n, seed=3)
    assert deterministic_payload(n, seed=3) != deterministic_payload(n, seed=4)


def test_every_pool_entry_has_a_reference():
    for name, wl in workloads.WORKLOADS.items():
        refs = workloads.load_references(name)
        assert sorted(map(int, refs)) == list(range(wl.pool)), name


def test_reference_check_reports_mismatch():
    record = {"bits_sha256": "ab", "stats": {"n": 1.5}}
    assert workloads.check(record, json.loads(json.dumps(record))) == (True, "")
    ok, why = workloads.check(record, {"bits_sha256": "ab", "stats": {"n": 2.0}})
    assert not ok and "stats" in why
    assert not workloads.check(record, None)[0]


# ----------------------------------------------------------------------
# Printed metric names
# ----------------------------------------------------------------------
class _FakeBench:
    """Instant operations in the workload interface."""

    workload = Workload("fake", pool=8, min_ops=2)
    workers = None

    def run(self, seed, workers):
        return seed

    def score(self, run_, seed, host_s):
        return OpResult(host_s=host_s + 0.01, sim_s=1.0, goodput_kbps=10.0,
                        display_frames=4, ok=True)

    def record(self, run_):
        return {"seed": run_}


def test_metric_names_match_benchmark_json(tmp_path, monkeypatch):
    assert worker.END_TO_END == _listed("end_to_end")
    assert worker.PER_LAYER == _listed("per_layer")
    assert set(json.loads((ROOT / "perfbench" / "plan.json").read_text())["layer_map"]) >= set(
        LAYERS
    )
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert list(json.loads((ROOT / "perfbench" / "plan.json").read_text())["workloads"]) == list(
        workloads.WORKLOADS
    )

    monkeypatch.setattr(workloads, "load_references", lambda name: {})
    monkeypatch.setattr(worker, "load_references", lambda name: {})
    _, plain = worker.measure(_FakeBench(), seed=1, seconds=0.0)
    _, traced = worker.measure_traced(_FakeBench(), seed=1, seconds=0.0,
                                      trace_path=tmp_path / "t.json")
    assert set(plain) | {"setup_s"} == set(worker.END_TO_END)
    assert set(traced) == set(worker.PER_LAYER)

    record = {"workload": "fake", "seed": 1, "trace": 0, "attempted": 2, "failed": 0,
              "failures": [], "op_s": [0.1, 0.1], "setup_samples": [0.5],
              "metrics": {**plain, "setup_s": 0.5},
              "host": {"usable_cpus": 1, "numpy": "x", "scipy": "y", "python": "z"}}
    printed = run.report(record, worker.END_TO_END)
    assert list(printed) == [m["name"] for m in BENCHMARK["end_to_end"]]


def test_benchmark_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
