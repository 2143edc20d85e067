"""Fidelity tests of the benchmark itself (short windows, a few seconds).

Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.bench import attribution_problem
from perfbench.episode import BenchmarkFailure, correctness_gate, percentile, run_episode
from perfbench.layers import LayerTracer
from perfbench.workloads import WORKLOADS
from repro.histories.records import RunHistory
from repro.metrics.collector import MetricsCollector
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.storage.engine import StorageEngine

ROOT = Path(__file__).resolve().parent.parent


def short(name: str):
    """The workload with a window of a few hundred virtual ms; the burst
    keeps its first step up and down, one slice apart."""
    spec = WORKLOADS[name]
    warmup, window = 200.0, 600.0
    slice_ms = window / 6
    actions = tuple(
        (warmup + slice_ms * (2 + i), action)
        for i, (_, action) in enumerate(spec.actions[:2])
    )
    return dataclasses.replace(
        spec, warmup_ms=warmup, window_ms=window, slice_ms=slice_ms, actions=actions
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_runs_have_the_untraced_fingerprint(name):
    spec = short(name)
    expected = run_episode(spec, 3).fingerprint()
    for mode in ("layers", "tracer-full", "tracer-sampled"):
        assert run_episode(spec, 3, mode).fingerprint() == expected, mode


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_self_times_add_up_to_the_window(name):
    episode = run_episode(short(name), 5, "layers")
    assert attribution_problem(episode) == ""
    assert episode.window_wall_s - sum(episode.layer_self_s.values()) >= 0


def test_sliced_and_single_call_runs_are_identical():
    spec = short("micro-eager-write")
    sliced = run_episode(spec, 7)
    single = run_episode(spec, 7, slices=[spec.end_ms])
    assert sliced.fingerprint() == single.fingerprint()
    assert sliced.events == single.events


def test_burst_slicing_only_needs_the_rate_steps():
    spec = short("micro-partitioned-burst")
    steps = sorted(at for at, _ in spec.actions)
    sliced = run_episode(spec, 7)
    coarse = run_episode(spec, 7, slices=steps + [spec.end_ms])
    assert sliced.fingerprint() == coarse.fingerprint()


def test_load_steps_must_fall_on_slice_boundaries():
    spec = short("micro-partitioned-burst")
    with pytest.raises(ValueError, match="slice boundaries"):
        run_episode(spec, 7, slices=[spec.end_ms])


def test_patches_are_removed_after_a_layers_run():
    originals = (
        Environment.process, StorageEngine.read, Network.send,
        MetricsCollector.record, RunHistory.add,
    )
    run_episode(short("tpcw-shopping"), 2, "layers")
    assert originals == (
        Environment.process, StorageEngine.read, Network.send,
        MetricsCollector.record, RunHistory.add,
    )


def test_nested_spans_charge_self_time_once():
    tracer = LayerTracer()
    outer = tracer._enter("lifecycle", "resume.lifecycle")
    inner = tracer._enter("storage", "storage.read")
    again = tracer._enter("storage", "storage.read")
    tracer._exit(again)
    tracer._exit(inner)
    tracer._exit(outer)
    assert tracer.entries["storage"] == 1
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.covered_s)


def test_gate_rejects_a_dropped_message():
    spec = short("tpcw-shopping")
    deployment = spec.build(1, spec.collector(), None)
    deployment.cluster.run(spec.end_ms)
    deployment.cluster.network.record_drop("test")
    with pytest.raises(BenchmarkFailure, match="seed 1"):
        correctness_gate(spec, 1, deployment.cluster)


def test_percentile_falls_back_when_the_tail_is_thin():
    values = list(range(1, 501))
    value, used = percentile(values, 0.99)
    assert used == pytest.approx(0.98)
    assert value == 490
    assert percentile(list(range(1, 1001)), 0.99) == (990, 0.99)


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tpcw-shopping",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_benchmark_json_names_the_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
