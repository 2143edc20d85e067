"""One episode: build a cluster, warm it up, measure a window, check it.

An episode is fully deterministic in its seed.  The measured window runs
in slices; between slices (never inside the simulation) the episode times
one pass of the reference loop and samples replica lag, refresh backlog,
balancer and certifier queue depths.  Counters are snapshotted at the
window's edges, before the correctness gate runs ``quiesce()`` and the
history checker.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from repro.histories import is_strongly_consistent
from repro.metrics.tracing import TRACER

from .layers import LayerTracer
from .refloop import RefLoopClock
from .workloads import WorkloadSpec

__all__ = ["BenchmarkFailure", "Episode", "run_episode", "MODES"]

#: how an episode is instrumented: ``plain`` (untraced, the end-to-end
#: figures), ``layers`` (outside-in layer timing), and the program's own
#: tracer at sample rates 1.0 and 0.1
MODES = {
    "plain": None,
    "layers": None,
    "tracer-full": {"trace_enabled": True, "trace_sample_rate": 1.0},
    "tracer-sampled": {"trace_enabled": True, "trace_sample_rate": 0.1},
}


class BenchmarkFailure(Exception):
    """A correctness check failed; the run reports no metrics."""


@dataclass
class Episode:
    """Everything one episode measured (window figures are deltas over the
    measured window)."""

    seed: int
    mode: str
    ref: RefLoopClock
    setup_wall_s: float = 0.0
    window_wall_s: float = 0.0
    samples: list = field(default_factory=list)
    #: requests the balancer rejected, shed or left unresolved
    refused: int = 0
    events: int = 0
    messages: int = 0
    commit_version: int = 0
    #: certifier counter deltas
    certifier: dict = field(default_factory=dict)
    #: maxima and samples taken between slices
    outstanding_max: int = 0
    pending_max: int = 0
    certifier_queue_max: int = 0
    lag_samples: list = field(default_factory=list)
    cpu_util_max: float = 0.0
    check_wall_s: float = 0.0
    #: layer counters (``layers`` mode only)
    layer_self_s: Optional[dict] = None
    layer_entries: Optional[dict] = None
    layer_calls: Optional[dict] = None
    #: wall time inside top-level spans
    layer_covered_s: float = 0.0
    #: time in ``Database.load_row`` during set-up
    populate_wall_s: float = 0.0

    @property
    def committed(self) -> int:
        return sum(1 for s in self.samples if s.committed)

    @property
    def calibrated_cost(self) -> float:
        """Window wall time per commit, in reference-loop passes."""
        return self.window_wall_s / max(self.committed, 1) / (self.ref.pass_us * 1e-6)

    def fingerprint(self) -> str:
        """The modelled outcome: counts, versions, events and every
        sample's timing, as one string (byte-identical across runs of one
        seed, whatever the instrumentation)."""
        digest = hashlib.sha256(repr([
            (s.template, s.committed, s.submit_time, s.ack_time,
             s.stages.as_dict() if s.stages is not None else None)
            for s in self.samples
        ]).encode()).hexdigest()[:16]
        aborted = len(self.samples) - self.committed
        return (
            f"committed={self.committed} aborted={aborted} "
            f"commit_version={self.commit_version} events={self.events} "
            f"messages={self.messages} samples={digest}"
        )


def _certifier_counters(certifier) -> dict:
    stats = certifier.stats()
    return {
        "certified": stats["certified"],
        "aborts": stats["aborts"],
        "row_comparisons": certifier.row_comparisons,
        "cross_partition_commits": stats["cross_partition_commits"],
        "cross_shard_stalls": stats["cross_shard_stalls"],
    }


def _certifier_queue(certifier) -> int:
    stats = certifier.stats()
    return stats["queue_length"] + sum(
        shard["queue_length"] for shard in stats["shards"].values()
    )


def run_episode(
    spec: WorkloadSpec,
    seed: int,
    mode: str = "plain",
    slices: Optional[list] = None,
) -> Episode:
    """Run one episode of ``spec`` at ``seed``.

    ``slices`` overrides the window's slice boundaries (virtual ms); the
    default cuts the window every ``spec.slice_ms``.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    gc.collect()
    episode = Episode(seed=seed, mode=mode, ref=RefLoopClock())
    episode.ref.tick()
    tracer = LayerTracer() if mode == "layers" else contextlib.nullcontext()
    try:
        with tracer:
            cluster, deployment = _measure(spec, seed, episode, tracer, slices)
    finally:
        if MODES[mode] is not None:
            TRACER.disable()
            TRACER.reset()
    episode.samples = list(deployment.collector.samples)
    balancer = cluster.load_balancer
    episode.refused = (
        balancer.rejected_count + balancer.shed_count + balancer.unresolved_count
    )
    episode.check_wall_s = correctness_gate(spec, seed, cluster)
    return episode


def _measure(spec, seed, episode, tracer, slices):
    """Build, warm up and measure; fills ``episode`` and returns the
    cluster and its deployment.  Ends at the end of the window."""
    layered = isinstance(tracer, LayerTracer)
    started = perf_counter()
    deployment = spec.build(seed, spec.collector(), MODES[episode.mode])
    episode.setup_wall_s = perf_counter() - started
    cluster = deployment.cluster
    if layered:
        episode.populate_wall_s = tracer.self_s["storage"]
        tracer.wrap_workload(cluster.workload)
    episode.ref.tick()
    cluster.run(spec.warmup_ms)
    episode.ref.tick()

    env, network, balancer = cluster.env, cluster.network, cluster.load_balancer
    proxies = list(cluster.replicas.values())
    events0 = env.events_processed
    messages0 = network.sent_count
    cert0 = _certifier_counters(cluster.certifier)
    busy0 = [p.cpu.busy_slot_ms for p in proxies]
    if layered:
        self0, entries0, calls0, covered0 = tracer.snapshot()
    boundaries = slices if slices is not None else spec.slice_boundaries()
    actions = dict(spec.actions)
    if not set(actions) <= set(boundaries):
        raise ValueError(
            f"{spec.name}: load steps {sorted(set(actions) - set(boundaries))} "
            "do not fall on slice boundaries"
        )
    for until in boundaries:
        started = perf_counter()
        cluster.run(until)
        episode.window_wall_s += perf_counter() - started
        action = actions.get(until)
        if action is not None:
            action(deployment.load)
        # Samples between slices: plain attribute reads, no process.
        v_commit = cluster.certifier.commit_version
        for proxy in proxies:
            episode.lag_samples.append(v_commit - proxy.v_local)
            episode.pending_max = max(episode.pending_max, proxy.pending_refresh_count)
        episode.outstanding_max = max(episode.outstanding_max, balancer.outstanding_count)
        episode.certifier_queue_max = max(
            episode.certifier_queue_max, _certifier_queue(cluster.certifier)
        )
        episode.ref.tick()

    if layered:
        self1, entries1, calls1, covered1 = tracer.snapshot()
        episode.layer_self_s = dict(self1 - self0)
        episode.layer_entries = dict(entries1 - entries0)
        episode.layer_calls = dict(calls1 - calls0)
        episode.layer_covered_s = covered1 - covered0
    episode.events = env.events_processed - events0
    episode.messages = network.sent_count - messages0
    episode.commit_version = cluster.certifier.commit_version
    cert1 = _certifier_counters(cluster.certifier)
    episode.certifier = {key: cert1[key] - cert0[key] for key in cert0}
    episode.cpu_util_max = max(
        (p.cpu.busy_slot_ms - b0) / (p.cpu.capacity * spec.window_ms)
        for p, b0 in zip(proxies, busy0)
    )
    return cluster, deployment


def correctness_gate(spec: WorkloadSpec, seed: int, cluster) -> float:
    """Check the episode's outputs; raise :class:`BenchmarkFailure` on any
    violation.  Returns the history checker's wall time."""
    where = f"workload {spec.name} seed {seed}"
    cluster.quiesce()
    target = cluster.commit_version
    live = [p for p in cluster.replicas.values() if not p.crashed]
    behind = {p.name: p.v_local for p in live if p.v_local != target}
    if behind:
        raise BenchmarkFailure(f"{where}: replicas not at V_commit={target}: {behind}")
    digests = {p.name: p.engine.database.digests() for p in live}
    if len({tuple(sorted(d.items())) for d in digests.values()}) != 1:
        raise BenchmarkFailure(f"{where}: replica digests differ after quiesce")
    if cluster.network.dropped_count:
        raise BenchmarkFailure(
            f"{where}: network dropped {cluster.network.dropped_count} messages"
        )
    if cluster.load_balancer.unresolved_count:
        raise BenchmarkFailure(
            f"{where}: {cluster.load_balancer.unresolved_count} unresolved requests"
        )
    started = perf_counter()
    consistent = is_strongly_consistent(cluster.history)
    check_wall_s = perf_counter() - started
    if not consistent:
        raise BenchmarkFailure(f"{where}: history is not strongly consistent")
    return check_wall_s


def percentile(values: list, q: float) -> tuple:
    """Nearest-rank ``q`` percentile of ``values``, lowered until at least
    ten samples lie beyond it.  Returns ``(value, q_used)``."""
    n = len(values)
    if n == 0:
        return math.nan, q
    if n * (1.0 - q) < 10.0:
        q = max(0.5, 1.0 - 10.0 / n)
    ordered = sorted(values)
    index = min(n - 1, max(0, math.ceil(q * n) - 1))
    return ordered[index], q
