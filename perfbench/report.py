"""Turn episodes into named metrics.

Every metric is a :class:`Metric`: a value, its unit, the number of
samples behind it and an optional note (for example when a p99 had too few
samples and a lower percentile was reported instead).
"""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass

from .episode import Episode, percentile
from .refloop import NOMINAL_PASS_US

__all__ = ["Metric", "end_to_end_metrics", "per_layer_metrics"]

STAGES = ("version", "queries", "certify", "sync", "commit", "global", "routing")


@dataclass(frozen=True)
class Metric:
    value: float
    unit: str
    samples: int
    note: str = ""


def _nominal_s(wall_s: float, episode: Episode) -> float:
    """``wall_s`` scaled to the reference loop's nominal speed."""
    return wall_s * NOMINAL_PASS_US / episode.ref.pass_us


def _cost_per_commit(episodes: list) -> tuple:
    """Window wall time per commit in reference-loop passes, each episode's
    wall converted by its own median pass time, then pooled."""
    passes = sum(e.window_wall_s / (e.ref.pass_us * 1e-6) for e in episodes)
    commits = sum(e.committed for e in episodes)
    return passes / max(commits, 1), commits


def _latency(samples: list, is_update: bool, q: float) -> Metric:
    values = [s.response_time for s in samples if s.committed and s.is_update == is_update]
    value, used = percentile(values, q)
    note = "" if used == q else f"p{used * 100:.1f} reported: too few samples for p{q * 100:g}"
    return Metric(value, "ms", len(values), note)


def end_to_end_metrics(spec, episodes: list) -> dict:
    """The end-to-end metrics of an untraced run, pooled over its episodes."""
    samples = [s for e in episodes for s in e.samples]
    committed = [s for s in samples if s.committed]
    cost, commits = _cost_per_commit(episodes)
    setups = [_nominal_s(e.setup_wall_s, e) for e in episodes]
    sync = [s.stages.synchronization_delay for s in committed if s.stages is not None]
    window_s = spec.window_ms / 1000.0 * len(episodes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "sim_cost_per_commit": Metric(cost, "refloop", commits),
        "setup_s": Metric(statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": Metric(rss_mb, "MB", 1),
        "tps": Metric(len(committed) / window_s, "txn/s", len(committed)),
        "read_p50_ms": _latency(samples, False, 0.50),
        "read_p99_ms": _latency(samples, False, 0.99),
        "update_p50_ms": _latency(samples, True, 0.50),
        "update_p99_ms": _latency(samples, True, 0.99),
        "sync_delay_mean_ms": Metric(statistics.fmean(sync), "ms", len(sync)),
        "committed_share": Metric(len(committed) / len(samples), "ratio", len(samples)),
    }


def diagnostics(episodes: list) -> dict:
    """Calibration evidence, printed for every run and never gated."""
    passes = [p for e in episodes for p in e.ref.pass_s]
    commits = sum(e.committed for e in episodes)
    attempted = sum(len(e.samples) for e in episodes)
    wall = sum(e.window_wall_s for e in episodes)
    return {
        "bench.ref_loop_us": Metric(statistics.median(passes) * 1e6, "us", len(passes)),
        "bench.wall_us_per_commit_raw": Metric(wall / max(commits, 1) * 1e6, "us", commits),
        "bench.failed_share": Metric(1.0 - commits / max(attempted, 1), "ratio", attempted),
    }


def per_layer_metrics(plain: Episode, traced: Episode,
                      tracer_full: Episode, tracer_sampled: Episode) -> dict:
    """The per-layer metrics of a traced run."""
    commits = max(traced.committed, 1)
    wall = traced.window_wall_s
    self_s = traced.layer_self_s
    calls = traced.layer_calls
    entries = traced.layer_entries
    remainder = wall - sum(self_s.values())
    resumes = sum(n for name, n in calls.items() if name.startswith("resume."))
    cert = traced.certifier
    certifications = cert["certified"] + cert["aborts"]
    committed = [s for s in traced.samples if s.committed and s.stages is not None]

    def share(layer: str) -> Metric:
        if layer == "kernel":
            return Metric(remainder / wall, "ratio", traced.events)
        return Metric(self_s.get(layer, 0.0) / wall, "ratio", entries.get(layer, 0))

    def per_commit(count: float, unit: str = "count") -> Metric:
        return Metric(count / commits, unit, commits)

    metrics = {
        "kernel.events_per_commit": per_commit(traced.events),
        "kernel.resumes_per_commit": per_commit(resumes),
        "kernel.self_share": share("kernel"),
        "network.messages_per_commit": per_commit(traced.messages),
        "network.self_share": share("network"),
        "storage.calls_per_commit": per_commit(entries.get("storage", 0)),
        "storage.scans_lookups_per_commit": per_commit(
            calls.get("storage.scan", 0) + calls.get("storage.lookup", 0)
        ),
        "storage.refresh_applies_per_commit": per_commit(
            calls.get("storage.apply_refresh", 0)
        ),
        "storage.self_share": share("storage"),
        "storage.populate_s": Metric(
            _nominal_s(traced.populate_wall_s, traced), "s", 1
        ),
        "balancer.self_share": share("balancer"),
        "balancer.outstanding_max": Metric(
            traced.outstanding_max, "count", len(traced.lag_samples)
        ),
        "lifecycle.self_share": share("lifecycle"),
    }
    for kind, is_update in (("update", True), ("read", False)):
        stages = [s.stages for s in committed if s.is_update == is_update]
        for stage in STAGES:
            attr = "global_" if stage == "global" else stage
            values = [getattr(st, attr) for st in stages]
            mean = statistics.fmean(values) if values else 0.0
            metrics[f"stage.{kind}.{stage}_ms"] = Metric(mean, "ms", len(values))
    lag, lag_q = percentile(traced.lag_samples, 0.99)
    metrics.update({
        "proxy.self_share": share("proxy"),
        "refresh.self_share": share("refresh"),
        "refresh.applies_per_commit": per_commit(calls.get("resume.refresh", 0)),
        "refresh.pending_max": Metric(
            traced.pending_max, "versions", len(traced.lag_samples)
        ),
        "replica.lag_p99": Metric(
            lag, "versions", len(traced.lag_samples),
            "" if lag_q == 0.99 else f"p{lag_q * 100:.1f} reported: too few samples for p99",
        ),
        "replica.cpu_util_max": Metric(traced.cpu_util_max, "ratio", 1),
        "certifier.self_share": share("certifier"),
        "certifier.certifications_per_commit": per_commit(certifications),
        "certifier.conflict_share": Metric(
            cert["aborts"] / max(certifications, 1), "ratio", certifications
        ),
        "certifier.row_comparisons_per_cert": Metric(
            cert["row_comparisons"] / max(certifications, 1), "count", certifications
        ),
        "certifier.cross_partition_share": Metric(
            cert["cross_partition_commits"] / max(cert["certified"], 1), "ratio",
            cert["certified"],
        ),
        "certifier.cross_shard_stalls": Metric(
            cert["cross_shard_stalls"], "count", cert["certified"]
        ),
        "certifier.queue_max": Metric(
            traced.certifier_queue_max, "count", len(traced.lag_samples)
        ),
        "clients.self_share": share("clients"),
        "metrics.self_share": share("metrics"),
        "histories.self_share": share("histories"),
        "histories.check_s": Metric(_nominal_s(traced.check_wall_s, traced), "s", 1),
        "other.self_share": share("other"),
        "obs.timing_overhead": Metric(
            traced.calibrated_cost / plain.calibrated_cost, "ratio", commits
        ),
        "obs.tracer_overhead_full": Metric(
            tracer_full.calibrated_cost / plain.calibrated_cost, "ratio", commits
        ),
        "obs.tracer_overhead_sampled": Metric(
            tracer_sampled.calibrated_cost / plain.calibrated_cost, "ratio", commits
        ),
    })
    metrics.update(diagnostics([plain]))
    return metrics
