"""The untraced and traced runs of one workload.

An untraced run measures several episodes, each a fresh cluster at its own
seed derived from ``--seed``, so the modelled metrics pool samples over
several draws of replica speed and arrival streams.  The episode count
follows from ``--seconds`` and the workload's nominal episode length, never
from measured wall time, so the modelled metrics repeat exactly at a fixed
seed and seconds.

The traced run measures the first episode four ways (untraced, layer
timing, the program's tracer at sample rates 1.0 and 0.1) and requires
identical modelled fingerprints from all four.
"""

from __future__ import annotations

from .episode import BenchmarkFailure, run_episode
from .report import diagnostics, end_to_end_metrics, per_layer_metrics
from .workloads import WorkloadSpec

__all__ = ["attribution_problem", "episode_seeds", "run_plain", "run_traced"]

#: episode ``i`` of a run at ``--seed n`` uses cluster seed ``n * stride + i``
_SEED_STRIDE = 1_000


def episode_seeds(spec: WorkloadSpec, seed: int, seconds: float) -> list:
    """Seeds of the episodes an untraced run makes."""
    count = max(2, round(seconds / spec.episode_s))
    return [seed * _SEED_STRIDE + i for i in range(count)]


def run_plain(spec: WorkloadSpec, seed: int, seconds: float) -> tuple:
    """End-to-end metrics: ``(metrics, diagnostics, attempted, refused)``."""
    episodes = [run_episode(spec, s) for s in episode_seeds(spec, seed, seconds)]
    return (
        end_to_end_metrics(spec, episodes),
        diagnostics(episodes),
        sum(len(e.samples) for e in episodes),
        sum(e.refused for e in episodes),
    )


def run_traced(spec: WorkloadSpec, seed: int) -> tuple:
    """Per-layer metrics: ``(metrics, attempted, refused)``."""
    first = seed * _SEED_STRIDE
    runs = {
        mode: run_episode(spec, first, mode)
        for mode in ("plain", "layers", "tracer-full", "tracer-sampled")
    }
    expected = runs["plain"].fingerprint()
    for mode, episode in runs.items():
        if episode.fingerprint() != expected:
            raise BenchmarkFailure(
                f"workload {spec.name} seed {first}: the {mode} run's modelled "
                f"fingerprint differs from the untraced one:\n  {episode.fingerprint()}"
                f"\n  {expected}"
            )
    layers = runs["layers"]
    problem = attribution_problem(layers)
    if problem:
        raise BenchmarkFailure(f"workload {spec.name} seed {first}: {problem}")
    metrics = per_layer_metrics(
        runs["plain"], layers, runs["tracer-full"], runs["tracer-sampled"]
    )
    return metrics, len(layers.samples), layers.refused


def attribution_problem(episode) -> str:
    """Why the layer times of a ``layers`` episode do not add up, or ``""``.

    The self times must sum to the wall time covered by top-level spans
    (within 1% of the window), and that cover must fit inside the window,
    leaving the kernel a remainder of at least 0.
    """
    window = episode.window_wall_s
    self_total = sum(episode.layer_self_s.values())
    if abs(self_total - episode.layer_covered_s) > 0.01 * window:
        return (
            f"layer self times sum to {self_total:.4f} s but top-level spans "
            f"cover {episode.layer_covered_s:.4f} s"
        )
    if episode.layer_covered_s > window:
        return (
            f"spans cover {episode.layer_covered_s:.4f} s, more than the "
            f"{window:.4f} s window"
        )
    return ""
