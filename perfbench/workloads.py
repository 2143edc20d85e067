"""The benchmark's three fixed workloads.

Each workload builds a :class:`~repro.core.ReplicatedDatabase` through the
public API and attaches its load (closed-loop clients or an open-loop
generator).  ``actions`` is a tuple of ``(at_ms, action)`` pairs: the
episode runs the cluster to ``at_ms`` and then calls ``action(load)``
between slices, so rate changes never add a process to the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core import ClusterConfig, ReplicatedDatabase
from repro.metrics import MetricsCollector
from repro.workloads.base import TemplateCatalog, TransactionTemplate
from repro.workloads.clients import OpenLoopLoad
from repro.workloads.microbench import MicroBenchmark, _read_body, _update_body
from repro.workloads.tpcw import TPCWBenchmark

__all__ = ["WORKLOADS", "WorkloadSpec", "Deployment"]

#: one certifier partition per micro-benchmark table
ONE_TABLE_GROUPS = (("t0",), ("t1",), ("t2",), ("t3",))


class MostlySinglePartitionMicro(MicroBenchmark):
    """Micro-benchmark with 24 of 40 types updating, where update type 0
    writes two tables (two partitions at one-table groups) and every other
    type touches one table."""

    name = "microbench-xpart"

    def __init__(self, rows_per_table: int):
        super().__init__(
            update_types=24, total_types=40, num_tables=4,
            rows_per_table=rows_per_table,
        )

    def _build_catalog(self) -> TemplateCatalog:
        catalog = TemplateCatalog()
        for type_index in range(self.total_types):
            span = 2 if type_index == 0 else 1
            tables = tuple(
                self.tables[(type_index + offset) % self.num_tables]
                for offset in range(span)
            )
            is_update = type_index < self.update_types
            kind = "update" if is_update else "read"
            catalog.register(
                TransactionTemplate(
                    name=f"micro-{kind}-{type_index}",
                    table_set=frozenset(tables),
                    body=_update_body(tables) if is_update else _read_body(tables),
                    is_update=is_update,
                )
            )
        return catalog


@dataclass
class Deployment:
    """A built cluster with its load attached, ready to run."""

    cluster: ReplicatedDatabase
    collector: MetricsCollector
    load: object


@dataclass(frozen=True)
class WorkloadSpec:
    """One pinned scenario: how to build it and how long to run it."""

    name: str
    why: str
    #: ``build(seed, collector, config_overrides)``
    build: Callable[[int, MetricsCollector, Optional[dict]], Deployment]
    #: virtual warm-up before the measured window (ms)
    warmup_ms: float
    #: virtual length of the measured window (ms)
    window_ms: float
    #: virtual length of one run slice; samples are taken between slices
    slice_ms: float
    #: nominal wall seconds of one untraced episode on the reference
    #: machine; an untraced run makes ``--seconds / episode_s`` episodes
    episode_s: float
    #: ``(at_ms, action)``: call ``action(load)`` once the clock reaches
    #: ``at_ms`` (must fall on a slice boundary)
    actions: tuple = ()

    @property
    def end_ms(self) -> float:
        return self.warmup_ms + self.window_ms

    def collector(self) -> MetricsCollector:
        return MetricsCollector(measure_start=self.warmup_ms, measure_end=self.end_ms)

    def slice_boundaries(self) -> list:
        """Ends of the window's run slices, in virtual ms."""
        count = round(self.window_ms / self.slice_ms)
        return [self.warmup_ms + self.window_ms * (i + 1) / count for i in range(count)]


def _tpcw_shopping(seed: int, collector: MetricsCollector,
                   config_overrides: Optional[dict] = None) -> Deployment:
    workload = TPCWBenchmark(
        mix="shopping", num_items=300, num_customers=200, num_authors=100
    )
    cluster = ReplicatedDatabase(
        workload,
        ClusterConfig(num_replicas=4, level="sc-fine", seed=seed,
                      **(config_overrides or {})),
    )
    cluster.add_clients(32, collector)
    return Deployment(cluster, collector, cluster.client_pool)


def _micro_eager_write(seed: int, collector: MetricsCollector,
                       config_overrides: Optional[dict] = None) -> Deployment:
    workload = MicroBenchmark(
        update_types=30, total_types=40, num_tables=4, rows_per_table=1000
    )
    cluster = ReplicatedDatabase(
        workload,
        ClusterConfig(num_replicas=8, level="eager", seed=seed,
                      **(config_overrides or {})),
    )
    cluster.add_clients(8, collector)
    return Deployment(cluster, collector, cluster.client_pool)


#: the burst workload's square wave: ``BURST_BASE_TPS`` with a
#: ``BURST_MS`` step to ``BURST_PEAK_TPS`` in the middle of every
#: ``BURST_PERIOD_MS``
BURST_BASE_TPS = 800.0
BURST_PEAK_TPS = 5000.0
BURST_MS = 100.0
BURST_PERIOD_MS = 1_500.0
BURST_CYCLES = 3
BURST_WARMUP_MS = 300.0


def _micro_partitioned_burst(seed: int, collector: MetricsCollector,
                             config_overrides: Optional[dict] = None) -> Deployment:
    workload = MostlySinglePartitionMicro(rows_per_table=1_000)
    cluster = ReplicatedDatabase(
        workload,
        ClusterConfig(
            num_replicas=4, level="sc-fine", seed=seed,
            num_partitions=4, partition_table_groups=ONE_TABLE_GROUPS,
            **(config_overrides or {}),
        ),
    )
    load = OpenLoopLoad(
        env=cluster.env,
        network=cluster.network,
        workload=workload,
        collector=collector,
        rate_tps=BURST_BASE_TPS,
        rngs=cluster.rngs,
    )
    return Deployment(cluster, collector, load)


def _set_rate(rate_tps: float):
    def action(load: OpenLoopLoad) -> None:
        load.set_rate(rate_tps)

    return action


def _burst_steps() -> tuple:
    steps = []
    for cycle in range(BURST_CYCLES):
        start = (
            BURST_WARMUP_MS + cycle * BURST_PERIOD_MS + (BURST_PERIOD_MS - BURST_MS) / 2
        )
        steps += [(start, _set_rate(BURST_PEAK_TPS)),
                  (start + BURST_MS, _set_rate(BURST_BASE_TPS))]
    return tuple(steps)


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="tpcw-shopping",
            why=(
                "the paper's headline mix: read-mostly multi-statement "
                "transactions load storage and the proxy lifecycle; certifier "
                "and refresh work stays light"
            ),
            build=_tpcw_shopping,
            warmup_ms=1_500.0,
            window_ms=6_000.0,
            slice_ms=250.0,
            episode_s=1.4,
        ),
        WorkloadSpec(
            name="micro-eager-write",
            why=(
                "EAGER, 8 replicas, 75% updates: every commit is certified, "
                "flushed and applied everywhere before its ack, loading "
                "kernel, network, certifier and applier"
            ),
            build=_micro_eager_write,
            warmup_ms=500.0,
            window_ms=2_000.0,
            slice_ms=50.0,
            episode_s=3.1,
        ),
        WorkloadSpec(
            name="micro-partitioned-burst",
            why=(
                "open loop on the partitioned pipeline: 100 ms steps from 800 "
                "to 5000 tps build and drain a refresh backlog and a balancer "
                "queue"
            ),
            build=_micro_partitioned_burst,
            warmup_ms=BURST_WARMUP_MS,
            window_ms=BURST_CYCLES * BURST_PERIOD_MS,
            slice_ms=50.0,
            episode_s=3.4,
            actions=_burst_steps(),
        ),
    )
}
