"""Outside-in wall-clock attribution of simulator time to layers.

The traced run charges every generator resume and every call into a few
public entry points to the module that owns it, using only the benchmark's
own code: :class:`LayerTracer` patches ``Environment.process`` and the entry
points for the duration of a ``with`` block and restores them on exit.
Nothing under ``src/`` changes, and the patches are record-only: they never
schedule an event or draw a random number, so the traced run's modelled
behaviour is identical to the untraced one.

A layer's *self* time is the time its spans cover minus the time of the
spans nested inside them; the kernel is charged whatever measured wall time
no span covers.
"""

from __future__ import annotations

import inspect
import re
from collections import Counter
from time import perf_counter

from repro.histories.records import RunHistory
from repro.metrics.collector import MetricsCollector
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.storage.database import Database
from repro.storage.engine import StorageEngine

__all__ = ["LayerTracer", "layer_of_process"]

_PROCESS_LAYERS = (
    (re.compile(r"^(client-|openloop)"), "clients"),
    (re.compile(r"^lb-"), "balancer"),
    (re.compile(r"^replica-\d+-loop$"), "proxy"),
    (re.compile(r"^replica-\d+-applier$"), "refresh"),
    (re.compile(r"^replica-\d+-(txn|flush)-"), "lifecycle"),
    (re.compile(r"^certifier"), "certifier"),
)


def layer_of_process(name: str) -> str:
    """The layer a simulation process is charged to, by its name."""
    for pattern, layer in _PROCESS_LAYERS:
        if pattern.match(name):
            return layer
    return "other"


class LayerTracer:
    """Self time and entry counts per layer.

    Spans nest on a stack of ``[layer, start, child_time]`` frames.  A call
    counts as an *entry* into a layer only when the enclosing span belongs
    to another layer, so a storage method calling another storage method
    counts once.
    """

    def __init__(self):
        self.self_s: Counter = Counter()
        self.entries: Counter = Counter()
        #: entries per public method name (``storage.scan``, ...)
        self.calls: Counter = Counter()
        #: wall time inside top-level spans, summed independently of the
        #: self-time bookkeeping
        self.covered_s = 0.0
        self._stack: list = []
        self._patches: list = []

    # -- span bookkeeping ---------------------------------------------------
    def _enter(self, layer: str, label: str) -> list:
        stack = self._stack
        if not stack or stack[-1][0] != layer:
            self.entries[layer] += 1
            self.calls[label] += 1
        frame = [layer, perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        elapsed = perf_counter() - frame[1]
        stack = self._stack
        stack.pop()
        self.self_s[frame[0]] += elapsed - frame[2]
        if stack:
            stack[-1][2] += elapsed
        else:
            self.covered_s += elapsed

    def snapshot(self) -> tuple:
        """Copies of the counters, taken at the end of the measured window."""
        return (
            Counter(self.self_s), Counter(self.entries), Counter(self.calls),
            self.covered_s,
        )

    # -- patching -----------------------------------------------------------
    def _wrap_function(self, layer: str, label: str, fn):
        enter, exit_ = self._enter, self._exit

        def timed(*args, **kwargs):
            frame = enter(layer, label)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        return timed

    def _patch(self, owner, attr: str, layer: str, label: str) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap_function(layer, label, original))

    def __enter__(self) -> "LayerTracer":
        tracer = self
        original_process = Environment.process

        def process(env, generator, name=""):
            label = name or getattr(generator, "__name__", "process")
            return original_process(
                env, _TimedGenerator(tracer, layer_of_process(label), generator),
                name=label,
            )

        self._patches.append((Environment, "process", original_process))
        Environment.process = process
        for attr, member in vars(StorageEngine).items():
            if not attr.startswith("_") and inspect.isfunction(member):
                self._patch(StorageEngine, attr, "storage", f"storage.{attr}")
        self._patch(Database, "load_row", "storage", "storage.load_row")
        self._patch(Network, "send", "network", "network.send")
        self._patch(MetricsCollector, "record", "metrics", "metrics.record")
        self._patch(RunHistory, "add", "histories", "histories.add")
        return self

    def wrap_workload(self, workload) -> None:
        """Time ``workload.next_call`` (an instance attribute shadows the
        method for this one object)."""
        workload.next_call = self._wrap_function(
            "clients", "clients.next_call", workload.next_call
        )

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class _TimedGenerator:
    """A generator stand-in whose ``send``/``throw``/``close`` are spans."""

    __slots__ = ("_tracer", "_layer", "_label", "_gen")

    def __init__(self, tracer: LayerTracer, layer: str, generator):
        self._tracer = tracer
        self._layer = layer
        self._label = f"resume.{layer}"
        self._gen = generator

    def send(self, value):
        frame = self._tracer._enter(self._layer, self._label)
        try:
            return self._gen.send(value)
        finally:
            self._tracer._exit(frame)

    def throw(self, *args):
        frame = self._tracer._enter(self._layer, self._label)
        try:
            return self._gen.throw(*args)
        finally:
            self._tracer._exit(frame)

    def close(self):
        frame = self._tracer._enter(self._layer, self._label)
        try:
            return self._gen.close()
        finally:
            self._tracer._exit(frame)
