"""The fixed pure-Python reference loop that calibrates wall-clock figures.

Host speed on a shared virtual machine drifts from minute to minute, and a
raw wall-clock time per commit drifts with it.  The simulator is pure
Python, so a loop made of the same kinds of interpreter work (heap
push/pop, dict updates, generator ``send``) slows and speeds up with it.
The benchmark times one pass of this loop between run slices and divides
the simulator's wall time by the median pass time, which cancels most of the
host drift.  The loop imports nothing from ``repro``, so no change to the
program under test can change it.
"""

from __future__ import annotations

import gc
import heapq
import statistics
from time import perf_counter

__all__ = ["NOMINAL_PASS_US", "RefLoopClock", "ref_pass"]

#: about the median pass time of :func:`ref_pass` on the machine the
#: benchmark was tuned on (Intel Xeon, 2 vCPU, CPython 3.11); set-up and
#: checker times are scaled to this speed
NOMINAL_PASS_US = 1000.0

_ROUNDS = 400


def _echo():
    total = 0
    while True:
        value = yield total
        total += value


def ref_pass() -> int:
    """One pass of the reference loop; returns a checksum."""
    heap: list = []
    table: dict = {}
    echo = _echo()
    next(echo)
    checksum = 0
    for i in range(_ROUNDS):
        heapq.heappush(heap, ((i * 7919) % 1009, i, "e"))
        heapq.heappush(heap, ((i * 104729) % 1013, i + 1, "f"))
        when, tie, _ = heapq.heappop(heap)
        key = tie & 63
        table[key] = table.get(key, 0) + when
        checksum = echo.send(when + key)
    while heap:
        checksum += heapq.heappop(heap)[0]
    return checksum + len(table)


class RefLoopClock:
    """Collects timed passes of the reference loop.

    The garbage collector is paused during a pass: a collection triggered
    by the pass would sweep the simulation's heap and charge that to the
    loop.  The clock reports the median pass, so a pass the host preempted
    does not skew it.
    """

    def __init__(self):
        self.pass_s: list = []

    def tick(self) -> None:
        """Time one pass (called between run slices)."""
        gc.disable()
        try:
            start = perf_counter()
            ref_pass()
            self.pass_s.append(perf_counter() - start)
        finally:
            gc.enable()

    @property
    def pass_us(self) -> float:
        """Median wall time of one pass, in microseconds."""
        if not self.pass_s:
            raise RuntimeError("the reference loop has not been timed yet")
        return statistics.median(self.pass_s) * 1e6
