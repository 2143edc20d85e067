"""Refresh writesets a replica has received but not applied yet.

The proxy buffers every refresh that arrives ahead of its turn and hands the
applier the next one to install.  In the legacy pipeline that is simply
``V_local + 1``.  In the partitioned pipeline a refresh is *ready* once the
per-partition predecessors named in its ``prev_versions`` vector have been
applied, and the applier installs the smallest ready version.

Finding it does not need a scan of the whole buffer.  A version of partition
``p`` is applied only after every earlier version of ``p`` — by refresh (its
predecessor ``prev_p`` is applied first), by a local commit (the sync stage
waits on the same predecessors) or by a checkpoint's watermark jump (which
covers everything below it).  So if a pending version ``v`` is ready, no
earlier version of any partition ``v`` writes can still be pending and
unapplied: ``v`` is the head of every per-partition heap it sits in, and the
selection inspects at most one head per partition.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Optional

__all__ = ["PendingRefreshes"]


class PendingRefreshes:
    """The pending refresh buffer of one replica proxy.

    :attr:`writesets` maps version to writeset in first-arrival order (early
    certification scans it in that order and names the first conflict).
    Callers read it directly and mutate only through the methods here, which
    keep three indexes in step with it:

    * a min-heap over the pending versions, so stale entries (at or below
      ``V_local``) are purged from the front in O(log n);
    * the predecessor vector of every entry that carries one;
    * per partition, a min-heap of the pending versions whose vector names
      that partition.  Heaps are cleaned lazily: a head that was applied or
      left the buffer is popped when :meth:`ready` meets it.
    """

    def __init__(self):
        self.writesets: dict[int, Any] = {}
        self._order: list[int] = []
        self._prevs: dict[int, tuple] = {}
        self._heads: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return len(self.writesets)

    def add(self, version: int, writeset, prevs: Optional[tuple] = None) -> bool:
        """Buffer ``writeset`` at ``version``.

        Returns False for a duplicate of a pending version: the duplicate
        keeps the first arrival's position, takes the new writeset and fills
        in a predecessor vector the first copy lacked.
        """
        writesets = self.writesets
        fresh = version not in writesets
        if fresh:
            heappush(self._order, version)
        writesets[version] = writeset
        if prevs is not None and self._prevs.get(version) != prevs:
            if not prevs:
                raise ValueError(f"refresh v{version} has an empty predecessor vector")
            self._prevs[version] = prevs
            for partition, _prev in prevs:
                heappush(self._heads.setdefault(partition, []), version)
        return fresh

    def pop(self, version: int):
        """Remove ``version`` and return its writeset (None if not pending)."""
        self._prevs.pop(version, None)
        return self.writesets.pop(version, None)

    def purge_through(self, version: int) -> None:
        """Drop every pending entry at or below ``version``."""
        order = self._order
        while order and order[0] <= version:
            stale = heappop(order)
            self.writesets.pop(stale, None)
            self._prevs.pop(stale, None)

    def clear(self) -> None:
        """Forget everything (a crash loses the buffer)."""
        self.writesets.clear()
        self._order.clear()
        self._prevs.clear()
        self._heads.clear()

    def ready(self, database, reserved) -> Optional[int]:
        """Smallest pending version that is not ``reserved`` and whose
        predecessors ``database`` has all applied.

        An entry without a predecessor vector keeps the strict-prefix rule:
        it is ready only at ``V_local + 1``.  Cost per call: one
        ``has_applied`` probe per partition head plus the predecessor checks
        of the heads tried, in ascending order, before the first ready one.
        """
        has_applied = database.has_applied
        prevs_of = self._prevs
        heads = []
        for heap in self._heads.values():
            while heap:
                head = heap[0]
                if head in prevs_of and not has_applied(head):
                    heads.append(head)
                    break
                heappop(heap)
        following = database.version + 1
        if following in self.writesets and following not in prevs_of:
            heads.append(following)
        for version in sorted(set(heads)):
            if version in reserved:
                continue
            prevs = prevs_of.get(version)
            if prevs is None or all(has_applied(prev) for _p, prev in prevs):
                return version
        return None
