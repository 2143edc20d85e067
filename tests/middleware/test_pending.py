"""Tests for the pending-refresh buffer (middleware/pending.py).

A scan of every pending entry is the reference: seeded random operation
sequences must make the per-partition-head selection pick exactly the
version the scan picks, and a deep backlog must cost a handful of
``has_applied`` probes, not one per pending entry.
"""

import random

import pytest

from repro.core.partition import PartitionMap
from repro.middleware import RefreshWriteset
from repro.middleware.pending import PendingRefreshes
from repro.storage import Column, OpKind, TableSchema, WriteOp, WriteSet
from repro.storage.database import Database

from .conftest import Harness


def reference_ready_version(pending, prevs_of, database, reserved):
    """Smallest pending version whose per-partition predecessors have all
    been applied, by a scan of every pending entry.

    An entry without a predecessor vector is ready only at ``V_local + 1``;
    versions reserved by local certified transactions are skipped.
    """
    best = None
    for version in pending:
        if version in reserved:
            continue
        if database.has_applied(version):
            continue
        prevs = prevs_of.get(version)
        if prevs is None:
            ready = version == database.version + 1
        else:
            ready = all(database.has_applied(prev) for _p, prev in prevs)
        if ready and (best is None or version < best):
            best = version
    return best


def table_ws(version, tables):
    return WriteSet(
        [WriteOp(table, version, OpKind.INSERT, {"id": version, "v": version})
         for table in tables]
    )


def table_ws_key(key):
    return WriteSet([WriteOp("t", key, OpKind.UPDATE, {"id": key, "v": 1})])


def make_history(rng, versions, partitions):
    """A certifier's output: per version, the partitions it writes and its
    predecessor vector (the previous version of each written partition)."""
    last = dict.fromkeys(range(partitions), 0)
    history = {}
    for version in range(1, versions + 1):
        width = 1 if partitions == 1 or rng.random() < 0.8 else 2
        parts = sorted(rng.sample(range(partitions), width))
        history[version] = (parts, tuple((p, last[p]) for p in parts))
        for p in parts:
            last[p] = version
    return history


class Replica:
    """The refresh path of one partitioned replica, driving the buffer and a
    plain-dict model of it (writesets and predecessor vectors) in lockstep."""

    def __init__(self, rng, versions=150, partitions=3):
        self.rng = rng
        self.history = make_history(rng, versions, partitions)
        self.versions = versions
        #: versions this replica certified itself (it gets no refresh)
        self.local = {v for v in self.history if rng.random() < 0.2}
        self.db = Database(allow_gaps=True)
        for p in range(partitions):
            self.db.create_table(
                TableSchema(f"t{p}", [Column("id", int), Column("v", int)], "id")
            )
        self.pending = PendingRefreshes()
        self.model: dict = {}
        self.model_prevs: dict = {}
        self.reserved: set = set()

    def ws(self, version):
        return table_ws(version, [f"t{p}" for p in self.history[version][0]])

    def prevs(self, version):
        # Some senders predate predecessor vectors.
        return None if self.rng.random() < 0.1 else self.history[version][1]

    def unapplied(self):
        return [v for v in self.history if not self.db.has_applied(v)]

    # -- buffer and model, mutated together ---------------------------------
    def enqueue(self, version, writeset, prevs):
        fresh = version not in self.model
        self.model[version] = writeset
        if prevs is not None:
            self.model_prevs[version] = prevs
        assert self.pending.add(version, writeset, prevs) == fresh

    def pop(self, version):
        self.model.pop(version, None)
        self.model_prevs.pop(version, None)
        self.pending.pop(version)

    def purge(self):
        current = self.db.version
        for version in [v for v in self.model if v <= current]:
            self.model.pop(version)
            self.model_prevs.pop(version, None)
        self.pending.purge_through(current)

    # -- operations ----------------------------------------------------------
    def arrive(self):
        """A refresh for a remote version: out of order, maybe a duplicate."""
        candidates = [v for v in self.unapplied() if v not in self.local]
        if not candidates:
            return
        version = self.rng.choice(candidates[:12])
        self.enqueue(version, self.ws(version), self.prevs(version))

    def reserve(self):
        """A certify reply assigns a local version to an in-flight commit."""
        candidates = [
            v for v in self.unapplied() if v in self.local and v not in self.reserved
        ]
        if candidates:
            self.reserved.add(min(candidates))

    def commit_local(self):
        """A reserved local commit whose predecessors are in installs."""
        for version in sorted(self.reserved):
            if all(self.db.has_applied(prev) for _p, prev in self.history[version][1]):
                self.db.apply_writeset(self.ws(version), version)
                self.reserved.discard(version)
                return

    def apply(self):
        """One applier turn; sometimes a certify reply claims the selected
        version while the apply holds the CPU, and the entry is dropped."""
        version = self.pending.ready(self.db, self.reserved)
        if version is None:
            return
        if version in self.local and self.rng.random() < 0.5:
            self.reserved.add(version)
            self.pop(version)
            return
        self.db.apply_writeset(self.pending.writesets[version], version)
        self.pop(version)

    def recovery(self):
        """A recovery replay of the versions above the watermark."""
        self.purge()
        start = self.db.version + 1
        for version in range(start, min(start + 10, self.versions + 1)):
            if (
                not self.db.has_applied(version)
                and version not in self.model
                and version not in self.reserved
            ):
                self.enqueue(version, self.ws(version), self.history[version][1])

    def checkpoint(self):
        """A bootstrap checkpoint jumps the watermark."""
        target = min(self.db.version + self.rng.randint(1, 8), self.versions)
        self.db.adopt_checkpoint(target)
        self.reserved = {v for v in self.reserved if v > target}
        self.purge()

    def crash(self):
        self.pending.clear()
        self.model.clear()
        self.model_prevs.clear()
        self.reserved.clear()
        # The local commits in flight are lost; their versions come back by
        # replay.
        self.local = {v for v in self.local if self.db.has_applied(v)}

    def check(self):
        expected = reference_ready_version(
            self.model, self.model_prevs, self.db, self.reserved
        )
        assert self.pending.ready(self.db, self.reserved) == expected
        assert list(self.pending.writesets) == list(self.model)
        assert len(self.pending) == len(self.model)


OPERATIONS = (
    ("arrive", 8),
    ("apply", 8),
    ("reserve", 2),
    ("commit_local", 3),
    ("recovery", 1),
    ("purge", 1),
    ("checkpoint", 0.3),
    ("crash", 0.3),
)


@pytest.mark.parametrize("seed", range(40))
def test_selection_matches_full_scan(seed):
    rng = random.Random(seed)
    replica = Replica(rng, partitions=1 + seed % 4)
    names = [name for name, _ in OPERATIONS]
    weights = [weight for _, weight in OPERATIONS]
    for _ in range(400):
        getattr(replica, rng.choices(names, weights)[0])()
        replica.check()


def test_strict_prefix_entry_only_at_next_version():
    db = Database(allow_gaps=True)
    pending = PendingRefreshes()
    pending.add(2, "ws2")
    assert pending.ready(db, set()) is None
    pending.add(1, "ws1")
    assert pending.ready(db, set()) == 1
    assert pending.ready(db, {1}) is None


def test_duplicate_fills_in_missing_predecessors():
    db = Database(allow_gaps=True)
    pending = PendingRefreshes()
    assert pending.add(3, "ws3")
    assert pending.ready(db, set()) is None
    assert not pending.add(3, "ws3'", ((0, 0),))
    assert pending.ready(db, set()) == 3
    assert pending.writesets[3] == "ws3'"


def test_empty_predecessor_vector_rejected():
    with pytest.raises(ValueError):
        PendingRefreshes().add(1, "ws", ())


def test_backlog_selection_probes_scale_with_partitions(env, monkeypatch):
    """One applier turn over a 2,000-version backlog on 4 partitions probes
    ``has_applied`` a small multiple of the partition count, never once per
    pending entry."""
    partitions = 4
    tables = tuple(f"t{p}" for p in range(partitions))
    harness = Harness(
        env,
        tables=tables,
        proxy_overrides={
            "partition_map": PartitionMap(
                partitions, table_groups=tuple((t,) for t in tables)
            )
        },
    )
    proxy = harness.proxy(1)
    # Version v writes partition (v - 1) % 4; version 1 never arrives and a
    # local commit holds version 2, so version 3 is the first ready one.
    for version in range(2, 2002):
        p = (version - 1) % partitions
        proxy._enqueue_refresh(
            version,
            table_ws(version, [tables[p]]),
            ((p, max(version - partitions, 0)),),
        )
    proxy._reserved.add(2)
    probes = []
    has_applied = Database.has_applied
    monkeypatch.setattr(
        Database,
        "has_applied",
        lambda self, version: probes.append(version) or has_applied(self, version),
    )
    turn = proxy._apply_ready_partitioned()
    next(turn)  # selection done; the turn now waits for the CPU
    assert 0 < len(probes) <= 3 * partitions
    assert proxy._pending.ready(proxy.engine.database, proxy._reserved) == 3


class TestEarlyCertificationOrder:
    """Early certification names the first conflicting pending refresh in
    first-arrival order, not in version order."""

    def _txn_writing(self, proxy, key):
        txn = proxy.engine.begin(snapshot_version=0)
        proxy.engine.update(txn, "t", key, {"v": 50})
        return txn

    def _seed(self, harness):
        for proxy in harness.proxies.values():
            for key in (1, 2, 3):
                proxy.engine.database.load_row("t", {"id": key, "v": 0})

    def test_duplicate_keeps_first_arrival_position(self, env, harness):
        proxy = harness.proxy(1)
        self._seed(harness)
        for version in (9, 4):
            harness.network.send(
                "certifier", "replica-1",
                RefreshWriteset(version, table_ws_key(1), "replica-0", version),
            )
        env.run()
        harness.network.send(
            "certifier", "replica-1",
            RefreshWriteset(9, table_ws_key(1), "replica-0", 9),
        )
        env.run()
        assert proxy.duplicate_refreshes_ignored == 1
        reason = proxy.early_certification_conflict(self._txn_writing(proxy, 1))
        assert reason == "early certification: conflict with pending refresh v9"

    def test_put_back_refresh_goes_to_the_end(self, env, harness):
        proxy = harness.proxy(1)
        self._seed(harness)
        proxy._enqueue_refresh(7, table_ws_key(2))
        proxy._enqueue_refresh(3, table_ws_key(1))
        # A drained run [1, 2] whose head was claimed by a local commit
        # while the apply held the CPU: version 2 goes back to the buffer.
        proxy._reserved.add(1)
        proxy._apply_refresh_run([(1, table_ws_key(2)), (2, table_ws_key(2))])
        assert list(proxy._pending.writesets) == [7, 3, 2]
        reason = proxy.early_certification_conflict(self._txn_writing(proxy, 2))
        assert reason == "early certification: conflict with pending refresh v7"
