"""Anti-entropy: find silently diverged replicas and repair them.

Replication by forwarding is fast but trusting: a replica that applies a
group incorrectly (bit flip, bug, partial apply) still reports the right
sequence number, and reads hedged onto it would return wrong sums
forever. The scrubber closes that gap the way Dynamo-style stores do —
periodically compare replica state digests against the primary and
rebuild whatever disagrees — except that with whole-slab SHA-256 digests
over the reconstructed dense array the comparison is *exact*, not
probabilistic.

Repair escalates through the two mechanisms the system already trusts:

1. :meth:`CubeService.self_check(repair=True)
   <repro.serve.service.CubeService.self_check>` — the node rebuilds its
   own buffers from its reconstructed array (fixes internal
   overlay/RPA inconsistency);
2. :meth:`ReplicaSet.resync <repro.cluster.replicaset.ReplicaSet.resync>`
   — the replica is rebuilt from the primary's durable log (fixes
   divergence from the authoritative state).

A primary that fails its own ``self_check`` is repaired in place too —
the log, not any replica, is authoritative, so the scrubber never
"repairs" a primary from replica memory.
"""

from __future__ import annotations

import hashlib
import random
import threading
from typing import Dict, Optional

import numpy as np

from repro.cluster.node import NODE_FAILURES
from repro.errors import ClusterError, StorageError

#: Failures a repair attempt may surface: node-level unavailability,
#: plus a shard with no primary (ClusterError from ``resync``) and a
#: durability directory that cannot be read back (StorageError from
#: ``recover_state``). Contained per shard, never aborting the round.
REPAIR_FAILURES = NODE_FAILURES + (ClusterError, StorageError)


def _slab_digest(array: np.ndarray) -> str:
    """sha256 over values + shape + dtype, matching
    :meth:`~repro.serve.service.CubeService.snapshot_digest`'s scheme."""
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(str(array.shape).encode())
    digest.update(str(array.dtype).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


class AntiEntropyScrubber:
    """Background digest comparison and repair across every shard.

    Args:
        cluster: the owning :class:`~repro.cluster.cluster.CubeCluster`.
        seed: seeds the shard visit order per round (deterministic
            tests; no shard is systematically scrubbed last).
        probes: sample size forwarded to ``self_check``.
        quiesce: flush each shard before digesting so version skew from
            in-flight groups is not mistaken for divergence.
        repair_timeout: per-node bound on the ``self_check`` repair
            rebuild — a wedged node must not stall the whole round (the
            resulting :class:`TimeoutError` is a ``NODE_FAILURES``
            member, so the scrubber escalates to ``resync``). ``None``
            (the default) derives the budget from the health monitor's
            ``probe_timeout_s`` — ``REPAIR_BUDGET_PROBES`` probe
            budgets — so operators tune one health-path knob, not two
            that can drift apart.
    """

    #: repair budget expressed in health-probe budgets: a repair rebuild
    #: may take at most this many of the monitor's ``probe_timeout_s``
    REPAIR_BUDGET_PROBES = 60

    def __init__(
        self,
        cluster,
        *,
        seed: int = 0,
        probes: int = 16,
        quiesce: bool = True,
        repair_timeout: Optional[float] = None,
    ) -> None:
        self._cluster = cluster
        self._rng = random.Random(seed)
        self.probes = int(probes)
        self.quiesce = bool(quiesce)
        self.repair_timeout = repair_timeout
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    def repair_budget(self) -> float:
        """The per-node repair bound actually used this round.

        An explicit ``repair_timeout`` wins; otherwise the budget is
        threaded from :class:`~repro.cluster.health.HealthMonitor`'s
        ``probe_timeout_s`` (times :data:`REPAIR_BUDGET_PROBES`), with a
        1-probe-second fallback when the cluster has no monitor yet.
        """
        if self.repair_timeout is not None:
            return float(self.repair_timeout)
        monitor = getattr(self._cluster, "monitor", None)
        probe_timeout = (
            float(monitor.probe_timeout_s) if monitor is not None else 1.0
        )
        return probe_timeout * self.REPAIR_BUDGET_PROBES

    def scrub_once(self) -> Dict:
        """One full anti-entropy round; returns a report dict.

        Per shard: optionally flush (primary and caught-up replicas to
        the same version), digest the primary, digest each replica, and
        repair any mismatch — ``self_check`` first, resync from the
        primary's log if the digest still disagrees. Lagging replicas
        are resynced outright (they are already known-stale; no digest
        needed to convict them).
        """
        report = {
            "shards": 0,
            "checks": 0,
            "divergences": 0,
            "repairs": 0,
            "resyncs": 0,
            "skipped": [],
        }
        metrics = self._cluster.metrics
        replica_sets = list(self._cluster.replica_sets)
        self._rng.shuffle(replica_sets)
        for replica_set in replica_sets:
            report["shards"] += 1
            try:
                if self.quiesce:
                    replica_set.flush()
                primary = replica_set.primary
                primary_version, primary_digest = primary.snapshot_digest()
            except REPAIR_FAILURES as error:
                report["skipped"].append(
                    f"shard {replica_set.shard_id}: {error}"
                )
                continue
            for node in list(replica_set.nodes):
                if node.is_primary or node.dead:
                    continue
                if node.lagging:
                    try:
                        replica_set.resync(node)
                        report["resyncs"] += 1
                    except REPAIR_FAILURES as error:
                        # a dead primary or unreadable log must not
                        # abort the round: record it and move on
                        report["skipped"].append(
                            f"shard {replica_set.shard_id} node "
                            f"{node.node_id}: {error}"
                        )
                    continue
                try:
                    version, digest = node.snapshot_digest()
                except NODE_FAILURES:
                    node.lagging = True
                    metrics.inc_key("replica_lags", node.node_id)
                    continue
                report["checks"] += 1
                if version == primary_version and digest == primary_digest:
                    continue
                report["divergences"] += 1
                metrics.inc(scrub_divergences=1)
                repaired = False
                try:
                    check = node.self_check(
                        probes=self.probes, repair=True,
                        timeout=self.repair_budget(),
                    )
                    if check["ok"]:
                        version, digest = node.snapshot_digest()
                        repaired = (
                            version == primary_version
                            and digest == primary_digest
                        )
                except NODE_FAILURES:
                    repaired = False
                if not repaired:
                    # self-consistency was not the problem (or not
                    # enough): rebuild from the authoritative log
                    try:
                        replica_set.resync(node)
                        report["resyncs"] += 1
                    except REPAIR_FAILURES as error:
                        report["skipped"].append(
                            f"shard {replica_set.shard_id} node "
                            f"{node.node_id}: {error}"
                        )
                        continue
                report["repairs"] += 1
                metrics.inc(scrub_repairs=1)
        metrics.inc(scrub_rounds=1, scrub_digest_checks=report["checks"])
        return report

    #: relative tolerance for the slab comparison fallback. The seeded
    #: target and the live source reconstruct their dense arrays
    #: through float prefix structures of *different shapes*, so their
    #: last bits legitimately differ by reconstruction noise (~1e-15
    #: relative); a lost or double-applied group shows up at the scale
    #: of a whole delta, many orders of magnitude above this.
    VERIFY_RTOL = 1e-8

    def verify_migration(self, migration) -> Dict:
        """Verify migrated slabs against their source replicas.

        Called by the reshard coordinator after the epoch flip and
        *before* the old nodes are retired: every target primary's
        dense slab must match the corresponding rows of the
        (still-live, reverse-mirrored) source primaries — digest-equal
        when the float paths happen to agree bit-for-bit, otherwise
        element-wise within :data:`VERIFY_RTOL` (reconstruction noise,
        never a missing update). Both sides are flushed first under the
        scrubber's repair budget so acked-but-unapplied groups are not
        mistaken for divergence.

        Returns ``{"targets", "verified", "exact", "mismatches"}``; the
        coordinator rolls back (or raises) on any mismatch.
        """
        budget = self.repair_budget()
        report = {
            "targets": 0, "verified": 0, "exact": 0, "mismatches": []
        }
        for replica_set, _ in list(migration.sources) + list(
            migration.targets
        ):
            replica_set.flush(timeout=budget)
        row_lo = min(start for _, (start, _) in migration.sources)
        # snapshot both sides under the topology lock: a write stream
        # landing between the source and target snapshots would differ
        # by exactly its in-flight deltas and read as divergence. The
        # hold is short — the flush above already drained the backlog,
        # so the in-lock flush only absorbs the races of that window —
        # and reads stay lock-free throughout.
        with self._cluster._topology:
            pieces = []
            for replica_set, (start, stop) in sorted(
                migration.sources, key=lambda item: item[1][0]
            ):
                replica_set.flush(timeout=budget)
                array, _ = replica_set.primary.service.snapshot_array()
                pieces.append(array)
            target_arrays = []
            for replica_set, (start, stop) in migration.targets:
                replica_set.flush(timeout=budget)
                array, _ = replica_set.primary.service.snapshot_array()
                target_arrays.append(array)
        source_image = (
            pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        )
        for (replica_set, (start, stop)), target_array in zip(
            migration.targets, target_arrays
        ):
            report["targets"] += 1
            expected = source_image[start - row_lo:stop - row_lo]
            if _slab_digest(expected) == _slab_digest(target_array):
                report["verified"] += 1
                report["exact"] += 1
            elif expected.shape == target_array.shape and np.allclose(
                expected, target_array,
                rtol=self.VERIFY_RTOL, atol=self.VERIFY_RTOL,
            ):
                report["verified"] += 1
            else:
                worst = (
                    float(np.max(np.abs(expected - target_array)))
                    if expected.shape == target_array.shape
                    else float("inf")
                )
                report["mismatches"].append(
                    f"target shard rows [{start}, {stop}) diverge "
                    f"from source (max abs diff {worst:g})"
                )
        return report

    def start(self, interval_s: float = 1.0) -> None:
        """Run :meth:`scrub_once` on a daemon thread every ``interval_s``."""
        if self._thread is not None:
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(interval_s):
                try:
                    self.scrub_once()
                except Exception:  # noqa: BLE001 - scrubber must survive
                    pass

        self._thread = threading.Thread(
            target=loop, name="cluster-scrubber", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=10.0)
        self._thread = None
