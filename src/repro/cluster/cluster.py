"""The cluster facade: one cube, many shards, replicated serving.

:class:`CubeCluster` composes the pieces of :mod:`repro.cluster` into
the object a client talks to:

* a :class:`~repro.cluster.shardmap.ShardMap` slices the cube along its
  leading dimension into one slab per shard; the map carries a
  monotonically increasing **epoch** that a live reshard bumps, so
  every stamp, cache entry, and wire answer is fenced to the layout it
  was computed under;
* each shard is served by a
  :class:`~repro.cluster.replicaset.ReplicaSet` — a durable primary
  (WAL-acked writes, its own ``shard-<s>/`` directory under
  ``data_dir``) plus ``replication_factor - 1`` in-memory replicas fed
  by forwarding;
* a :class:`~repro.cluster.health.HealthMonitor` probes every node and
  trips per-node circuit breakers; an
  :class:`~repro.cluster.scrub.AntiEntropyScrubber` digest-compares
  replicas against their primary and repairs divergence;
* a :class:`~repro.cluster.reshard.ReshardCoordinator` (reached via
  :meth:`CubeCluster.split_shard` / :meth:`CubeCluster.merge_shards`)
  moves slab boundaries live, flipping the topology atomically under
  the cluster's topology lock.

Client calls take an optional :class:`~repro.deadline.Deadline`; shard
reads are hedged per :class:`~repro.cluster.replicaset.HedgePolicy`.
Failure handling is exact by default: a query that cannot reach every
shard it spans raises :class:`~repro.errors.ClusterUnavailableError` (a
write additionally reports which shards *did* ack in ``.acked``) rather
than returning a partial sum. Opting in with
``range_sum_many(..., allow_estimate=True)`` instead answers the
affected queries from per-shard block aggregates
(:mod:`repro.cluster.degraded`) with an explicit ``estimate=True``
marker and a guaranteed error interval.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.degraded import RangeEstimate, ShardAggregates
from repro.cluster.health import (
    BreakerPolicy,
    CircuitBreaker,
    HealthMonitor,
)
from repro.cluster.node import NODE_FAILURES, ClusterNode
from repro.cluster.replicaset import HedgePolicy, ReplicaSet
from repro.cluster.scrub import AntiEntropyScrubber
from repro.cluster.shardmap import ShardMap
from repro.core.indexing import BoxBatch
from repro.deadline import Deadline
from repro.errors import (
    ClusterError,
    ClusterDeadlineExceededError,
    ClusterUnavailableError,
    DeadlineExceededError,
)
from repro.metrics.registry import MetricsRegistry
from repro.serve.service import CubeService
from repro.serve.wal import DurabilityPolicy


class CubeCluster:
    """A replicated, sharded serving cluster for one data cube.

    Args:
        method_cls: :class:`~repro.core.base.RangeSumMethod` subclass
            every node serves its slab with.
        array: the full initial cube; sliced into per-shard slabs.
        data_dir: root directory for per-shard durability
            (``data_dir/shard-<s>/`` holds shard ``s``'s WAL and
            checkpoints; migration targets live in
            ``shard-e<epoch>-<s>/``). Required — primaries ack only
            after the WAL says so.
        num_shards: slabs along the leading dimension.
        replication_factor: nodes per shard (1 primary + the rest
            replicas).
        method_kwargs: forwarded to every node's method construction.
        checkpoint_every: per-primary checkpoint cadence (see
            :class:`~repro.serve.wal.DurabilityPolicy`).
        fsync: whether primary acks wait for the WAL fsync.
        seed: seeds the health monitor's probe order and the scrubber's
            shard order.
        fault_plan: shared :class:`~repro.faults.FaultPlan` consulted on
            every node-level operation (kills, partitions, read latency
            spikes, reshard phase crashes) — the cluster's chaos
            surface.
        node_fault_plans: per-node plans handed to that node's
            *service* (WAL faults, ``crash_at_group``); keyed by node
            id, e.g. ``{"s0.n0": FaultPlan(crash_at_group=3)}``. A node
            promoted by failover deliberately does not inherit the dead
            primary's plan.
        hedge: hedged-read policy shared by every shard.
        breaker: circuit-breaker policy shared by every node.
        max_pending_groups: per-node submission-queue bound.

    Concurrency: ``_topology`` (an RLock) guards the shard map, the
    replica-set list, the breaker registry, and the in-flight migration
    pointer. Writes hold it for the whole call, so an epoch flip — also
    performed under it — strictly orders against every ack. Reads only
    grab a consistent ``(shardmap, replica_sets, epoch)`` snapshot
    under it, run lock-free against the replica sets, and retry once if
    the epoch moved mid-read; a flip therefore never makes a read fail.

    Use as a context manager or call :meth:`close`::

        with CubeCluster(RelativePrefixSumCube, cube, data_dir=tmp,
                         num_shards=2, replication_factor=2) as cluster:
            cluster.submit_batch([((3, 4), +10.0)])
            cluster.flush()
            total = cluster.range_sum((0, 0), (7, 7))
    """

    def __init__(
        self,
        method_cls,
        array: np.ndarray,
        *,
        data_dir,
        num_shards: int = 2,
        replication_factor: int = 2,
        method_kwargs: Optional[Dict] = None,
        checkpoint_every: int = 64,
        fsync: bool = True,
        seed: int = 0,
        fault_plan=None,
        node_fault_plans: Optional[Dict[str, object]] = None,
        hedge: Optional[HedgePolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        max_pending_groups: Optional[int] = None,
    ) -> None:
        if replication_factor < 1:
            raise ClusterError(
                f"replication_factor must be >= 1, got {replication_factor}"
            )
        array = np.asarray(array)
        self.shardmap = ShardMap(array.shape, num_shards)
        # One registry for the whole cluster: the replica sets, breakers,
        # prober, scrubber and reshard coordinator all count into it, per
        # node and per shard, since "which replica is sick" is the first
        # question an operator asks. read_latency times routed shard
        # reads (the winning hedge arm), which the hedge delay follows.
        self.metrics = MetricsRegistry(
            counters=(
                "queries_routed", "query_shard_reads", "updates_routed",
                "probes", "hedged_reads", "hedge_wins", "deadline_exceeded",
                "unavailable_errors", "scrub_rounds", "scrub_digest_checks",
                "scrub_divergences", "scrub_repairs", "reshards_started",
                "reshard_flips", "reshard_rollbacks", "dual_writes",
                "degraded_reads", "estimate_refused",
            ),
            keyed=(
                "shard_queries", "shard_updates", "probe_failures",
                "breaker_trips", "breaker_resets", "node_failures",
                "failovers", "replica_lags", "replica_resyncs",
                "reshard_phases", "warming_failures", "degraded_shard_reads",
            ),
            latencies=("read_latency",),
        )
        self.faults = fault_plan
        self._method_cls = method_cls
        self._method_kwargs = dict(method_kwargs or {})
        self._data_dir = os.fspath(data_dir)
        self._replication_factor = int(replication_factor)
        self._checkpoint_every = int(checkpoint_every)
        self._fsync = bool(fsync)
        self._hedge = hedge
        self._max_pending_groups = max_pending_groups
        self._breaker_policy = breaker or BreakerPolicy()
        node_plans = dict(node_fault_plans or {})
        self._executor = ThreadPoolExecutor(
            max_workers=max(
                4, 2 * self.shardmap.num_shards * replication_factor
            ),
            thread_name_prefix="cube-cluster",
        )
        self._breakers: Dict[str, CircuitBreaker] = {}
        self.replica_sets: List[ReplicaSet] = []
        self._topology = threading.RLock()
        self._migration = None
        self._epoch_counter = self.shardmap.epoch
        self._closed = False
        try:
            for shard in range(self.shardmap.num_shards):
                self.replica_sets.append(
                    self._build_replica_set(
                        shard,
                        self.shardmap.subarray(array, shard),
                        os.path.join(self._data_dir, f"shard-{shard}"),
                        node_plans=node_plans,
                    )
                )
            self.aggregates = ShardAggregates(self.shardmap, array)
        except BaseException:
            self.close()
            raise
        self.monitor = HealthMonitor(self, seed=seed)
        self.scrubber = AntiEntropyScrubber(self, seed=seed)

    def _build_replica_set(
        self,
        shard_index: int,
        slab: np.ndarray,
        directory: str,
        *,
        node_prefix: Optional[str] = None,
        warming: bool = False,
        node_plans: Optional[Dict[str, object]] = None,
    ) -> ReplicaSet:
        """One replica set (durable primary + in-memory replicas).

        Used both at construction (``node_prefix`` = ``s<shard>``) and
        by the reshard coordinator for migration targets, whose node
        ids are epoch-qualified (``e<epoch>s<shard>``) so they can
        never collide with any present or past member, and whose
        breakers start in warming mode.
        """
        prefix = node_prefix if node_prefix is not None else f"s{shard_index}"
        plans = node_plans or {}
        members: List[ClusterNode] = []
        for i in range(self._replication_factor):
            node_id = f"{prefix}.n{i}"
            if i == 0:
                os.makedirs(directory, exist_ok=True)
                node_dir: Optional[str] = directory
                service = CubeService(
                    self._method_cls,
                    slab,
                    method_kwargs=self._method_kwargs,
                    durability=DurabilityPolicy(
                        dir=directory,
                        checkpoint_every=self._checkpoint_every,
                        fsync=self._fsync,
                    ),
                    max_pending_groups=self._max_pending_groups,
                    fault_plan=plans.get(node_id),
                )
            else:
                node_dir = None
                service = CubeService(
                    self._method_cls,
                    slab,
                    method_kwargs=self._method_kwargs,
                    max_pending_groups=self._max_pending_groups,
                    fault_plan=plans.get(node_id),
                )
            node = ClusterNode(
                node_id,
                shard_index,
                service,
                durability_dir=node_dir,
                faults=self.faults,
            )
            members.append(node)
            node_breaker = CircuitBreaker(
                node_id, self._breaker_policy, metrics=self.metrics
            )
            if warming:
                node_breaker.set_warming(True)
            self._breakers[node_id] = node_breaker
        return ReplicaSet(
            shard_index,
            members,
            metrics=self.metrics,
            executor=self._executor,
            breakers=self._breakers,
            hedge=self._hedge,
        )

    # -- topology ------------------------------------------------------------

    def nodes(self) -> List[ClusterNode]:
        """Every member node across every shard."""
        with self._topology:
            return [n for rs in self.replica_sets for n in rs.nodes]

    def node(self, node_id: str) -> ClusterNode:
        for candidate in self.nodes():
            if candidate.node_id == node_id:
                return candidate
        with self._topology:
            migration = self._migration
        if migration is not None:
            for replica_set, _ in migration.targets:
                for candidate in replica_set.nodes:
                    if candidate.node_id == node_id:
                        return candidate
        raise ClusterError(f"no such node: {node_id!r}")

    def breaker(self, node_id: str) -> CircuitBreaker:
        return self._breakers[node_id]

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.shardmap.shape

    @property
    def epoch(self) -> int:
        """The live shard map's epoch (bumped by every flip)."""
        with self._topology:
            return self.shardmap.epoch

    def _claim_epoch(self) -> int:
        """Reserve the next epoch for a planned migration.

        Strictly greater than every epoch this cluster has ever used —
        including epochs of migrations that later rolled back — so a
        stamp minted under a failed migration can never match a live
        topology again.
        """
        with self._topology:
            self._epoch_counter = (
                max(self._epoch_counter, self.shardmap.epoch) + 1
            )
            return self._epoch_counter

    def current_stamp(self) -> Tuple[int, ...]:
        """``(epoch, *version_vector)`` read atomically: the epoch,
        then each shard's last-acked sequence number in shard order.

        The epoch prefix fences every consumer — router cache entries
        and net wire stamps — to the shard map the versions were read
        under: a version vector from one layout can never collide with
        one from another, even when the per-shard numbers happen to
        match. A write to *any* shard moves its entry, so the router's
        cache invalidates exactly the answers whose stamp covered it.
        """
        with self._topology:
            return (
                self.shardmap.epoch,
                *(rs.last_acked for rs in self.replica_sets),
            )

    def migration_target_nodes(self) -> List[ClusterNode]:
        """Nodes of an in-flight migration's warming targets.

        The health monitor probes these alongside the regular members
        (their breakers are in warming mode: failures tally separately
        and never quarantine a target mid-seed). Post-flip the targets
        are regular members, so this returns them only while the
        migration is still seeding, replaying, or dual-writing.
        """
        with self._topology:
            migration = self._migration
            if migration is None:
                return []
            from repro.cluster.reshard import Migration

            if migration.mode not in (
                Migration.MODE_BUFFER, Migration.MODE_DUAL
            ):
                return []
            return [
                node
                for replica_set, _ in migration.targets
                for node in replica_set.nodes
            ]

    # -- reads ---------------------------------------------------------------

    def range_sum_many(
        self,
        lows: Sequence[Sequence[int]],
        highs: Sequence[Sequence[int]],
        *,
        deadline: Optional[Deadline] = None,
        return_shard_versions: bool = False,
        allow_estimate: bool = False,
    ):
        """Batched range sums across shards (hedged per shard).

        Every query box is split along shard boundaries; each involved
        shard answers its sub-boxes in one hedged batched read, and the
        partials are summed — exactly, because the slabs partition the
        cube. Raises :class:`ClusterUnavailableError` if any involved
        shard has no reachable replica (never a silent partial sum) and
        :class:`~repro.errors.DeadlineExceededError` when the budget
        runs out first. If the shard-map epoch changes mid-read (a live
        reshard flipped), an unavailable answer is retried once against
        the new topology before being surfaced.

        With ``allow_estimate=True`` the result is
        ``(values, estimates)``: queries touching an unreachable shard
        are answered from that shard's block aggregates instead of
        failing, and their slot in ``estimates`` carries a
        :class:`~repro.cluster.degraded.RangeEstimate` (explicit
        ``estimate=True`` marker, guaranteed ``[low, high]`` error
        interval containing the true acked sum, confidence, the
        degraded shards, and the epoch). Slots answered exactly hold
        ``None``. If even the aggregate is missing the call still
        raises — degraded reads are bounded, never silent guesses.

        With ``return_shard_versions=True`` the result additionally
        carries a receipt ``{"epoch": e, "versions": {shard: v}}``
        naming, per exactly-read shard, the snapshot version the
        sub-box reads were served from — the per-shard half of
        :meth:`query_many`'s stamp. Ordering:
        ``(values[, estimates][, receipt])``.
        """
        values, estimates, receipt = self._read(
            lows, highs, deadline, allow_estimate, stamped=False
        )
        result: Tuple = (values,)
        if allow_estimate:
            result = result + (estimates,)
        if return_shard_versions:
            result = result + (receipt,)
        return result[0] if len(result) == 1 else result

    def query_many(
        self, lows, highs, deadline: Optional[Deadline] = None
    ) -> Tuple[np.ndarray, Tuple[int, ...]]:
        """Exact batched range sums plus their ``(epoch, *versions)``
        stamp (see :meth:`current_stamp`).

        Each shard the batch touches contributes the snapshot version
        its sub-boxes were read at, every other shard its last-acked
        version, all under the epoch of the shard map the read used —
        so a query's stamp is exact for every shard it touches.
        """
        values, _, stamp = self._read(
            lows, highs, deadline, False, stamped=True
        )
        return values, stamp

    def query_many_estimated(
        self, lows, highs, deadline: Optional[Deadline] = None
    ) -> Tuple[np.ndarray, List[Optional[RangeEstimate]], Tuple[int, ...]]:
        """:meth:`query_many` that answers unreachable shards from their
        aggregates: ``(values, estimates, stamp)``, where
        ``estimates[i]`` is a :class:`RangeEstimate` for a degraded slot
        and ``None`` for an exact one."""
        return self._read(lows, highs, deadline, True, stamped=True)

    def _read(self, lows, highs, deadline, allow_estimate, *, stamped):
        """``(values, estimates, receipt or stamp)`` of one batched read,
        retried once against the new topology if a flip made a shard
        look unavailable."""
        if highs is not None and len(lows) != len(highs):
            raise ClusterError(
                f"{len(lows)} lows vs {len(highs)} highs"
            )
        with self._topology:
            shardmap = self.shardmap
            replica_sets = list(self.replica_sets)
        try:
            return self._range_sum_attempt(
                lows, highs, shardmap, replica_sets,
                deadline=deadline,
                allow_estimate=allow_estimate,
                stamped=stamped,
            )
        except ClusterUnavailableError:
            with self._topology:
                if self.shardmap.epoch == shardmap.epoch:
                    raise
                # the topology flipped under this read: what looked
                # unavailable may simply have been retired — retry once
                # against the new epoch
                shardmap = self.shardmap
                replica_sets = list(self.replica_sets)
            return self._range_sum_attempt(
                lows, highs, shardmap, replica_sets,
                deadline=deadline,
                allow_estimate=allow_estimate,
                stamped=stamped,
            )

    def _range_sum_attempt(
        self,
        lows,
        highs,
        shardmap: ShardMap,
        replica_sets: List[ReplicaSet],
        *,
        deadline: Optional[Deadline],
        allow_estimate: bool,
        stamped: bool,
    ):
        """One read pass against a consistent topology snapshot:
        ``(values, estimates, provenance)``.

        The answers keep the shards' result dtype (an int64 cube sums
        exactly past 2^53); a batch that contacts no shard is float64.
        ``estimates`` is ``None`` unless ``allow_estimate``. The
        provenance is the ``(epoch, *versions)`` stamp if ``stamped``,
        else the receipt ``{"epoch": e, "versions": {shard: v}}`` —
        both taken from this pass's own shard map and replica sets, so
        a flip after the read cannot pair one layout's epoch with
        another's shard count.
        """
        # route: [(shard, query indices, local lows, local highs)]
        per_shard = shardmap.split_boxes(lows, highs)
        self.metrics.inc(queries_routed=1, query_shard_reads=len(per_shard))
        partials: List[Tuple[np.ndarray, np.ndarray]] = []
        shard_versions: Dict[int, int] = {}
        degraded: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for shard, idx, lo, hi in per_shard:
            # a piece clipped to its slab is in bounds for its shard
            local = BoxBatch(lo, hi, shardmap.shard_shape(shard))
            try:
                values, version = replica_sets[shard].range_sum_many(
                    local, None, deadline
                )
            except ClusterUnavailableError:
                if allow_estimate:
                    degraded[shard] = (idx, lo, hi)
                    continue
                self.metrics.inc(unavailable_errors=1)
                raise
            except DeadlineExceededError:
                raise
            shard_versions[shard] = version
            partials.append((idx, np.asarray(values)))
        dtype = (
            np.result_type(*(values for _, values in partials))
            if partials else np.float64
        )
        out = np.zeros(len(lows), dtype=dtype)
        for idx, values in partials:
            # idx has no repeats within one shard: a plain += suffices
            out[idx] += values
        estimates: Optional[List[Optional[RangeEstimate]]] = None
        if allow_estimate:
            estimates = [None] * len(lows)
            if degraded:
                out = self._fill_estimates(
                    out, degraded, estimates, shardmap.epoch
                )
        if stamped:
            vector = [rs.last_acked for rs in replica_sets]
            for shard, version in shard_versions.items():
                vector[shard] = version
            return out, estimates, (shardmap.epoch, *vector)
        return out, estimates, {
            "epoch": shardmap.epoch, "versions": shard_versions,
        }

    def _fill_estimates(
        self,
        out: np.ndarray,
        degraded: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]],
        estimates: List[Optional[RangeEstimate]],
        epoch: int,
    ) -> np.ndarray:
        """Answer the degraded shards' sub-boxes from block aggregates.

        ``out`` holds the exact partial sums already collected; each
        degraded shard contributes a per-query point estimate plus a
        guaranteed interval, and affected slots in ``estimates`` get a
        :class:`RangeEstimate` whose interval is the exact partials
        shifted by the summed degraded-shard hulls.

        The point and interval arrays are float64 whatever ``out``'s
        dtype: aggregates estimate in float64, and a ``RangeEstimate``
        carries floats. The returned values are therefore float64 as
        soon as one slot is estimated.
        """
        point = out.astype(np.float64)
        low_total = point.copy()
        high_total = point.copy()
        estimated = np.zeros(len(out), dtype=bool)
        degraded_shards = tuple(sorted(degraded))
        for shard in degraded_shards:
            idx, local_lows, local_highs = degraded[shard]
            try:
                triples = self.aggregates.estimate_boxes(
                    shard, local_lows, local_highs
                )
            except ClusterError as error:
                # no aggregate either (e.g. rollback skipped a downed
                # shard): fail exactly rather than guess unboundedly
                self.metrics.inc(estimate_refused=1, unavailable_errors=1)
                raise ClusterUnavailableError(
                    f"shard {shard} is unreachable and has no "
                    f"aggregates to estimate from: {error}"
                ) from error
            point[idx] += triples[:, 0]
            low_total[idx] += triples[:, 1]
            high_total[idx] += triples[:, 2]
            estimated[idx] = True
        for i in np.flatnonzero(estimated):
            estimates[int(i)] = RangeEstimate(
                value=float(point[i]),
                low=float(low_total[i]),
                high=float(high_total[i]),
                confidence=1.0,
                degraded_shards=degraded_shards,
                epoch=int(epoch),
            )
        self.metrics.inc(degraded_reads=1)
        for shard in degraded_shards:
            self.metrics.inc_key("degraded_shard_reads", shard)
        return np.where(estimated, point, out)

    def range_sum(
        self,
        low: Sequence[int],
        high: Sequence[int],
        *,
        deadline: Optional[Deadline] = None,
    ):
        """One exact range sum across whichever shards the box spans."""
        return self.range_sum_many([low], [high], deadline=deadline)[0]

    def total(self, *, deadline: Optional[Deadline] = None):
        """Sum of the whole cube."""
        low = (0,) * self.shardmap.ndim
        high = tuple(n - 1 for n in self.shape)
        return self.range_sum(low, high, deadline=deadline)

    # -- writes --------------------------------------------------------------

    def submit_batch(
        self,
        updates: Iterable[Tuple[Sequence[int], object]],
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> Dict[int, int]:
        """Route one group of ``(cell, delta)`` updates to its shards.

        ``updates`` (an ``UpdateGroup`` or pairs) is converted once and
        checked whole: a bad cell raises before any shard is touched.
        Each involved shard receives its cells as one atomic local group
        (durably acked by that shard's primary before the next shard is
        touched). Returns ``{shard: acked sequence number}``. On a shard
        failure the call raises :class:`ClusterUnavailableError` whose
        ``acked`` attribute carries the shards that *did* commit — a
        cross-shard group is atomic per shard, not globally, and the
        error hands the caller exactly what it needs to reconcile. A
        spent ``deadline`` raises its subclass
        :class:`~repro.errors.ClusterDeadlineExceededError`, which is
        also a :class:`~repro.errors.DeadlineExceededError`.

        The whole call holds the topology lock, so it strictly orders
        against epoch flips: a group routes and acks entirely under one
        shard map. During a migration every acked sub-group touching a
        migrating shard is buffered or mirrored per the migration's
        current mode before the call returns — a dual-write ack means
        both the old and the new primary hold the group durably.
        """
        with self._topology:
            grouped = self.shardmap.split_updates(updates)
            migration = self._migration
            acked: Dict[int, int] = {}
            for shard in sorted(grouped):
                try:
                    acked[shard] = self.replica_sets[shard].submit(
                        grouped[shard], timeout=timeout, deadline=deadline
                    )
                except DeadlineExceededError as error:
                    self.metrics.inc(deadline_exceeded=1)
                    raise ClusterDeadlineExceededError(
                        f"deadline expired before shard {shard} acked: "
                        f"{error}",
                        acked=acked,
                    ) from error
                except ClusterUnavailableError as error:
                    self.metrics.inc(unavailable_errors=1)
                    raise ClusterUnavailableError(
                        str(error), acked=acked
                    ) from error
                self.aggregates.apply(shard, grouped[shard])
                if migration is not None:
                    migration.on_write(
                        self, shard, grouped[shard], acked[shard]
                    )
            return acked

    def flush(self, timeout: Optional[float] = None) -> Dict[int, int]:
        """Drain every shard; returns ``{shard: applied version}``."""
        with self._topology:
            replica_sets = list(self.replica_sets)
        return {
            rs.shard_id: rs.flush(timeout=timeout)
            for rs in replica_sets
        }

    # -- resharding ----------------------------------------------------------

    def split_shard(
        self,
        shard: int,
        at_row: Optional[int] = None,
        *,
        phase_hook=None,
    ) -> Dict:
        """Split ``shard`` into two shards at global row ``at_row``
        (default: the slab midpoint), live — the cluster keeps serving
        reads and writes for the whole migration. Returns the
        coordinator's summary; raises
        :class:`~repro.errors.ReshardError` (rolled back) on failure.
        """
        from repro.cluster.reshard import ReshardCoordinator

        return ReshardCoordinator(self, phase_hook=phase_hook).split(
            shard, at_row
        )

    def merge_shards(self, shard: int, *, phase_hook=None) -> Dict:
        """Fuse ``shard`` and ``shard + 1`` into one shard, live."""
        from repro.cluster.reshard import ReshardCoordinator

        return ReshardCoordinator(self, phase_hook=phase_hook).merge(
            shard
        )

    # -- chaos hooks ---------------------------------------------------------

    def kill_node(self, node_id: str) -> None:
        """Chaos hook: make ``node_id`` fail every operation from now on.

        Requires a cluster-level fault plan (the kill is injected, so a
        later :meth:`~repro.faults.FaultPlan.revive` can resurrect the
        node for heal rounds).
        """
        if self.faults is None:
            raise ClusterError(
                "kill_node needs a cluster-level fault_plan"
            )
        self.node(node_id)  # validate the id
        self.faults.kill(node_id)

    # -- lifecycle -----------------------------------------------------------

    def start(
        self,
        probe_interval_s: float = 0.25,
        scrub_interval_s: Optional[float] = None,
    ) -> "CubeCluster":
        """Start the background monitor (and scrubber, when given an
        interval); tests usually drive ``monitor.tick()`` /
        ``scrubber.scrub_once()`` synchronously instead."""
        self.monitor.start(probe_interval_s)
        if scrub_interval_s is not None:
            self.scrubber.start(scrub_interval_s)
        return self

    def stats(self) -> Dict:
        """Cluster-wide operational snapshot (one plain dict).

        The shard map, per-node states, version vector, epoch, and
        in-flight migration are all captured under one topology-lock
        hold, so a concurrent epoch flip can never produce a torn view
        (e.g. the new map paired with the old nodes).
        """
        with self._topology:
            shardmap = self.shardmap
            replica_sets = list(self.replica_sets)
            migration = self._migration
            nodes = {}
            member_rows = [
                (node, False)
                for rs in replica_sets
                for node in rs.nodes
            ]
            if migration is not None:
                member_rows += [
                    (node, True)
                    for rs, _ in migration.targets
                    for node in rs.nodes
                    if node.node_id not in {
                        n.node_id for n, _ in member_rows
                    }
                ]
            for node, warming in member_rows:
                nodes[node.node_id] = {
                    "shard": node.shard_id,
                    "role": (
                        "warming"
                        if warming
                        else (
                            "primary" if node.is_primary else "replica"
                        )
                    ),
                    "state": (
                        "dead"
                        if node.dead
                        else ("lagging" if node.lagging else "ok")
                    ),
                    "breaker": self._breakers[node.node_id].state
                    if node.node_id in self._breakers
                    else None,
                    "version": (
                        None if node.dead else node.service.version
                    ),
                }
            vector = tuple(rs.last_acked for rs in replica_sets)
            migration_desc = (
                migration.describe() if migration is not None else None
            )
            report = {
                "epoch": shardmap.epoch,
                "shardmap": shardmap.describe(),
                "version_vector": list(vector),
                "nodes": nodes,
                "migration": migration_desc,
            }
        report["metrics"] = self.metrics.snapshot()
        report["monitor_ticks"] = self.monitor.ticks
        return report

    def close(self) -> None:
        """Stop background threads, close every node, free the pool."""
        if self._closed:
            return
        self._closed = True
        monitor = getattr(self, "monitor", None)
        if monitor is not None:
            monitor.stop()
        scrubber = getattr(self, "scrubber", None)
        if scrubber is not None:
            scrubber.stop()
        migration = getattr(self, "_migration", None)
        if migration is not None:
            for replica_set, _ in migration.targets:
                for node in replica_set.nodes:
                    if node.dead:
                        continue
                    try:
                        node.close()
                    except NODE_FAILURES:
                        node.dead = True
        for replica_set in getattr(self, "replica_sets", []):
            for node in replica_set.nodes:
                if node.dead:
                    continue
                try:
                    node.close()
                except NODE_FAILURES:
                    node.dead = True
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "CubeCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"CubeCluster(shards={self.shardmap.num_shards}, "
            f"epoch={self.shardmap.epoch}, nodes={len(self.nodes())}, "
            f"shape={self.shape})"
        )
