"""One shard's replica group: hedged reads, forwarded writes, failover.

**Reads** fan out across the replicas with *hedging* (Dean & Barroso,
"The Tail at Scale"): launch the request on one node, and if it has not
answered within an adaptive delay — the observed latency percentile of
recent shard reads — launch it on a second node and take whichever
answers first. The slow request is not cancelled (it finishes
harmlessly); the tail latency a straggling replica would have imposed
is. The delay adapts via :class:`HedgePolicy` from the cluster's own
:class:`~repro.metrics.service.LatencyRecorder`, whose quantiles cover
only the last 4096–8192 shard reads and cost O(buckets) rather than a
sort, so the delay follows live traffic and hedging stays rare (~the
chosen percentile) by construction. Replication is asynchronous
past the ack (``submit_batch`` queues the forwarded group), so before
an arm answers, a node whose snapshot trails the shard's last
acknowledged group first waits for its own writer to catch up — every
acked group is already queued on every non-lagging node by the time
the ack is visible — and a node that *cannot* catch up fails the arm
rather than serving a stale snapshot.

**Writes** go to the primary, whose service WAL-logs and fsyncs the
group *before* acknowledging; only then is the group forwarded to the
replicas, which apply the identical local group through their own
``submit_batch`` and must come back with the identical sequence number.
A replica that misses or misorders a forward is marked ``lagging`` and
excluded from reads until :meth:`ReplicaSet.resync` rebuilds it from the
primary's durable log — the same
:func:`~repro.serve.wal.recover_state` path crash recovery uses, so
there is exactly one replay implementation to trust.

**Failover** is the durability payoff: because acks happen only after
the primary's fsync, promoting a replica never trusts replica memory.
The old primary is fenced (its service abandoned, WAL handle closed),
and the promoted node *recovers from the dead primary's WAL directory*
via :meth:`CubeService.recover` — every acknowledged group is replayed,
so an ack survives the primary's death even if no replica ever saw the
forward. Zero acked-group loss, by the same argument as single-node
crash recovery.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, Executor, wait
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.node import NODE_FAILURES, ClusterNode
from repro.deadline import Deadline
from repro.errors import (
    ClusterError,
    ClusterUnavailableError,
    NodeUnavailableError,
    ReproError,
)
from repro.serve import wal as wal_mod
from repro.serve.service import CubeService


@dataclass(frozen=True)
class HedgePolicy:
    """When to launch the second read of a hedged pair.

    Args:
        quantile: latency percentile (0–100) of recent shard reads used
            as the hedge delay — requests slower than this get a second
            arm. 95 hedges ~5% of reads, the classic operating point.
            "Recent" is the recorder's window of the last 4096–8192
            reads, resolved to its bucket precision (< 4.5%).
        initial_delay_s: delay used until ``min_samples`` reads have
            been observed (cold cluster).
        min_delay_s: floor, so a burst of very fast reads cannot drive
            the delay to zero and turn every read into two.
        min_samples: observations required before trusting the
            percentile.
    """

    quantile: float = 95.0
    initial_delay_s: float = 0.05
    min_delay_s: float = 0.001
    min_samples: int = 16

    def __post_init__(self):
        if not 0.0 <= self.quantile <= 100.0:
            raise ValueError(f"quantile must be in [0, 100]: {self.quantile}")
        if self.initial_delay_s < 0 or self.min_delay_s < 0:
            raise ValueError("hedge delays must be non-negative")
        if self.min_samples < 1:
            raise ValueError(f"min_samples must be >= 1: {self.min_samples}")

    def delay(self, recorder) -> float:
        """Current hedge delay given the shard-read latency recorder."""
        if recorder.count < self.min_samples:
            return self.initial_delay_s
        return max(self.min_delay_s, recorder.percentile(self.quantile))


class ReplicaSet:
    """The replicas of one shard, exactly one of which is primary.

    Args:
        shard_id: which slab of the cube this group serves.
        nodes: the member :class:`ClusterNode` s; ``nodes[0]`` starts as
            primary and must own a durability directory.
        metrics: the cluster's shared
            :class:`~repro.metrics.registry.MetricsRegistry`.
        executor: shared thread pool for hedged read arms.
        breakers: ``{node_id: CircuitBreaker}`` shared with the monitor.
        hedge: hedge-delay policy (``None`` for defaults).
    """

    def __init__(
        self,
        shard_id: int,
        nodes: Sequence[ClusterNode],
        *,
        metrics,
        executor: Executor,
        breakers: Dict[str, object],
        hedge: Optional[HedgePolicy] = None,
    ) -> None:
        if not nodes:
            raise ClusterError(f"shard {shard_id} has no nodes")
        self.shard_id = int(shard_id)
        self.nodes: List[ClusterNode] = list(nodes)
        self.metrics = metrics
        self._executor = executor
        self._breakers = breakers
        self.hedge = hedge or HedgePolicy()
        # Reentrant: failover() runs inside submit()'s locked section.
        self._lock = threading.RLock()
        self._rotation = 0
        # Highest sequence number acknowledged to a caller; reads must
        # never observe a snapshot older than this (read-after-ack).
        self._last_acked = nodes[0].service.version
        self.nodes[0].is_primary = True
        if self.nodes[0].durability_dir is None:
            raise ClusterError(
                f"shard {shard_id}: primary {self.nodes[0].node_id} has no "
                "durability directory — failover needs a WAL to recover from"
            )

    @property
    def primary(self) -> ClusterNode:
        with self._lock:
            for node in self.nodes:
                if node.is_primary:
                    return node
        raise ClusterUnavailableError(f"shard {self.shard_id} has no primary")

    @property
    def last_acked(self) -> int:
        """Highest sequence number acknowledged to a caller — the floor
        below which no read on this shard may be served."""
        with self._lock:
            return self._last_acked

    def _breaker(self, node: ClusterNode):
        return self._breakers[node.node_id]

    # -- reads ---------------------------------------------------------------

    def _read_candidates(self) -> Tuple[List[ClusterNode], int]:
        """``(candidates, acked)``: read-eligible nodes plus the floor.

        Candidates come preferred order first — primary, then
        non-lagging replicas rotated so hedge load spreads;
        breaker-open nodes are filtered out, but if *everything* is
        filtered the full list is returned as a last resort — a wrong
        answer is impossible (replicas are exact or excluded), only an
        error is. ``acked`` is the shard's last acknowledged sequence
        number, read under the same lock: no answer may come from a
        snapshot older than it.
        """
        with self._lock:
            primary = self.primary
            acked = self._last_acked
            replicas = [
                n
                for n in self.nodes
                if not n.is_primary and not n.dead and not n.lagging
            ]
            if replicas:
                pivot = self._rotation % len(replicas)
                self._rotation += 1
                replicas = replicas[pivot:] + replicas[:pivot]
            ordered = [primary] + replicas
        allowed = [n for n in ordered if self._breaker(n).allow() and not n.dead]
        return (allowed or ordered), acked

    def read(self, op: str, args: Tuple, deadline: Optional[Deadline] = None):
        """Hedged read: ``op(*args)`` on one replica, two if it lags.

        Launches the preferred candidate, waits up to the adaptive hedge
        delay, launches the next candidate if the first has not
        answered, and returns the first successful result. A failed arm
        feeds its node's breaker and the next candidate is launched
        immediately. Read-after-ack: an arm whose snapshot trails the
        shard's last acknowledged group waits for its node's writer to
        drain (every acked group is queued on every non-lagging node
        before the ack is visible) and fails rather than answer below
        that floor, so no result ever predates an acknowledged write.
        Raises :class:`ClusterUnavailableError` when every candidate
        fails, :class:`~repro.errors.DeadlineExceededError` when the
        budget expires first — never a partial answer, never one
        missing an acked group.
        """
        candidates, acked = self._read_candidates()
        hedge_delay = self.hedge.delay(self.metrics.latency("read_latency"))

        def arm(node: ClusterNode):
            start = time.perf_counter()
            if node.service.version < acked:
                # the missing groups are already queued (forwarding
                # precedes the ack) — wait out the node's writer
                budget = None if deadline is None else deadline.bound(None)
                node.service.flush(timeout=budget)
                if node.service.version < acked:
                    raise NodeUnavailableError(
                        f"node {node.node_id} snapshot "
                        f"v{node.service.version} predates acked v{acked}"
                    )
            result = getattr(node, op)(*args)
            return node, result, time.perf_counter() - start

        pending = {}
        launched = 0
        hedged = False
        errors: List[str] = []

        def launch_next() -> bool:
            nonlocal launched
            if launched >= len(candidates):
                return False
            node = candidates[launched]
            launched += 1
            pending[self._executor.submit(arm, node)] = node
            return True

        launch_next()
        while pending:
            if deadline is not None and deadline.expired:
                self.metrics.inc(deadline_exceeded=1)
                deadline.check(f"shard {self.shard_id} read")
            # Until the hedge fires, wait only hedge_delay; after, wait
            # for whatever finishes first.
            timeout = None if hedged else hedge_delay
            if deadline is not None:
                timeout = deadline.bound(timeout)
            done, _ = wait(
                pending, timeout=timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                # hedge trigger (or deadline re-check on next loop)
                if not hedged and launch_next():
                    hedged = True
                    self.metrics.inc(hedged_reads=1)
                elif launched >= len(candidates) and (
                    deadline is None or not hedged
                ):
                    # nothing new to launch; keep waiting on pending
                    hedged = True
                continue
            for future in done:
                node = pending.pop(future)
                try:
                    _, result, seconds = future.result()
                except NODE_FAILURES as error:
                    self._breaker(node).record_failure()
                    self.metrics.inc_key("node_failures", node.node_id)
                    errors.append(f"{node.node_id}: {error}")
                    if not pending and not launch_next():
                        raise ClusterUnavailableError(
                            f"shard {self.shard_id}: all "
                            f"{len(candidates)} replicas failed "
                            f"({'; '.join(errors)})"
                        ) from error
                    continue
                self._breaker(node).record_success()
                if hedged and node is not candidates[0]:
                    self.metrics.inc(hedge_wins=1)
                self.metrics.inc_key("shard_queries", self.shard_id)
                self.metrics.observe("read_latency", seconds)
                # a losing arm keeps running in the pool; its result is
                # simply discarded (hedging never cancels)
                return result
        raise ClusterUnavailableError(
            f"shard {self.shard_id}: no replica answered "
            f"({'; '.join(errors) or 'no candidates'})"
        )

    def range_sum_many(self, lows, highs, deadline=None):
        """Hedged batched range sums; returns ``(values, version)``."""
        return self.read("range_sum_many", (lows, highs), deadline)

    # -- writes --------------------------------------------------------------

    def submit(
        self,
        updates: Sequence[Tuple[Tuple[int, ...], object]],
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> int:
        """Durably apply one local group; returns its sequence number.

        The primary's ack (post-WAL-fsync) is the commit point; replica
        forwarding happens after it and can only mark a replica lagging,
        never un-ack the group. A primary failure mid-submit triggers an
        inline :meth:`failover` and a single retry against the promoted
        node — but the failed attempt may have *committed without
        acking*: an fsync failure raises after the record is already
        on disk, and recovery replays any fully-written record. So the
        retry first checks the promoted primary's recovered log: if it
        already contains the group's sequence number, the group is
        durable and applied, and the ack is returned without
        resubmitting — a blind resubmit would apply the deltas twice.
        """
        if deadline is not None:
            deadline.check(f"shard {self.shard_id} submit")
        with self._lock:
            for attempt in (1, 2):
                primary = self.primary
                # Submits to this set serialize on the set lock, so the
                # primary's submitted-group counter cannot move under
                # us: the group, if it commits, gets exactly this seq.
                expected = primary.service.last_submitted_seq + 1
                try:
                    primary.guard("write")
                    seq = primary.service.submit_batch(
                        updates, timeout=timeout
                    )
                    break
                except NODE_FAILURES as error:
                    self.metrics.inc_key("node_failures", primary.node_id)
                    self._breaker(primary).record_failure()
                    if attempt == 2:
                        raise ClusterUnavailableError(
                            f"shard {self.shard_id}: primary "
                            f"{primary.node_id} unavailable and failover "
                            f"failed ({error})"
                        ) from error
                    promoted = self.failover()
                    if promoted.service.last_submitted_seq >= expected:
                        # the "failed" submit reached the WAL before it
                        # raised; recovery replayed it — durable and
                        # applied exactly once, so do not resubmit
                        seq = expected
                        break
            self._last_acked = max(self._last_acked, seq)
            self.metrics.inc(updates_routed=1)
            self.metrics.inc_key("shard_updates", self.shard_id)
            for replica in self.nodes:
                if replica.is_primary or replica.dead or replica.lagging:
                    continue
                try:
                    replica.guard("replicate")
                    replica_seq = replica.service.submit_batch(
                        updates, timeout=timeout
                    )
                except NODE_FAILURES:
                    replica.lagging = True
                    self.metrics.inc_key("replica_lags", replica.node_id)
                    continue
                if replica_seq != seq:
                    # missed an earlier forward: exact or excluded
                    replica.lagging = True
                    self.metrics.inc_key("replica_lags", replica.node_id)
            return seq

    def flush(self, timeout: Optional[float] = None) -> int:
        """Wait until the primary has applied everything it acked."""
        with self._lock:
            primary = self.primary
        version = primary.service.flush(timeout=timeout)
        for replica in self.nodes:
            if replica.is_primary or replica.dead or replica.lagging:
                continue
            try:
                replica.service.flush(timeout=timeout)
            except NODE_FAILURES:
                replica.lagging = True
                self.metrics.inc_key("replica_lags", replica.node_id)
        return version

    # -- failover and resync -------------------------------------------------

    def failover(self) -> ClusterNode:
        """Fence the primary, promote a replica from the durable log.

        Idempotent under the set lock. The promoted replica discards its
        in-memory state entirely and recovers from the fenced primary's
        WAL directory — checkpoint load plus committed-group replay —
        so every acknowledged group survives even if this replica was
        lagging. The dead primary's per-node fault plan is deliberately
        *not* inherited (a ``kill_node_at`` that fired once must not
        re-fire during replay or on the new primary).

        Recovery runs *before* roles flip or the promoted replica's
        service is destroyed: if the directory cannot be recovered
        (corrupt WAL, I/O failure), the fenced node keeps its primary
        role — so a later failover attempt can retry — and the replica
        keeps serving reads, instead of the shard being left with no
        primary and one replica fewer.
        """
        with self._lock:
            old = self.primary
            directory = old.durability_dir
            candidates = [
                n for n in self.nodes if not n.is_primary and not n.dead
            ]
            if not candidates:
                raise ClusterUnavailableError(
                    f"shard {self.shard_id}: primary {old.node_id} is down "
                    "and no replica is left to promote"
                )
            # prefer a caught-up replica; a lagging one still recovers
            # correctly (state comes from the log, not its memory)
            candidates.sort(key=lambda n: n.lagging)
            promoted = candidates[0]
            # fence: crash-stop the old primary so it can never ack or
            # log another group against the directory we are adopting
            old.is_primary = False
            try:
                old.abandon()
            except Exception:  # noqa: BLE001 - already-dead is fine
                pass
            try:
                recovered = CubeService.recover(directory)
            except (ReproError, OSError) as error:
                # leave the (fenced, dead) node as primary: the shard
                # degrades to unavailable, and the health monitor's
                # next tick retries this failover instead of the shard
                # being permanently primary-less
                old.is_primary = True
                raise ClusterUnavailableError(
                    f"shard {self.shard_id}: failover could not recover "
                    f"from {directory} ({error})"
                ) from error
            try:
                promoted.service.close(timeout=10.0)
            except Exception:  # noqa: BLE001 - stale state is discarded
                pass
            promoted.service = recovered
            promoted.durability_dir = directory
            promoted.is_primary = True
            promoted.lagging = False
            # reads must not flip between the recovered state and a
            # replica that missed a committed-but-unacked group
            self._last_acked = max(
                self._last_acked, recovered.last_submitted_seq
            )
            self._breaker(promoted).record_success()
            self.metrics.inc_key("failovers", self.shard_id)
            return promoted

    def resync(self, node: ClusterNode) -> ClusterNode:
        """Rebuild a lagging replica from the primary's durable log.

        Runs under the set lock so no forward can race the rebuild: the
        replica restarts at exactly the primary's committed version and
        resumes receiving forwards from the next group on.
        """
        with self._lock:
            primary = self.primary
            if node.is_primary:
                return node
            primary.service.flush()
            state = wal_mod.recover_state(primary.durability_dir)
            method = state.method
            box_sizes = getattr(method, "box_sizes", None)
            kwargs = {"box_size": box_sizes} if box_sizes is not None else {}
            try:
                node.service.close(timeout=10.0)
            except Exception:  # noqa: BLE001 - stale state is discarded
                pass
            node.service = CubeService(
                type(method),
                method.to_array(),
                method_kwargs=kwargs,
                _initial_version=state.version,
            )
            node.lagging = False
            node.dead = False
            self.metrics.inc_key("replica_resyncs", node.node_id)
            return node

    def __repr__(self) -> str:
        return (
            f"ReplicaSet(shard={self.shard_id}, "
            f"nodes={[n.node_id for n in self.nodes]})"
        )
