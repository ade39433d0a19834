"""Node health: per-node circuit breakers and the probing monitor.

The breaker is the classic three-state machine (Nygard's *Release It!*
pattern): **closed** passes traffic and counts consecutive failures;
``failure_threshold`` of them in a row trips it **open**, which rejects
instantly — sparing a dead node the request and the caller the timeout —
until ``cooldown_s`` elapses; the first call after cooldown runs in
**half-open** as a trial, where one success closes the breaker and one
failure re-opens it for another cooldown. The clock is injectable so
tests step time explicitly instead of sleeping.

:class:`HealthMonitor` drives the breakers from *probes* rather than
waiting for client traffic to discover a dead node. Each
:meth:`HealthMonitor.tick` probes every node (in a seeded shuffled order
so no node is systematically probed first) and then asks each
:class:`~repro.cluster.replicaset.ReplicaSet` to fail over if its
primary's breaker is open or the node is fenced. ``tick()`` is
synchronous and deterministic — tests call it directly; production use
can run it on the background thread via :meth:`HealthMonitor.start`.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.cluster.node import NODE_FAILURES
from repro.errors import ClusterError


@dataclass(frozen=True)
class BreakerPolicy:
    """Tuning for one :class:`CircuitBreaker`.

    Args:
        failure_threshold: consecutive failures that trip the breaker.
        cooldown_s: seconds an open breaker rejects before allowing a
            half-open trial call.
    """

    failure_threshold: int = 3
    cooldown_s: float = 1.0

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {self.cooldown_s}")


class CircuitBreaker:
    """Closed → open → half-open failure gate for one node.

    Thread-safe; ``clock`` is injectable (monotonic seconds) so tests
    control cooldown expiry without real sleeps.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        node_id: str,
        policy: Optional[BreakerPolicy] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        metrics=None,
    ) -> None:
        self.node_id = str(node_id)
        self.policy = policy or BreakerPolicy()
        self._clock = clock
        self._metrics = metrics
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._warming = False
        self._warming_failures = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._probe_state()

    def _probe_state(self) -> str:
        """Current state, promoting open → half-open after cooldown.

        Caller holds the lock.
        """
        if (
            self._state == self.OPEN
            and self._clock() - self._opened_at >= self.policy.cooldown_s
        ):
            self._state = self.HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """May a call be attempted right now?

        Open rejects; closed and half-open (the post-cooldown trial)
        both allow.
        """
        with self._lock:
            return self._probe_state() != self.OPEN

    def record_success(self) -> None:
        with self._lock:
            was_broken = self._state != self.CLOSED
            self._state = self.CLOSED
            self._failures = 0
        if was_broken and self._metrics is not None:
            self._metrics.inc_key("breaker_resets", self.node_id)

    @property
    def warming(self) -> bool:
        """Whether this node is a migration target still seeding/WAL-
        replaying: failures are counted separately and never trip the
        breaker, so a warming target cannot be quarantined as unhealthy
        before its replay finishes."""
        with self._lock:
            return self._warming

    @property
    def warming_failures(self) -> int:
        with self._lock:
            return self._warming_failures

    def set_warming(self, warming: bool) -> None:
        """Enter/leave warming mode. Leaving resets the consecutive-
        failure count: failures accumulated while seeding must not
        pre-charge a trip the moment the node goes live."""
        with self._lock:
            self._warming = bool(warming)
            if not self._warming:
                self._failures = 0

    def record_failure(self) -> None:
        with self._lock:
            if self._warming:
                self._warming_failures += 1
                warming = True
            else:
                warming = False
        if warming:
            if self._metrics is not None:
                self._metrics.inc_key("warming_failures", self.node_id)
            return
        with self._lock:
            if self._probe_state() == self.HALF_OPEN:
                # the trial call failed: straight back to open
                self._state = self.OPEN
                self._opened_at = self._clock()
                tripped = True
            else:
                self._failures += 1
                tripped = (
                    self._state == self.CLOSED
                    and self._failures >= self.policy.failure_threshold
                )
                if tripped:
                    self._state = self.OPEN
                    self._opened_at = self._clock()
        if tripped and self._metrics is not None:
            self._metrics.inc_key("breaker_trips", self.node_id)

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.node_id!r}, state={self.state!r}, "
            f"failures={self._failures})"
        )


class HealthMonitor:
    """Probe every node, feed the breakers, trigger failovers.

    Args:
        cluster: the owning :class:`~repro.cluster.cluster.CubeCluster`
            (anything exposing ``nodes()``, ``breaker(node_id)``, and
            ``replica_sets``).
        seed: seeds the probe-order shuffle — ticks are deterministic.
        probe_timeout_s: per-probe budget. Probes themselves are
            synchronous in-process calls, but this is the cluster's one
            authoritative "how long may a health-path wait take" knob:
            the anti-entropy scrubber derives its repair budget from it
            (see :class:`~repro.cluster.scrub.AntiEntropyScrubber`)
            instead of keeping an ad-hoc timeout of its own.
    """

    def __init__(self, cluster, *, seed: int = 0, probe_timeout_s: float = 1.0):
        self._cluster = cluster
        self._rng = random.Random(seed)
        self.probe_timeout_s = float(probe_timeout_s)
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.ticks = 0

    def tick(self) -> Dict[str, bool]:
        """One synchronous monitoring pass; returns ``{node_id: ok}``.

        Probes all non-fenced nodes in a seeded random order, records
        each outcome on the node's breaker, then gives every replica set
        a failover opportunity (taken only when the primary is fenced or
        its breaker is open). Migration-target nodes still warming
        (seeding / WAL tail replay) are probed too, but their breakers
        are in warming mode: failures are tallied separately and can
        never quarantine a target before its replay finishes.
        """
        results: Dict[str, bool] = {}
        nodes = list(self._cluster.nodes())
        targets = getattr(
            self._cluster, "migration_target_nodes", None
        )
        warming_ids = set()
        if targets is not None:
            for node in targets():
                warming_ids.add(node.node_id)
                nodes.append(node)
        self._rng.shuffle(nodes)
        metrics = self._cluster.metrics
        for node in nodes:
            if node.dead:
                continue
            breaker = self._cluster.breaker(node.node_id)
            try:
                node.probe()
            except NODE_FAILURES:
                ok = False
            else:
                ok = True
            results[node.node_id] = ok
            metrics.inc(probes=1)
            if ok:
                breaker.record_success()
            else:
                metrics.inc_key("probe_failures", node.node_id)
                if node.node_id not in warming_ids:
                    metrics.inc_key("node_failures", node.node_id)
                breaker.record_failure()
        for replica_set in self._cluster.replica_sets:
            try:
                primary = replica_set.primary
            except ClusterError:
                # shard has no primary at all (and so no durable
                # directory to promote from): skip it, but never let
                # one broken shard deny the remaining shards their
                # failover opportunity
                continue
            if primary.dead or not self._cluster.breaker(
                primary.node_id
            ).allow():
                try:
                    replica_set.failover()
                except ClusterError:
                    # no replica left to promote (or recovery failed):
                    # the shard stays unavailable (exactly) until a
                    # node is revived or a later tick retries
                    pass
        self.ticks += 1
        return results

    def start(self, interval_s: float = 0.25) -> None:
        """Run :meth:`tick` on a daemon thread every ``interval_s``."""
        if self._thread is not None:
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(interval_s):
                try:
                    self.tick()
                except Exception:  # noqa: BLE001 - monitor must survive
                    pass

        self._thread = threading.Thread(
            target=loop, name="cluster-health-monitor", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=10.0)
        self._thread = None
