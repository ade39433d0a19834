"""One cluster member: a :class:`CubeService` plus its failure surface.

A :class:`ClusterNode` wraps a single-shard service with the two things
the cluster layer needs that the service itself must not know about:

* **identity and role** — a stable ``node_id`` (``"s{shard}.n{i}"``),
  its shard, whether it is currently the primary, and whether it has
  been fenced off (``dead``) or fallen behind replication (``lagging``);
* **an injection point** — every operation first calls
  :meth:`ClusterNode.guard`, which consults the cluster's
  :class:`~repro.faults.FaultPlan` (``on_node_op``): injected kills and
  partitions surface here as exceptions, injected latency spikes as a
  sleep. This is what makes hedged reads, breaker trips, and failovers
  reproducible under a seed.

``NODE_FAILURES`` is the closed set of exception types the cluster
treats as "this node is unavailable" (worth a breaker count, a hedge, or
a failover). Everything else — :class:`~repro.errors.RangeError` from a
malformed query, say — is a *caller* bug and propagates unchanged, no
matter which replica raised it.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import NodeUnavailableError, WALError
from repro.faults import FaultPlan, InjectedFault
from repro.serve.service import CubeService, ServiceClosedError

#: Exceptions that mean "node unavailable", never "query invalid".
NODE_FAILURES = (
    InjectedFault,
    NodeUnavailableError,
    ServiceClosedError,
    WALError,
    TimeoutError,
    OSError,
)


class ClusterNode:
    """One replica of one shard.

    Args:
        node_id: globally unique name, by convention ``"s{shard}.n{i}"``.
        shard_id: which :class:`~repro.cluster.shardmap.ShardMap` slab
            this node serves.
        service: the wrapped single-shard :class:`CubeService`.
        durability_dir: the service's WAL directory (primaries only);
            replicas resync and failover recovery read from the current
            primary's directory.
        faults: optional shared :class:`FaultPlan`; ``None`` disables
            injection entirely.
    """

    def __init__(
        self,
        node_id: str,
        shard_id: int,
        service: CubeService,
        *,
        durability_dir=None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.node_id = str(node_id)
        self.shard_id = int(shard_id)
        self.service = service
        self.durability_dir = durability_dir
        self.faults = faults
        self.is_primary = False
        self.lagging = False
        self.dead = False

    # -- fault surface -------------------------------------------------------

    def guard(self, kind: str = "read") -> None:
        """Fault-injection choke point; every public op passes through.

        Raises :class:`~repro.faults.NodeKilled` /
        :class:`~repro.faults.NodePartitioned` when the plan says so,
        sleeps out an injected latency spike otherwise, and refuses
        fenced nodes outright.
        """
        if self.dead:
            raise NodeUnavailableError(f"node {self.node_id} is fenced")
        if self.faults is not None:
            extra = self.faults.on_node_op(self.node_id, kind)
            if extra > 0.0:
                time.sleep(extra)

    # -- reads ---------------------------------------------------------------

    def probe(self) -> int:
        """Cheap liveness check; returns the node's current version."""
        self.guard("probe")
        return self.service.version

    def range_sum_many(self, lows, highs) -> Tuple[np.ndarray, int]:
        """Batched local range sums plus the serving snapshot version."""
        self.guard("read")
        return self.service.query_many(lows, highs)

    def total(self):
        """Whole-slab sum (used by probes and tests)."""
        self.guard("read")
        return self.service.total()

    def snapshot_digest(self) -> Tuple[int, str]:
        """``(version, sha256)`` of the node's published snapshot."""
        self.guard("read")
        return self.service.snapshot_digest()

    @property
    def version(self) -> int:
        return self.service.version

    # -- writes --------------------------------------------------------------

    def flush(self, timeout: Optional[float] = None) -> int:
        self.guard("write")
        return self.service.flush(timeout=timeout)

    # -- lifecycle -----------------------------------------------------------

    def self_check(
        self,
        probes: int = 16,
        seed: int = 0,
        repair=True,
        *,
        timeout: Optional[float] = None,
        deadline=None,
    ):
        return self.service.self_check(
            probes=probes, seed=seed, repair=repair,
            timeout=timeout, deadline=deadline,
        )

    def close(self) -> None:
        self.dead = True
        self.service.close()

    def abandon(self) -> None:
        """Fence the node: crash-stop its service without draining."""
        self.dead = True
        self.service.abandon()

    def __repr__(self) -> str:
        role = "primary" if self.is_primary else "replica"
        state = "dead" if self.dead else ("lagging" if self.lagging else "ok")
        return (
            f"ClusterNode({self.node_id!r}, shard={self.shard_id}, "
            f"{role}, {state})"
        )
