"""Target adapters: one submit/fence contract over service and cluster.

The pipeline speaks one small protocol and these adapters implement it
for each backend. A *group* is an
:class:`~repro.serve.group.UpdateGroup` — ``(n, d)`` cells plus ``n``
deltas — which also iterates as ``(cell, delta)`` pairs:

``admit(cells)``
    A boolean mask over an ``(n, d)`` cell array (or a scalar for one
    cell): which cells are currently writable, plus the reason the rest
    are not (``""`` when every cell is). The rolling target rejects
    expired time slots — those rows quarantine instead of poisoning a
    group. One call covers a whole chunk, or a whole group after its
    roll.
``prepare(group)``
    Pre-submit work that must precede the durable intent (the rolling
    target advances the window here; idempotent on replay). Returns
    the rows it refuses as ``admit`` does: a mask plus its reason (the
    rolling target's ``bad_time`` for rows past a window of silence).
``expect(group)``
    The commit marker the next submitted group will reach, captured
    into the intent *before* the submit.
``submit(group)`` / ``submit_fenced(group, expect)``
    One atomic group (per shard, for the cluster), durably acked when
    it returns. :class:`~repro.errors.ServiceOverloadedError` escapes
    to the pipeline's backpressure loop; node failures are absorbed by
    failover/retry here.
``committed(expect)``
    The fence: after a coordinator crash, did the in-flight group
    commit? ``"all"``, ``"none"``, or ``"partial"`` (cluster only — a
    cross-shard group is atomic per shard, and the resume resubmits
    exactly the missing shards' sub-updates via
    ``resubmit_missing``).
``state()`` / ``restore(state)``
    Adapter state persisted alongside the committed offset (the
    rolling target's ``newest_slot``).

The fence compares recorded expectations against the target's acked
sequence numbers, which is sound while the pipeline is the only writer
advancing those sequences between intent and resume — the standard
single-logical-writer rule; concurrent readers are unrestricted.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    ClusterUnavailableError,
    FenceError,
    IngestError,
)
from repro.serve.group import UpdateGroup

Pair = Tuple[Tuple[int, ...], float]


class _Target:
    """The protocol's defaults for a target without a time window:
    every cell admitted, no adapter state."""

    def admit(self, cells) -> Tuple[np.ndarray, str]:
        return np.ones(np.shape(cells)[:-1], dtype=bool), ""

    def prepare(
        self, group: UpdateGroup, *, timeout: Optional[float] = None
    ) -> Tuple[np.ndarray, str]:
        return np.ones(len(group), dtype=bool), ""

    def state(self) -> Dict:
        return {}

    def restore(self, state: Dict) -> None:
        pass


class ServiceTarget(_Target):
    """Adapter over one :class:`~repro.serve.CubeService`."""

    kind = "service"

    def __init__(self, service) -> None:
        self.service = service

    # -- protocol ------------------------------------------------------------

    def expect(self, pairs: Sequence[Pair]) -> Dict:
        return {"kind": self.kind, "seq": self.service.last_submitted_seq + 1}

    def submit(
        self, pairs: Sequence[Pair], *, timeout: Optional[float] = None
    ) -> Dict:
        seq = self.service.submit_batch(pairs, timeout=timeout)
        return {"seq": seq}

    def submit_fenced(
        self,
        pairs: Sequence[Pair],
        expect: Dict,
        *,
        timeout: Optional[float] = None,
    ) -> Dict:
        """Submit under the intent just persisted, verifying the group
        landed at the fenced sequence (a mismatch means another writer
        shares the sequence domain and the exactly-once fence is void —
        fail loud, the checkpoint can no longer be trusted)."""
        ack = self.submit(pairs, timeout=timeout)
        if int(ack["seq"]) != int(expect["seq"]):
            raise FenceError(
                f"group committed at seq {ack['seq']} but the intent "
                f"was fenced to {expect['seq']}; another writer is "
                f"advancing this target's sequence domain"
            )
        return ack

    def committed(self, expect: Dict) -> str:
        if expect.get("kind") != self.kind:
            raise FenceError(
                f"checkpoint intent was fenced to a {expect.get('kind')!r} "
                f"target, resuming against {self.kind!r}"
            )
        done = self.service.last_submitted_seq >= int(expect["seq"])
        return "all" if done else "none"

    def resubmit_missing(
        self,
        pairs: Sequence[Pair],
        expect: Dict,
        *,
        timeout: Optional[float] = None,
    ) -> None:
        raise IngestError(
            "a single-service group commits atomically; there is no "
            "partial state to resubmit"
        )

    def queue_depth(self) -> int:
        return int(self.service.stats()["queue_depth"])

    def flush(self, timeout: Optional[float] = None) -> None:
        self.service.flush(timeout=timeout)


class RollingServiceTarget(ServiceTarget):
    """Adapter over a :class:`~repro.ingest.rolling.RollingCubeService`.

    Cells carry *logical* leading time slots. ``prepare`` advances the
    window to the group's top slot before the intent is written, so the
    expected sequence number captured after it accounts for any slab
    zeroing groups; ``admit`` masks out slots below the window — one
    comparison over the cells' first column — so late arrivals, and
    rows the advance just expired, quarantine as ``expired_slot``;
    ``state`` persists ``newest_slot`` so a resumed coordinator reopens
    the window where the checkpoint left it.

    A group never rolls across a run of ``window`` or more slots that
    none of its rows occupy, counted up from the window's newest slot
    (or the group's lowest slot, if that is higher): the rows above
    such a run are refused as ``bad_time``, so days 0, 1 and 1000000
    in one group on a 4-slot window keep days 0 and 1, and a late row
    still inside the window never holds the roll back. A group wholly
    ahead of the window by such a run still rolls there, so a far-future
    row that starts a group expires the window; whether it does depends
    on where the group boundaries fall. A resumed group computes the
    same top: the first attempt's roll leaves no such run below it.
    """

    kind = "rolling"

    def __init__(self, roller) -> None:
        super().__init__(roller.service)
        self.roller = roller

    def admit(self, cells) -> Tuple[np.ndarray, str]:
        admitted = np.asarray(cells)[..., 0] >= self.roller.oldest_slot
        return admitted, "" if admitted.all() else "expired_slot"

    def prepare(
        self, group: UpdateGroup, *, timeout: Optional[float] = None
    ) -> Tuple[np.ndarray, str]:
        slots = group.cells[:, 0]
        window = self.roller.window
        anchor = max(int(slots.min()), self.roller.newest_slot)
        top = int(slots.max())
        if top - anchor > window:
            distinct = np.unique(np.maximum(slots, anchor))
            run = np.flatnonzero(np.diff(distinct) > window)
            if len(run):
                top = int(distinct[run[0]])
        if top > self.roller.newest_slot:
            self.roller.advance(
                top - self.roller.newest_slot, timeout=timeout
            )
        admitted = slots <= top
        return admitted, "" if admitted.all() else "bad_time"

    def submit(
        self, pairs: Sequence[Pair], *, timeout: Optional[float] = None
    ) -> Dict:
        seq = self.roller.submit_slot_batch(pairs, timeout=timeout)
        return {"seq": seq}

    def state(self) -> Dict:
        return {"newest_slot": self.roller.newest_slot}

    def restore(self, state: Dict) -> None:
        if "newest_slot" in state:
            self.roller.newest_slot = max(
                self.roller.newest_slot, int(state["newest_slot"])
            )

    def flush(self, timeout: Optional[float] = None) -> None:
        self.roller.flush(timeout=timeout)


class ClusterTarget(_Target):
    """Adapter over a :class:`~repro.cluster.CubeCluster`.

    A cross-shard group is atomic per shard, not globally, so the fence
    is per shard: the intent records each touched shard's expected
    sequence, and a crash between shards resumes by resubmitting
    exactly the shards whose expectation is still unmet. Primary
    failures inside a shard are absorbed by the replica set's inline
    failover; a shard left wholly unavailable is retried here with
    backoff until ``retries`` is exhausted.
    """

    kind = "cluster"

    def __init__(
        self,
        cluster,
        *,
        retries: int = 6,
        retry_backoff: float = 0.05,
    ) -> None:
        self.cluster = cluster
        self.retries = int(retries)
        self.retry_backoff = float(retry_backoff)

    # -- protocol ------------------------------------------------------------

    def _acked_by_shard(self) -> Dict[int, int]:
        return {
            rs.shard_id: rs.last_acked
            for rs in self.cluster.replica_sets
        }

    def _group(self, updates) -> UpdateGroup:
        return UpdateGroup.of(updates, len(self.cluster.shape))

    def expect(self, updates) -> Dict:
        acked = self._acked_by_shard()
        return {
            "kind": self.kind,
            "epoch": int(self.cluster.epoch),
            # JSON round-trips dict keys as strings; store them that way
            "shards": {
                str(shard): int(acked[shard]) + 1
                for shard in self.cluster.shardmap.rows_by_shard(
                    self._group(updates)
                )
            },
        }

    def _submit_with_retry(
        self, group: UpdateGroup, expect: Dict,
        *, timeout: Optional[float] = None,
    ) -> Dict:
        """Drive ``group`` until every touched shard meets its
        expectation, resubmitting only still-missing shards.

        The fence filter applies *before* the first attempt, not only
        between attempts: an overloaded shard's
        :class:`~repro.errors.ServiceOverloadedError` escapes to the
        pipeline's backpressure loop after earlier shards in the group
        already durably acked, and the loop re-enters here with the
        full group — resubmitting the acked shards' sub-updates would
        apply them twice."""
        remaining = self._missing(group, expect)
        last_error: Optional[BaseException] = None
        for attempt in range(self.retries + 1):
            if not remaining:
                break
            try:
                self.cluster.submit_batch(remaining, timeout=timeout)
                remaining = None
                break
            except ClusterUnavailableError as error:
                last_error = error
                remaining = self._missing(remaining, expect)
                if not remaining:
                    break
                time.sleep(self.retry_backoff * (2 ** attempt))
        if remaining:
            raise ClusterUnavailableError(
                f"ingest group could not reach "
                f"{len(remaining)} cells after "
                f"{self.retries + 1} attempts: {last_error}"
            ) from last_error
        return {"shards": {
            shard: seq for shard, seq in self._acked_by_shard().items()
        }}

    def _missing(
        self, group: UpdateGroup, expect: Dict
    ) -> Optional[UpdateGroup]:
        """The rows of ``group``, global coordinates kept, routed to
        shards whose fence is unmet; ``None`` when every fence is met.
        (The cluster's own submit localizes; resubmitting localized
        cells as global ones would route them to the wrong shard.)"""
        acked = self._acked_by_shard()
        missing = []
        for shard, rows in self.cluster.shardmap.rows_by_shard(
            group
        ).items():
            seq = expect["shards"].get(str(shard))
            if seq is None:
                # the group's routing changed under us — impossible
                # within one epoch, so fail loud rather than guess
                raise FenceError(
                    f"shard {shard} appeared in routing but not in the "
                    f"fenced intent (epoch changed mid-group?)"
                )
            if acked.get(shard, 0) < int(seq):
                missing.append(rows)
        if not missing:
            return None
        rows = np.sort(np.concatenate(missing))
        if len(rows) == len(group):
            return group
        return UpdateGroup(group.cells[rows], group.deltas[rows])

    def submit(
        self, updates, *, timeout: Optional[float] = None
    ) -> Dict:
        group = self._group(updates)
        return self._submit_with_retry(
            group, self.expect(group), timeout=timeout
        )

    def submit_fenced(
        self,
        updates,
        expect: Dict,
        *,
        timeout: Optional[float] = None,
    ) -> Dict:
        """Submit under an intent captured earlier (the pipeline's hot
        path: the same ``expect`` it just persisted)."""
        self._check_epoch(expect)
        return self._submit_with_retry(
            self._group(updates), expect, timeout=timeout
        )

    def _check_epoch(self, expect: Dict) -> None:
        if int(expect.get("epoch", -1)) != int(self.cluster.epoch):
            raise FenceError(
                f"intent was fenced under shard-map epoch "
                f"{expect.get('epoch')}, cluster is now at epoch "
                f"{self.cluster.epoch}; per-shard sequence numbers are "
                f"not comparable across reshards"
            )

    def committed(self, expect: Dict) -> str:
        if expect.get("kind") != self.kind:
            raise FenceError(
                f"checkpoint intent was fenced to a {expect.get('kind')!r} "
                f"target, resuming against {self.kind!r}"
            )
        self._check_epoch(expect)
        acked = self._acked_by_shard()
        met = [
            acked.get(int(shard), 0) >= int(seq)
            for shard, seq in expect["shards"].items()
        ]
        if all(met):
            return "all"
        if not any(met):
            return "none"
        return "partial"

    #: completing a partially committed group is a fenced submit: only
    #: the shards whose expectation is unmet receive their rows again
    resubmit_missing = submit_fenced

    def queue_depth(self) -> int:
        depths = [
            int(rs.primary.service.stats()["queue_depth"])
            for rs in self.cluster.replica_sets
        ]
        return max(depths) if depths else 0

    def flush(self, timeout: Optional[float] = None) -> None:
        self.cluster.flush(timeout=timeout)
