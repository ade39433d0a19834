"""Time-rolling over a live serving cube: retire a slab, open a slab.

:class:`~repro.cube.rolling_window.RollingWindowEngine` implements the
circular-time-axis trick over a bare in-process method. Streaming
ingestion needs the same semantics over a *live*
:class:`~repro.serve.CubeService` — durable, snapshot-isolated, read by
concurrent dashboards while the firehose writes — and that is what
:class:`RollingCubeService` provides.

The leading axis of the wrapped service is the physical window of
``W = service.shape[0]`` time slots; logical slot ``t`` lives at
``t mod W``. :meth:`advance` retires the oldest slab by submitting one
atomic zeroing group for the reused physical slice — computed
vectorized from the published snapshot, no per-cell loop, no rebuild —
so readers see the old slab in full or not at all, never half-expired.

Reads during the roll are **exact or explicitly estimated, never
silently stale**: every submitted group's per-slot positive and
negative delta mass is tracked until the service's applied version
catches up. :meth:`window_sum` answers from one snapshot and checks
which tracked groups that snapshot has not absorbed yet; if any of
them touch the queried slots the caller either gets an exact answer
after a flush (the default) or, with ``allow_estimate=True``, the
snapshot value wrapped in a
:class:`~repro.cluster.degraded.RangeEstimate` whose ``[low, high]``
interval is the snapshot value padded by the pending negative/positive
mass — deterministic bounds the true acked sum cannot escape.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.degraded import RangeEstimate
from repro.cube.rolling_window import (
    check_slot,
    oldest_slot,
    physical_ranges,
    zeroing_updates,
)
from repro.errors import RangeError

WindowAnswer = Union[float, RangeEstimate]


class RollingCubeService:
    """Logical-slot addressing + slab rolling over a ``CubeService``.

    Args:
        service: the wrapped service; its leading axis is the physical
            window (``service.shape[0]`` slots).
        newest_slot: the highest logical slot currently open — pass the
            checkpointed value when resuming over a recovered service
            (a fresh service starts at 0).

    Thread-safety: submits and advances serialize on one lock (the
    ingest coordinator is single-writer anyway); reads are lock-free
    against the service's snapshots except for the pending-group table,
    which is read under the same lock.
    """

    def __init__(self, service, newest_slot: int = 0) -> None:
        if len(service.shape) < 2:
            raise RangeError(
                "a rolling service needs a leading time axis plus at "
                f"least one data axis, got shape {service.shape}"
            )
        self.service = service
        self.window = int(service.shape[0])
        if self.window < 2:
            raise RangeError(
                f"window must be >= 2 slots, got {self.window}"
            )
        self.slot_shape = tuple(service.shape[1:])
        self.newest_slot = int(newest_slot)
        self._lock = threading.Lock()
        # seq -> {slot: (pos_mass, neg_mass)} for groups possibly
        # unapplied; pruned against the service version as reads and
        # writes observe it
        self._pending: Dict[int, Dict[int, Tuple[float, float]]] = {}

    @property
    def oldest_slot(self) -> int:
        """Oldest logical slot still inside the window."""
        return oldest_slot(self.newest_slot, self.window)

    def _prune(self, version: int) -> None:
        for seq in [s for s in self._pending if s <= version]:
            del self._pending[seq]

    # -- time control --------------------------------------------------------

    def advance(self, slots: int = 1, *, timeout: Optional[float] = None
                ) -> int:
        """Open ``slots`` new slots, retiring the oldest ones.

        Each reused physical slice is zeroed by one atomic group built
        from the published snapshot (flushed first, so the snapshot is
        current). ``timeout`` bounds only each zeroing group's wait for
        queue space; the flush waits out the writer's whole backlog,
        however long one slow apply or fsync takes. Zeroing an
        already-empty slice submits nothing, which makes a crash-resume
        re-advance a no-op — the property the ingest fence relies on.
        ``newest_slot`` moves only after the slice's zeroing group is
        acked, so a :class:`~repro.errors.ServiceOverloadedError` from
        the bounded queue leaves the window where it was and a
        backed-off retry redoes the slot from the snapshot — never
        opening a slot over a still-dirty slab.

        Returns the new newest logical slot.
        """
        if slots < 1:
            raise RangeError(f"can only advance forward, got {slots}")
        with self._lock:
            for _ in range(int(slots)):
                opening = self.newest_slot + 1
                physical = opening % self.window
                self.service.flush()
                array, _ = self.service.snapshot_array()
                slab = np.asarray(array[physical])
                updates = zeroing_updates(slab, physical)
                if updates:
                    seq = self.service.submit_batch(
                        updates, timeout=timeout
                    )
                    # the reused physical slice serves the NEW slot: a
                    # read of it before the zeroing group applies would
                    # see the retired tenant's data, so the pending
                    # mass is tracked under the new logical slot
                    mass = float(np.abs(slab).sum())
                    self._pending[seq] = {opening: (mass, mass)}
                self.newest_slot = opening
            return self.newest_slot

    # -- writes --------------------------------------------------------------

    def submit_slot_batch(
        self,
        updates: Sequence[Tuple[Sequence[int], float]],
        *,
        timeout: Optional[float] = None,
    ) -> int:
        """Submit one atomic group of logical ``((slot, *cell), delta)``.

        Slots above :attr:`newest_slot` advance the window first (the
        mid-stream roll); slots below :attr:`oldest_slot` raise
        :class:`~repro.errors.RangeError` — the ingest pipeline
        quarantines such rows instead of calling this.
        """
        top = max(int(u[0][0]) for u in updates)
        if top > self.newest_slot:
            self.advance(top - self.newest_slot, timeout=timeout)
        with self._lock:
            physical_updates = []
            masses: Dict[int, List[float]] = {}
            for coords, delta in updates:
                slot = int(coords[0])
                check_slot(slot, self.newest_slot, self.window)
                physical_updates.append(
                    ((slot % self.window,) + tuple(
                        int(c) for c in coords[1:]
                    ), delta)
                )
                pos_neg = masses.setdefault(slot, [0.0, 0.0])
                if delta >= 0:
                    pos_neg[0] += float(delta)
                else:
                    pos_neg[1] += -float(delta)
            seq = self.service.submit_batch(
                physical_updates, timeout=timeout
            )
            self._pending[seq] = {
                slot: (pos, neg) for slot, (pos, neg) in masses.items()
            }
            self._prune(self.service.version)
            return seq

    def record(self, slot: int, cell: Sequence[int], amount: float) -> int:
        """Add ``amount`` at one logical cell (its own atomic group)."""
        return self.submit_slot_batch(
            [((int(slot),) + tuple(cell), float(amount))]
        )

    # -- reads ---------------------------------------------------------------

    def window_sum(
        self,
        first_slot: int,
        last_slot: int,
        low: Optional[Sequence[int]] = None,
        high: Optional[Sequence[int]] = None,
        *,
        allow_estimate: bool = False,
    ) -> WindowAnswer:
        """Sum over logical slots ``[first, last]`` and a sub-cube box.

        Exact when the serving snapshot has absorbed every group
        touching the queried slots. When ingest lags (submitted groups
        not yet applied), the default flushes and re-reads — exact,
        at a latency cost; with ``allow_estimate=True`` the snapshot
        value returns immediately as a
        :class:`~repro.cluster.degraded.RangeEstimate` bounding the
        true acked sum — explicitly marked, never silently stale.
        """
        check_slot(first_slot, self.newest_slot, self.window)
        check_slot(last_slot, self.newest_slot, self.window)
        if first_slot > last_slot:
            raise RangeError(
                f"inverted slot range [{first_slot}, {last_slot}]"
            )
        low = tuple(int(c) for c in low) if low is not None else tuple(
            0 for _ in self.slot_shape
        )
        high = tuple(int(c) for c in high) if high is not None else tuple(
            n - 1 for n in self.slot_shape
        )
        lows, highs = [], []
        for p_lo, p_hi in physical_ranges(first_slot, last_slot, self.window):
            lows.append((p_lo,) + low)
            highs.append((p_hi,) + high)
        values, version = self.service.query_many(lows, highs)
        value = float(np.asarray(values).sum())
        pos, neg = self._pending_mass(version, first_slot, last_slot)
        if pos == 0.0 and neg == 0.0:
            return value
        if not allow_estimate:
            self.service.flush()
            values, version = self.service.query_many(lows, highs)
            return float(np.asarray(values).sum())
        return RangeEstimate(
            value=value,
            low=value - neg,
            high=value + pos,
            confidence=1.0,
            degraded_shards=(),
            epoch=version,
        )

    def _pending_mass(
        self, version: int, first_slot: int, last_slot: int
    ) -> Tuple[float, float]:
        """Positive/negative unapplied delta mass over a slot range."""
        pos = neg = 0.0
        with self._lock:
            self._prune(version)
            for seq, masses in self._pending.items():
                if seq <= version:
                    continue
                for slot, (p, n) in masses.items():
                    if first_slot <= slot <= last_slot:
                        pos += p
                        neg += n
        return pos, neg

    def flush(self, timeout: Optional[float] = None) -> int:
        """Drain the wrapped service; subsequent reads are exact."""
        applied = self.service.flush(timeout=timeout)
        with self._lock:
            self._prune(self.service.version)
        return applied

    def __repr__(self) -> str:
        return (
            f"RollingCubeService(window={self.window}, "
            f"slot_shape={self.slot_shape}, "
            f"slots=[{self.oldest_slot}..{self.newest_slot}])"
        )
