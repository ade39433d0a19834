"""Time rolling: a circular time axis over a live serving cube.

The paper assumes dimension sizes are static ("the number of days in a
year ... can be assumed to be static"). Long-running deployments instead
keep a *sliding window* — the last 90 days — and every midnight must
expire the oldest day and open a new one. Rebuilding dense structures
daily is exactly the cost the paper is trying to avoid, so the time axis
is **circular**: the leading axis of the wrapped
:class:`~repro.serve.CubeService` is the physical window of
``W = service.shape[0]`` time slots, and logical slot ``t`` lives at
``t mod W``. This module is the only place that knows that mapping; a
logical slot range maps to at most two physical ranges, so a window sum
stays O(1) per query with the RPS backend.

:class:`RollingCubeService` works over any service — durable and
streamed into by the ingest pipeline, or a plain in-memory one::

    with CubeService(RelativePrefixSumCube, np.zeros((90, 50))) as svc:
        window = RollingCubeService(svc)

:meth:`~RollingCubeService.advance` retires the oldest slab by
submitting one atomic zeroing group for the reused physical slice —
computed vectorized from the published snapshot, no per-cell loop, no
rebuild — so readers see the old slab in full or not at all, never
half-expired.

Reads during the roll are **exact or explicitly estimated, never
silently stale**: every submitted group's per-slot positive and
negative delta mass is tracked until the service's applied version
catches up. :meth:`~RollingCubeService.window_sum` answers from one
snapshot and checks which tracked groups that snapshot has not absorbed
yet; if any of them touch the queried slots the caller either gets an
exact answer after a flush (the default) or, with
``allow_estimate=True``, the snapshot value wrapped in a
:class:`~repro.cluster.degraded.RangeEstimate` whose ``[low, high]``
interval is the snapshot value padded by the pending negative/positive
mass — deterministic bounds the true acked sum cannot escape.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.degraded import RangeEstimate
from repro.errors import RangeError
from repro.serve.group import UpdateGroup

WindowAnswer = Union[float, RangeEstimate]


def oldest_slot(newest_slot: int, window: int) -> int:
    """Oldest logical slot still inside a ``window``-slot window."""
    return max(0, newest_slot - window + 1)


def check_slot(slot: int, newest_slot: int, window: int) -> None:
    """Raise :class:`RangeError` unless ``slot`` is inside the window."""
    oldest = oldest_slot(newest_slot, window)
    if slot < oldest or slot > newest_slot:
        raise RangeError(
            f"slot {slot} outside the current window "
            f"[{oldest}, {newest_slot}]"
        )


def physical_ranges(first: int, last: int, window: int):
    """Map a logical slot range to 1 or 2 contiguous physical ranges."""
    p_first = first % window
    p_last = last % window
    if last - first + 1 >= window:
        return [(0, window - 1)]
    if p_first <= p_last:
        return [(p_first, p_last)]
    return [(p_first, window - 1), (0, p_last)]


def zeroing_updates(slab: np.ndarray, physical: int) -> UpdateGroup:
    """The group that expires physical slice ``physical``: one negating
    delta per nonzero cell of its ``slab``, in ``np.nonzero`` order and
    with the slab's dtype (empty when already zero).

    The slab comes from one snapshot reconstruction, not a
    ``cell_value`` per cell, so only nonzero cells cost an update, and
    the group is built from ``np.nonzero`` without a tuple per cell.
    """
    slab = np.asarray(slab)
    nonzero = np.nonzero(slab)
    cells = np.empty((len(nonzero[0]), slab.ndim + 1), dtype=np.intp)
    cells[:, 0] = physical
    cells[:, 1:] = np.column_stack(nonzero)
    return UpdateGroup(cells, -slab[nonzero])


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
        current). One flush and one snapshot serve the whole call, and
        at most ``window`` groups are submitted: distinct slabs are
        independent, and once every slab has been zeroed the remaining
        slots open over clean slices. ``timeout`` bounds only each
        zeroing group's wait for queue space; the flush waits out the
        writer's whole backlog, however long one slow apply or fsync
        takes. Zeroing an already-empty slice submits nothing, which
        makes a crash-resume re-advance a no-op — the property the
        ingest fence relies on. ``newest_slot`` moves only after the
        slice's zeroing group is acked, so a
        :class:`~repro.errors.ServiceOverloadedError` from the bounded
        queue leaves the window short of the target and a backed-off
        retry re-snapshots and redoes the remaining slabs — never
        opening a slot over a still-dirty slab.

        Returns the new newest logical slot.
        """
        if slots < 1:
            raise RangeError(f"can only advance forward, got {slots}")
        with self._lock:
            target = self.newest_slot + int(slots)
            self.service.flush()
            array, _ = self.service.snapshot_array()
            last_dirty = min(target, self.newest_slot + self.window)
            for opening in range(self.newest_slot + 1, last_dirty + 1):
                physical = opening % self.window
                slab = array[physical]
                updates = zeroing_updates(slab, physical)
                if updates:
                    seq = self.service.submit_batch(
                        updates, timeout=timeout
                    )
                    # the reused physical slice serves the NEW slot —
                    # and, on a roll past the whole window, the target
                    # window's slot on the same slice: a read of it
                    # before the zeroing group applies would see the
                    # retired tenant's data, so the pending mass is
                    # tracked under the slots it serves
                    mass = float(np.abs(slab).sum())
                    serving = target - (target - opening) % self.window
                    self._pending[seq] = dict.fromkeys(
                        {opening, serving}, (mass, mass)
                    )
                self.newest_slot = opening
            self.newest_slot = target
            return target

    # -- writes --------------------------------------------------------------

    def submit_slot_batch(
        self,
        updates: Union[UpdateGroup, Sequence[Tuple[Sequence[int], float]]],
        *,
        timeout: Optional[float] = None,
    ) -> int:
        """Submit one atomic group of logical ``((slot, *cell), delta)``.

        ``updates`` is an :class:`~repro.serve.group.UpdateGroup` whose
        first column holds logical slots, or pairs, converted to one
        once. Slots above :attr:`newest_slot` advance the window first
        (the mid-stream roll); slots below :attr:`oldest_slot` raise
        :class:`~repro.errors.RangeError` — the ingest pipeline
        quarantines such rows instead of calling this. The slots map to
        physical slices with one array operation, and each slot's
        positive and negative mass is summed with ``np.bincount``.
        """
        group = UpdateGroup.of(updates, len(self.service.shape))
        slots = group.cells[:, 0]
        top = int(slots.max()) if len(group) else self.newest_slot
        if top > self.newest_slot:
            self.advance(top - self.newest_slot, timeout=timeout)
        with self._lock:
            masses: Dict[int, Tuple[float, float]] = {}
            if len(group):
                outside = (slots < self.oldest_slot) | (
                    slots > self.newest_slot
                )
                if outside.any():
                    check_slot(
                        int(slots[outside.argmax()]),
                        self.newest_slot, self.window,
                    )
                physical = group.cells.copy()
                physical[:, 0] = slots % self.window
                group = UpdateGroup(physical, group.deltas)
                masses = self._slot_masses(slots, group.deltas)
            seq = self.service.submit_batch(group, timeout=timeout)
            self._pending[seq] = masses
            self._prune(self.service.version)
            return seq

    @staticmethod
    def _slot_masses(
        slots: np.ndarray, deltas: np.ndarray
    ) -> Dict[int, Tuple[float, float]]:
        """Per-slot (positive, negative) delta mass, summed in input
        order; a NaN delta counts as negative mass."""
        deltas = deltas.astype(np.float64, copy=False)
        first = int(slots.min())
        offsets = slots - first
        positive = deltas >= 0
        pos = np.bincount(offsets, weights=np.where(positive, deltas, 0.0))
        neg = np.bincount(offsets, weights=np.where(positive, 0.0, -deltas))
        present = np.flatnonzero(np.bincount(offsets))
        return {
            first + int(offset): (float(pos[offset]), float(neg[offset]))
            for offset in present.tolist()
        }

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

    def trailing_sum(
        self,
        slots: int,
        low: Optional[Sequence[int]] = None,
        high: Optional[Sequence[int]] = None,
        *,
        allow_estimate: bool = False,
    ) -> WindowAnswer:
        """:meth:`window_sum` over the most recent ``slots`` slots,
        clipped to the window."""
        if slots < 1:
            raise RangeError(f"need at least one slot, got {slots}")
        first = max(self.oldest_slot, self.newest_slot - slots + 1)
        return self.window_sum(
            first, self.newest_slot, low, high, allow_estimate=allow_estimate
        )

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
