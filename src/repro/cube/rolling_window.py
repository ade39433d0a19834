"""Rolling time windows: keeping only the last W days of a cube.

The paper assumes dimension sizes are static ("the number of days in a
year ... can be assumed to be static"). Long-running deployments instead
keep a *sliding window* — the last 90 days — and every midnight must
expire the oldest day and open a new one. Rebuilding dense structures
daily is exactly the cost the paper is trying to avoid, so this module
implements the standard trick: the time axis is **circular**. Logical day
``t`` lives at physical index ``t mod W``; advancing the window zeroes
one physical slice (cell deltas, or a batch rebuild when cheaper) and
reuses it for the new day.

Queries address logical days; the engine translates them to at most two
physical index ranges (the window may wrap around the physical axis) and
sums both — still O(1) per query with the RPS backend.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.core.base import RangeSumMethod
from repro.core.rps import RelativePrefixSumCube
from repro.errors import RangeError, SchemaError


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


def zeroing_updates(
    slab: np.ndarray, physical: int
) -> List[Tuple[Tuple[int, ...], float]]:
    """The updates that expire physical slice ``physical``: one negating
    delta per nonzero cell of its ``slab`` (empty when already zero).

    The slab comes from one reconstruction pass (a ``to_array`` slice),
    not a ``cell_value`` per cell, so only nonzero cells cost an update.
    """
    slab = np.asarray(slab)
    nonzero = np.nonzero(slab)
    return [
        ((physical,) + tuple(int(c) for c in cell), -value)
        for cell, value in zip(np.column_stack(nonzero), slab[nonzero])
    ]


class RollingWindowEngine:
    """A cube whose leading axis is a circular window of time slots.

    Args:
        slot_shape: shape of one time slot's sub-cube (the non-time
            dimensions), e.g. ``(50,)`` for 50 age buckets.
        window: number of time slots kept (e.g. 90 days).
        method: backing :class:`RangeSumMethod`; RPS by default.
        **method_kwargs: forwarded to the method constructor.

    Logical time starts at slot 0 and only moves forward via
    :meth:`advance`. Facts and queries use logical slot numbers; slots
    older than ``newest - window + 1`` have been expired and are
    rejected.
    """

    def __init__(
        self,
        slot_shape: Sequence[int],
        window: int,
        method: Optional[Type[RangeSumMethod]] = None,
        **method_kwargs,
    ) -> None:
        if window < 2:
            raise RangeError(f"window must be >= 2 slots, got {window}")
        self.slot_shape = tuple(int(n) for n in slot_shape)
        if any(n < 1 for n in self.slot_shape):
            raise SchemaError(f"invalid slot shape {self.slot_shape}")
        self.window = int(window)
        shape = (self.window,) + self.slot_shape
        method = method or RelativePrefixSumCube
        self._method = method(np.zeros(shape, dtype=np.float64),
                              **method_kwargs)
        self.newest_slot = 0  # highest logical slot currently in window

    @property
    def oldest_slot(self) -> int:
        """Oldest logical slot still inside the window."""
        return oldest_slot(self.newest_slot, self.window)

    @property
    def backend(self) -> RangeSumMethod:
        """The underlying range-sum structure (physical addressing)."""
        return self._method

    # -- time control ----------------------------------------------------------

    def advance(self, slots: int = 1) -> int:
        """Open ``slots`` new time slots, expiring the oldest ones.

        Each newly opened slot's physical slice is zeroed (its previous
        tenant's data is expired); cost is one batch of cell updates per
        reused slice, or a full rebuild when the backend's batch
        heuristic prefers it.

        Returns the new newest logical slot.
        """
        if slots < 1:
            raise RangeError(f"can only advance forward, got {slots}")
        for _ in range(slots):
            self.newest_slot += 1
            physical = self.newest_slot % self.window
            updates = zeroing_updates(
                self._method.to_array()[physical], physical
            )
            if updates:
                self._method.apply_batch(updates)
        return self.newest_slot

    # -- ingest -----------------------------------------------------------------

    def record(self, slot: int, cell: Sequence[int], amount: float) -> None:
        """Add ``amount`` at ``cell`` (non-time coordinates) of a slot.

        The slot must be inside the current window; recording into the
        future is allowed and advances the window first.
        """
        if slot > self.newest_slot:
            self.advance(slot - self.newest_slot)
        check_slot(slot, self.newest_slot, self.window)
        physical = slot % self.window
        self._method.apply_delta((physical,) + tuple(cell), amount)

    # -- queries ------------------------------------------------------------------

    def window_sum(
        self,
        first_slot: int,
        last_slot: int,
        low: Sequence[int] = None,
        high: Sequence[int] = None,
    ) -> float:
        """Sum over logical slots ``[first, last]`` and a sub-cube range.

        ``low``/``high`` bound the non-time dimensions (full extent when
        omitted). The logical range maps to at most two physical ranges
        when the window wraps.
        """
        check_slot(first_slot, self.newest_slot, self.window)
        check_slot(last_slot, self.newest_slot, self.window)
        if first_slot > last_slot:
            raise RangeError(
                f"inverted slot range [{first_slot}, {last_slot}]"
            )
        low = tuple(low) if low is not None else tuple(
            0 for _ in self.slot_shape
        )
        high = tuple(high) if high is not None else tuple(
            n - 1 for n in self.slot_shape
        )
        total = 0.0
        for phys_low, phys_high in physical_ranges(
            first_slot, last_slot, self.window
        ):
            total += float(
                self._method.range_sum(
                    (phys_low,) + low, (phys_high,) + high
                )
            )
        return total

    def trailing_sum(
        self,
        slots: int,
        low: Sequence[int] = None,
        high: Sequence[int] = None,
    ) -> float:
        """Sum over the most recent ``slots`` slots (clipped to window)."""
        if slots < 1:
            raise RangeError(f"need at least one slot, got {slots}")
        first = max(self.oldest_slot, self.newest_slot - slots + 1)
        return self.window_sum(first, self.newest_slot, low, high)

    def __repr__(self) -> str:
        return (
            f"RollingWindowEngine(window={self.window}, "
            f"slot_shape={self.slot_shape}, "
            f"slots=[{self.oldest_slot}..{self.newest_slot}])"
        )
