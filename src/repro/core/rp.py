"""The relative prefix (RP) array (paper Section 3.2).

RP has the same shape as ``A`` and is partitioned into regions matching the
overlay boxes. Each cell holds the prefix sum *relative to its box*::

    RP[t] = SUM(A[a .. t])        (a = anchor of the box covering t)

Regions are mutually independent, which is the whole point: an update
cascades only within one box (Figure 15), never across the boundary.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.core import indexing
from repro.core.blocked import blocked_prefix_all_axes
from repro.metrics.counters import AccessCounter

Coord = Tuple[int, ...]


class RelativePrefixArray:
    """Box-relative prefix sums with constrained cascading updates.

    Args:
        array: the dense source cube ``A``.
        box_size: overlay box side ``k`` (int, or one per dimension);
            cascades stop at multiples of it.
        counter: shared access counter (private one created when omitted).
    """

    def __init__(
        self,
        array: np.ndarray,
        box_size,
        counter: AccessCounter = None,
    ) -> None:
        source = np.asarray(array)
        self.shape = source.shape
        self.ndim = source.ndim
        self.box_sizes = indexing.normalize_box_sizes(box_size, source.shape)
        self.counter = counter if counter is not None else AccessCounter()
        self._rp = blocked_prefix_all_axes(source, self.box_sizes)

    @property
    def box_size(self):
        """The box side length: an int when uniform, else the per-axis tuple."""
        if len(set(self.box_sizes)) == 1:
            return self.box_sizes[0]
        return self.box_sizes

    def value(self, index: Sequence[int]):
        """``RP[index]`` — one cell read."""
        idx = indexing.normalize_index(index, self.shape)
        self.counter.read(1, structure="RP")
        return self._rp[idx]

    def value_many(self, targets) -> np.ndarray:
        """``RP[t]`` for a ``(Q, d)`` batch — one fancy-indexed gather.

        Charges one read per row, same as looping :meth:`value`.
        """
        return self.value_rows(
            indexing.normalize_index_batch(targets, self.shape)
        )

    def value_rows(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`value_many` over an already-validated ``(Q, d)`` batch."""
        if len(rows) == 0:
            return np.empty(0, dtype=self._rp.dtype)
        self.counter.read(len(rows), structure="RP")
        # one take at the C-order flat index: cheaper than a fancy index
        # with one index array per axis
        cols = rows.T
        index = cols[0]
        for axis in range(1, self.ndim):
            index = index * self.shape[axis] + cols[axis]
        return self._rp.ravel().take(index)

    def cell_value(self, index: Sequence[int]):
        """Recover ``A[index]`` from RP alone by box-local differencing.

        Uses the inclusion–exclusion identity inside the covering box
        (2^d RP reads); anchors cost a single read.
        """
        idx = indexing.normalize_index(index, self.shape)
        anchor = indexing.anchor_of(idx, self.box_sizes)
        total = self._rp.dtype.type(0)
        for sign, corner in indexing.iter_corners(idx, idx):
            if any(c < a for c, a in zip(corner, anchor)):
                continue
            self.counter.read(1, structure="RP")
            total += sign * self._rp[corner]
        return total

    def apply_delta(self, index: Sequence[int], delta) -> int:
        """Add ``delta`` to ``A[index]``; cascade stops at the box boundary.

        Every RP cell in the same box that dominates the updated cell is
        rewritten — at most ``k^d`` cells (Figure 15's shaded RP region).

        Returns the number of RP cells written.
        """
        idx = indexing.normalize_index(index, self.shape)
        region = tuple(
            slice(i, min((i // k) * k + k, n))
            for i, k, n in zip(idx, self.box_sizes, self.shape)
        )
        block = self._rp[region]
        block += delta
        self.counter.write(block.size, structure="RP")
        return block.size

    def update_sizes(self, batch: np.ndarray) -> np.ndarray:
        """Per-row cascade sizes for a validated ``(m, d)`` index batch.

        Row ``i`` is exactly the number of RP cells :meth:`apply_delta`
        would rewrite for an update at ``batch[i]`` — the volume of the
        dominated remainder of its covering box.
        """
        if len(batch) == 0:
            return np.zeros(0, dtype=np.int64)
        sizes = np.asarray(self.box_sizes, dtype=np.int64)
        bounds = np.asarray(self.shape, dtype=np.int64)
        ends = np.minimum((batch // sizes + 1) * sizes, bounds)
        return np.prod(ends - batch, axis=1)

    def apply_batch_array(self, indices, deltas) -> int:
        """Apply ``(m, d)`` point deltas in one vectorized pass.

        RP is linear in ``A``, so the whole batch is realized by
        scatter-adding the deltas into a zero cube (``np.add.at``, which
        accumulates duplicate rows) and adding its box-relative prefix
        sums to RP — the builder's own kernel, run once per batch instead
        of one constrained cascade per update.

        Charges exactly what looping :meth:`apply_delta` charges: the sum
        of the per-update cascade sizes (zero-delta rows included).

        Returns the number of RP cells written, in that same ledger.
        """
        batch, deltas = indexing.normalize_update_batch(
            indices, deltas, self.shape
        )
        if len(batch) == 0:
            return 0
        written = int(self.update_sizes(batch).sum())
        spread = np.zeros(self.shape, dtype=self._rp.dtype)
        np.add.at(spread, tuple(batch.T), deltas)
        self._rp += blocked_prefix_all_axes(spread, self.box_sizes)
        self.counter.write(written, structure="RP")
        return written

    def storage_cells(self) -> int:
        """RP is exactly the size of A."""
        return self._rp.size

    def array(self) -> np.ndarray:
        """Copy of the RP array (used by the Figure 10/13 reproductions)."""
        return self._rp.copy()

    def __repr__(self) -> str:
        return f"RelativePrefixArray(shape={self.shape}, box_size={self.box_size})"
