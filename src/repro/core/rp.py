"""The relative prefix (RP) array (paper Section 3.2).

RP has the same shape as ``A`` and is partitioned into regions matching the
overlay boxes. Each cell holds the prefix sum *relative to its box*::

    RP[t] = SUM(A[a .. t])        (a = anchor of the box covering t)

Regions are mutually independent, which is the whole point: an update
cascades only within one box (Figure 15), never across the boundary.
"""

from __future__ import annotations

import math
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
        # RP lives in a buffer padded out to whole boxes (a box is never
        # wider than its axis), so the batch kernel can view it box by
        # box. The padding is never read. Only the buffer is stored:
        # views of it would not survive a copy or a pickle.
        self._extents = tuple(
            min(k, n) for n, k in zip(self.shape, self.box_sizes)
        )
        self._grid = tuple(
            -(-n // k) for n, k in zip(self.shape, self.box_sizes)
        )
        self._buf = np.zeros(
            tuple(b * e for b, e in zip(self._grid, self._extents)),
            np.cumsum(source[:0]).dtype,
        )
        self._unpadded = tuple(slice(0, n) for n in self.shape)
        blocked_prefix_all_axes(source, self.box_sizes, out=self._rp)

    @property
    def _rp(self) -> np.ndarray:
        """RP itself: the unpadded view of the buffer."""
        return self._buf[self._unpadded]

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
            return np.empty(0, dtype=self._buf.dtype)
        self.counter.read(len(rows), structure="RP")
        # one take at the flat index into the padded buffer: cheaper
        # than a fancy index with one index array per axis
        cols = rows.T
        index = cols[0]
        for axis in range(1, self.ndim):
            index = index * self._buf.shape[axis] + cols[axis]
        return self._buf.reshape(-1).take(index)

    def cell_value(self, index: Sequence[int]):
        """Recover ``A[index]`` from RP alone by box-local differencing.

        Uses the inclusion–exclusion identity inside the covering box
        (2^d RP reads); anchors cost a single read.
        """
        idx = indexing.normalize_index(index, self.shape)
        anchor = indexing.anchor_of(idx, self.box_sizes)
        rp = self._rp
        total = rp.dtype.type(0)
        for sign, corner in indexing.iter_corners(idx, idx):
            if any(c < a for c, a in zip(corner, anchor)):
                continue
            self.counter.read(1, structure="RP")
            total += sign * rp[corner]
        return total

    def apply_delta(self, index: Sequence[int], delta) -> int:
        """Add ``delta`` to ``A[index]``; cascade stops at the box boundary.

        Every RP cell in the same box that dominates the updated cell is
        rewritten — at most ``k^d`` cells (Figure 15's shaded RP region).

        Returns the number of RP cells written.
        """
        return self.cascade(indexing.normalize_index(index, self.shape), delta)

    def cascade(self, idx: Coord, delta) -> int:
        """:meth:`apply_delta` at an already-validated index tuple."""
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

    def box_cells(self) -> int:
        """Cells of one stacked box: the most one update's cascade writes."""
        return math.prod(self._extents)

    def apply_rows(self, batch: np.ndarray, deltas: np.ndarray) -> int:
        """Apply an already-validated ``(m, d)`` batch of point deltas.

        RP is linear in ``A`` and its boxes are independent, so the batch
        changes only the boxes it touches, each by the box-relative
        prefix sums of its own deltas. The ``B`` touched boxes are
        stacked as one ``(B, k_1, .., k_d)`` array (each ``k_j`` capped
        at ``n_j``): the deltas are scatter-added at their box-local
        offsets (``np.add.at`` accumulates duplicate rows), cumsummed
        along every box axis, and added into RP's box-by-box view. A
        ragged last box is stacked at full size; its cells past the
        cube's edge land in the padding. The work is ``B * prod(k)``
        cells, never the whole of RP.

        Charges exactly what looping :meth:`apply_delta` charges: the sum
        of the per-update cascade sizes (zero-delta rows included).

        Returns the number of RP cells written, in that same ledger.
        """
        if len(batch) == 0:
            return 0
        written = int(self.update_sizes(batch).sum())
        sizes = np.asarray(self.box_sizes, dtype=np.intp)
        box = batch // sizes
        touched, slot = np.unique(
            np.ravel_multi_index(tuple(box.T), self._grid),
            return_inverse=True,
        )
        spread = np.zeros((len(touched),) + self._extents, self._buf.dtype)
        np.add.at(spread, (slot,) + tuple((batch - box * sizes).T), deltas)
        for axis in range(1, self.ndim + 1):
            np.cumsum(spread, axis=axis, out=spread)
        # view the buffer as (box number, offset) per axis; the advanced
        # indices select the touched boxes, which come first, as in
        # ``spread``
        where = np.unravel_index(touched, self._grid)
        boxes = self._buf.reshape(
            tuple(v for pair in zip(self._grid, self._extents) for v in pair)
        )
        boxes[tuple(v for b in where for v in (b, slice(None)))] += spread
        self.counter.write(written, structure="RP")
        return written

    def storage_cells(self) -> int:
        """RP is exactly the size of A."""
        return math.prod(self.shape)

    def array(self) -> np.ndarray:
        """Copy of the RP array (used by the Figure 10/13 reproductions)."""
        return self._rp.copy()

    def __repr__(self) -> str:
        return f"RelativePrefixArray(shape={self.shape}, box_size={self.box_size})"
