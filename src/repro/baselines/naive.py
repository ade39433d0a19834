"""The naive method (paper Section 2).

Array ``A`` is stored as-is. A range query scans every cell in the range —
``O(n^d)`` worst case — while an update writes exactly one cell, ``O(1)``.
The query×update cost product is ``O(n^d)``, the figure both the prefix sum
method and the relative prefix sum method are measured against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core import indexing
from repro.core.base import RangeSumMethod


class NaiveCube(RangeSumMethod):
    """Dense array with scan-based range sums and constant-time updates."""

    name = "naive"

    def _build(self, array: np.ndarray) -> None:
        self._a = array.copy()
        # Lazily-built padded prefix cube used only by the *_many kernels
        # (invalidated by every write). Purely a wall-clock shortcut: the
        # counters still charge the naive method's logical cost — the
        # volume of every scanned region — so the cost model is unchanged.
        self._batch_prefix = None

    def _padded_prefix(self) -> np.ndarray:
        """``P1`` with a zero border: ``P1[t + 1] = SUM(A[0..t])``.

        The +1 padding turns every empty-prefix corner of the
        inclusion–exclusion identity into an ordinary zero lookup, so the
        batched kernels need no masking.
        """
        if self._batch_prefix is None:
            p1 = np.zeros(
                tuple(n + 1 for n in self.shape), dtype=self._a.dtype
            )
            inner = tuple(slice(1, None) for _ in self.shape)
            p1[inner] = self._a
            for axis in range(self.ndim):
                np.cumsum(p1, axis=axis, out=p1)
            self._batch_prefix = p1
        return self._batch_prefix

    def _prefix_rows(self, rows: np.ndarray) -> np.ndarray:
        """Batched prefix sums from one shared prefix pass over ``A``.

        Charges the same logical cost as looping :meth:`prefix_sum`:
        every cell of every prefix region, however the lookup is
        physically served.
        """
        if len(rows) == 0:
            return np.empty(0, dtype=self._dtype)
        volumes = np.prod(rows.astype(np.int64) + 1, axis=1)
        self.counter.read(int(volumes.sum()), structure="A")
        return self._padded_prefix()[tuple((rows + 1).T)]

    def _range_rows(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Batched range sums via ``2^d`` gathers on the padded prefix.

        Charges each query's region volume — the naive method's logical
        scan cost — exactly as the looped :meth:`range_sum` does.
        """
        if len(lo) == 0:
            return np.empty(0, dtype=self._dtype)
        volumes = np.prod((hi - lo + 1).astype(np.int64), axis=1)
        self.counter.read(int(volumes.sum()), structure="A")
        p1 = self._padded_prefix()
        out = np.zeros(len(lo), dtype=self._dtype)
        for mask in range(1 << self.ndim):
            corner = hi + 1
            for axis in range(self.ndim):
                if mask & (1 << axis):
                    corner[:, axis] = lo[:, axis]
            sign = -1 if bin(mask).count("1") % 2 else 1
            out += sign * p1[tuple(corner.T)]
        return out

    def prefix_sum(self, target: Sequence[int]):
        """Sum ``A[0..target]`` by scanning the prefix region."""
        t = indexing.normalize_index(target, self.shape)
        region = self._a[indexing.prefix_slices(t)]
        self.counter.read(region.size, structure="A")
        return self._dtype.type(region.sum())

    def range_sum(self, low: Sequence[int], high: Sequence[int]):
        """Sum the query region directly — no inclusion–exclusion needed."""
        lo, hi = indexing.normalize_range(low, high, self.shape)
        region = self._a[indexing.range_to_slices(lo, hi)]
        self.counter.read(region.size, structure="A")
        return self._dtype.type(region.sum())

    def cell_value(self, index: Sequence[int]):
        """Read a single cell."""
        idx = indexing.normalize_index(index, self.shape)
        self.counter.read(1, structure="A")
        return self._a[idx]

    def _apply_delta(self, index: Sequence[int], delta) -> None:
        """Add ``delta`` to one cell — the O(1) update of the naive method."""
        idx = indexing.normalize_index(index, self.shape)
        self._a[idx] += delta
        self._batch_prefix = None
        self.counter.write(1, structure="A")

    def apply_batch(self, updates) -> int:
        """Batching changes nothing for the naive method: one write each."""
        count = 0
        for index, delta in updates:
            self.apply_delta(index, delta)
            count += 1
        return count

    def _apply_rows(self, idx: np.ndarray, deltas: np.ndarray) -> None:
        """One ``np.add.at`` scatter (duplicate rows accumulate).

        Charges one write per row — the same ledger as looping
        :meth:`apply_delta` — and invalidates the batch-query cache once.
        """
        np.add.at(self._a, tuple(idx.T), deltas)
        self._batch_prefix = None
        self.counter.write(len(idx), structure="A")

    def storage_cells(self) -> int:
        """The naive method stores exactly the source array."""
        return self._a.size

    def to_array(self) -> np.ndarray:
        """Direct copy — cheaper than the base-class reconstruction."""
        return self._a.copy()
