"""The prefix sum method of Ho, Agrawal, Megiddo and Srikant (paper ref [7]).

Array ``P`` stores, for every cell, the sum of all cells of ``A`` up to and
including it (Figure 2). Any prefix sum is a single lookup, so a range sum
costs ``2^d`` lookups — O(1) for fixed d. The price is the cascading update:
changing ``A[c]`` changes ``P[q]`` for every ``q >= c`` componentwise
(Figure 4), which in the worst case (``c = 0``) rewrites the entire cube,
``O(n^d)``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core import indexing
from repro.core.base import RangeSumMethod


def build_prefix_array(array: np.ndarray) -> np.ndarray:
    """Compute the d-dimensional inclusive prefix-sum array ``P`` of ``A``.

    Runs one cumulative sum per axis; ``P[t] = SUM(A[0..t])``.
    """
    p = array.copy()
    for axis in range(array.ndim):
        np.cumsum(p, axis=axis, out=p)
    return p


class PrefixSumCube(RangeSumMethod):
    """Ho et al.'s precomputed prefix sums: O(1) query, O(n^d) update."""

    name = "prefix_sum"

    def _build(self, array: np.ndarray) -> None:
        self._p = build_prefix_array(array)

    def prefix_sum(self, target: Sequence[int]):
        """One cell lookup in ``P`` (the method's core property)."""
        t = indexing.normalize_index(target, self.shape)
        self.counter.read(1, structure="P")
        return self._p[t]

    def _prefix_rows(self, rows: np.ndarray) -> np.ndarray:
        """Batched prefix sums: one fancy-indexed gather on ``P``.

        Charges one read per target — exactly what looping
        :meth:`prefix_sum` charges.
        """
        if len(rows) == 0:
            return np.empty(0, dtype=self._p.dtype)
        self.counter.read(len(rows), structure="P")
        return self._p[tuple(rows.T)]

    _range_rows = RangeSumMethod._corner_range_sum_many

    def _apply_delta(self, index: Sequence[int], delta) -> None:
        """Cascade ``delta`` into every P-cell dominating ``index``.

        This is the shaded region of Figure 4: all cells ``q`` with
        ``q_i >= index_i`` on every axis. The write count —
        ``prod(n_i - index_i)`` — is the quantity the paper's update-cost
        analysis tracks.
        """
        idx = indexing.normalize_index(index, self.shape)
        suffix = tuple(slice(i, None) for i in idx)
        region = self._p[suffix]
        region += delta
        self.counter.write(region.size, structure="P")

    def apply_batch(self, updates) -> int:
        """Fold a whole batch into one O(n^d) pass over P.

        Materializes the batch as a delta cube, prefix-sums it once, and
        adds it to P — the natural daily-batch strategy for this method:
        the cost is one rebuild-sized pass however large the batch is.
        """
        batch = list(updates)
        if not batch:
            return 0
        indices = np.array(
            [
                indexing.normalize_index(index, self.shape)
                for index, _ in batch
            ],
            dtype=np.intp,
        )
        return self.apply_batch_array(
            indices, np.asarray([delta for _, delta in batch])
        )

    def _apply_rows(self, idx: np.ndarray, deltas: np.ndarray) -> None:
        """Array-native :meth:`apply_batch`: scatter, prefix-sum, add.

        Same one-pass fold and same ledger (one ``n^d`` write pass per
        non-empty batch, however large), with ``np.add.at`` replacing the
        per-row Python scatter.
        """
        spread = np.zeros(self.shape, dtype=self._p.dtype)
        np.add.at(spread, tuple(idx.T), deltas)
        self._p += build_prefix_array(spread)
        self.counter.write(self._p.size, structure="P")

    def storage_cells(self) -> int:
        """P has exactly the same size as A."""
        return self._p.size

    def prefix_array(self) -> np.ndarray:
        """Copy of the internal P array (used by table-reproduction benches)."""
        return self._p.copy()

    def to_array(self) -> np.ndarray:
        """Invert the prefix sums by differencing along every axis."""
        a = self._p.copy()
        for axis in range(self.ndim):
            a = np.diff(a, axis=axis, prepend=0)
        return a
