"""d-dimensional Fenwick tree (binary indexed tree) comparator.

Not part of the paper's 1999 evaluation, but the natural point of
comparison from the follow-on range-sum literature: it balances both
operations at ``O(log^d n)`` instead of making one of them constant. We
include it as a clearly-labelled extension so the benchmark harness can
show where the RPS trade-off (O(1) query, O(n^{d/2}) update) wins and
loses against a logarithmic-both-ways structure.

The implementation uses the classic 1-based parent arithmetic
(``i -= i & -i`` walking down, ``i += i & -i`` walking up) applied
independently per axis.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence

import numpy as np

from repro.core import indexing
from repro.core.base import RangeSumMethod


#: Rows per pass of the batched prefix kernel (see
#: :meth:`FenwickCube._prefix_rows`).
PREFIX_CHUNK_ROWS = 8192


class FenwickCube(RangeSumMethod):
    """d-dimensional binary indexed tree over a dense cube."""

    name = "fenwick"

    def _build(self, array: np.ndarray) -> None:
        self._tree = np.zeros(self.shape, dtype=self._dtype)
        # O(n^d log^d n) bulk build by repeated point insertion would be
        # slow; instead use the linear-time trick per axis: start from the
        # raw values and push each node's total into its parent.
        self._tree[...] = array
        for axis in range(self.ndim):
            n = self.shape[axis]
            for i in range(1, n + 1):  # 1-based positions
                parent = i + (i & -i)
                if parent <= n:
                    src = [slice(None)] * self.ndim
                    dst = [slice(None)] * self.ndim
                    src[axis] = i - 1
                    dst[axis] = parent - 1
                    self._tree[tuple(dst)] += self._tree[tuple(src)]

    def _axis_prefix_positions(self, target: int) -> List[int]:
        """0-based tree cells combined for a prefix ``[0, target]`` on one axis."""
        positions = []
        i = target + 1  # 1-based
        while i > 0:
            positions.append(i - 1)
            i -= i & -i
        return positions

    def _axis_update_positions(self, index: int, n: int) -> List[int]:
        """0-based tree cells touched by a point update on one axis."""
        positions = []
        i = index + 1
        while i <= n:
            positions.append(i - 1)
            i += i & -i
        return positions

    def prefix_sum(self, target: Sequence[int]):
        """Sum of ``A[0..target]`` from O(log^d n) tree cells."""
        t = indexing.normalize_index(target, self.shape)
        grids = [self._axis_prefix_positions(ti) for ti in t]
        block = self._tree[np.ix_(*grids)]
        self.counter.read(block.size, structure="fenwick")
        return self._dtype.type(block.sum())

    def _prefix_rows(self, rows: np.ndarray) -> np.ndarray:
        """Batched prefix sums via per-bit-slot gathers.

        Each axis contributes at most ``ceil(log2 n_i)`` tree positions
        per query; the kernel materializes them as ``(Q, L_i)`` position
        and validity matrices (one vectorized parent-walk per bit slot,
        never per query) and gathers the tree once per slot combination —
        ``prod(L_i)`` gathers of Q cells, replacing Q Python-level
        ``np.ix_`` constructions. Charges the same
        ``prod(#set bits of t_i + 1)`` reads per query as the loop.

        Rows go through in chunks of :data:`PREFIX_CHUNK_ROWS`: every
        slot combination re-reads its chunk's masks, and a bounded chunk
        keeps them in cache however many corners a batch stacks.
        """
        out = np.zeros(len(rows), dtype=self._dtype)
        for start in range(0, len(rows), PREFIX_CHUNK_ROWS):
            chunk = slice(start, start + PREFIX_CHUNK_ROWS)
            self._add_prefixes(rows[chunk], out[chunk])
        return out

    def _add_prefixes(self, rows: np.ndarray, out: np.ndarray) -> None:
        """Add the prefix sums of ``rows`` into ``out`` (a view)."""
        q_count = len(rows)
        positions, valid = [], []
        charges = np.ones(q_count, dtype=np.int64)
        for axis, n in enumerate(self.shape):
            bits = int(n).bit_length()
            pos = np.zeros((q_count, bits), dtype=np.intp)
            live = np.zeros((q_count, bits), dtype=bool)
            i = rows[:, axis] + 1  # 1-based walk, vectorized over Q
            for b in range(bits):
                alive = i > 0
                live[:, b] = alive
                pos[alive, b] = i[alive] - 1
                i = i - (i & -i)
            positions.append(pos)
            valid.append(live)
            charges *= live.sum(axis=1)
        self.counter.read(int(charges.sum()), structure="fenwick")
        for combo in itertools.product(
            *[range(int(n).bit_length()) for n in self.shape]
        ):
            mask = valid[0][:, combo[0]]
            for axis in range(1, self.ndim):
                mask = mask & valid[axis][:, combo[axis]]
            if not mask.any():
                continue
            cell = tuple(
                positions[axis][mask, combo[axis]]
                for axis in range(self.ndim)
            )
            out[mask] += self._tree[cell]

    _range_rows = RangeSumMethod._corner_range_sum_many

    def _apply_delta(self, index: Sequence[int], delta) -> None:
        """Add ``delta`` along the O(log^d n) update paths."""
        idx = indexing.normalize_index(index, self.shape)
        grids = [
            self._axis_update_positions(i, n)
            for i, n in zip(idx, self.shape)
        ]
        view = self._tree[np.ix_(*grids)]
        view += delta
        self._tree[np.ix_(*grids)] = view
        self.counter.write(view.size, structure="fenwick")

    def storage_cells(self) -> int:
        """The tree is exactly the size of A."""
        return self._tree.size
