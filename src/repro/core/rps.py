"""The relative prefix sum method (paper Sections 3 and 4).

:class:`RelativePrefixSumCube` composes an :class:`~repro.core.overlay.Overlay`
with a :class:`~repro.core.rp.RelativePrefixArray` to answer any prefix sum
"on the fly" from O(1) stored values::

    Pre(t) = RP[t] + sum over S' subset of {j : t_j > a_j}, S' != D of
             stored( t with non-S' coordinates replaced by the anchor's )

where ``a`` is the anchor of the box covering ``t`` (Figure 12; the
general form is derived in DESIGN.md/docs — in 2-D it is exactly the
paper's "one anchor value, d border values, and one value from RP").
Range sums combine ``2^d`` such prefix sums with inclusion–exclusion
(Figure 3), so queries are O(1) for fixed d. Updates cascade within a
single RP box plus a constrained set of overlay cells (Figure 14), giving
the paper's ``O(n^{d/2})`` worst case at the optimal box size
``k = sqrt(n)``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core import indexing
from repro.core.base import RangeSumMethod
from repro.core.overlay import Overlay
from repro.core.rp import RelativePrefixArray
from repro.errors import RangeError


def default_box_size(shape: Sequence[int]) -> int:
    """The paper's optimal box side ``k = sqrt(n)`` (Section 4.3).

    With mixed dimension sizes we use the geometric-mean dimension as
    ``n``; the result is clamped to at least 1.
    """
    n = float(np.prod(shape)) ** (1.0 / len(shape))
    return max(1, round(math.sqrt(n)))


def default_box_sizes(shape: Sequence[int]) -> tuple:
    """Per-dimension optimal box sides ``k_i = sqrt(n_i)``.

    The per-axis refinement of the paper's rule, appropriate when
    dimension sizes differ widely (a 365-day axis wants k=19, a
    50-bucket axis wants k=7).
    """
    return tuple(max(1, round(math.sqrt(n))) for n in shape)


class RelativePrefixSumCube(RangeSumMethod):
    """The paper's contribution: O(1) queries with O(n^{d/2}) updates.

    Args:
        array: dense source cube ``A``.
        box_size: overlay box side ``k`` — an int (the paper's model) or
            one per dimension; defaults to ``sqrt(n)`` per Section 4.3.
            Pass an explicit value to reproduce the paper's k-sweep or to
            align boxes with disk pages (Section 4.4).
    """

    name = "rps"

    def __init__(self, array: np.ndarray, box_size=None) -> None:
        self._requested_box_size = box_size
        super().__init__(array)

    def _build(self, array: np.ndarray) -> None:
        k = (
            self._requested_box_size
            if self._requested_box_size is not None
            else default_box_size(array.shape)
        )
        self.box_sizes = indexing.normalize_box_sizes(k, array.shape)
        self.overlay = Overlay(array, self.box_sizes, counter=self.counter)
        self.rp = RelativePrefixArray(
            array, self.box_sizes, counter=self.counter
        )
        #: an upper bound on the cells any one update's cascade touches
        self._worst_update_cells = (
            self.rp.box_cells() + self.overlay.worst_update_cost()
        )

    @property
    def box_size(self):
        """The box side length: an int when uniform, else the per-axis tuple."""
        if len(set(self.box_sizes)) == 1:
            return self.box_sizes[0]
        return self.box_sizes

    # -- queries ------------------------------------------------------------

    def prefix_sum(self, target: Sequence[int]):
        """``SUM(A[0..target])`` from overlay values plus one RP cell.

        This is the two-step construction of Figures 9–12: the overlay
        provides the portion of the region outside the covering box (one
        anchor plus the border values — d of them in 2-D, at most
        ``2^d - 2`` in general), RP provides the portion inside it.
        """
        t = indexing.normalize_index(target, self.shape)
        return self.overlay.prefix_contribution(t) + self.rp.value(t)

    def cell_value(self, index: Sequence[int]):
        """Read one cell via box-local RP differencing (cheaper than 2^d
        full prefix sums — the cascade never leaves the box)."""
        return self.rp.cell_value(index)

    def _prefix_rows(self, rows: np.ndarray) -> np.ndarray:
        """Batched prefix sums: one overlay gather plus one RP gather.

        One ``take`` for every overlay term of the query identity —
        anchors and each border subset — and one for RP, with no
        per-query Python.
        Counter charges match the looped path exactly (see
        :meth:`Overlay.contribution_rows`).
        """
        return self.overlay.contribution_rows(rows) + self.rp.value_rows(rows)

    _range_rows = RangeSumMethod._corner_range_sum_many

    def explain_prefix(self, target: Sequence[int]) -> dict:
        """Break one prefix sum into its stored components.

        Returns the covering box's anchor, the anchor value, every border
        value read (keyed by the face cell it lives at), the RP value,
        and the total — the decomposition the paper walks through in
        Section 3.3 (``86 + 8 + 51 + 23 = 168``).
        """
        t = indexing.normalize_index(target, self.shape)
        anchor = indexing.anchor_of(t, self.box_sizes)
        report = {
            "target": t,
            "anchor": anchor,
            "anchor_value": self.overlay.anchor_value(anchor),
            "border_values": {},
            "rp_value": self.rp.value(t),
        }
        off_axes = [i for i in range(self.ndim) if t[i] != anchor[i]]
        full = (1 << self.ndim) - 1
        for bits in range(1, 1 << len(off_axes)):
            sub = 0
            for j, axis in enumerate(off_axes):
                if bits & (1 << j):
                    sub |= 1 << axis
            if sub == full:
                continue  # S' = D contributes nothing
            cell = tuple(
                t[axis] if sub & (1 << axis) else anchor[axis]
                for axis in range(self.ndim)
            )
            report["border_values"][cell] = self.overlay.border_value(cell)
        report["total"] = (
            report["anchor_value"]
            + sum(report["border_values"].values())
            + report["rp_value"]
        )
        return report

    # -- updates ------------------------------------------------------------

    def _apply_delta(self, index: Sequence[int], delta) -> None:
        """Add ``delta`` to one cell (Figure 15's constrained cascade)."""
        self._cascade(indexing.normalize_index(index, self.shape), delta)

    def _cascade(self, idx, delta) -> None:
        """The cascade at an already-validated index tuple."""
        self.rp.cascade(idx, delta)
        self.overlay.cascade(idx, delta)

    #: Wall-clock model of ``auto``'s looped-vs-vectorized choice, in
    #: cells of the vectorized kernel's passes. One looped cascade costs
    #: ``CASCADE_STEP_CELLS`` per step: three for the loop and RP, one
    #: per overlay subset (``3 + 2^d - 1``: 1500 cells in 2-D). One
    #: vectorized call costs ``VECTORIZED_GROUP_CELLS`` per corner group
    #: it builds (a subset ``Z`` and a nonempty ``S`` of it: ``3^d - 2^d``,
    #: 20000 cells in 2-D), plus its passes over the overlay arrays and
    #: one RP box per row. Fitted on 2-D, 3-D and 4-D cubes (rough in
    #: 1-D); ``bench_u1``'s ``small_batches`` sweep times both sides.
    CASCADE_STEP_CELLS = 250
    VECTORIZED_GROUP_CELLS = 4000

    BATCH_STRATEGIES = ("auto", "incremental", "vectorized", "rebuild")

    def apply_batch(self, updates, strategy: str = "auto") -> int:
        """Apply many ``(index, delta)`` updates.

        Strategies:

        * ``"incremental"`` — one constrained cascade per update
          (m x O(n^{d/2}) cells, one Python step per update).
        * ``"vectorized"`` — identical incremental semantics and cell
          ledger, executed as scatter/cumsum passes over the touched RP
          boxes and the overlay arrays, with no per-update Python (see
          :meth:`RelativePrefixArray.apply_rows` and
          :meth:`Overlay.apply_rows`).
        * ``"rebuild"`` — materialize the batch, rebuild overlay and RP
          from the patched array (O(n^d) cells, independent of m).
        * ``"auto"`` (default) — :meth:`choose_batch_strategy`: the
          paper's cost model picks incremental-vs-rebuild semantics, a
          wall-clock model picks looped-vs-vectorized execution (tiny
          batches stay looped); the crossovers are measured in the
          ``bench_a1``/``bench_u1`` ablations.

        Returns the number of updates applied.
        """
        batch = list(updates)
        if not batch:
            self._check_strategy(strategy)
            return 0
        indices = np.array(
            [
                indexing.normalize_index(index, self.shape)
                for index, _ in batch
            ],
            dtype=np.intp,
        )
        deltas = np.asarray([delta for _, delta in batch])
        return self._apply_batch_arrays(indices, deltas, strategy)

    def apply_batch_array(
        self, indices, deltas, strategy: str = "auto"
    ) -> int:
        """Array-native :meth:`apply_batch` over ``(m, d)`` + ``(m,)``
        arrays — the kernel the serving layer feeds directly."""
        batch, deltas = indexing.normalize_update_batch(
            indices, deltas, self.shape
        )
        if len(batch) == 0:
            self._check_strategy(strategy)
            return 0
        return self._apply_batch_arrays(batch, deltas, strategy)

    def _check_strategy(self, strategy: str) -> None:
        if strategy not in self.BATCH_STRATEGIES:
            raise RangeError(
                f"unknown batch strategy {strategy!r}; choose auto, "
                f"incremental, vectorized, or rebuild"
            )

    def choose_batch_strategy(self, indices) -> str:
        """The strategy ``"auto"`` would pick for this index batch.

        Two nested decisions: the paper's logical cost model compares the
        summed cascade cost against one rebuild (the crossover near
        ``m ~ n^{d/2}``); the exact sum is skipped when m worst-case
        cascades cannot exceed a rebuild either. When incremental
        semantics win, a wall-clock model compares m interpreter steps
        against one vectorized call (:attr:`CASCADE_STEP_CELLS`,
        :attr:`VECTORIZED_GROUP_CELLS`).
        """
        return self._choose_rows(
            indexing.normalize_index_batch(indices, self.shape)
        )

    def _choose_rows(self, batch: np.ndarray) -> str:
        """:meth:`choose_batch_strategy` over an already-validated batch."""
        m = len(batch)
        rebuild_cells = self.storage_cells()
        if (
            m * self._worst_update_cells > rebuild_cells
            and int(self._update_cost_rows(batch).sum()) > rebuild_cells
        ):
            return "rebuild"
        d = self.ndim
        vectorized_cells = (
            self.VECTORIZED_GROUP_CELLS * (3**d - 2**d)
            + self.overlay.allocated_cells()
            + m * self.rp.box_cells()
        )
        if m * self.CASCADE_STEP_CELLS * (2 + 2**d) >= vectorized_cells:
            return "vectorized"
        return "incremental"

    def _apply_batch_arrays(
        self, indices: np.ndarray, deltas: np.ndarray, strategy: str
    ) -> int:
        self._check_strategy(strategy)
        deltas = self.coerce_deltas(deltas)
        if strategy == "auto":
            strategy = self._choose_rows(indices)
        if strategy == "incremental":
            for row, delta in zip(indices.tolist(), deltas):
                self._cascade(tuple(row), delta)
        elif strategy == "vectorized":
            self.rp.apply_rows(indices, deltas)
            self.overlay.apply_rows(indices, deltas)
        else:
            patched = self.to_array()
            np.add.at(patched, tuple(indices.T), deltas)
            self.overlay = Overlay(
                patched, self.box_sizes, counter=self.counter
            )
            self.rp = RelativePrefixArray(
                patched, self.box_sizes, counter=self.counter
            )
            self.counter.write(self.rp.storage_cells(), structure="RP")
            self.counter.write(
                self.overlay.storage_cells(), structure="overlay.border"
            )
        return len(indices)

    def update_cost_breakdown(self, index: Sequence[int]) -> dict:
        """Predicted cells touched by an update at ``index``, by structure.

        Computes the exact counts without mutating anything, for
        comparison against the paper's worst-case formula
        ``k^d + d(n/k)k^{d-1} + (n/k)^d``.
        """
        idx = indexing.normalize_index(index, self.shape)
        rp_cells = self._rp_update_size(idx)
        overlay_cells = self.overlay.update_cost(idx)
        return {
            "total": rp_cells + overlay_cells,
            "rp": rp_cells,
            "overlay": overlay_cells,
        }

    def update_cost_many(self, indices) -> np.ndarray:
        """Per-row predicted cells touched for an ``(m, d)`` index batch.

        The batched counterpart of :meth:`update_cost_breakdown`'s
        ``"total"`` — identical counts with no per-row Python, used by
        ``"auto"`` batch planning.
        """
        return self._update_cost_rows(
            indexing.normalize_index_batch(indices, self.shape)
        )

    def _update_cost_rows(self, batch: np.ndarray) -> np.ndarray:
        """:meth:`update_cost_many` over an already-validated batch."""
        return self.rp.update_sizes(batch) + self.overlay.update_cost_rows(
            batch
        )

    def _rp_update_size(self, idx) -> int:
        size = 1
        for i, k, n in zip(idx, self.box_sizes, self.shape):
            size *= min((i // k) * k + k, n) - i
        return size

    # -- introspection ------------------------------------------------------

    def verify_structures(self) -> None:
        """Deep self-check: rebuild overlay and RP from the reconstructed
        array and compare every stored value.

        Stronger than :meth:`verify` (which probes query answers): this
        confirms the incremental update paths left the internal arrays
        byte-identical to a fresh build. Raises
        :class:`~repro.errors.RangeError` on the first divergence.
        """
        current = self.to_array()
        fresh_rp = RelativePrefixArray(current, self.box_sizes)
        if not np.array_equal(self.rp.array(), fresh_rp.array()):
            raise RangeError("RP array diverged from a fresh rebuild")
        fresh_overlay = Overlay(current, self.box_sizes)
        for mask in self.overlay.masks():
            if not np.array_equal(
                self.overlay.values_array(mask),
                fresh_overlay.values_array(mask),
            ):
                raise RangeError(
                    f"overlay subset {mask:#b} diverged from a fresh rebuild"
                )

    def storage_cells(self) -> int:
        """RP cells plus overlay cells (this layout's physical footprint)."""
        return self.rp.storage_cells() + self.overlay.storage_cells()

    def to_array(self) -> np.ndarray:
        """Reconstruct ``A`` by box-local differencing of RP (exact)."""
        a = self.rp.array()
        for axis in range(self.ndim):
            shifted = np.zeros_like(a)
            src = [slice(None)] * self.ndim
            dst = [slice(None)] * self.ndim
            src[axis] = slice(0, -1)
            dst[axis] = slice(1, None)
            shifted[tuple(dst)] = a[tuple(src)]
            # Zero the carry at box starts: differencing restarts per box.
            starts = [slice(None)] * self.ndim
            starts[axis] = slice(0, None, self.box_sizes[axis])
            shifted[tuple(starts)] = 0
            a = a - shifted
        return a

    def __repr__(self) -> str:
        return (
            f"RelativePrefixSumCube(shape={self.shape}, "
            f"box_size={self.box_size})"
        )
