"""The overlay structure (paper Section 3.1).

An overlay partitions array ``A`` into equal-sized boxes of side ``k`` and
stores, per box, one value for every cell having at least one coordinate
on the box's anchor faces — ``k^d - (k-1)^d`` values per box, exactly the
paper's storage count. The anchor cell holds the *anchor value*
``V(a) = SUM(A[0..a]) - A[a]`` (Figure 7); the remaining face cells hold
cumulative *border values* (Figures 6 and 8).

The paper publishes only the 2-D definitions; TR TRCS99-01 with the
d-dimensional algorithms is unavailable. The generalization implemented
here is derived in DESIGN.md Section 1 from the subset decomposition of a
prefix region. For a face cell ``c`` whose set of anchor-aligned
coordinates is ``Z`` (nonempty), the stored value is::

    stored(c) = SUM over  prod_{j not in Z} (a_j, c_j]
                        x ( prod_{j in Z} [0, a_j]  -  prod_{j in Z} {a_j} )

With ``Z = D`` (the anchor itself) this is exactly ``V(a)``; in 2-D with
``|Z| = 1`` it is exactly the paper's cumulative X/Y border values. The
query identity, valid for every target ``t`` (boundary targets included)::

    Pre(t) = RP[t] + sum over S' subset of {j : t_j > a_j}, S' != D of
             stored( cell with t_j on S', a_j elsewhere )

reads at most ``2^d`` overlay values per prefix sum (``d + 2`` when d = 2,
matching the paper's count), and an update touches
``((n/k) + k)^d`` cells in the worst case — ``O(n^{d/2})`` at the paper's
optimal ``k = sqrt(n)``.

The paper fixes the same ``k`` on every dimension "for clarity, and
without loss of generality"; this implementation accepts one side length
per dimension, which matters when dimension sizes differ widely or when
one box must match a disk page exactly (Section 4.4).

Physically the overlay keeps one dense array per nonempty ``Z``
(``2^d - 1`` arrays); the array for ``Z`` is indexed by box number on the
dimensions in ``Z`` and by raw cell coordinate elsewhere. All of them are
views into one flat buffer, so a batched read gathers every term of the
query identity with one ``take``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

from repro.core import indexing
from repro.core.blocked import blocked_cumsum
from repro.errors import RangeError
from repro.metrics.counters import AccessCounter

Coord = Tuple[int, ...]

#: Rows per pass of the batched overlay gather (see
#: :meth:`Overlay.contribution_rows`).
GATHER_CHUNK_ROWS = 8192


def _exclusive_blocked_cumsum(array: np.ndarray, axis: int, k: int) -> np.ndarray:
    """Per-block cumulative sum excluding the block's first element.

    ``out[..., c, ...] = sum(array[..., a+1 .. c, ...])`` where ``a`` is
    the block start — zero at block starts themselves.
    """
    zeroed = array.copy()
    zeroed[(slice(None),) * axis + (slice(0, None, k),)] = 0
    return blocked_cumsum(zeroed, axis, k)


def subset_update_slices(shape, box_sizes, boxes_shape, idx, mask):
    """Affected-region slices of one subset's value array for an update.

    For the overlay value array of subset ``mask`` (bit j set = axis j in
    Z), an update at ``idx`` touches the ``add`` slice minus — when the
    update is anchor-aligned on all of Z — the ``sub`` slice (the
    ``Π{a_j}`` exclusion). Returns ``(None, None)`` when no value of this
    subset is affected (the update is anchor-aligned on a non-Z axis).

    Shared by :class:`Overlay` (which applies the slices densely) and the
    hierarchical extension (which converts them into range-adds).
    """
    ndim = len(shape)
    add = []
    exclusion_applies = True
    for axis in range(ndim):
        u = idx[axis]
        k = box_sizes[axis]
        if mask & (1 << axis):
            # Boxes with anchor at or after the update on this axis.
            add.append(slice(-(-u // k), boxes_shape[axis]))
            if u % k != 0:
                exclusion_applies = False
        else:
            # Same box, strictly after its anchor, at or after u.
            if u % k == 0:
                return None, None
            add.append(slice(u, min((u // k) * k + k, shape[axis])))
    sub = None
    if exclusion_applies:
        sub = tuple(
            slice(idx[axis] // box_sizes[axis],
                  idx[axis] // box_sizes[axis] + 1)
            if mask & (1 << axis)
            else add[axis]
            for axis in range(ndim)
        )
    return tuple(add), sub


class UpdateExtents:
    """Batched counterpart of :func:`subset_update_slices`.

    Takes the per-row, per-axis geometry of a validated ``(m, d)`` index
    batch once; :meth:`subset` then describes, per row, how each update
    touches the value array of one subset ``mask``. The region geometry
    matches :func:`subset_update_slices` exactly; only the
    representation differs (counts instead of slices), so the vectorized
    update path charges the very cells the looped cascade charges.
    """

    def __init__(self, shape, box_sizes, boxes_shape, batch) -> None:
        # axis-major (d, m): numpy reduces slowly along a short inner axis
        sizes = np.asarray(box_sizes, dtype=np.intp)[:, None]
        self.ndim = len(shape)
        #: the batch's coordinates, one row per axis
        self.cols = np.ascontiguousarray(batch.T)
        #: box number of each update, per axis
        self.box = self.cols // sizes
        aligned = self.cols == self.box * sizes
        #: first box whose anchor is at or after the update, per axis
        self.ceil_box = self.box + ~aligned
        #: bitmask of each row's anchor-aligned axes (bit j = axis j)
        self.aligned_bits = np.bitwise_or.reduce(
            aligned << np.arange(self.ndim)[:, None], axis=0
        )
        #: boxes from ``ceil_box`` to the end: the extent on a Z axis
        self.box_span = np.maximum(
            np.asarray(boxes_shape)[:, None] - self.ceil_box, 0
        )
        #: same-box cells at or after the update: the extent elsewhere
        self.cell_span = (
            np.minimum((self.box + 1) * sizes, np.asarray(shape)[:, None])
            - self.cols
        )

    def subset(self, mask: int):
        """``(applicable, exclusion, add_cells, sub_cells)`` for ``mask``.

        * ``applicable`` — rows affecting this subset at all (no non-Z
          axis anchor-aligned),
        * ``exclusion`` — applicable rows whose ``Π{a_j}`` exclusion
          slice applies (anchor-aligned on all of Z),
        * ``add_cells`` / ``sub_cells`` — the cell counts of the two
          regions on applicable rows (``add_cells`` is 0 when the
          affected slice is empty, e.g. the update sits in the last box
          of a Z axis).
        """
        in_z = (mask >> np.arange(self.ndim) & 1).astype(bool)[:, None]
        applicable = (self.aligned_bits & ~mask) == 0
        exclusion = self.aligned_bits == mask
        add_cells = np.where(in_z, self.box_span, self.cell_span).prod(axis=0)
        sub_cells = np.where(in_z, 1, self.cell_span).prod(axis=0)
        return applicable, exclusion, add_cells, sub_cells


class Overlay:
    """Anchor and border values for every overlay box of a cube.

    Args:
        array: the dense source cube ``A``.
        box_size: overlay box side length ``k`` — a single int (the
            paper's model) or one per dimension.
        counter: access counter charged by lookups and updates; a private
            one is created when omitted (the RPS cube passes its own so
            overlay and RP costs share a ledger).
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
        # small integers widen to the dtype np.cumsum would give
        source = source.astype(np.cumsum(source[:0]).dtype, copy=False)
        self.boxes_shape = tuple(
            -(-n // k) for n, k in zip(source.shape, self.box_sizes)
        )
        self.counter = counter if counter is not None else AccessCounter()
        self._full_mask = (1 << self.ndim) - 1
        # query-kernel tables: per axis, each coordinate's bit of the
        # target's off-anchor bitmask (bit j set = coordinate j is not on
        # its box's anchor face)
        self._off_bit = tuple(
            np.where(np.arange(n) % k != 0, 1 << axis, 0)
            for axis, (n, k) in enumerate(zip(self.shape, self.box_sizes))
        )
        subs = np.arange(self._full_mask)
        #: applies[sub, off]: term ``sub`` of the query expansion applies
        #: to a target with off-anchor bitmask ``off`` — term 0 is the
        #: anchor value, term S' the border value of subset S', which
        #: applies when S' is a subset of off
        self._applies = (
            subs[:, None] & np.arange(self._full_mask + 1)
        ) == subs[:, None]
        #: border reads of one target, by its off-anchor bitmask
        self._border_reads = self._applies[1:].sum(axis=0)
        self._layout_terms(source.dtype)
        self._build(source)

    @property
    def box_size(self):
        """The box side length: an int when uniform, else the per-axis tuple."""
        if len(set(self.box_sizes)) == 1:
            return self.box_sizes[0]
        return self.box_sizes

    # -- construction -------------------------------------------------------

    def _layout_terms(self, dtype) -> None:
        """Allocate every subset's value array in one flat buffer, by term.

        Term ``sub`` of the query expansion (0 = the anchor value, else the
        border value of subset ``S' = sub``) reads the array of
        ``Z = D - S'`` at the box number on ``Z`` axes and at the raw
        coordinate on ``S'`` axes. ``_term_offsets[axis][sub, c]`` is
        coordinate ``c``'s share of that term's flat index (axis 0's also
        carries where the array starts), so adding one gathered row per
        axis gives the flat index of every term of a target.
        """
        spans = []
        offsets = [
            np.empty((self._full_mask, n), dtype=np.intp) for n in self.shape
        ]
        start = 0
        for sub in range(self._full_mask):
            mask = self._full_mask ^ sub
            shape = tuple(
                b if mask >> axis & 1 else n
                for axis, (n, b) in enumerate(zip(self.shape, self.boxes_shape))
            )
            size = stride = int(np.prod(shape))
            for axis, (n, k) in enumerate(zip(self.shape, self.box_sizes)):
                stride //= shape[axis]  # C order
                coords = np.arange(n) if sub >> axis & 1 else np.arange(n) // k
                offsets[axis][sub] = coords * stride
            offsets[0][sub] += start
            spans.append((mask, slice(start, start + size), shape))
            start += size
        self._term_offsets = tuple(offsets)
        #: mask -> (its span of the flat buffer, its array's shape,
        #: which axes are in Z, its array's element strides)
        self._spans = {
            mask: (
                span,
                shape,
                (mask >> np.arange(self.ndim) & 1).astype(bool),
                np.cumprod((1,) + shape[:0:-1])[::-1],
            )
            for mask, span, shape in spans
        }
        self._flat = np.empty(start, dtype=dtype)
        self._link_values()

    def _link_values(self) -> None:
        """Point every subset's value array at its span of ``_flat``."""
        self._values: Dict[int, np.ndarray] = {
            mask: self._flat[span].reshape(shape)
            for mask, (span, shape, _, _) in self._spans.items()
        }

    def __getstate__(self) -> dict:
        # copy and pickle the flat buffer only: copied views would no
        # longer alias it, so a looped cascade (which writes through
        # ``_values``) would be invisible to the batched gather
        state = self.__dict__.copy()
        del state["_values"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._link_values()

    def _build(self, array: np.ndarray) -> None:
        """Vectorized construction of the 2^d - 1 per-subset value arrays.

        Fills the views :meth:`_layout_terms` allocated. Reduce first:
        per ``Z`` axis, ``SUM[0, a_j]`` at each anchor is the
        exclusive cumsum of the block sums plus the anchor element, and
        the ``prod{a_j}`` exclusion is the anchor element itself. Only
        their difference, about ``k``-fold smaller per ``Z`` axis, takes
        the exclusive blocked cumsums along the non-``Z`` axes. Subset
        ``Z`` extends the reduction of ``Z`` minus its highest axis.
        """
        starts = [
            np.arange(0, n, k) for n, k in zip(self.shape, self.box_sizes)
        ]
        reduced = {0: (array, array)}
        for mask in range(1, self._full_mask + 1):
            axis = mask.bit_length() - 1
            upto, exclusion = reduced[mask ^ (1 << axis)]
            block_sums = np.add.reduceat(upto, starts[axis], axis=axis)
            upto = np.take(upto, starts[axis], axis=axis)
            lead = (slice(None),) * axis
            upto[lead + (slice(1, None),)] += np.cumsum(
                block_sums[lead + (slice(None, -1),)], axis=axis
            )
            exclusion = np.take(exclusion, starts[axis], axis=axis)
            reduced[mask] = upto, exclusion
            values = upto - exclusion
            for other in range(self.ndim):
                if not mask & (1 << other):
                    values = _exclusive_blocked_cumsum(
                        values, other, self.box_sizes[other]
                    )
            self._values[mask][...] = values

    # -- lookups -------------------------------------------------------------

    def _mask_of(self, cell: Coord) -> int:
        """Bitmask of anchor-aligned coordinates of ``cell`` (its Z set)."""
        mask = 0
        for axis, c in enumerate(cell):
            if c % self.box_sizes[axis] == 0:
                mask |= 1 << axis
        return mask

    def _value_index(self, cell: Coord, mask: int) -> Coord:
        """Index of ``cell`` into the value array for subset ``mask``."""
        return tuple(
            c // self.box_sizes[axis] if mask & (1 << axis) else c
            for axis, c in enumerate(cell)
        )

    def anchor_value(self, anchor: Sequence[int]):
        """Stored ``V`` for the box anchored at ``anchor`` (one cell read)."""
        a = indexing.normalize_index(anchor, self.shape)
        if self._mask_of(a) != self._full_mask:
            raise RangeError(
                f"{a} is not a box anchor for box sizes {self.box_sizes}"
            )
        self.counter.read(1, structure="overlay.anchor")
        return self._values[self._full_mask][self._value_index(a, self._full_mask)]

    def border_value(self, cell: Sequence[int]):
        """Stored border value for a face cell (one cell read).

        The cell's serving subset ``Z`` is determined by which of its
        coordinates sit on the covering box's anchor faces; at least one
        must (and not all — that would be the anchor, see
        :meth:`anchor_value`).
        """
        c = indexing.normalize_index(cell, self.shape)
        mask = self._mask_of(c)
        if mask == 0:
            raise RangeError(
                f"cell {c} is interior to its box (no anchor-aligned "
                f"coordinate for box sizes {self.box_sizes})"
            )
        if mask == self._full_mask:
            raise RangeError(
                f"cell {c} is a box anchor; use anchor_value()"
            )
        self.counter.read(1, structure="overlay.border")
        return self._values[mask][self._value_index(c, mask)]

    def prefix_contribution(self, target: Sequence[int]):
        """The overlay's share of ``Pre(target)`` (everything except RP).

        Sums the anchor value plus one border value per nonempty proper
        subset of the target's off-anchor dimensions — at most ``2^d - 1``
        reads, exactly the paper's anchor + d borders when d = 2.
        """
        t = indexing.normalize_index(target, self.shape)
        anchor = indexing.anchor_of(t, self.box_sizes)
        off_mask = 0
        for axis in range(self.ndim):
            if t[axis] != anchor[axis]:
                off_mask |= 1 << axis
        total = self._values[self._full_mask][
            self._value_index(anchor, self._full_mask)
        ]
        self.counter.read(1, structure="overlay.anchor")
        reads = 0
        sub = off_mask
        while sub > 0:
            if sub != self._full_mask:
                z_mask = self._full_mask ^ sub
                cell = tuple(
                    t[axis] if sub & (1 << axis) else anchor[axis]
                    for axis in range(self.ndim)
                )
                total = total + self._values[z_mask][
                    self._value_index(cell, z_mask)
                ]
                reads += 1
            sub = (sub - 1) & off_mask
        if reads:
            self.counter.read(reads, structure="overlay.border")
        return total

    def prefix_contribution_many(self, targets) -> np.ndarray:
        """Batched :meth:`prefix_contribution` over a ``(Q, d)`` array.

        Validates the batch, then runs :meth:`contribution_rows`.
        """
        return self.contribution_rows(
            indexing.normalize_index_batch(targets, self.shape)
        )

    def contribution_rows(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`prefix_contribution_many` over an already-validated
        ``(Q, d)`` batch.

        One ``take`` from the flat buffer gathers every term of the subset
        expansion at once: the anchor value plus one border value per
        proper nonempty subset ``S'`` of the dimensions. A term that does
        not apply to a target (``S'`` is not a subset of its off-anchor
        axes) is masked to ``-0.0``, and the terms are summed in expansion
        order, as the looped path adds them. No row set is ever
        compacted. Charges identical counter totals: one anchor read per
        target plus one border read per applicable ``(target, subset)``
        pair.

        Rows go through in chunks of :data:`GATHER_CHUNK_ROWS`, which
        bounds the ``(2^d - 1) x rows`` temporaries however many corners
        a batch stacks.
        """
        q_count = len(rows)
        if q_count > GATHER_CHUNK_ROWS:
            return np.concatenate([
                self.contribution_rows(rows[start:start + GATHER_CHUNK_ROWS])
                for start in range(0, q_count, GATHER_CHUNK_ROWS)
            ])
        if q_count == 0:
            return np.empty(0, dtype=self._flat.dtype)
        cols = rows.T
        off_bits = self._off_bit[0][cols[0]]
        index = self._term_offsets[0].take(cols[0], axis=1)
        for axis in range(1, self.ndim):
            off_bits = off_bits | self._off_bit[axis][cols[axis]]
            index += self._term_offsets[axis].take(cols[axis], axis=1)
        terms = self._flat.take(index)
        self.counter.read(q_count, structure="overlay.anchor")
        border_reads = int(self._border_reads[off_bits].sum())
        if not border_reads:
            return terms[0]
        self.counter.read(border_reads, structure="overlay.border")
        # -0.0 is the exact additive identity: an inapplicable term keeps
        # the partial sum bit for bit, signed zeros included; a reduce
        # over the outer axis adds the terms in order after it
        skip = terms.dtype.type(-0.0)
        terms = np.where(self._applies.take(off_bits, axis=1), terms, skip)
        return np.add.reduce(terms, axis=0, initial=skip)

    # -- updates -------------------------------------------------------------

    def apply_delta(self, index: Sequence[int], delta) -> int:
        """Propagate a cell delta into every affected stored value.

        This is the constrained cascade of Figure 14: for each subset
        ``Z``, the affected values form one slice — boxes at-or-after the
        update on the ``Z`` dimensions, same-box trailing cells elsewhere
        — minus (when the update is anchor-aligned on all of ``Z``) the
        slice where the update sits exactly on every ``Z`` anchor.

        Returns the number of overlay cells whose stored value changed.
        """
        return self.cascade(indexing.normalize_index(index, self.shape), delta)

    def cascade(self, idx: Coord, delta) -> int:
        """:meth:`apply_delta` at an already-validated index tuple."""
        touched_total = 0
        for mask in range(1, self._full_mask + 1):
            add, sub = self._update_slices(idx, mask)
            if add is None:
                continue
            values = self._values[mask]
            region = values[add]
            if region.size == 0:
                continue
            region += delta
            touched = region.size
            if sub is not None:
                sub_region = values[sub]
                if sub_region.size:
                    sub_region -= delta
                    touched -= sub_region.size
            structure = (
                "overlay.anchor" if mask == self._full_mask
                else "overlay.border"
            )
            if touched:
                self.counter.write(touched, structure=structure)
            touched_total += touched
        return touched_total

    def apply_rows(self, batch: np.ndarray, deltas: np.ndarray) -> int:
        """Apply an already-validated ``(m, d)`` batch of point deltas.

        Every stored value is linear in ``A``, so the batch's effect on
        the value array of subset ``Z`` is a sum of signed *corners*, each
        spread to the end of its region by cumulative sums: plain over
        box numbers on the ``Z`` axes, box-blocked over raw coordinates
        elsewhere. An update's affected region starts at box
        ``ceil(u_j / k_j)`` on the ``Z`` axes and at ``u_j`` elsewhere.
        When the update is anchor-aligned on all of ``Z``, its
        ``prod{a_j}`` exclusion cancels that corner and leaves one signed
        corner per nonempty ``S`` of ``Z``: sign ``(-1)^(|S|+1)`` at box
        ``u_j / k_j + 1`` on ``S`` and ``u_j / k_j`` on the rest of ``Z``.

        Every subset's corners go into one zero copy of the flat buffer
        in one ``np.add.at`` (which accumulates duplicate rows); each hit
        subset then takes its cumsums in place, and one add folds the
        buffer into the stored values.

        Charges exactly what looping :meth:`apply_delta` charges, per
        structure (zero-delta rows included). Returns the total number of
        overlay cells written, in that same ledger.
        """
        if len(batch) == 0:
            return 0
        extents = UpdateExtents(
            self.shape, self.box_sizes, self.boxes_shape, batch
        )
        grid = np.asarray(self.boxes_shape)
        corners, weights, hit = [], [], []
        touched_total = 0
        for mask in range(1, self._full_mask + 1):
            applicable, exclusion, add_cells, sub_cells = extents.subset(mask)
            touched = int(
                add_cells[applicable].sum() - sub_cells[exclusion].sum()
            )
            if touched:
                structure = (
                    "overlay.anchor" if mask == self._full_mask
                    else "overlay.border"
                )
                self.counter.write(touched, structure=structure)
            touched_total += touched
            span, _, in_z, strides = self._spans[mask]
            # flat index of the region's corner, less its Z-axis share
            base = span.start + (strides * ~in_z) @ extents.cols
            z_strides = strides * in_z
            found = len(corners)
            plain = applicable & ~exclusion & (add_cells > 0)
            if plain.any():
                corners.append(
                    base[plain] + z_strides @ extents.ceil_box[:, plain]
                )
                weights.append(deltas[plain])
            if exclusion.any():
                box = extents.box[:, exclusion]
                anchor = base[exclusion] + z_strides @ box
                excluded = deltas[exclusion]
                part = mask
                while part:
                    axes = [a for a in range(self.ndim) if part >> a & 1]
                    inside = (box[axes] + 1 < grid[axes, None]).all(axis=0)
                    if inside.any():
                        corners.append(anchor[inside] + strides[axes].sum())
                        sign = 1 if len(axes) % 2 else -1
                        weights.append(sign * excluded[inside])
                    part = (part - 1) & mask
            if len(corners) > found:
                hit.append(mask)
        if not hit:
            return touched_total
        spread = np.zeros_like(self._flat)
        np.add.at(spread, np.concatenate(corners), np.concatenate(weights))
        for mask in hit:
            span, shape, in_z, _ = self._spans[mask]
            view = spread[span].reshape(shape)
            for axis in range(self.ndim):
                if in_z[axis]:
                    np.cumsum(view, axis=axis, out=view)
                else:
                    blocked_cumsum(view, axis, self.box_sizes[axis], out=view)
        self._flat += spread
        return touched_total

    def update_cost_many(self, batch) -> np.ndarray:
        """Per-row overlay cells a batch of updates would touch.

        The batched counterpart of :meth:`update_cost` — same counts,
        computed without mutating anything and without per-row Python.
        """
        return self.update_cost_rows(
            indexing.normalize_index_batch(batch, self.shape)
        )

    def update_cost_rows(self, batch: np.ndarray) -> np.ndarray:
        """:meth:`update_cost_many` over an already-validated ``(m, d)``
        batch."""
        totals = np.zeros(len(batch), dtype=np.int64)
        if len(batch) == 0:
            return totals
        extents = UpdateExtents(
            self.shape, self.box_sizes, self.boxes_shape, batch
        )
        for mask in range(1, self._full_mask + 1):
            applicable, exclusion, add_cells, sub_cells = extents.subset(mask)
            totals += np.where(applicable, add_cells, 0)
            totals -= np.where(exclusion, sub_cells, 0)
        return totals

    def worst_update_cost(self) -> int:
        """An upper bound on the overlay cells any one update touches.

        Per subset ``Z``: every box on the ``Z`` axes times a box less its
        anchor face on the others (the slices of
        :func:`subset_update_slices` at their widest, before the
        exclusion is taken off).
        """
        total = 0
        for mask in self.masks():
            cells = 1
            for axis, (n, k, b) in enumerate(
                zip(self.shape, self.box_sizes, self.boxes_shape)
            ):
                cells *= b if mask >> axis & 1 else min(k, n) - 1
            total += cells
        return total

    def _update_slices(self, idx: Coord, mask: int):
        """(add, subtract) slice tuples for one subset's value array.

        ``add`` is ``None`` when no value of this subset is affected.
        ``subtract`` is ``None`` when the anchor-exclusion slice is empty.
        """
        return subset_update_slices(
            self.shape, self.box_sizes, self.boxes_shape, idx, mask
        )

    def update_cost(self, index: Sequence[int]) -> int:
        """Overlay cells an update at ``index`` would touch, without mutating."""
        idx = indexing.normalize_index(index, self.shape)

        def span(sl: slice, n: int) -> int:
            start, stop, _ = sl.indices(n)
            return max(0, stop - start)

        total = 0
        for mask in range(1, self._full_mask + 1):
            add, sub = self._update_slices(idx, mask)
            if add is None:
                continue
            sizes = [
                span(sl, self.boxes_shape[axis] if mask & (1 << axis)
                     else self.shape[axis])
                for axis, sl in enumerate(add)
            ]
            count = int(np.prod(sizes))
            if sub is not None:
                sub_sizes = [
                    span(sl, self.boxes_shape[axis] if mask & (1 << axis)
                         else self.shape[axis])
                    for axis, sl in enumerate(sub)
                ]
                count -= int(np.prod(sub_sizes))
            total += count
        return total

    # -- storage accounting ---------------------------------------------------

    def storage_cells(self) -> int:
        """Stored values actually used: ``prod(k_i) - prod(k_i - 1)`` per box.

        With a uniform ``k`` this is exactly the paper's ``k^d - (k-1)^d``
        count (each face cell of each box stores one value for its own
        anchor-coordinate subset). The allocated arrays are slightly
        larger — see :meth:`allocated_cells` — because non-subset axes
        are kept at full cube extent for O(1) indexing.
        """
        used = 0
        for mask in range(1, self._full_mask + 1):
            per_box = 1
            for axis in range(self.ndim):
                if not mask & (1 << axis):
                    per_box *= self.box_sizes[axis] - 1
            used += per_box
        return used * math.prod(self.boxes_shape)

    def allocated_cells(self) -> int:
        """Total cells of the backing arrays (including the padding slots
        kept for O(1) indexing); compare with :meth:`storage_cells`."""
        return sum(v.size for v in self._values.values())

    def paper_storage_cells(self) -> int:
        """The paper's closed-form count ``(prod k_i - prod (k_i - 1)) * boxes``."""
        full = 1
        inner = 1
        for k in self.box_sizes:
            full *= k
            inner *= k - 1
        return (full - inner) * int(np.prod(self.boxes_shape))

    # -- debugging / table reproduction ---------------------------------------

    def anchors_array(self) -> np.ndarray:
        """Copy of the anchor-value grid (one entry per box)."""
        return self._values[self._full_mask].copy()

    def masks(self) -> Iterator[int]:
        """All stored subsets, as bitmasks (bit j set = axis j in Z)."""
        return iter(range(1, self._full_mask + 1))

    def values_array(self, mask: int) -> np.ndarray:
        """Copy of one subset's value array (box-indexed on Z axes)."""
        if mask not in self._values:
            raise RangeError(
                f"mask {mask} out of range 1..{self._full_mask}"
            )
        return self._values[mask].copy()

    def __repr__(self) -> str:
        return (
            f"Overlay(shape={self.shape}, box_size={self.box_size}, "
            f"boxes={self.boxes_shape})"
        )
