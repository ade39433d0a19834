"""Partitioning a cube across shards along its leading dimension.

Szépkúti's OLAP-organization survey names range partitioning along one
dimension as the standard path to scaling a cube past one node; the
leading dimension is the natural choice here because every structure in
this library stores the cube C-contiguously, so a leading-axis slab is
one contiguous block of the source array.

A :class:`ShardMap` owns the routing math and nothing else:

* **updates** — a cell belongs to exactly one shard. Every write path
  (:meth:`ShardMap.split_updates`, the reshard mirror, the ingest
  cluster target) routes a whole group with :func:`slab_rows`, keeping
  submission order within each shard;
* **queries** — an inclusive query box may straddle shard boundaries;
  :meth:`ShardMap.split_boxes` cuts a whole ``(Q, d)`` batch of boxes
  into at most one *local* sub-box per box and shard, with array ops
  only: the batch is validated once, each box's first and last shard
  come from one ``searchsorted`` on the slab starts, and each touched
  shard takes its boxes with one mask and clips axis 0 to its slab.
  Because the slabs are disjoint and cover the axis, the exact sum over
  the original box equals the sum of the per-shard partial sums. No
  approximation anywhere — the split is pure index arithmetic.

Local coordinates: shard ``s`` owning rows ``[start, stop)`` of axis 0
sees the global cell ``(c0, c1, ..)`` as ``(c0 - start, c1, ..)``; all
other axes pass through unchanged.

Maps are immutable; elastic resharding replaces the whole map. Every
map carries a monotonically increasing ``epoch`` identifying the slab
layout it describes: :meth:`ShardMap.split_shard` /
:meth:`ShardMap.merge_shards` derive the successor layout at
``epoch + 1``, and the cluster stamps the epoch into version vectors,
``stats()``, and wire responses so any answer (or cache entry) is
fenced to the exact layout it was computed under.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.indexing import normalize_range_batch
from repro.errors import ClusterError, DimensionError, RangeError
from repro.serve.group import UpdateGroup

#: ``(shard, query_idx, local_lows, local_highs)``: the ascending batch
#: rows that touch ``shard`` and their ``(k, d)`` local sub-boxes.
BatchSplit = Tuple[int, np.ndarray, np.ndarray, np.ndarray]


class ShardMap:
    """Contiguous, near-equal slabs of the leading dimension.

    Args:
        shape: the full cube's shape.
        num_shards: how many slabs to cut axis 0 into; must not exceed
            the axis length (every shard owns at least one row).
        epoch: the layout generation this map describes (0 for a map
            built at cluster construction; resharding derives
            successors at strictly larger epochs).
    """

    def __init__(
        self, shape: Sequence[int], num_shards: int, *, epoch: int = 0
    ) -> None:
        self.shape = tuple(int(n) for n in shape)
        if not self.shape or any(n <= 0 for n in self.shape):
            raise ClusterError(f"invalid cube shape {self.shape}")
        self.num_shards = int(num_shards)
        if not 1 <= self.num_shards <= self.shape[0]:
            raise ClusterError(
                f"num_shards must be in [1, {self.shape[0]}] for shape "
                f"{self.shape}, got {num_shards}"
            )
        # near-equal slabs: the first (n % shards) slabs get one extra row
        edges = np.linspace(
            0, self.shape[0], self.num_shards + 1, dtype=np.intp
        )
        self.bounds: Tuple[Tuple[int, int], ...] = tuple(
            (int(edges[i]), int(edges[i + 1]))
            for i in range(self.num_shards)
        )
        self._starts = np.array(
            [start for start, _ in self.bounds], dtype=np.intp
        )
        self.epoch = self._check_epoch(epoch)

    @staticmethod
    def _check_epoch(epoch) -> int:
        epoch = int(epoch)
        if epoch < 0:
            raise ClusterError(f"epoch must be >= 0, got {epoch}")
        return epoch

    @classmethod
    def from_bounds(
        cls,
        shape: Sequence[int],
        bounds: Sequence[Sequence[int]],
        *,
        epoch: int = 0,
    ) -> "ShardMap":
        """Build a map from an explicit slab layout.

        ``bounds`` must be contiguous ``[start, stop)`` slabs covering
        axis 0 exactly — the shape every split/merge migration plans.
        """
        shape = tuple(int(n) for n in shape)
        if not shape or any(n <= 0 for n in shape):
            raise ClusterError(f"invalid cube shape {shape}")
        slabs = tuple((int(a), int(b)) for a, b in bounds)
        if not slabs:
            raise ClusterError("bounds must name at least one slab")
        if slabs[0][0] != 0 or slabs[-1][1] != shape[0]:
            raise ClusterError(
                f"bounds {slabs} do not cover axis 0 of length {shape[0]}"
            )
        for i, (start, stop) in enumerate(slabs):
            if stop <= start:
                raise ClusterError(f"empty slab {(start, stop)} at {i}")
            if i and start != slabs[i - 1][1]:
                raise ClusterError(
                    f"bounds are not contiguous at slab {i}: "
                    f"{slabs[i - 1]} then {(start, stop)}"
                )
        shard_map = cls.__new__(cls)
        shard_map.shape = shape
        shard_map.num_shards = len(slabs)
        shard_map.bounds = slabs
        shard_map._starts = np.array(
            [start for start, _ in slabs], dtype=np.intp
        )
        shard_map.epoch = cls._check_epoch(epoch)
        return shard_map

    # -- elastic layout derivation -------------------------------------------

    def split_shard(
        self, shard: int, at_row: int = None
    ) -> "ShardMap":
        """The successor layout with ``shard`` cut in two at ``at_row``
        (global row; defaults to the slab midpoint). Epoch advances."""
        start, stop = self.bounds[shard]
        if stop - start < 2:
            raise ClusterError(
                f"shard {shard} owns a single row {start}: cannot split"
            )
        if at_row is None:
            at_row = (start + stop) // 2
        at_row = int(at_row)
        if not start < at_row < stop:
            raise ClusterError(
                f"split row {at_row} must fall strictly inside shard "
                f"{shard}'s rows [{start}, {stop})"
            )
        new_bounds = (
            self.bounds[:shard]
            + ((start, at_row), (at_row, stop))
            + self.bounds[shard + 1:]
        )
        return ShardMap.from_bounds(
            self.shape, new_bounds, epoch=self.epoch + 1
        )

    def merge_shards(self, shard: int) -> "ShardMap":
        """The successor layout with ``shard`` and ``shard + 1`` fused
        into one slab. Epoch advances."""
        if not 0 <= shard < self.num_shards - 1:
            raise ClusterError(
                f"merge needs adjacent shards {shard} and {shard + 1}; "
                f"map has {self.num_shards} shards"
            )
        fused = (self.bounds[shard][0], self.bounds[shard + 1][1])
        new_bounds = (
            self.bounds[:shard] + (fused,) + self.bounds[shard + 2:]
        )
        return ShardMap.from_bounds(
            self.shape, new_bounds, epoch=self.epoch + 1
        )

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def slab(self, shard: int) -> Tuple[int, int]:
        """``[start, stop)`` rows of axis 0 owned by ``shard``."""
        return self.bounds[shard]

    def shard_shape(self, shard: int) -> Tuple[int, ...]:
        """The local shape of ``shard``'s slab."""
        start, stop = self.bounds[shard]
        return (stop - start,) + self.shape[1:]

    def subarray(self, array: np.ndarray, shard: int) -> np.ndarray:
        """Copy out ``shard``'s slab of a full-cube array."""
        array = np.asarray(array)
        if array.shape != self.shape:
            raise ClusterError(
                f"array shape {array.shape} != cube shape {self.shape}"
            )
        start, stop = self.bounds[shard]
        return array[start:stop].copy()

    def shard_of(self, cell: Sequence[int]) -> int:
        """The shard owning ``cell`` (validates all coordinates)."""
        group = UpdateGroup.of([(cell, 0)], self.ndim)
        (shard,) = self.rows_by_shard(group)
        return shard

    def rows_by_shard(self, group: UpdateGroup) -> Dict[int, np.ndarray]:
        """``{shard: ascending row indices}`` of a write group's cells
        (:func:`slab_rows` on this map's slabs), after checking every
        cell: nothing is routed unless the whole group fits the cube.

        Raises:
            RangeError: naming the first cell, in submission order, of
                the wrong arity or out of bounds.
        """
        cells = group.cells
        if len(cells) and cells.shape[1] != self.ndim:
            raise RangeError(
                f"cell {tuple(cells[0].tolist())} has {cells.shape[1]} "
                f"coordinates, cube has {self.ndim}"
            )
        bad = (cells < 0) | (cells >= np.asarray(self.shape))
        if bad.any():
            row, axis = map(int, np.argwhere(bad)[0])
            raise RangeError(
                f"cell {tuple(cells[row].tolist())} out of bounds on axis "
                f"{axis} (size {self.shape[axis]})"
            )
        return slab_rows(cells, self._starts)

    def split_boxes(self, lows, highs) -> List[BatchSplit]:
        """Cut a batch of inclusive query boxes into per-shard sub-boxes.

        ``lows`` and ``highs`` are ``(Q, d)`` integer arrays or lists
        of coordinate tuples. Returns ``[(shard, query_idx, local_lows,
        local_highs), ...]`` in ascending shard order, one entry per
        shard that some box touches. ``query_idx`` holds the ascending
        batch rows touching ``shard`` (no repeats), and the local boxes
        cover each box's rows in that slab exactly once: summing the
        shards' partial range sums per row yields the global answers
        with no overlap and no gap.

        Raises:
            RangeError: if any box is inverted, out of bounds or of the
                wrong arity, before any piece is cut.
        """
        try:
            low, high = normalize_range_batch(lows, highs, self.shape)
        except (DimensionError, ValueError) as error:
            # ValueError: ragged rows numpy cannot stack into (Q, d)
            raise RangeError(
                f"query boxes do not match cube arity {self.ndim}: "
                f"{error}"
            ) from None
        if not len(low):
            return []
        first = np.searchsorted(self._starts, low[:, 0], side="right") - 1
        last = np.searchsorted(self._starts, high[:, 0], side="right") - 1
        pieces: List[BatchSplit] = []
        for shard in range(int(first.min()), int(last.max()) + 1):
            idx = np.flatnonzero((first <= shard) & (last >= shard))
            if not len(idx):
                continue
            start, stop = self.bounds[shard]
            local_low = low[idx]
            local_high = high[idx]
            local_low[:, 0] = np.maximum(local_low[:, 0], start) - start
            local_high[:, 0] = np.minimum(local_high[:, 0], stop - 1) - start
            pieces.append((shard, idx, local_low, local_high))
        return pieces

    def split_updates(
        self, updates: Iterable[Tuple[Sequence[int], object]]
    ) -> Dict[int, UpdateGroup]:
        """Cut one write group (an ``UpdateGroup`` or pairs, converted
        once) into ``{shard: local UpdateGroup}``, each in submission
        order. Raises :class:`RangeError` as :meth:`rows_by_shard`
        (ragged pairs too) before anything is cut."""
        try:
            group = UpdateGroup.of(updates, self.ndim)
        except ValueError as error:
            raise RangeError(str(error)) from None
        return {
            shard: localize(group, rows, self.bounds[shard][0])
            for shard, rows in self.rows_by_shard(group).items()
        }

    def describe(self) -> Dict:
        """Routing table as a plain dict (for ``stats()`` and docs)."""
        return {
            "shape": list(self.shape),
            "num_shards": self.num_shards,
            "bounds": [list(b) for b in self.bounds],
            "epoch": self.epoch,
        }

    def __repr__(self) -> str:
        return (
            f"ShardMap(shape={self.shape}, num_shards={self.num_shards}, "
            f"bounds={self.bounds}, epoch={self.epoch})"
        )


def slab_rows(cells: np.ndarray, starts: np.ndarray) -> Dict[int, np.ndarray]:
    """``{slab: ascending row indices}`` of an ``(n, d)`` cell batch,
    slabs ascending, for contiguous slabs starting at ``starts`` along
    axis 0: one ``searchsorted``, then one mask per touched slab. A row
    below ``starts[0]`` lands in slab ``-1``; bounds are the caller's."""
    if not len(cells):
        return {}
    owner = np.searchsorted(starts, cells[:, 0], side="right") - 1
    pieces = {}
    for slab in range(int(owner.min()), int(owner.max()) + 1):
        rows = np.flatnonzero(owner == slab)
        if len(rows):
            pieces[slab] = rows
    return pieces


def localize(group: UpdateGroup, rows: np.ndarray, start: int) -> UpdateGroup:
    """Rows ``rows`` of ``group`` shifted into the slab starting at
    ``start``, as fresh arrays (a submitted group is kept by reference,
    so a sub-group must never be a view into the caller's)."""
    cells = group.cells[rows]
    cells[:, 0] -= start
    return UpdateGroup(cells, group.deltas[rows])
