"""Degraded reads: bounded-error answers when a shard cannot respond.

The cluster's default contract is *exact or error*: a query that spans
an unreachable shard raises :class:`~repro.errors.ClusterUnavailableError`.
Buccafurri et al. (PAPERS.md) argue the alternative for OLAP serving —
answer from coarse aggregates with an explicit error bound — and this
module supplies the aggregates and the bound.

Per shard the cluster maintains a :class:`SlabSummary`: a coarse block
grid over the slab with, per block, the **exact block total** ``T`` and
an **absolute-mass bound** ``A`` (the sum of ``|cell|`` of the seed
array plus ``|delta|`` of every acknowledged update — an upper bound on
``sum(|cells|)`` that only loosens under cancellation, never tightens
below the truth). Both are O(1) to maintain per update delta and cheap
enough to rebuild exactly at a reshard flip.

For a query sub-box over a degraded shard:

* blocks the box covers **fully** contribute ``T`` exactly;
* a block it covers **partially** contributes some sub-sum ``p``. Two
  hard facts bound ``p`` with no distributional assumption: the covered
  cells satisfy ``|p| <= A``, and the complement (also cells of the
  block) satisfies ``|T - p| <= A``. Intersecting,
  ``p ∈ [max(-A, T - A), min(A, T + A)]``.

The point estimate spreads each partial block's total by its covered
volume fraction (the uniform-spread model of the estimation
literature); the returned ``[low, high]`` interval is the *guaranteed*
hull above, padded by a relative float epsilon, so the true acked sum
always lies inside it. ``confidence`` is therefore reported as 1.0 —
these are deterministic bounds, stronger than any probabilistic level a
caller requests.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ClusterError
from repro.serve.group import UpdateGroup

#: relative padding applied to interval endpoints so float accumulation
#: error can never push the true sum outside the guaranteed hull
_EPS = 1e-9


@dataclass(frozen=True)
class RangeEstimate:
    """Provenance of one degraded (estimated) answer.

    Attributes:
        estimate: always ``True`` — the explicit marker the wire and
            router surfaces propagate.
        value: the point estimate (exact partials plus uniform-spread
            block contributions).
        low/high: guaranteed interval containing the true acked sum.
        confidence: the level the interval holds at (1.0: the bounds
            are deterministic, not sampled).
        degraded_shards: shards answered from aggregates rather than
            replicas.
        epoch: the shard-map epoch the estimate was computed under.
    """

    value: float
    low: float
    high: float
    confidence: float
    degraded_shards: Tuple[int, ...]
    epoch: int
    estimate: bool = True

    def to_wire(self) -> Dict:
        """JSON-representable form for the net protocol."""
        return {
            "estimate": True,
            "value": self.value,
            "low": self.low,
            "high": self.high,
            "confidence": self.confidence,
            "degraded_shards": list(self.degraded_shards),
            "epoch": self.epoch,
        }

    @classmethod
    def from_wire(cls, payload: Dict) -> "RangeEstimate":
        return cls(
            value=float(payload["value"]),
            low=float(payload["low"]),
            high=float(payload["high"]),
            confidence=float(payload["confidence"]),
            degraded_shards=tuple(
                int(s) for s in payload.get("degraded_shards", ())
            ),
            epoch=int(payload.get("epoch", 0)),
        )

    def contains(self, truth: float) -> bool:
        return self.low <= float(truth) <= self.high


class SlabSummary:
    """Block-grid aggregates for one shard's slab.

    Args:
        array: the slab's current dense state (copied into block sums).
        blocks_per_axis: target block count per axis (clamped to the
            axis length).
    """

    def __init__(self, array: np.ndarray, blocks_per_axis: int = 8) -> None:
        array = np.asarray(array, dtype=np.float64)
        if array.ndim < 1:
            raise ClusterError("slab summary needs an array, not a scalar")
        self.shape = array.shape
        self.edges: List[np.ndarray] = [
            np.linspace(
                0, n, min(int(n), int(blocks_per_axis)) + 1, dtype=np.intp
            )
            for n in self.shape
        ]
        sums = array
        mass = np.abs(array)
        for axis, edges in enumerate(self.edges):
            sums = np.add.reduceat(sums, edges[:-1], axis=axis)
            mass = np.add.reduceat(mass, edges[:-1], axis=axis)
        self.block_sums = np.ascontiguousarray(sums)
        self.block_mass = np.ascontiguousarray(mass)

    def apply(self, group: UpdateGroup) -> None:
        """Fold one acknowledged local update group into the blocks.

        One ``searchsorted`` per axis and one unbuffered add per grid,
        whatever the group's size: this runs on the acking thread under
        the cluster's topology lock, where every GIL-held microsecond
        risks losing the GIL to readers for ms and so lengthens the
        write ack. ``np.add.at`` adds in submission order, so the
        totals equal a cell-by-cell fold bit for bit.
        """
        if not len(group):
            return
        deltas = group.deltas.astype(np.float64)
        blocks = tuple(
            np.searchsorted(edges, group.cells[:, axis], side="right") - 1
            for axis, edges in enumerate(self.edges)
        )
        np.add.at(self.block_sums, blocks, deltas)
        np.add.at(self.block_mass, blocks, np.abs(deltas))

    def _axis_fractions(self, axis: int, lo: int, hi: int) -> np.ndarray:
        """Covered fraction of each block along ``axis`` for the
        inclusive local range ``[lo, hi]``."""
        edges = self.edges[axis]
        starts = edges[:-1].astype(np.float64)
        stops = edges[1:].astype(np.float64)
        overlap = np.minimum(stops, hi + 1) - np.maximum(starts, lo)
        return np.clip(overlap, 0.0, None) / (stops - starts)

    def estimate_box(
        self, low: Sequence[int], high: Sequence[int]
    ) -> Tuple[float, float, float]:
        """``(estimate, low, high)`` for the inclusive local box.

        ``[low, high]`` is the guaranteed hull: fully covered blocks
        contribute their exact totals; partially covered blocks
        contribute ``[max(-A, T - A), min(A, T + A)]``.
        """
        coverage = np.ones((), dtype=np.float64)
        for axis, (lo, hi) in enumerate(zip(low, high)):
            frac = self._axis_fractions(axis, int(lo), int(hi))
            shape = [1] * len(self.shape)
            shape[axis] = len(frac)
            coverage = coverage * frac.reshape(shape)
        coverage = np.broadcast_to(
            coverage, self.block_sums.shape
        )
        estimate = float(np.sum(coverage * self.block_sums))
        full = coverage >= 1.0
        partial = (coverage > 0.0) & ~full
        exact = float(np.sum(self.block_sums[full]))
        totals = self.block_sums[partial]
        mass = self.block_mass[partial]
        lo_sum = exact + float(
            np.sum(np.maximum(-mass, totals - mass))
        )
        hi_sum = exact + float(np.sum(np.minimum(mass, totals + mass)))
        pad = _EPS * (
            1.0 + abs(lo_sum) + abs(hi_sum) + float(np.sum(mass))
        )
        return estimate, lo_sum - pad, hi_sum + pad


class ShardAggregates:
    """Per-shard :class:`SlabSummary` registry for one cluster.

    Thread-safe: acked writes fold in concurrently with degraded reads,
    and a reshard flip atomically replaces migrated shards' summaries
    (rebuilt exactly from the new primaries' arrays).
    """

    def __init__(
        self,
        shardmap,
        array: Optional[np.ndarray] = None,
        *,
        blocks_per_axis: int = 8,
    ) -> None:
        self._lock = threading.Lock()
        self.blocks_per_axis = int(blocks_per_axis)
        self._summaries: Dict[int, SlabSummary] = {}
        if array is not None:
            array = np.asarray(array)
            for shard in range(shardmap.num_shards):
                self._summaries[shard] = SlabSummary(
                    shardmap.subarray(array, shard),
                    blocks_per_axis=self.blocks_per_axis,
                )

    def apply(self, shard: int, group: UpdateGroup) -> None:
        """Fold one acked local group of ``shard`` into its summary."""
        with self._lock:
            summary = self._summaries.get(int(shard))
            if summary is not None:
                summary.apply(group)

    def rebuild(self, per_shard_arrays: Dict[int, np.ndarray]) -> None:
        """Replace the summaries for a new topology, exactly.

        Called under the cluster's topology lock at a reshard flip (or
        rollback) with every shard's primary array, so post-flip
        estimates are seeded from truth rather than carried over from a
        layout that no longer exists.
        """
        fresh = {
            int(shard): SlabSummary(
                arr, blocks_per_axis=self.blocks_per_axis
            )
            for shard, arr in per_shard_arrays.items()
        }
        with self._lock:
            self._summaries = fresh

    def estimate_boxes(
        self,
        shard: int,
        lows: Sequence[Sequence[int]],
        highs: Sequence[Sequence[int]],
    ) -> np.ndarray:
        """A ``(k, 3)`` float64 array of ``(estimate, low, high)`` rows,
        one per local box of ``shard``; raises :class:`ClusterError`
        when the shard has no summary."""
        with self._lock:
            summary = self._summaries.get(int(shard))
            if summary is None:
                raise ClusterError(
                    f"no aggregates for shard {shard}: cannot estimate"
                )
            triples = [
                summary.estimate_box(lo, hi)
                for lo, hi in zip(lows, highs)
            ]
        return np.array(triples, dtype=np.float64).reshape(-1, 3)

    def shards(self) -> Tuple[int, ...]:
        with self._lock:
            return tuple(sorted(self._summaries))


__all__ = ["RangeEstimate", "ShardAggregates", "SlabSummary"]
