"""Learning which box shapes a workload repeats.

Dashboards do not ask random questions: the same "last 7 days x all
regions" boxes arrive millions of times, and almost all of them are
*aligned* — their edges sit on calendar/bucket boundaries. The tracker
exploits that structure two ways:

* a bounded **hot-box counter** (space-saving style: when the table is
  full, the new box takes over the minimum-count slot and inherits its
  count) names the top repeated exact boxes — what the result cache
  will be serving;
* per-**granularity alignment counters** over a small ladder of grid
  sizes decide when a coarse pre-aggregated rollup would pay for
  itself: once enough traffic is aligned to grid ``g``, the
  :class:`~repro.routing.rollup.RollupBuilder` materializes the
  ``g``-granular rollup and every aligned box — including ones never
  seen before — is answered from it.

Everything is counter-based and O(ladder + 1) per observed box, so the
tracker can sit on the hot read path.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


def default_granularities(
    shape: Sequence[int], max_levels: int = 4
) -> Tuple[int, ...]:
    """A descending power-of-two grid ladder for ``shape``.

    Starts at half the smallest dimension and halves down to 2, keeping
    at most ``max_levels`` levels — coarse grids first, because a
    coarser rollup is smaller (cache-resident, cheaper to build) and a
    box aligned to a coarse grid is aligned to every finer power-of-two
    grid below it.
    """
    smallest = min(int(n) for n in shape)
    ladder: List[int] = []
    g = 1
    while 2 * g <= smallest:
        g *= 2
    # g is the largest power of two <= smallest; start one level down so
    # a rollup always has at least two blocks per dimension
    g //= 2
    while g >= 2 and len(ladder) < max_levels:
        ladder.append(g)
        g //= 2
    return tuple(ladder)


def aligned_mask(
    lows: np.ndarray,
    highs: np.ndarray,
    granularity,
    shape: Sequence[int],
) -> np.ndarray:
    """Boolean mask of boxes whose edges all sit on the ``g`` grid.

    A box is aligned when every ``low`` is a multiple of ``g`` and every
    exclusive ``high + 1`` is a multiple of ``g`` *or* the full extent
    of its dimension (so "all of axis k" stays aligned even when ``g``
    does not divide ``n_k``).

    ``granularity`` is one grid size (the mask has shape ``(Q,)``) or a
    sequence of ``G`` sizes tested in one broadcast (shape ``(G, Q)``).
    """
    g = np.asarray(granularity, dtype=np.intp)[..., None, None]
    d = len(shape)
    # contiguous axis-major (2d, Q) edges: every pass runs along Q
    edges = np.ascontiguousarray(np.concatenate((lows, highs + 1), axis=1).T)
    on_grid = edges % g == 0
    on_grid[..., d:, :] |= edges[d:] == np.asarray(shape)[:, None]
    return on_grid.all(axis=-2)


class HotPatternTracker:
    """Counts normalized box signatures to find cacheable patterns.

    Args:
        shape: the cube shape (alignment needs dimension extents).
        granularities: the grid ladder to test alignment against
            (defaults to :func:`default_granularities`).
        hot_min_count: a granularity is *hot* once this many aligned
            boxes were observed...
        hot_min_fraction: ...and they make up at least this fraction of
            all observed boxes.
        max_boxes: bound on the exact-box counter table.
        sample_per_batch: at most this many boxes per observed batch
            feed the exact-box counter (stride-sampled). Alignment
            counters — the ones that gate rollup builds — always see
            the whole batch (they are vectorized); the per-box table is
            reporting-only, and sampling keeps the tracker off the hot
            read path's critical loop.
    """

    def __init__(
        self,
        shape: Sequence[int],
        *,
        granularities: Optional[Sequence[int]] = None,
        hot_min_count: int = 64,
        hot_min_fraction: float = 0.05,
        max_boxes: int = 4096,
        sample_per_batch: int = 128,
    ) -> None:
        self.shape = tuple(int(n) for n in shape)
        if granularities is None:
            granularities = default_granularities(self.shape)
        self.granularities = tuple(
            sorted({int(g) for g in granularities}, reverse=True)
        )
        for g in self.granularities:
            if g < 2:
                raise ValueError(f"granularity must be >= 2, got {g}")
        self.hot_min_count = int(hot_min_count)
        self.hot_min_fraction = float(hot_min_fraction)
        self.max_boxes = int(max_boxes)
        self.sample_per_batch = int(sample_per_batch)
        self._lock = threading.Lock()
        self._observed = 0
        self._aligned_counts: Dict[int, int] = {
            g: 0 for g in self.granularities
        }
        self._box_counts: Dict[bytes, int] = {}
        self._last_sample = None

    def observe_many(self, lows: np.ndarray, highs: np.ndarray) -> None:
        """Fold one batch of (validated ``(Q, d)``) boxes into the
        counters.

        Batches beyond ``sample_per_batch`` are stride-sampled first and
        the aligned counts scaled back up, so one observation is O(the
        sample) no matter how large the page — the tracker sits on the
        hot read path and estimates are all admission needs.
        """
        q = len(lows)
        if not q:
            return
        scale = 1
        if q > self.sample_per_batch:
            step = q // self.sample_per_batch
            lows = lows[::step]
            highs = highs[::step]
            scale = q / len(lows)
        # one (Q, 2d) buffer of the sampled (lo, hi) rows: its bytes
        # identify the sample, and a row-sized void view of it makes the
        # raw-bytes box keys in C (the inputs are normalized intp rows)
        rows = np.concatenate((lows, highs), axis=1)
        sample = rows.tobytes()
        last = self._last_sample
        if last is not None and last[0] == sample:
            # the same sample as the last observation (a re-sent page):
            # its aligned counts and keys are already known
            counts, keys = last[1], last[2]
        else:
            counts = aligned_mask(
                lows, highs, self.granularities, self.shape
            ).sum(axis=1).tolist()
            row_type = np.dtype((np.void, rows.shape[1] * rows.itemsize))
            keys = rows.view(row_type).ravel().tolist()
            # one tuple, swapped in whole: a concurrent observer never
            # pairs one sample with another's counts
            self._last_sample = (sample, counts, keys)
        with self._lock:
            self._observed += q
            for g, count in zip(self.granularities, counts):
                self._aligned_counts[g] += int(round(scale * count))
            for key in keys:
                slot = self._box_counts.get(key)
                if slot is not None:
                    self._box_counts[key] = slot + 1
                elif len(self._box_counts) < self.max_boxes:
                    self._box_counts[key] = 1
                else:
                    # space-saving takeover: the newcomer claims the
                    # minimum slot and inherits its count (overestimates
                    # never lose a truly hot box, which is the side that
                    # matters for cache admission)
                    victim = min(self._box_counts, key=self._box_counts.get)
                    count = self._box_counts.pop(victim)
                    self._box_counts[key] = count + 1

    def hot_granularities(self) -> Tuple[int, ...]:
        """Grid sizes whose aligned traffic passes both thresholds,
        coarsest first."""
        with self._lock:
            observed = self._observed
            if not observed:
                return ()
            return tuple(
                g
                for g in self.granularities
                if self._aligned_counts[g] >= self.hot_min_count
                and self._aligned_counts[g] / observed
                >= self.hot_min_fraction
            )

    def top_boxes(self, k: int = 10) -> List[Tuple[Tuple, int]]:
        """The ``k`` most-repeated exact boxes as ``((lo, hi), count)``."""
        with self._lock:
            ranked = sorted(
                self._box_counts.items(), key=lambda item: -item[1]
            )
        top = []
        for key, count in ranked[: int(k)]:
            row = np.frombuffer(key, dtype=np.intp).tolist()
            half = len(row) // 2
            top.append(((tuple(row[:half]), tuple(row[half:])), count))
        return top

    def stats(self) -> Dict:
        """Observation totals and per-granularity alignment counts."""
        with self._lock:
            return {
                "observed": self._observed,
                "aligned_counts": dict(self._aligned_counts),
                "tracked_boxes": len(self._box_counts),
                "granularities": list(self.granularities),
            }

    def __repr__(self) -> str:
        return (
            f"HotPatternTracker(observed={self._observed}, "
            f"granularities={list(self.granularities)})"
        )
