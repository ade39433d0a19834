"""Coarse pre-aggregated rollup cubes, versioned against snapshots.

A rollup at granularity ``g`` partitions every dimension into blocks of
``g`` cells (a ragged final block absorbs the remainder) and stores the
*prefix sums of the block totals*. That coarse prefix cube is tiny —
``prod(ceil(n_i / g))`` cells, chosen to stay cache-resident — yet it
answers **any grid-aligned box exactly** in one vectorized
inclusion–exclusion, including boxes the workload has never issued
before. This is the two-tier shape of the AppLovin exemplar (hot
patterns from pre-aggregates, general engine as fallback) adapted to
the RPS serving layer's snapshot discipline:

* a rollup is built from **one consistent snapshot** — the block totals
  come from a single batched ``query_many`` against the backend, whose
  answer is stamped with the snapshot version it read;
* the published rollup carries that stamp; the router serves from it
  only while the stamp still matches the backend's current version, and
  discards it the moment the writer publishes a newer snapshot. No
  TTLs — invalidation rides the exact version handoff.

Builds run on a background thread (:class:`RollupBuilder`) so the read
path never blocks on materialization; a failed build is counted and the
affected queries simply keep falling through to the RPS tier.
"""

from __future__ import annotations

import queue
import threading
from typing import Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.prefix import PrefixSumCube
from repro.routing.hotness import aligned_mask

#: build-queue sentinel: wakes the builder thread at close time
_STOP = object()


class RollupCube:
    """One materialized coarse rollup: block-total prefix sums.

    Args:
        granularity: block edge length ``g`` (every dimension).
        shape: the *source* cube shape the rollup aggregates.
        block_sums: dense array of per-block totals, shape
            ``ceil(n_i / g)`` per dimension.
        stamp: the snapshot version the block totals were read from.
    """

    def __init__(
        self,
        granularity: int,
        shape: Sequence[int],
        block_sums: np.ndarray,
        stamp: Hashable,
    ) -> None:
        self.granularity = int(granularity)
        self.shape = tuple(int(n) for n in shape)
        self.stamp = stamp
        blocks = np.asarray(block_sums)
        expected = tuple(
            -(-n // self.granularity) for n in self.shape
        )
        if blocks.shape != expected:
            raise ValueError(
                f"block_sums shape {blocks.shape} != expected {expected} "
                f"for shape {self.shape} at granularity {self.granularity}"
            )
        self.blocks_shape = blocks.shape
        # the coarse prefix table: Ho et al.'s prefix-sum cube over the
        # block totals, queried through its stacked-corner batch kernel
        self._blocks = PrefixSumCube(blocks)
        self.nbytes = (
            self._blocks.storage_cells() * self._blocks.dtype.itemsize
        )

    def covers_mask(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> np.ndarray:
        """Which of the ``(Q, d)`` boxes this rollup answers exactly."""
        return aligned_mask(lows, highs, self.granularity, self.shape)

    def range_sum_many(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> np.ndarray:
        """Exact sums for *aligned* ``(Q, d)`` boxes via the coarse
        prefix table (callers gate on :meth:`covers_mask` first)."""
        g = self.granularity
        # block coordinates: lo // g and ceil((hi + 1) / g) - 1; an
        # unaligned full-extent edge (hi + 1 == n) maps to the final,
        # possibly ragged block
        return self._blocks.range_sum_many(
            lows // g, -(-(highs + 1) // g) - 1
        )

    def __repr__(self) -> str:
        return (
            f"RollupCube(g={self.granularity}, blocks={self.blocks_shape}, "
            f"stamp={self.stamp!r}, nbytes={self.nbytes})"
        )


def block_boxes(
    shape: Sequence[int], granularity: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Every block's ``(low, high)`` corners, in C order of the block
    grid — the batched query that materializes one rollup."""
    g = int(granularity)
    shape = tuple(int(n) for n in shape)
    blocks = tuple(-(-n // g) for n in shape)
    coords = np.stack(
        [axis.reshape(-1) for axis in np.indices(blocks)], axis=1
    ).astype(np.intp)
    lows = coords * g
    highs = np.minimum((coords + 1) * g - 1, np.asarray(shape) - 1)
    return lows, highs


class RollupBuilder:
    """Materializes rollups on a background thread and publishes them
    atomically.

    The builder reads block totals through the backend's own batched
    query path, so every rollup is built from one consistent snapshot
    per shard and inherits its exact version stamp. Publication is a
    single dict swap under a lock; the router's freshness gate (stamp ==
    current version) does the discarding, and :meth:`discard_stale`
    lets it drop superseded rollups eagerly.

    Args:
        backend: any router backend (``query_many(lows, highs) ->
            (values, stamp)`` plus ``shape``).
        metrics: the router's registry (see
            :class:`~repro.routing.router.TierMetrics`); the builder
            bumps its ``rollup_*`` counters.
        max_rollups: most granularities kept published at once (the
            coarsest — smallest — survive a trim).
    """

    def __init__(self, backend, metrics, *, max_rollups: int = 4) -> None:
        self._backend = backend
        self._metrics = metrics
        self._max_rollups = int(max_rollups)
        self._lock = threading.Lock()
        self._published: Dict[int, RollupCube] = {}
        self._pending: set = set()
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._closed = False
        self._thread = threading.Thread(
            target=self._loop, name="rollup-builder", daemon=True
        )
        self._thread.start()

    # -- the read side -------------------------------------------------------

    def get(self, granularity: int) -> Optional[RollupCube]:
        """The published rollup at ``granularity`` (any stamp), or None."""
        with self._lock:
            return self._published.get(int(granularity))

    def published(self) -> Dict[int, RollupCube]:
        """Snapshot of every published rollup, coarsest first."""
        with self._lock:
            return dict(
                sorted(self._published.items(), key=lambda kv: -kv[0])
            )

    # -- the build side ------------------------------------------------------

    def request(self, granularity: int) -> bool:
        """Enqueue a background build (deduplicated); True if enqueued."""
        g = int(granularity)
        with self._lock:
            if self._closed or g in self._pending:
                return False
            self._pending.add(g)
        self._queue.put(g)
        return True

    def build_now(self, granularity: int) -> Optional[RollupCube]:
        """Build and publish synchronously; None on a failed build.

        The deterministic entry point tests, benchmarks, and the CLI's
        warm-up path use — the background thread exists so the *serving*
        path never pays this.
        """
        g = int(granularity)
        try:
            rollup = self._build(g)
        except Exception:
            self._metrics.inc(rollup_build_failures=1)
            return None
        self._publish(rollup)
        return rollup

    def _build(self, granularity: int) -> RollupCube:
        lows, highs = block_boxes(self._backend.shape, granularity)
        values, stamp = self._backend.query_many(lows, highs)
        blocks = np.asarray(values).reshape(
            tuple(-(-n // granularity) for n in self._backend.shape)
        )
        return RollupCube(granularity, self._backend.shape, blocks, stamp)

    def _publish(self, rollup: RollupCube) -> None:
        trimmed = 0
        with self._lock:
            self._published[rollup.granularity] = rollup
            while len(self._published) > self._max_rollups:
                finest = min(self._published)
                del self._published[finest]
                trimmed += 1
        self._metrics.inc(rollup_builds=1, rollup_discards=trimmed)

    def discard_stale(self, stamp: Hashable) -> int:
        """Drop every published rollup whose stamp is not ``stamp``."""
        dropped = 0
        with self._lock:
            for g in [
                g
                for g, rollup in self._published.items()
                if rollup.stamp != stamp
            ]:
                del self._published[g]
                dropped += 1
        self._metrics.inc(
            rollup_stale_rejects=dropped, rollup_discards=dropped
        )
        return dropped

    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            try:
                rollup = self._build(item)
            except Exception:
                # degrade, never propagate: the router keeps answering
                # from the RPS tier and the failure is visible in stats
                self._metrics.inc(rollup_build_failures=1)
                continue
            finally:
                with self._lock:
                    self._pending.discard(item)
            self._publish(rollup)

    def close(self, timeout: float = 10.0) -> None:
        """Stop the builder thread (published rollups stay readable)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(_STOP)
        self._thread.join(timeout)

    def stats(self) -> Dict:
        with self._lock:
            return {
                "published": {
                    g: {"stamp": r.stamp, "nbytes": r.nbytes}
                    for g, r in sorted(self._published.items())
                },
                "pending_builds": len(self._pending),
            }
