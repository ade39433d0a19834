"""Adaptive query routing: cache -> rollup -> RPS, snapshot-exact.

The two-tier serving front from the ISSUE: a
:class:`~repro.routing.router.QueryRouter` answers each box query from
the cheapest tier that is exact at the current snapshot version —
memoized results (:class:`~repro.routing.cache.ResultCache`), coarse
pre-aggregated rollups (:class:`~repro.routing.rollup.RollupCube`,
materialized in the background by
:class:`~repro.routing.rollup.RollupBuilder` for patterns the
:class:`~repro.routing.hotness.HotPatternTracker` learns are hot), or
the backing RPS service/cluster itself. Invalidation is exact and
TTL-free: every cached artifact carries the snapshot version it was
computed from, and is served only while that stamp matches the
backend's current version.
"""

from repro.routing.cache import HIT, MISS, STALE, ResultCache
from repro.routing.hotness import (
    HotPatternTracker,
    aligned_mask,
    default_granularities,
)
from repro.routing.rollup import RollupBuilder, RollupCube, block_boxes
from repro.routing.router import (
    TIER_CACHE,
    TIER_ROLLUP,
    TIER_RPS,
    ClusterBackend,
    QueryRouter,
    RoutedBatch,
    ServiceBackend,
    TierMetrics,
    wrap_backend,
)

__all__ = [
    "HIT",
    "MISS",
    "STALE",
    "TIER_CACHE",
    "TIER_ROLLUP",
    "TIER_RPS",
    "ClusterBackend",
    "HotPatternTracker",
    "QueryRouter",
    "ResultCache",
    "RollupBuilder",
    "RollupCube",
    "RoutedBatch",
    "ServiceBackend",
    "TierMetrics",
    "aligned_mask",
    "block_boxes",
    "default_granularities",
    "wrap_backend",
]
