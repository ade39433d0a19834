"""Query routing: cache -> RPS, snapshot-exact.

A :class:`~repro.routing.router.QueryRouter` answers each box query
from the cheapest tier that is exact at the current snapshot version:
memoized results (:class:`~repro.routing.cache.ResultCache`), or the
backing RPS service/cluster itself, which answers any box with a fixed
handful of cell reads per corner. Invalidation is exact and TTL-free:
every cached result carries the snapshot version it was computed from,
and is served only while that stamp matches the backend's current
version.
"""

from repro.routing.cache import HIT, MISS, STALE, ResultCache
from repro.routing.router import (
    TIER_CACHE,
    TIER_RPS,
    QueryRouter,
    RoutedBatch,
    TierMetrics,
)

__all__ = [
    "HIT",
    "MISS",
    "STALE",
    "TIER_CACHE",
    "TIER_RPS",
    "QueryRouter",
    "ResultCache",
    "RoutedBatch",
    "TierMetrics",
]
