"""The two-tier adaptive query router: cache -> rollup -> RPS.

:class:`QueryRouter` sits in front of a
:class:`~repro.serve.CubeService` (or a
:class:`~repro.cluster.CubeCluster`) and answers each box query from
the cheapest tier that can answer it **exactly**:

1. **Result cache** — memoized sums keyed by the box *and* the snapshot
   version that produced them (:class:`~repro.routing.cache.ResultCache`),
   with a whole-batch memo on top so a repeated dashboard page costs
   one dictionary lookup. Writes invalidate precisely through the
   serving layer's version handoff: a new snapshot version simply never
   matches an old entry, and the mismatch is counted as a stale reject.
2. **Rollup** — coarse pre-aggregated prefix cubes
   (:class:`~repro.routing.rollup.RollupCube`) materialized on a
   background thread for grid granularities the
   :class:`~repro.routing.hotness.HotPatternTracker` has learned are
   hot. A rollup answers *any* aligned box, seen before or not, and is
   discarded the moment its build stamp stops matching the current
   snapshot version.
3. **RPS fallback** — the backend itself, which is already exact for
   everything.

The correctness contract — the one the property suite enforces — is
that every answer is stamped with the snapshot version(s) it was
computed from, and **the value always equals the single-snapshot oracle
at that stamp**, no matter which tier served it or how reads interleave
with the write stream. Freshness (never serving below the last flushed
version) is a separate gate: cached values are served only while their
stamp equals the backend's *current* version.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core import indexing
from repro.deadline import Deadline
from repro.metrics.registry import MetricsRegistry
from repro.routing.cache import HIT, MISS, STALE, ResultCache
from repro.routing.hotness import HotPatternTracker
from repro.routing.rollup import RollupBuilder

#: tier labels stamped on every routed answer
TIER_CACHE = "cache"
TIER_ROLLUP = "rollup"
TIER_RPS = "rps"

#: batches larger than this skip the per-box cache tier: per-box lookups
#: and fills are Python-loop priced, and a large repeated page is served
#: wholesale by the batch memo anyway
PER_BOX_CACHE_MAX_BATCH = 512


def _is_row_batch(lows, highs, d: int) -> bool:
    """True for a ``(Q, d)`` pair of C-contiguous ``intp`` arrays — the
    form :func:`~repro.core.indexing.normalize_range_batch` returns, so
    its bytes alone identify a validated batch."""
    return (
        type(lows) is np.ndarray
        and type(highs) is np.ndarray
        and lows.dtype == np.intp
        and highs.dtype == np.intp
        and lows.ndim == 2
        and lows.shape == highs.shape
        and lows.shape[1] == d
        and lows.flags.c_contiguous
        and highs.flags.c_contiguous
    )


def _assign_object(array: np.ndarray, idx, obj) -> None:
    """Broadcast one object (even a tuple) into ``array[idx]`` slots —
    a bare ``array[idx] = obj`` would splat a tuple element-wise."""
    boxed = np.empty((), dtype=object)
    boxed[()] = obj
    array[idx] = boxed


class RoutedBatch:
    """One routed batch: values plus per-query provenance.

    Attributes:
        values: length-Q array of sums (exact unless the matching
            ``estimates`` slot is set).
        stamps: per-query snapshot stamp the value was computed from —
            an ``int`` service version, or an ``(epoch, *versions)``
            tuple for cluster backends, fencing the answer to the
            shard-map epoch it was read under.
        tiers: per-query serving tier (``"cache"``/``"rollup"``/``"rps"``).
        estimates: per-query :class:`~repro.cluster.degraded.RangeEstimate`
            for degraded answers, ``None`` for exact ones. Estimated
            answers are never cached — the slot and its marker exist
            only on the batch that computed them.
    """

    __slots__ = ("values", "_stamps", "_tiers", "_estimates", "_source")

    def __init__(self, values, stamps, tiers, estimates=None) -> None:
        self.values = values
        self._stamps = tuple(stamps)
        self._tiers = tuple(tiers)
        self._estimates = None if estimates is None else tuple(estimates)
        self._source = None

    @classmethod
    def uniform(cls, values, stamp, tier) -> "RoutedBatch":
        """An exact batch one tier answered at one stamp (a batch-memo
        hit). Its per-query tuples are built on first read, so a caller
        that wants only the values (:meth:`QueryRouter.range_sum_many`)
        never pays for them."""
        batch = cls.__new__(cls)
        batch.values = values
        batch._stamps = batch._tiers = batch._estimates = None
        batch._source = (stamp, tier)
        return batch

    @property
    def stamps(self) -> tuple:
        if self._stamps is None:
            self._stamps = (self._source[0],) * len(self.values)
        return self._stamps

    @property
    def tiers(self) -> tuple:
        if self._tiers is None:
            self._tiers = (self._source[1],) * len(self.values)
        return self._tiers

    @property
    def estimates(self) -> tuple:
        if self._estimates is None:
            self._estimates = (None,) * len(self.values)
        return self._estimates

    def __repr__(self) -> str:
        return (
            f"RoutedBatch(q={len(self.stamps)}, "
            f"tiers={dict(zip(*np.unique(self.tiers, return_counts=True)))})"
        )


class ServiceBackend:
    """Adapts one :class:`~repro.serve.CubeService` to the router.

    The stamp is the service's snapshot version (applied update
    groups): an ``int`` that the double-buffered writer bumps atomically
    with every publish — exactly the handoff the cache keys on.
    """

    def __init__(self, service) -> None:
        self.service = service
        self.shape = service.shape

    def current_stamp(self) -> int:
        return self.service.version

    def query_many(
        self, lows, highs, deadline: Optional[Deadline] = None
    ) -> Tuple[np.ndarray, int]:
        if deadline is not None:
            deadline.check("routed read")
        return self.service.query_many(lows, highs)

    def submit_batch(
        self,
        updates,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ):
        if deadline is not None:
            timeout = deadline.bound(timeout)
        return self.service.submit_batch(updates, timeout=timeout)

    def flush(self, timeout: Optional[float] = None):
        return self.service.flush(timeout=timeout)

    def stats(self) -> Dict:
        return self.service.stats()


class ClusterBackend:
    """Adapts one :class:`~repro.cluster.CubeCluster` to the router.

    The stamp is ``(epoch, *version_vector)``: the shard-map epoch
    followed by the per-shard version vector. A batched read answers
    each involved shard from one snapshot; the returned stamp records
    that observed version per involved shard and the last acked version
    for the rest, so a query's stamped entry is exact for every shard
    the query actually touches. The epoch prefix fences every cached
    answer to the layout it was read under — after a live reshard flips
    the map, no entry stamped under the old epoch can ever match again,
    even if the per-shard numbers coincide.
    """

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.shape = cluster.shape

    def current_stamp(self) -> Tuple[int, ...]:
        stamp = getattr(self.cluster, "stamp", None)
        if stamp is not None:
            return stamp()
        return (0, *self.cluster.version_vector())

    def _stamp_from_receipt(self, receipt) -> Tuple[int, ...]:
        """Fold a read receipt's observed versions into the live
        vector, under the receipt's epoch."""
        epoch = receipt["epoch"]
        _, *vector = self.current_stamp()
        for shard, version in receipt["versions"].items():
            if shard < len(vector):
                vector[shard] = version
        return (epoch, *vector)

    def query_many(
        self, lows, highs, deadline: Optional[Deadline] = None
    ) -> Tuple[np.ndarray, Tuple[int, ...]]:
        values, receipt = self.cluster.range_sum_many(
            lows, highs, deadline=deadline, return_shard_versions=True
        )
        return values, self._stamp_from_receipt(receipt)

    def query_many_estimated(
        self, lows, highs, deadline: Optional[Deadline] = None
    ):
        """Batched read that may answer degraded shards from aggregates.

        Returns ``(values, estimates, stamp)`` where ``estimates[i]``
        is a :class:`~repro.cluster.degraded.RangeEstimate` when slot
        ``i`` is degraded, else ``None``.
        """
        values, estimates, receipt = self.cluster.range_sum_many(
            lows, highs, deadline=deadline,
            allow_estimate=True, return_shard_versions=True,
        )
        return values, estimates, self._stamp_from_receipt(receipt)

    def submit_batch(
        self,
        updates,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ):
        return self.cluster.submit_batch(
            updates, timeout=timeout, deadline=deadline
        )

    def flush(self, timeout: Optional[float] = None):
        return self.cluster.flush(timeout=timeout)

    def stats(self) -> Dict:
        return self.cluster.stats()


def wrap_backend(backend):
    """Coerce a service/cluster (or a ready adapter) to the backend
    protocol the router speaks."""
    if hasattr(backend, "current_stamp"):
        return backend
    if hasattr(backend, "version_vector") or hasattr(backend, "shardmap"):
        return ClusterBackend(backend)
    return ServiceBackend(backend)


class TierMetrics(MetricsRegistry):
    """The router's registry: per-tier counters and latencies.

    Units are individual box queries. A stale reject is an entry or
    rollup found but refused because the snapshot version moved on
    (each one is a precisely-invalidated write). ``route_latency`` times
    whole routed calls (a call may carry a batch); ``backend_latency``
    times the fallback reads that reached the RPS service/cluster.
    """

    def __init__(self) -> None:
        super().__init__(
            counters=(
                "queries_routed", "cache_hits", "batch_hits", "rollup_hits",
                "backend_queries", "cache_stale_rejects",
                "batch_stale_rejects", "rollup_stale_rejects",
                "rollup_builds", "rollup_build_failures", "rollup_discards",
                "deadline_exceeded",
            ),
            latencies=("route_latency", "backend_latency"),
        )

    def snapshot(self) -> Dict:
        """All tallies plus each tier's share of the queries served."""
        report = super().snapshot()
        cached = report["cache_hits"] + report["batch_hits"]
        served = cached + report["rollup_hits"] + report["backend_queries"]
        report.update(
            cache_hit_rate=cached / served if served else 0.0,
            rollup_hit_rate=report["rollup_hits"] / served if served else 0.0,
            backend_rate=(
                report["backend_queries"] / served if served else 0.0
            ),
        )
        return report


class QueryRouter:
    """Route each box query cache -> rollup -> RPS, exactly.

    Args:
        backend: a :class:`~repro.serve.CubeService`,
            :class:`~repro.cluster.CubeCluster`, or backend adapter.
        enable_cache: serve/populate the memoized result tier.
        enable_rollup: learn hot patterns and serve from rollups.
        cache: a pre-built :class:`~repro.routing.cache.ResultCache`
            (defaults to 64 MiB / 64 Ki entries).
        tracker: a pre-built
            :class:`~repro.routing.hotness.HotPatternTracker`.
        auto_build: request background rollup builds for granularities
            the tracker reports hot (set False for deterministic tests
            and call :meth:`build_rollup` yourself).
        metrics: a shared :class:`TierMetrics`.

    Use as a context manager or call :meth:`close` (the backing
    service/cluster has its own lifecycle and is *not* closed)::

        with CubeService(RelativePrefixSumCube, cube) as svc:
            with QueryRouter(svc) as router:
                hot = router.range_sum_many(lows, highs)   # warms tiers
                hot = router.range_sum_many(lows, highs)   # cache hit
    """

    def __init__(
        self,
        backend,
        *,
        enable_cache: bool = True,
        enable_rollup: bool = True,
        cache: Optional[ResultCache] = None,
        tracker: Optional[HotPatternTracker] = None,
        auto_build: bool = True,
        max_rollups: int = 4,
        per_box_cache_max_batch: int = PER_BOX_CACHE_MAX_BATCH,
        observe_every: int = 4,
        metrics: Optional[TierMetrics] = None,
    ) -> None:
        self.backend = wrap_backend(backend)
        self.shape = self.backend.shape
        self.metrics = metrics if metrics is not None else TierMetrics()
        self.enable_cache = bool(enable_cache)
        self.enable_rollup = bool(enable_rollup)
        self.auto_build = bool(auto_build)
        # explicit None checks: an *empty* ResultCache is falsy (len 0),
        # so ``cache or ResultCache()`` would silently drop an injected
        # empty cache
        self.cache = cache if cache is not None else ResultCache()
        self.per_box_cache_max_batch = int(per_box_cache_max_batch)
        # hotness statistics are sampled 1-in-N routed calls: admission
        # thresholds only need rates, and the tracker must never be the
        # reason the cache-hit fast path stops being fast
        self.observe_every = max(1, int(observe_every))
        self._observe_tick = 0
        self.tracker = (
            tracker if tracker is not None else HotPatternTracker(self.shape)
        )
        self.builder: Optional[RollupBuilder] = None
        if self.enable_rollup:
            self.builder = RollupBuilder(
                self.backend, self.metrics, max_rollups=max_rollups
            )
        self._closed = False

    # -- reads ---------------------------------------------------------------

    def route_many(
        self,
        lows,
        highs,
        *,
        deadline: Optional[Deadline] = None,
        allow_estimate: bool = False,
    ) -> RoutedBatch:
        """Answer a ``(Q, d)`` batch of boxes, each from its cheapest
        exact tier; returns values with per-query stamps and tiers.

        With ``allow_estimate=True`` (and a backend that supports it —
        cluster backends do), queries over unreachable shards come back
        as explicit bounded estimates in ``RoutedBatch.estimates``
        instead of failing the batch. Estimated values are **never**
        written to the cache tiers: only exact, stamped answers are
        memoizable, so a degraded window can't poison later reads.
        """
        start = time.perf_counter()
        if deadline is not None and deadline.expired:
            self.metrics.inc(deadline_exceeded=1)
            deadline.check("routed read")
        # an intp (Q, d) page is looked up in the batch memo before it
        # is validated: every memo key was made from a normalized batch,
        # so a page whose bytes match one *is* that validated batch, and
        # only a miss pays for validation
        prevalidated = self.enable_cache and _is_row_batch(
            lows, highs, len(self.shape)
        )
        if not prevalidated:
            lows, highs = indexing.normalize_range_batch(
                lows, highs, self.shape
            )
        q = len(lows)
        stamp = self.backend.current_stamp()

        # tier 1a: the whole-batch memo — a repeated dashboard page is
        # one lookup keyed by the batch bytes and the snapshot version
        batch_key = None
        if self.enable_cache and q:
            batch_key = ("batch", lows.tobytes(), highs.tobytes())
            status, value = self.cache.get(batch_key, stamp)
            if status is HIT:
                self.metrics.inc(batch_hits=q, queries_routed=q)
                self._observe(lows, highs)
                self.metrics.observe(
                    "route_latency", time.perf_counter() - start
                )
                return RoutedBatch.uniform(value, stamp, TIER_CACHE)
            if status is STALE:
                self.metrics.inc(batch_stale_rejects=1)
        if prevalidated:
            lows, highs = indexing.normalize_range_batch(
                lows, highs, self.shape
            )

        # each tier contributes (slots, values, stamp, tier); the batch
        # is assembled with vectorized fills at the end so a 10^4-box
        # page never pays a per-box Python loop outside the cache tier
        filled: list = []
        hit_slots: list = []
        hit_values: list = []
        use_box_cache = (
            self.enable_cache and q <= self.per_box_cache_max_batch
        )

        # tier 1b: per-box memoized results (small interactive batches —
        # large pages are the batch memo's job)
        if use_box_cache:
            pending = []
            stale = 0
            for i in range(q):
                key = ("box", lows[i].tobytes(), highs[i].tobytes())
                status, value = self.cache.get(key, stamp)
                if status is HIT:
                    hit_slots.append(i)
                    hit_values.append(value)
                else:
                    if status is STALE:
                        stale += 1
                    pending.append(i)
            pending = np.asarray(pending, dtype=np.intp)
            if hit_slots or stale:
                self.metrics.inc(
                    cache_hits=len(hit_slots), cache_stale_rejects=stale
                )
        else:
            pending = np.arange(q, dtype=np.intp)

        # tier 2: pre-aggregated rollups, freshness-gated on the stamp
        if len(pending) and self.builder is not None:
            pending = self._serve_from_rollups(
                lows, highs, pending, stamp, filled
            )

        # tier 3: the RPS backend answers whatever is left, in one batch
        box_estimates = None
        if len(pending):
            backend_start = time.perf_counter()
            estimated_query = (
                getattr(self.backend, "query_many_estimated", None)
                if allow_estimate
                else None
            )
            # take() gathers (Q, d) rows ~10x faster than lows[pending]
            pending_lows = lows.take(pending, axis=0)
            pending_highs = highs.take(pending, axis=0)
            if estimated_query is not None:
                values, box_estimates, backend_stamp = estimated_query(
                    pending_lows, pending_highs, deadline=deadline
                )
                if not any(e is not None for e in box_estimates):
                    box_estimates = None
            else:
                values, backend_stamp = self.backend.query_many(
                    pending_lows, pending_highs, deadline=deadline
                )
            self.metrics.inc(backend_queries=len(pending))
            self.metrics.observe(
                "backend_latency", time.perf_counter() - backend_start
            )
            values = np.asarray(values)
            filled.append((pending, values, backend_stamp, TIER_RPS))
            if use_box_cache:
                for j, (slot, value) in enumerate(zip(pending, values)):
                    if (
                        box_estimates is not None
                        and box_estimates[j] is not None
                    ):
                        continue  # estimates are never cached
                    key = ("box", lows[slot].tobytes(), highs[slot].tobytes())
                    self.cache.put(key, backend_stamp, value)

        # assemble the batch: vectorized scatter per tier
        sources = [vals for _, vals, _, _ in filled]
        if hit_slots:
            hit_values = np.asarray(hit_values)
            sources.append(hit_values)
        dtype = np.result_type(*sources) if sources else np.float64
        out = np.empty(q, dtype=dtype)
        stamps = np.empty(q, dtype=object)
        tiers = np.empty(q, dtype=object)
        for slots, vals, tier_stamp, tier in filled:
            out[slots] = vals
            tiers[slots] = tier
            _assign_object(stamps, slots, tier_stamp)
        if hit_slots:
            hit_idx = np.asarray(hit_slots, dtype=np.intp)
            out[hit_idx] = hit_values
            tiers[hit_idx] = TIER_CACHE
            _assign_object(stamps, hit_idx, stamp)

        estimates = None
        if box_estimates is not None:
            estimates = [None] * q
            for j, slot in enumerate(pending):
                estimates[int(slot)] = box_estimates[j]

        # memoize the whole batch when one snapshot answered everything
        # — and no slot was estimated (degraded answers never enter any
        # cache tier); every slot carries its tier's stamp, so the few
        # tier stamps decide it without a per-slot pass
        if batch_key is not None and estimates is None:
            tier_stamps = [s for _, _, s, _ in filled]
            if hit_slots:
                tier_stamps.append(stamp)
            uniform = tier_stamps[0]
            if all(s == uniform for s in tier_stamps):
                self.cache.put(batch_key, uniform, out)
        self._observe(lows, highs)
        self.metrics.inc(queries_routed=q)
        self.metrics.observe("route_latency", time.perf_counter() - start)
        return RoutedBatch(out, stamps.tolist(), tiers.tolist(), estimates)

    def _serve_from_rollups(
        self, lows, highs, pending, stamp, filled
    ) -> np.ndarray:
        """Fill aligned pending queries from fresh rollups; returns the
        still-unanswered indices."""
        served_total = 0
        for granularity, rollup in self.builder.published().items():
            if not len(pending):
                break
            if rollup.stamp != stamp:
                # built from a superseded snapshot: the version handoff
                # has invalidated it — discard, and rebuild if the
                # pattern is still hot
                self.builder.discard_stale(stamp)
                if self.auto_build and granularity in (
                    self.tracker.hot_granularities()
                ):
                    self.builder.request(granularity)
                continue
            mask = rollup.covers_mask(lows[pending], highs[pending])
            if not mask.any():
                continue
            covered = pending[mask]
            values = rollup.range_sum_many(lows[covered], highs[covered])
            filled.append((covered, values, rollup.stamp, TIER_ROLLUP))
            served_total += len(covered)
            pending = pending[~mask]
        if served_total:
            self.metrics.inc(rollup_hits=served_total)
        return pending

    def _observe(self, lows, highs) -> None:
        """Feed the tracker (1-in-``observe_every`` calls); kick off
        builds for newly-hot patterns."""
        if self.builder is None:
            return
        tick = self._observe_tick
        self._observe_tick = tick + 1
        if tick % self.observe_every:
            return
        self.tracker.observe_many(lows, highs)
        if not self.auto_build:
            return
        for granularity in self.tracker.hot_granularities():
            if self.builder.get(granularity) is None:
                self.builder.request(granularity)

    def range_sum_many(
        self,
        lows,
        highs,
        *,
        deadline: Optional[Deadline] = None,
        allow_estimate: bool = False,
    ):
        """Drop-in batched range sums (values only).

        With ``allow_estimate=True`` returns ``(values, estimates)``
        mirroring :meth:`CubeCluster.range_sum_many
        <repro.cluster.cluster.CubeCluster.range_sum_many>`."""
        batch = self.route_many(
            lows, highs, deadline=deadline, allow_estimate=allow_estimate
        )
        if allow_estimate:
            return batch.values, list(batch.estimates)
        return batch.values

    def range_sum(
        self,
        low: Sequence[int],
        high: Sequence[int],
        *,
        deadline: Optional[Deadline] = None,
    ):
        """One routed range sum."""
        return self.route_many([low], [high], deadline=deadline).values[0]

    # -- writes (passthrough: invalidation rides the version handoff) --------

    def submit_batch(
        self,
        updates: Iterable[Tuple[Sequence[int], object]],
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ):
        """Forward one update group to the backend. Nothing to purge:
        the version bump orphans every affected cache entry exactly."""
        return self.backend.submit_batch(
            updates, timeout=timeout, deadline=deadline
        )

    def submit_delta(
        self,
        index: Sequence[int],
        delta,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ):
        return self.submit_batch([(index, delta)], timeout=timeout,
                                 deadline=deadline)

    def flush(self, timeout: Optional[float] = None):
        return self.backend.flush(timeout=timeout)

    # -- rollup control ------------------------------------------------------

    def build_rollup(self, granularity: int, *, wait: bool = True):
        """Materialize a rollup now (``wait=True``) or in the background.

        Returns the published :class:`~repro.routing.rollup.RollupCube`
        when building synchronously (None on a degraded/failed build).
        """
        if self.builder is None:
            raise ValueError("rollup tier is disabled on this router")
        if wait:
            return self.builder.build_now(granularity)
        self.builder.request(granularity)
        return None

    def purge(self) -> None:
        """Drop every cached result and published rollup (hygiene —
        correctness never requires it)."""
        self.cache.purge()
        if self.builder is not None:
            for granularity in list(self.builder.published()):
                self.builder._published.pop(granularity, None)

    # -- lifecycle and reporting ---------------------------------------------

    def stats(self) -> Dict:
        """Router tiers, cache occupancy, tracker state, and the
        backend's own stats, one plain dict."""
        report = {
            "router": self.metrics.snapshot(),
            "cache": self.cache.stats(),
            "tracker": self.tracker.stats(),
            "rollups": (
                self.builder.stats() if self.builder is not None else None
            ),
        }
        report["backend"] = self.backend.stats()
        return report

    def close(self) -> None:
        """Stop the rollup builder (the backend is left running)."""
        if self._closed:
            return
        self._closed = True
        if self.builder is not None:
            self.builder.close()

    def __enter__(self) -> "QueryRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"QueryRouter(shape={self.shape}, cache={self.enable_cache}, "
            f"rollup={self.enable_rollup})"
        )
