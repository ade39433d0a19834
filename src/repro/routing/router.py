"""The two-tier query router: cache -> RPS.

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
2. **RPS** — the backend itself, which answers any box, aligned or
   not, with a fixed handful of cell reads per corner.

The router consumes and speaks one backend protocol — ``shape``,
``current_stamp()``, ``query_many(lows, highs, deadline)`` returning
``(values, stamp)``, ``submit_batch``, ``flush``, ``stats``, and the
optional ``query_many_estimated`` — which the service and the cluster
implement natively, so no adapter sits between the layers. The router
hands each batch down checked, as a ``BoxBatch`` with ``highs=None``.

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
from repro.routing.cache import HIT, STALE, ResultCache

#: tier labels stamped on every routed answer
TIER_CACHE = "cache"
TIER_RPS = "rps"

#: batches larger than this skip the per-box cache tier: per-box lookups
#: and fills are Python-loop priced, and a large repeated page is served
#: wholesale by the batch memo anyway
PER_BOX_CACHE_MAX_BATCH = 512


def _is_row_batch(lows, highs, d: int) -> bool:
    """True for a ``(Q, d)`` pair of C-contiguous ``intp`` arrays — the
    form of a checked :class:`~repro.core.indexing.BoxBatch`'s arrays,
    so its bytes alone identify a validated batch."""
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
        tiers: per-query serving tier (``"cache"`` or ``"rps"``).
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
        hit, or one backend read of every box). Its per-query tuples are
        built on first read, so a caller that wants only the values
        (:meth:`QueryRouter.range_sum_many`) never pays for them."""
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
    def stamp(self):
        """The one stamp every query shares, else the per-query list.
        A uniform batch answers without scanning its slots."""
        if self._source is not None:
            return self._source[0]
        stamps = self.stamps
        if stamps and all(s == stamps[0] for s in stamps):
            return stamps[0]
        return list(stamps)

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
    """A transparent forwarder to one :class:`~repro.serve.CubeService`.

    A service already speaks the backend protocol, so the router needs
    no adapter; this wrapper only keeps a ``service`` attribute that a
    caller may swap (a timing proxy, say). Every other attribute is
    read from ``self.service`` on each access.
    """

    def __init__(self, service) -> None:
        self.service = service

    def __getattr__(self, name):
        return getattr(self.service, name)


class TierMetrics(MetricsRegistry):
    """The router's registry: per-tier counters and latencies.

    Units are individual box queries. A stale reject is an entry found
    but refused because the snapshot version moved on (each one is a
    precisely-invalidated write). ``route_latency`` times whole routed
    calls (a call may carry a batch); ``backend_latency`` times the
    fallback reads that reached the RPS service/cluster.
    """

    def __init__(self) -> None:
        super().__init__(
            counters=(
                "queries_routed", "cache_hits", "batch_hits",
                "backend_queries", "cache_stale_rejects",
                "batch_stale_rejects", "deadline_exceeded",
                # always 0 since the rollup tier was deleted; kept only
                # because perfbench/net_dashboard.py reads both keys
                "rollup_hits", "rollup_stale_rejects",
            ),
            latencies=("route_latency", "backend_latency"),
        )

    def snapshot(self) -> Dict:
        """All tallies plus each tier's share of the queries served."""
        report = super().snapshot()
        cached = report["cache_hits"] + report["batch_hits"]
        served = cached + report["backend_queries"]
        report.update(
            cache_hit_rate=cached / served if served else 0.0,
            backend_rate=(
                report["backend_queries"] / served if served else 0.0
            ),
        )
        return report


class QueryRouter:
    """Route each box query cache -> RPS, exactly.

    Args:
        backend: anything that speaks the backend protocol — ``shape``,
            ``current_stamp()``, ``query_many(lows, highs, deadline)``
            returning ``(values, stamp)``, ``submit_batch``, ``flush``
            and ``stats``, plus the optional ``query_many_estimated``.
            :class:`~repro.serve.CubeService`,
            :class:`~repro.cluster.CubeCluster` and ``QueryRouter``
            itself all speak it natively, so layers stack directly:
            ``CubeServer(QueryRouter(cluster))``. The router reads
            ``self.backend`` on every call, so it may be replaced.
        cache: a pre-built :class:`~repro.routing.cache.ResultCache`
            (defaults to 64 MiB / 64 Ki entries).

    Use as a context manager or call :meth:`close` (the backing
    service/cluster has its own lifecycle and is *not* closed)::

        with CubeService(RelativePrefixSumCube, cube) as svc:
            with QueryRouter(svc) as router:
                hot = router.range_sum_many(lows, highs)   # fills the cache
                hot = router.range_sum_many(lows, highs)   # cache hit
    """

    def __init__(
        self, backend, *, cache: Optional[ResultCache] = None
    ) -> None:
        self.backend = backend
        self.shape = backend.shape
        self.metrics = TierMetrics()
        # explicit None checks: an *empty* ResultCache is falsy (len 0),
        # so ``cache or ResultCache()`` would silently drop an injected
        # empty cache
        self.cache = cache if cache is not None else ResultCache()

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
        clusters do), queries over unreachable shards come back
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
        prevalidated = _is_row_batch(lows, highs, len(self.shape))
        if not prevalidated:
            boxes = indexing.normalize_range_batch(lows, highs, self.shape)
            lows, highs = boxes
        q = len(lows)
        stamp = self.backend.current_stamp()

        # tier 1a: the whole-batch memo — a repeated dashboard page is
        # one lookup keyed by the batch bytes and the snapshot version
        batch_key = None
        if q:
            batch_key = ("batch", lows.tobytes(), highs.tobytes())
            status, value = self.cache.get(batch_key, stamp)
            if status is HIT:
                self.metrics.inc(batch_hits=q, queries_routed=q)
                self.metrics.observe(
                    "route_latency", time.perf_counter() - start
                )
                return RoutedBatch.uniform(value, stamp, TIER_CACHE)
            if status is STALE:
                self.metrics.inc(batch_stale_rejects=1)
        if prevalidated:
            boxes = indexing.normalize_range_batch(lows, highs, self.shape)

        # the batch is assembled with vectorized fills at the end so a
        # 10^4-box page never pays a per-box Python loop outside the
        # cache tier
        hit_slots: list = []
        hit_values: list = []
        use_box_cache = q <= PER_BOX_CACHE_MAX_BATCH

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

        # tier 2: the RPS backend answers whatever is left, in one batch
        box_estimates = None
        rps_values = backend_stamp = None
        if len(pending):
            backend_start = time.perf_counter()
            estimated_query = (
                getattr(self.backend, "query_many_estimated", None)
                if allow_estimate
                else None
            )
            # the backend gets the checked batch, so it checks nothing
            # again; take() gathers rows ~10x faster than lows[pending]
            if len(pending) < q:
                boxes = boxes.take(pending)
            if estimated_query is not None:
                values, box_estimates, backend_stamp = estimated_query(
                    boxes, None, deadline=deadline
                )
                if not any(e is not None for e in box_estimates):
                    box_estimates = None
            else:
                values, backend_stamp = self.backend.query_many(
                    boxes, None, deadline=deadline
                )
            self.metrics.inc(backend_queries=len(pending))
            self.metrics.observe(
                "backend_latency", time.perf_counter() - backend_start
            )
            rps_values = np.asarray(values)
            if use_box_cache:
                for j, (slot, value) in enumerate(zip(pending, rps_values)):
                    if (
                        box_estimates is not None
                        and box_estimates[j] is not None
                    ):
                        continue  # estimates are never cached
                    key = ("box", lows[slot].tobytes(), highs[slot].tobytes())
                    self.cache.put(key, backend_stamp, value)

        if not hit_slots and box_estimates is None:
            # one exact backend read (or an empty batch) answered every
            # slot: no per-slot assembly, one stamp for the whole batch
            if rps_values is None:
                rps_values, backend_stamp = np.empty(0), stamp
            if batch_key is not None:
                self.cache.put(batch_key, backend_stamp, rps_values)
            batch = RoutedBatch.uniform(rps_values, backend_stamp, TIER_RPS)
        else:
            # a mixed batch: one vectorized scatter per tier
            sources = [] if rps_values is None else [rps_values]
            if hit_slots:
                hit_values = np.asarray(hit_values)
                sources.append(hit_values)
            out = np.empty(q, dtype=np.result_type(*sources))
            stamps = np.empty(q, dtype=object)
            tiers = np.empty(q, dtype=object)
            if rps_values is not None:
                out[pending] = rps_values
                tiers[pending] = TIER_RPS
                _assign_object(stamps, pending, backend_stamp)
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
            # memoize the whole batch when one snapshot answered
            # everything and no slot was estimated (degraded answers
            # never enter any cache tier); every slot carries its tier's
            # stamp, so the two tier stamps decide it without a per-slot
            # pass
            if estimates is None and (
                rps_values is None or backend_stamp == stamp
            ):
                self.cache.put(batch_key, stamp, out)
            batch = RoutedBatch(
                out, stamps.tolist(), tiers.tolist(), estimates
            )
        self.metrics.inc(queries_routed=q)
        self.metrics.observe("route_latency", time.perf_counter() - start)
        return batch

    # -- the backend protocol, so a router stacks like any backend ----------

    def current_stamp(self):
        return self.backend.current_stamp()

    def query_many(self, lows, highs, deadline: Optional[Deadline] = None):
        """Routed ``(values, stamp)``: one stamp when one answered the
        whole batch, else the per-query list of stamps."""
        batch = self.route_many(lows, highs, deadline=deadline)
        return batch.values, batch.stamp

    def query_many_estimated(
        self, lows, highs, deadline: Optional[Deadline] = None
    ):
        """Routed ``(values, estimates, stamp)``; see :meth:`query_many`
        for the stamp and :meth:`route_many` for the estimates."""
        batch = self.route_many(
            lows, highs, deadline=deadline, allow_estimate=True
        )
        return batch.values, list(batch.estimates), batch.stamp

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

    def purge(self) -> None:
        """Drop every cached result (hygiene — correctness never
        requires it)."""
        self.cache.purge()

    # -- lifecycle and reporting ---------------------------------------------

    def stats(self) -> Dict:
        """Router tiers, cache occupancy and the backend's own stats,
        one plain dict."""
        return {
            "router": self.metrics.snapshot(),
            "cache": self.cache.stats(),
            "backend": self.backend.stats(),
        }

    def close(self) -> None:
        """Nothing to stop: the router owns no thread, and the backend
        is left running."""

    def __enter__(self) -> "QueryRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"QueryRouter(shape={self.shape}, entries={len(self.cache)})"
