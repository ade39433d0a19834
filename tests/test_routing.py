"""Unit tests for the query router and its tiers.

The correctness story — every routed answer equals the oracle at its
stamped snapshot version across randomized interleavings — lives in
``test_router_properties.py`` and ``test_router_differential.py``; this
file pins the component contracts those suites build on: cache
hit/miss/stale semantics and eviction, the batch memo's fast path,
deadline propagation, a router that owns no thread, and the one
backend protocol that service, cluster and router all speak.
"""

import threading

import numpy as np
import pytest

from repro.core import indexing
from repro.deadline import Deadline
from repro.errors import DeadlineExceededError, DimensionError, RangeError
from repro.core.rps import RelativePrefixSumCube
from repro.cluster import CubeCluster
from repro.routing import (
    HIT,
    MISS,
    STALE,
    QueryRouter,
    ResultCache,
)
from repro.routing.router import PER_BOX_CACHE_MAX_BATCH
from repro.serve import CubeService

from .conftest import brute_range_sum


class TestResultCache:
    def test_hit_requires_exact_stamp(self):
        cache = ResultCache()
        cache.put("k", 3, 42.0)
        assert cache.get("k", 3) == (HIT, 42.0)
        status, value = cache.get("k", 4)
        assert status is STALE and value is None
        # the stale entry was dropped, not kept around
        assert cache.get("k", 3) == (MISS, None)
        assert cache.stale_drops == 1

    def test_miss_on_absent_key(self):
        cache = ResultCache()
        assert cache.get("nope", 0) == (MISS, None)

    def test_put_replaces_version_in_place(self):
        cache = ResultCache()
        cache.put("k", 1, 10.0)
        cache.put("k", 2, 20.0)
        assert len(cache) == 1
        assert cache.get("k", 2) == (HIT, 20.0)

    def test_lru_eviction_by_entries(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 0, 1.0)
        cache.put("b", 0, 2.0)
        cache.get("a", 0)  # refresh a; b is now the LRU victim
        cache.put("c", 0, 3.0)
        assert cache.get("b", 0) == (MISS, None)
        assert cache.get("a", 0) == (HIT, 1.0)
        assert cache.evictions == 1

    def test_byte_budget_eviction(self):
        cache = ResultCache(max_bytes=4096)
        big = np.ones(256, dtype=np.float64)  # 2 KiB payload
        cache.put("a", 0, big)
        cache.put("b", 0, big)
        cache.put("c", 0, big)
        assert cache.nbytes <= 4096
        assert len(cache) < 3

    def test_byte_budget_keeps_at_least_one_entry(self):
        cache = ResultCache(max_bytes=8)
        cache.put("a", 0, np.ones(64))
        assert len(cache) == 1

    def test_cached_arrays_are_read_only_copies(self):
        cache = ResultCache()
        original = np.array([1.0, 2.0])
        cache.put("k", 0, original)
        original[0] = 99.0  # caller mutation must not reach the cache
        _, value = cache.get("k", 0)
        assert value[0] == 1.0
        with pytest.raises(ValueError):
            value[0] = 7.0

    def test_purge_stale_drops_only_other_stamps(self):
        cache = ResultCache()
        cache.put("a", 1, 1.0)
        cache.put("b", 2, 2.0)
        cache.put("c", 2, 3.0)
        assert cache.purge_stale(2) == 1
        assert cache.get("b", 2) == (HIT, 2.0)
        assert cache.get("a", 1) == (MISS, None)

    def test_purge(self):
        cache = ResultCache()
        cache.put("a", 0, 1.0)
        assert cache.purge() == 1
        assert len(cache) == 0 and cache.nbytes == 0

    def test_stats_shape(self):
        cache = ResultCache()
        cache.put("a", 0, 1.0)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["inserts"] == 1
        assert stats["bytes"] > 0

    def test_rejects_degenerate_budgets(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)
        with pytest.raises(ValueError):
            ResultCache(max_bytes=0)


class _StubBackend:
    """A backend that already speaks the router's protocol."""

    def __init__(self, cube):
        self.cube = np.asarray(cube, dtype=np.float64)
        self.shape = self.cube.shape
        self.version = 0

    def current_stamp(self):
        return self.version

    def query_many(self, lows, highs, deadline=None):
        # the router hands over its checked BoxBatch (highs None)
        lows, highs = indexing.normalize_range_batch(
            lows, highs, self.shape
        )
        values = np.array([
            brute_range_sum(self.cube, lo, hi) for lo, hi in zip(lows, highs)
        ])
        return values, self.version

    def submit_batch(self, updates, timeout=None, deadline=None):
        for cell, delta in updates:
            self.cube[tuple(cell)] += delta
        self.version += 1
        return self.version

    def flush(self, timeout=None):
        return self.version

    def stats(self):
        return {"version": self.version}


@pytest.fixture
def service_router():
    rng = np.random.default_rng(11)
    cube = rng.integers(0, 100, (32, 32)).astype(np.float64)
    with CubeService(RelativePrefixSumCube, cube) as service:
        with QueryRouter(service) as router:
            yield cube, service, router


class TestQueryRouter:
    def test_tier_progression_and_write_invalidation(self, service_router):
        cube, service, router = service_router
        lows = np.array([[0, 0], [4, 4], [7, 1]])
        highs = np.array([[15, 15], [20, 9], [30, 30]])
        first = router.route_many(lows, highs)
        assert set(first.tiers) == {"rps"}
        again = router.route_many(lows, highs)
        assert set(again.tiers) == {"cache"}
        np.testing.assert_array_equal(first.values, again.values)
        # a subset of the page hits the per-box entries
        sub = router.route_many(lows[:2], highs[:2])
        assert set(sub.tiers) == {"cache"}
        # a write invalidates everything through the version handoff
        router.submit_batch([((5, 5), +3.0)])
        router.flush()
        after = router.route_many(lows, highs)
        assert set(after.tiers) == {"rps"}
        cube[5, 5] += 3.0
        expect = np.array([
            brute_range_sum(cube, lo, hi) for lo, hi in zip(lows, highs)
        ])
        np.testing.assert_array_equal(after.values, expect)
        snap = router.metrics.snapshot()
        assert snap["batch_stale_rejects"] >= 1
        assert snap["cache_stale_rejects"] >= 1

    def test_large_batches_skip_per_box_cache(self):
        q = PER_BOX_CACHE_MAX_BATCH + 1
        cube = np.ones((q, 2))
        with CubeService(RelativePrefixSumCube, cube) as service:
            with QueryRouter(service) as router:
                lows = np.zeros((q, 2), dtype=int)
                highs = np.column_stack([np.arange(q), np.ones(q, int)])
                router.route_many(lows, highs)
                # only the batch memo entry, no per-box entries
                assert len(router.cache) == 1
                batch = router.route_many(lows, highs)
                assert set(batch.tiers) == {"cache"}

    def test_expired_deadline_raises_and_counts(self, service_router):
        _, _, router = service_router
        dead = Deadline.after(0.0)
        with pytest.raises(DeadlineExceededError):
            router.route_many(
                np.array([[0, 0]]), np.array([[3, 3]]), deadline=dead
            )
        assert router.metrics.snapshot()["deadline_exceeded"] == 1

    def test_stamps_name_the_serving_snapshot(self, service_router):
        cube, service, router = service_router
        batch = router.route_many(np.array([[0, 0]]), np.array([[3, 3]]))
        assert batch.stamps[0] == service.version

    def test_router_starts_no_thread(self):
        before = set(threading.enumerate())
        router = QueryRouter(_StubBackend(np.ones((8, 8))))
        router.route_many(np.array([[0, 0]]), np.array([[7, 7]]))
        assert set(threading.enumerate()) == before
        router.close()
        assert set(threading.enumerate()) == before

    def test_stats_merges_every_layer(self, service_router):
        _, _, router = service_router
        router.route_many(np.array([[0, 0]]), np.array([[3, 3]]))
        stats = router.stats()
        assert set(stats) == {"router", "cache", "backend"}
        assert stats["router"]["queries_routed"] == 1
        assert "version" in stats["backend"]

    def test_concurrent_routed_reads_are_exact(self):
        rng = np.random.default_rng(17)
        cube = rng.integers(0, 50, (24, 24)).astype(np.float64)
        errors = []
        with CubeService(RelativePrefixSumCube, cube) as service:
            with QueryRouter(service) as router:
                expect = brute_range_sum(cube, (0, 0), (23, 23))
                sub = brute_range_sum(cube, (3, 3), (10, 12))

                def reader():
                    for _ in range(50):
                        full = router.range_sum(
                            (0, 0), (23, 23)
                        )
                        part = router.range_sum((3, 3), (10, 12))
                        if full != expect or part != sub:
                            errors.append((full, part))
                            return

                threads = [
                    threading.Thread(target=reader) for _ in range(4)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                    assert not t.is_alive()
        assert not errors


def _count_range_validations(monkeypatch):
    real = indexing.normalize_range_batch
    calls = []

    def counting(lows, highs, shape):
        calls.append(len(lows))
        return real(lows, highs, shape)

    monkeypatch.setattr(indexing, "normalize_range_batch", counting)
    return calls


class TestBatchMemoFastPath:
    """An intp ``(Q, d)`` page is looked up in the batch memo before it
    is validated; everything else is validated first, as before."""

    def _page(self):
        lows = np.array([[0, 0], [4, 4], [7, 1]], dtype=np.intp)
        highs = np.array([[15, 15], [20, 9], [30, 30]], dtype=np.intp)
        return lows, highs

    def test_prevalidated_page_hits_without_revalidation(
        self, service_router, monkeypatch
    ):
        cube, service, router = service_router
        lows, highs = self._page()
        first = router.route_many(lows, highs)
        calls = _count_range_validations(monkeypatch)
        again = router.route_many(lows, highs)
        assert calls == []
        assert set(again.tiers) == {"cache"}
        assert again.stamps == (service.version,) * 3
        np.testing.assert_array_equal(again.values, first.values)
        assert router.metrics.snapshot()["batch_hits"] == 3

    def test_stale_fast_path_lookup_counts_a_reject(self, service_router):
        cube, service, router = service_router
        lows, highs = self._page()
        router.route_many(lows, highs)
        router.submit_batch([((5, 5), +3.0)])
        router.flush()
        after = router.route_many(lows, highs)
        assert set(after.tiers) == {"rps"}
        assert router.metrics.snapshot()["batch_stale_rejects"] == 1
        cube[5, 5] += 3.0
        np.testing.assert_array_equal(after.values, [
            brute_range_sum(cube, lo, hi) for lo, hi in zip(lows, highs)
        ])

    @pytest.mark.parametrize("form", ["list", "int32", "strided"])
    def test_other_inputs_validate_and_still_memoize(
        self, service_router, monkeypatch, form
    ):
        cube, service, router = service_router
        lows, highs = self._page()
        if form == "list":
            lows, highs = lows.tolist(), highs.tolist()
        elif form == "int32":
            lows, highs = lows.astype(np.int32), highs.astype(np.int32)
        else:
            lows = np.repeat(lows, 2, axis=0)[::2]
            highs = np.repeat(highs, 2, axis=0)[::2]
            assert not lows.flags.c_contiguous
        calls = _count_range_validations(monkeypatch)
        router.route_many(lows, highs)
        again = router.route_many(lows, highs)
        assert set(again.tiers) == {"cache"}
        # validated by the router on both calls; the backend's one call
        # gets the router's checked BoxBatch back without a second check
        assert calls == [3, 3, 3]
        # the memo entry is keyed by the normalized bytes, so the same
        # page as a contiguous intp array finds it without validation
        contiguous = router.route_many(*self._page())
        assert set(contiguous.tiers) == {"cache"}
        assert len(calls) == 3

    def test_invalid_pages_still_raise(self, service_router):
        cube, service, router = service_router
        router.route_many(*self._page())
        lows, highs = self._page()
        out_of_range = highs.copy()
        out_of_range[1, 0] = 32
        with pytest.raises(RangeError):
            router.route_many(lows, out_of_range)
        with pytest.raises(RangeError):
            router.route_many(highs, lows)  # inverted
        wide = np.zeros((3, 3), dtype=np.intp)
        with pytest.raises(DimensionError):
            router.route_many(wide, wide)
        # the same bytes as a cached (3, 2) page, shaped (2, 3)
        with pytest.raises(DimensionError):
            router.route_many(lows.reshape(2, 3), highs.reshape(2, 3))
        assert router.metrics.snapshot()["batch_hits"] == 0


# -- the backend protocol ------------------------------------------------


@pytest.fixture(
    params=["service", "cluster", "router->service", "router->cluster"]
)
def backend_stack(request, tmp_path):
    """``(name, backend)``: each stack that speaks the backend protocol,
    composed directly, layer on layer, with no adapter."""
    cube = np.arange(96, dtype=np.int64).reshape(12, 8)
    name = request.param
    if name.endswith("service"):
        base = CubeService(RelativePrefixSumCube, cube)
    else:
        base = CubeCluster(
            RelativePrefixSumCube, cube, data_dir=tmp_path,
            num_shards=2, replication_factor=2,
        )
    with base:
        if name.startswith("router"):
            with QueryRouter(base) as router:
                yield name, router
        else:
            yield name, base


class TestBackendProtocol:
    def test_flushed_read_is_stamped_with_the_current_stamp(
        self, backend_stack
    ):
        name, backend = backend_stack
        assert backend.shape == (12, 8)
        lows, highs = np.array([[0, 0], [3, 2]]), np.array([[11, 7], [9, 5]])
        backend.submit_batch([((4, 4), 5), ((10, 1), 7)])
        backend.flush()
        for _ in range(2):  # a router's second read is a cache hit
            values, stamp = backend.query_many(lows, highs)
            assert stamp == backend.current_stamp()
            # sum(0..95) + 5 + 7, and the (4, 4) delta in the second box
            assert np.asarray(values).tolist() == [4560 + 12, 1442 + 5]
        assert isinstance(backend.stats(), dict)
        assert hasattr(backend, "query_many_estimated") == (
            name != "service"
        )

    def test_expired_deadline_raises_on_read_and_write(self, backend_stack):
        _, backend = backend_stack
        with pytest.raises(DeadlineExceededError):
            backend.query_many(
                [[0, 0]], [[3, 3]], deadline=Deadline.after(0.0)
            )
        with pytest.raises(DeadlineExceededError):
            backend.submit_batch(
                [((0, 0), 1)], deadline=Deadline.after(0.0)
            )
