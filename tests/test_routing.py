"""Unit tests for the adaptive query router and its tiers.

The correctness story — every routed answer equals the oracle at its
stamped snapshot version across randomized interleavings — lives in
``test_router_properties.py`` and ``test_router_differential.py``; this
file pins the component contracts those suites build on: cache
hit/miss/stale semantics and eviction, alignment math, hot-pattern
accounting, rollup exactness (ragged blocks included), build failure
degradation, deadline propagation, and the enable flags.
"""

import threading

import numpy as np
import pytest

from repro.deadline import Deadline
from repro.errors import DeadlineExceededError
from repro.core.rps import RelativePrefixSumCube
from repro.routing import (
    HIT,
    MISS,
    STALE,
    ClusterBackend,
    HotPatternTracker,
    QueryRouter,
    ResultCache,
    RollupBuilder,
    RollupCube,
    ServiceBackend,
    TierMetrics,
    aligned_mask,
    block_boxes,
    default_granularities,
    wrap_backend,
)
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


class TestAlignment:
    def test_default_granularities_descend_powers_of_two(self):
        assert default_granularities((64, 64)) == (32, 16, 8, 4)
        assert default_granularities((64, 48)) == (16, 8, 4, 2)
        assert default_granularities((8, 8), max_levels=2) == (4, 2)
        assert default_granularities((2, 2)) == ()

    def test_aligned_mask_grid_and_full_extent(self):
        shape = (20, 16)
        lows = np.array([[0, 0], [4, 8], [0, 0], [1, 0], [0, 0]])
        highs = np.array([[7, 15], [19, 15], [19, 15], [7, 15], [7, 14]])
        mask = aligned_mask(lows, highs, 4, shape)
        # box 0: 0..7 x 0..15 aligned; box 1: 4..19 (=extent) aligned;
        # box 2: full cube aligned; box 3: low 1 unaligned; box 4:
        # high+1 = 15 not a multiple of 4 and not the extent
        assert mask.tolist() == [True, True, True, False, False]

    def test_aligned_mask_ragged_extent_stays_aligned(self):
        # 20 % 8 != 0: "all of the axis" must still count as aligned
        mask = aligned_mask(
            np.array([[0]]), np.array([[19]]), 8, (20,)
        )
        assert mask.tolist() == [True]


class TestHotPatternTracker:
    def test_hot_granularity_needs_count_and_fraction(self):
        tracker = HotPatternTracker(
            (32, 32), granularities=(8,), hot_min_count=4,
            hot_min_fraction=0.5,
        )
        aligned = (np.array([[0, 0]] * 4), np.array([[7, 7]] * 4))
        tracker.observe_many(*aligned)
        assert tracker.hot_granularities() == (8,)
        # dilute below the fraction threshold with unaligned traffic
        tracker.observe_many(
            np.array([[1, 1]] * 8), np.array([[5, 5]] * 8)
        )
        assert tracker.hot_granularities() == ()

    def test_top_boxes_decode_and_rank(self):
        tracker = HotPatternTracker((16, 16), granularities=(4,))
        hot = (np.array([[0, 0]]), np.array([[3, 3]]))
        for _ in range(5):
            tracker.observe_many(
                np.asarray(hot[0], dtype=np.intp),
                np.asarray(hot[1], dtype=np.intp),
            )
        tracker.observe_many(
            np.asarray([[1, 1]], dtype=np.intp),
            np.asarray([[2, 2]], dtype=np.intp),
        )
        (box, count), *_ = tracker.top_boxes(1)
        assert box == ((0, 0), (3, 3))
        assert count == 5

    def test_box_table_stays_bounded(self):
        tracker = HotPatternTracker(
            (64, 64), granularities=(4,), max_boxes=8
        )
        lows = np.arange(32, dtype=np.intp).reshape(-1, 1).repeat(2, axis=1)
        tracker.observe_many(lows, lows + 1)
        assert tracker.stats()["tracked_boxes"] <= 8

    def test_large_batches_are_sampled_but_counted_in_full(self):
        tracker = HotPatternTracker(
            (64, 64), granularities=(4,), sample_per_batch=16
        )
        q = 256
        lows = np.zeros((q, 2), dtype=np.intp)
        highs = np.full((q, 2), 3, dtype=np.intp)
        tracker.observe_many(lows, highs)
        stats = tracker.stats()
        assert stats["observed"] == q
        # every box is aligned; the scaled estimate must see that
        assert stats["aligned_counts"][4] == q

    def test_rejects_granularity_below_two(self):
        with pytest.raises(ValueError):
            HotPatternTracker((8, 8), granularities=(1,))


class TestRollupCube:
    @pytest.mark.parametrize("shape,g", [
        ((17,), 4),            # d=1, ragged tail block
        ((16, 12), 4),         # d=2, exact fit
        ((10, 14), 4),         # d=2, ragged both axes
        ((8, 6, 10), 2),       # d=3
    ])
    def test_exact_on_every_aligned_box(self, shape, g):
        rng = np.random.default_rng(7)
        cube = rng.integers(-5, 50, shape).astype(np.float64)
        lows, highs = block_boxes(shape, g)
        blocks = np.array([
            brute_range_sum(cube, lo, hi) for lo, hi in zip(lows, highs)
        ]).reshape(tuple(-(-n // g) for n in shape))
        rollup = RollupCube(g, shape, blocks, stamp=0)
        # every aligned box (exhaustive over the block grid)
        nblocks = tuple(-(-n // g) for n in shape)
        cases = []
        for axis_lo in np.ndindex(*nblocks):
            for axis_hi in np.ndindex(*nblocks):
                if all(a <= b for a, b in zip(axis_lo, axis_hi)):
                    lo = tuple(a * g for a in axis_lo)
                    hi = tuple(
                        min((b + 1) * g - 1, n - 1)
                        for b, n in zip(axis_hi, shape)
                    )
                    cases.append((lo, hi))
        qlo = np.array([c[0] for c in cases])
        qhi = np.array([c[1] for c in cases])
        assert rollup.covers_mask(qlo, qhi).all()
        got = rollup.range_sum_many(qlo, qhi)
        expect = np.array([
            brute_range_sum(cube, lo, hi) for lo, hi in cases
        ])
        np.testing.assert_array_equal(got, expect)

    def test_covers_mask_rejects_unaligned(self):
        blocks = np.ones((4, 4))
        rollup = RollupCube(4, (16, 16), blocks, stamp=0)
        mask = rollup.covers_mask(
            np.array([[0, 0], [0, 1]]), np.array([[15, 15], [15, 15]])
        )
        assert mask.tolist() == [True, False]

    def test_rejects_wrong_block_shape(self):
        with pytest.raises(ValueError):
            RollupCube(4, (16, 16), np.ones((3, 4)), stamp=0)


class _FlakyBackend:
    """Backend stub whose reads can be made to fail on demand."""

    def __init__(self, cube, fail=False):
        self.cube = np.asarray(cube, dtype=np.float64)
        self.shape = self.cube.shape
        self.fail = fail
        self.version = 0

    def current_stamp(self):
        return self.version

    def query_many(self, lows, highs, deadline=None):
        if self.fail:
            raise RuntimeError("injected backend failure")
        values = np.array([
            brute_range_sum(self.cube, lo, hi)
            for lo, hi in zip(np.asarray(lows), np.asarray(highs))
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


class TestRollupBuilder:
    def test_build_now_publishes_exact_rollup(self):
        rng = np.random.default_rng(3)
        backend = _FlakyBackend(rng.integers(0, 9, (12, 12)))
        metrics = TierMetrics()
        builder = RollupBuilder(backend, metrics)
        try:
            rollup = builder.build_now(4)
            assert rollup is not None
            assert builder.get(4) is rollup
            assert rollup.stamp == 0
            got = rollup.range_sum_many(
                np.array([[0, 4]]), np.array([[11, 7]])
            )
            assert got[0] == brute_range_sum(backend.cube, (0, 4), (11, 7))
            assert metrics.snapshot()["rollup_builds"] == 1
        finally:
            builder.close()

    def test_failed_build_degrades_and_counts(self):
        backend = _FlakyBackend(np.ones((8, 8)), fail=True)
        metrics = TierMetrics()
        builder = RollupBuilder(backend, metrics)
        try:
            assert builder.build_now(4) is None
            assert builder.get(4) is None
            assert metrics.snapshot()["rollup_build_failures"] == 1
        finally:
            builder.close()

    def test_background_build_failure_does_not_kill_thread(self):
        backend = _FlakyBackend(np.ones((8, 8)), fail=True)
        metrics = TierMetrics()
        builder = RollupBuilder(backend, metrics)
        try:
            assert builder.request(4)
            deadline = Deadline.after(5.0)
            while metrics.snapshot()["rollup_build_failures"] == 0:
                deadline.check("background build failure")
            backend.fail = False
            assert builder.request(4)
            while builder.get(4) is None:
                deadline.check("background build success")
            assert builder.get(4).stamp == 0
        finally:
            builder.close()

    def test_max_rollups_trims_finest(self):
        backend = _FlakyBackend(np.ones((64, 64)))
        metrics = TierMetrics()
        builder = RollupBuilder(backend, metrics, max_rollups=2)
        try:
            for g in (4, 8, 16):
                builder.build_now(g)
            assert sorted(builder.published()) == [8, 16]
            assert metrics.snapshot()["rollup_discards"] == 1
        finally:
            builder.close()

    def test_discard_stale_drops_superseded_stamps(self):
        backend = _FlakyBackend(np.ones((16, 16)))
        metrics = TierMetrics()
        builder = RollupBuilder(backend, metrics)
        try:
            builder.build_now(4)
            backend.submit_batch([((0, 0), 1.0)])
            builder.build_now(8)
            assert builder.discard_stale(backend.version) == 1
            assert builder.get(4) is None
            assert builder.get(8) is not None
            assert metrics.snapshot()["rollup_stale_rejects"] == 1
        finally:
            builder.close()


@pytest.fixture
def service_router():
    rng = np.random.default_rng(11)
    cube = rng.integers(0, 100, (32, 32)).astype(np.float64)
    with CubeService(RelativePrefixSumCube, cube) as service:
        with QueryRouter(
            service, auto_build=False, observe_every=1
        ) as router:
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

    def test_rollup_serves_unseen_aligned_boxes(self, service_router):
        cube, service, router = service_router
        router.build_rollup(8)
        batch = router.route_many(
            np.array([[0, 8], [8, 0]]), np.array([[7, 31], [31, 15]])
        )
        assert set(batch.tiers) == {"rollup"}
        expect = np.array([
            brute_range_sum(cube, (0, 8), (7, 31)),
            brute_range_sum(cube, (8, 0), (31, 15)),
        ])
        np.testing.assert_array_equal(batch.values, expect)
        assert router.metrics.snapshot()["rollup_hits"] == 2

    def test_stale_rollup_is_discarded_not_served(self, service_router):
        cube, service, router = service_router
        router.build_rollup(8)
        router.submit_batch([((0, 0), +1.0)])
        router.flush()
        batch = router.route_many(np.array([[0, 0]]), np.array([[31, 31]]))
        assert batch.tiers == ("rps",)
        assert batch.values[0] == cube.sum() + 1.0
        assert router.builder.get(8) is None
        assert router.metrics.snapshot()["rollup_stale_rejects"] == 1

    def test_enable_cache_false_never_caches(self):
        cube = np.ones((8, 8))
        with CubeService(RelativePrefixSumCube, cube) as service:
            with QueryRouter(
                service, enable_cache=False, auto_build=False
            ) as router:
                for _ in range(3):
                    batch = router.route_many(
                        np.array([[0, 0]]), np.array([[7, 7]])
                    )
                    assert batch.tiers == ("rps",)
                assert len(router.cache) == 0

    def test_enable_rollup_false_has_no_builder(self):
        cube = np.ones((8, 8))
        with CubeService(RelativePrefixSumCube, cube) as service:
            with QueryRouter(service, enable_rollup=False) as router:
                assert router.builder is None
                with pytest.raises(ValueError):
                    router.build_rollup(4)
                batch = router.route_many(
                    np.array([[0, 0]]), np.array([[7, 7]])
                )
                assert batch.tiers == ("rps",)

    def test_large_batches_skip_per_box_cache(self):
        cube = np.ones((16, 16))
        with CubeService(RelativePrefixSumCube, cube) as service:
            with QueryRouter(
                service, auto_build=False, per_box_cache_max_batch=4
            ) as router:
                lows = np.zeros((8, 2), dtype=int)
                highs = np.tile(np.arange(8).reshape(-1, 1), 2)
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

    def test_auto_build_requests_hot_granularity(self):
        rng = np.random.default_rng(5)
        cube = rng.integers(0, 9, (32, 32)).astype(float)
        tracker = HotPatternTracker(
            (32, 32), granularities=(8,), hot_min_count=2,
            hot_min_fraction=0.1,
        )
        with CubeService(RelativePrefixSumCube, cube) as service:
            with QueryRouter(
                service, tracker=tracker, observe_every=1
            ) as router:
                lows = np.array([[0, 0], [8, 8]])
                highs = np.array([[7, 7], [31, 31]])
                router.route_many(lows, highs)
                router.route_many(lows, highs)
                deadline = Deadline.after(5.0)
                while router.builder.get(8) is None:
                    deadline.check("hot rollup build")
                batch = router.route_many(lows, highs)
                # third ask of the same page: batch memo wins over rollup
                assert set(batch.tiers) == {"cache"}
                fresh = router.route_many(
                    np.array([[16, 0]]), np.array([[23, 31]])
                )
                assert fresh.tiers == ("rollup",)
                assert fresh.values[0] == brute_range_sum(
                    cube, (16, 0), (23, 31)
                )

    def test_stats_merges_every_layer(self, service_router):
        _, _, router = service_router
        router.route_many(np.array([[0, 0]]), np.array([[3, 3]]))
        stats = router.stats()
        assert set(stats) == {
            "router", "cache", "tracker", "rollups", "backend",
        }
        assert stats["router"]["queries_routed"] == 1
        assert "version" in stats["backend"]

    def test_wrap_backend_detection(self):
        cube = np.ones((8, 8))
        with CubeService(RelativePrefixSumCube, cube) as service:
            adapted = wrap_backend(service)
            assert isinstance(adapted, ServiceBackend)
            assert wrap_backend(adapted) is adapted
        stub = _FlakyBackend(cube)
        assert wrap_backend(stub) is stub

    def test_concurrent_routed_reads_are_exact(self):
        rng = np.random.default_rng(17)
        cube = rng.integers(0, 50, (24, 24)).astype(np.float64)
        errors = []
        with CubeService(RelativePrefixSumCube, cube) as service:
            with QueryRouter(service, auto_build=False) as router:
                router.build_rollup(8)
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
