"""Degraded reads: bounded-error answers from per-shard aggregates.

The contract under test, at every layer: exact stays the default (a
query spanning a dead shard raises), opting in via ``allow_estimate``
returns an answer carrying an explicit ``estimate=True`` marker whose
``[low, high]`` interval *contains the true acked sum*, and estimated
answers are never cached by the router nor stripped of their marker by
the wire protocol.
"""

import asyncio

import numpy as np
import pytest

from repro import (
    CubeClient,
    CubeServer,
    QueryRouter,
    RelativePrefixSumCube,
)
from repro.cluster import (
    BreakerPolicy,
    CubeCluster,
    RangeEstimate,
    ShardAggregates,
    SlabSummary,
)
from repro.cluster.shardmap import ShardMap
from repro.errors import ClusterError, ClusterUnavailableError
from repro.faults import FaultPlan
from repro.routing import ClusterBackend

from .conftest import brute_range_sum, random_range

SHAPE = (24, 10)


def make_cube(rng):
    return rng.integers(-30, 40, SHAPE).astype(np.int64)


def make_cluster(tmp_path, cube, **kwargs):
    kwargs.setdefault("num_shards", 3)
    kwargs.setdefault("replication_factor", 2)
    kwargs.setdefault(
        "breaker", BreakerPolicy(failure_threshold=2, cooldown_s=60.0)
    )
    return CubeCluster(
        RelativePrefixSumCube, cube, data_dir=tmp_path, **kwargs
    )


def kill_shard(plan, shard):
    plan.kill(f"s{shard}.n0")
    plan.kill(f"s{shard}.n1")


class TestSlabSummary:
    def test_full_box_is_exact(self, rng):
        slab = rng.integers(-20, 20, (9, 7)).astype(np.float64)
        summary = SlabSummary(slab, blocks_per_axis=4)
        est, lo, hi = summary.estimate_box((0, 0), (8, 6))
        truth = float(slab.sum())
        assert est == pytest.approx(truth)
        assert lo <= truth <= hi

    def test_every_box_interval_contains_truth(self, rng):
        slab = rng.standard_normal((13, 8)) * 25.0
        summary = SlabSummary(slab, blocks_per_axis=4)
        for _ in range(200):
            low, high = random_range(rng, slab.shape)
            truth = brute_range_sum(slab, low, high)
            est, lo, hi = summary.estimate_box(low, high)
            assert lo <= truth <= hi
            assert lo <= est <= hi or est == pytest.approx(truth)

    def test_apply_keeps_containment(self, rng):
        slab = rng.integers(-10, 10, (11, 6)).astype(np.float64)
        summary = SlabSummary(slab, blocks_per_axis=3)
        for _ in range(50):
            cell = tuple(int(rng.integers(0, n)) for n in slab.shape)
            delta = float(rng.integers(-8, 9))
            slab[cell] += delta
            summary.apply([(cell, delta)])
        for _ in range(100):
            low, high = random_range(rng, slab.shape)
            truth = brute_range_sum(slab, low, high)
            _, lo, hi = summary.estimate_box(low, high)
            assert lo <= truth <= hi

    def test_interval_is_not_vacuous(self, rng):
        """The bound must be an estimate, not +/- infinity: for a box
        aligned to block edges it collapses to (nearly) exact."""
        slab = np.arange(64.0).reshape(8, 8)
        summary = SlabSummary(slab, blocks_per_axis=4)
        # blocks are 2x2: this box covers blocks exactly
        est, lo, hi = summary.estimate_box((0, 0), (3, 3))
        truth = brute_range_sum(slab, (0, 0), (3, 3))
        assert est == pytest.approx(truth)
        assert hi - lo == pytest.approx(0.0, abs=1e-5)


class TestShardAggregates:
    def test_rebuild_replaces_topology(self, rng):
        cube = rng.integers(-5, 6, SHAPE).astype(np.float64)
        shardmap = ShardMap(SHAPE, 2)
        aggregates = ShardAggregates(shardmap, cube)
        assert aggregates.shards() == (0, 1)
        split = shardmap.split_shard(0)
        aggregates.rebuild(
            {
                shard: split.subarray(cube, shard)
                for shard in range(split.num_shards)
            }
        )
        assert aggregates.shards() == (0, 1, 2)
        truth = float(cube[0:2].sum())
        (est, lo, hi), = aggregates.estimate_boxes(
            0, [(0, 0)], [(1, SHAPE[1] - 1)]
        )
        assert lo <= truth <= hi

    def test_missing_shard_raises(self, rng):
        aggregates = ShardAggregates(ShardMap(SHAPE, 2))
        with pytest.raises(ClusterError):
            aggregates.estimate_boxes(0, [(0, 0)], [(1, 1)])


class TestRangeEstimateWire:
    def test_round_trip(self):
        estimate = RangeEstimate(
            value=12.5, low=10.0, high=15.0, confidence=1.0,
            degraded_shards=(1, 2), epoch=3,
        )
        back = RangeEstimate.from_wire(estimate.to_wire())
        assert back == estimate
        assert back.estimate is True
        assert back.contains(10.0) and back.contains(15.0)
        assert not back.contains(15.01)


class TestClusterDegradedReads:
    def test_exact_is_the_default(self, tmp_path, rng):
        cube = make_cube(rng)
        plan = FaultPlan(seed=5)
        with make_cluster(tmp_path, cube, fault_plan=plan) as cluster:
            kill_shard(plan, 1)
            with pytest.raises(ClusterUnavailableError):
                cluster.range_sum((0, 0), (23, 9))

    def test_estimate_marker_and_containment(self, tmp_path, rng):
        cube = make_cube(rng)
        oracle = cube.astype(np.float64)
        plan = FaultPlan(seed=5)
        with make_cluster(tmp_path, cube, fault_plan=plan) as cluster:
            kill_shard(plan, 1)
            lows, highs = [], []
            for _ in range(20):
                low, high = random_range(rng, SHAPE)
                lows.append(low)
                highs.append(high)
            values, estimates = cluster.range_sum_many(
                lows, highs, allow_estimate=True
            )
            degraded = 0
            for low, high, value, estimate in zip(
                lows, highs, values, estimates
            ):
                truth = brute_range_sum(oracle, low, high)
                spans_dead = low[0] <= 15 and high[0] >= 8
                if estimate is None:
                    # healthy-shard boxes stay exact
                    assert not spans_dead
                    assert value == pytest.approx(truth)
                else:
                    degraded += 1
                    assert estimate.estimate is True
                    assert estimate.confidence == 1.0
                    assert 1 in estimate.degraded_shards
                    assert estimate.epoch == cluster.epoch
                    assert estimate.contains(truth)
                    assert value == pytest.approx(estimate.value)
            assert degraded >= 1
            metrics = cluster.metrics.snapshot()
            # one degraded read per batch call, tagged with the shard
            assert metrics["degraded_reads"] == 1
            assert metrics["degraded_shard_reads"].get(1, 0) >= 1

    def test_containment_survives_acked_writes(self, tmp_path, rng):
        cube = make_cube(rng)
        oracle = cube.astype(np.float64)
        plan = FaultPlan(seed=5)
        with make_cluster(tmp_path, cube, fault_plan=plan) as cluster:
            for _ in range(10):
                cell = tuple(int(rng.integers(0, n)) for n in SHAPE)
                delta = float(rng.integers(-9, 10) or 3)
                cluster.submit_batch([(cell, delta)])
                oracle[cell] += delta
            kill_shard(plan, 0)
            low, high = (0, 0), (23, 9)
            values, estimates = cluster.range_sum_many(
                [low], [high], allow_estimate=True
            )
            truth = brute_range_sum(oracle, low, high)
            assert estimates[0] is not None
            assert estimates[0].contains(truth)

    def test_refusal_without_aggregates(self, tmp_path, rng):
        cube = make_cube(rng)
        plan = FaultPlan(seed=5)
        with make_cluster(tmp_path, cube, fault_plan=plan) as cluster:
            kill_shard(plan, 2)
            # simulate a cluster whose aggregates were never seeded for
            # that shard: estimation must refuse, not fabricate
            cluster.aggregates.rebuild(
                {
                    shard: cluster.shardmap.subarray(cube, shard)
                    for shard in (0, 1)
                }
            )
            with pytest.raises(ClusterUnavailableError):
                cluster.range_sum_many(
                    [(0, 0)], [(23, 9)], allow_estimate=True
                )
            assert cluster.metrics.snapshot()["estimate_refused"] == 1

    def test_estimates_with_receipt_ordering(self, tmp_path, rng):
        cube = make_cube(rng)
        plan = FaultPlan(seed=5)
        with make_cluster(tmp_path, cube, fault_plan=plan) as cluster:
            kill_shard(plan, 1)
            values, estimates, receipt = cluster.range_sum_many(
                [(0, 0)], [(23, 9)],
                allow_estimate=True, return_shard_versions=True,
            )
            assert estimates[0] is not None
            assert receipt["epoch"] == 0


class TestRouterDegradedReads:
    def test_estimates_flow_through_and_are_never_cached(
        self, tmp_path, rng
    ):
        cube = make_cube(rng)
        oracle = cube.astype(np.float64)
        plan = FaultPlan(seed=5)
        with make_cluster(tmp_path, cube, fault_plan=plan) as cluster:
            router = QueryRouter(ClusterBackend(cluster))
            kill_shard(plan, 1)
            low, high = (4, 1), (20, 8)  # spans the dead shard
            truth = brute_range_sum(oracle, low, high)
            values, estimates = router.range_sum_many(
                [low], [high], allow_estimate=True
            )
            assert estimates[0] is not None
            assert estimates[0].contains(truth)
            # a second identical call re-estimates rather than serving
            # the degraded answer from cache
            batch = router.route_many([low], [high], allow_estimate=True)
            assert batch.estimates[0] is not None
            assert batch.tiers[0] == "rps"

    def test_mixed_batch_caches_only_exact_slots(self, tmp_path, rng):
        cube = make_cube(rng)
        plan = FaultPlan(seed=5)
        with make_cluster(tmp_path, cube, fault_plan=plan) as cluster:
            router = QueryRouter(ClusterBackend(cluster))
            kill_shard(plan, 1)
            dead_box = ((4, 1), (20, 8))
            live_box = ((0, 0), (6, 9))  # shard 0 only
            batch = router.route_many(
                [dead_box[0], live_box[0]],
                [dead_box[1], live_box[1]],
                allow_estimate=True,
            )
            assert batch.estimates[0] is not None
            assert batch.estimates[1] is None
            again = router.route_many(
                [dead_box[0], live_box[0]],
                [dead_box[1], live_box[1]],
                allow_estimate=True,
            )
            # the exact slot serves from cache; the estimated one re-runs
            assert again.tiers[1] == "cache"
            assert again.tiers[0] == "rps"
            assert again.estimates[0] is not None

    def test_exact_default_still_raises_through_router(
        self, tmp_path, rng
    ):
        cube = make_cube(rng)
        plan = FaultPlan(seed=5)
        with make_cluster(tmp_path, cube, fault_plan=plan) as cluster:
            router = QueryRouter(ClusterBackend(cluster))
            kill_shard(plan, 1)
            with pytest.raises(ClusterUnavailableError):
                router.range_sum_many([(4, 1)], [(20, 8)])


class TestNetDegradedReads:
    def test_wire_surface_marks_degraded_answers(self, tmp_path, rng):
        cube = make_cube(rng)
        oracle = cube.astype(np.float64)
        plan = FaultPlan(seed=5)
        with make_cluster(tmp_path, cube, fault_plan=plan) as cluster:
            router = QueryRouter(ClusterBackend(cluster))
            with CubeServer(router, port=0) as server:
                host, port = server.address

                async def scenario():
                    async with await CubeClient.connect(
                        host, port
                    ) as client:
                        # healthy: estimates present but all None
                        values, estimates, version = (
                            await client.range_sum_many(
                                [(4, 1)], [(20, 8)],
                                allow_estimate=True,
                            )
                        )
                        assert estimates == [None]
                        assert version[0] == 0  # epoch prefix
                        kill_shard(plan, 1)
                        values, estimates, version = (
                            await client.range_sum_many(
                                [(2, 0)], [(21, 7)],
                                allow_estimate=True,
                            )
                        )
                        truth = brute_range_sum(
                            oracle, (2, 0), (21, 7)
                        )
                        assert isinstance(
                            estimates[0], RangeEstimate
                        )
                        assert estimates[0].estimate is True
                        assert estimates[0].contains(truth)
                        # exact path unchanged: no estimates in reply
                        exact_values, exact_version = (
                            await client.range_sum_many(
                                [(0, 0)], [(6, 9)]
                            )
                        )
                        assert exact_values[0] == pytest.approx(
                            brute_range_sum(oracle, (0, 0), (6, 9))
                        )

                asyncio.run(scenario())
