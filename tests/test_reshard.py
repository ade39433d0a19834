"""Live resharding: split/merge migrations, epoch fencing, rollback."""

import threading

import numpy as np
import pytest

from repro.cluster import (
    BreakerPolicy,
    CircuitBreaker,
    CubeCluster,
    ReshardError,
    ShardMap,
)
from repro import RelativePrefixSumCube
from repro.cluster.reshard import PHASES
from repro.errors import ClusterError
from repro.faults import FaultPlan, InjectedFault
from repro.routing import QueryRouter

from .conftest import brute_range_sum, random_range

SHAPE = (24, 10)


def make_cube(rng):
    return rng.integers(0, 40, SHAPE).astype(np.int64)


def make_cluster(tmp_path, cube, **kwargs):
    kwargs.setdefault("num_shards", 2)
    kwargs.setdefault("replication_factor", 2)
    kwargs.setdefault(
        "breaker", BreakerPolicy(failure_threshold=2, cooldown_s=60.0)
    )
    return CubeCluster(
        RelativePrefixSumCube, cube, data_dir=tmp_path, **kwargs
    )


def apply_group(cluster, oracle, rng, per_group=4):
    group = []
    for _ in range(per_group):
        cell = tuple(int(rng.integers(0, n)) for n in SHAPE)
        delta = float(rng.integers(-6, 7) or 1)
        group.append((cell, delta))
        oracle[cell] += delta
    cluster.submit_batch(group)


def assert_exact_everywhere(cluster, oracle, rng, queries=12):
    for _ in range(queries):
        low, high = random_range(rng, SHAPE)
        assert cluster.range_sum(low, high) == pytest.approx(
            brute_range_sum(oracle, low, high)
        )


class TestShardMapEpochs:
    def test_initial_epoch_zero_and_split_bumps(self):
        shardmap = ShardMap(SHAPE, 2)
        assert shardmap.epoch == 0
        split = shardmap.split_shard(0)
        assert split.epoch == 1
        assert split.num_shards == 3
        merged = split.merge_shards(0)
        assert merged.epoch == 2
        assert merged.bounds == shardmap.bounds

    def test_from_bounds_validates_coverage(self):
        with pytest.raises(ClusterError):
            ShardMap.from_bounds(SHAPE, [(0, 10), (12, 24)])
        with pytest.raises(ClusterError):
            ShardMap.from_bounds(SHAPE, [(0, 10), (10, 20)])
        with pytest.raises(ClusterError):
            ShardMap.from_bounds(SHAPE, [(0, 0), (0, 24)])

    def test_split_requires_interior_row(self):
        shardmap = ShardMap(SHAPE, 2)
        start, stop = shardmap.bounds[0]
        with pytest.raises(ClusterError):
            shardmap.split_shard(0, at_row=start)
        with pytest.raises(ClusterError):
            shardmap.split_shard(0, at_row=stop)


class TestLiveSplit:
    def test_split_preserves_exact_answers(self, tmp_path, rng):
        cube = make_cube(rng)
        oracle = cube.astype(np.float64)
        with make_cluster(tmp_path, cube) as cluster:
            apply_group(cluster, oracle, rng)
            summary = cluster.split_shard(0)
            assert summary["ok"]
            assert summary["new_epoch"] == 1
            assert cluster.shardmap.num_shards == 3
            assert cluster.epoch == 1
            assert summary["verify"]["mismatches"] == []
            assert_exact_everywhere(cluster, oracle, rng)
            # the new topology keeps accepting writes
            apply_group(cluster, oracle, rng)
            assert_exact_everywhere(cluster, oracle, rng)

    def test_merge_preserves_exact_answers(self, tmp_path, rng):
        cube = make_cube(rng)
        oracle = cube.astype(np.float64)
        with make_cluster(tmp_path, cube, num_shards=3) as cluster:
            apply_group(cluster, oracle, rng)
            summary = cluster.merge_shards(1)
            assert summary["ok"]
            assert cluster.shardmap.num_shards == 2
            assert_exact_everywhere(cluster, oracle, rng)
            apply_group(cluster, oracle, rng)
            assert_exact_everywhere(cluster, oracle, rng)

    def test_phases_fire_in_order(self, tmp_path, rng):
        cube = make_cube(rng)
        phases = []
        with make_cluster(tmp_path, cube) as cluster:
            cluster.split_shard(0, phase_hook=phases.append)
        assert tuple(phases) == PHASES

    def test_writes_at_every_phase_boundary_are_never_lost(
        self, tmp_path, rng
    ):
        """The dual-write window's core promise: a group acked at any
        phase boundary is served by whichever topology wins."""
        cube = make_cube(rng)
        oracle = cube.astype(np.float64)
        with make_cluster(tmp_path, cube) as cluster:

            def write_at_phase(phase):
                # re-entrant by design: the hook runs outside the
                # topology lock, so a client write at the exact phase
                # boundary is the realistic interleaving
                apply_group(cluster, oracle, rng)

            cluster.split_shard(0, phase_hook=write_at_phase)
            assert_exact_everywhere(cluster, oracle, rng)
            metrics = cluster.metrics.snapshot()
            assert metrics["dual_writes"] >= 1

    def test_concurrent_write_stream_through_split(self, tmp_path, rng):
        cube = make_cube(rng)
        oracle = cube.astype(np.float64)
        lock = threading.Lock()
        stop = threading.Event()
        errors = []

        with make_cluster(tmp_path, cube) as cluster:
            def writer():
                wrng = np.random.default_rng(7)
                while not stop.is_set():
                    cell = tuple(
                        int(wrng.integers(0, n)) for n in SHAPE
                    )
                    delta = float(wrng.integers(1, 5))
                    try:
                        with lock:
                            cluster.submit_batch([(cell, delta)])
                            oracle[cell] += delta
                    except Exception as error:  # noqa: BLE001
                        errors.append(error)
                        return

            thread = threading.Thread(target=writer)
            thread.start()
            try:
                cluster.split_shard(0)
                cluster.merge_shards(0)
            finally:
                stop.set()
                thread.join(timeout=30.0)
            assert not errors
            cluster.flush()
            with lock:
                assert_exact_everywhere(cluster, oracle, rng)

    def test_shard_versions_receipt_carries_epoch(self, tmp_path, rng):
        cube = make_cube(rng)
        with make_cluster(tmp_path, cube) as cluster:
            _, receipt = cluster.range_sum_many(
                [(0, 0)], [(23, 9)], return_shard_versions=True
            )
            assert receipt["epoch"] == 0
            cluster.split_shard(0)
            _, receipt = cluster.range_sum_many(
                [(0, 0)], [(23, 9)], return_shard_versions=True
            )
            assert receipt["epoch"] == 1
            assert set(receipt["versions"]) <= {0, 1, 2}

    def test_stamp_is_epoch_prefixed_and_atomic(self, tmp_path, rng):
        cube = make_cube(rng)
        with make_cluster(tmp_path, cube) as cluster:
            assert cluster.current_stamp() == (0, 0, 0)
            cluster.submit_batch([((0, 0), 1.0)])
            assert cluster.current_stamp()[0] == 0
            cluster.split_shard(1)
            stamp = cluster.current_stamp()
            assert stamp[0] == 1
            assert len(stamp) == 1 + cluster.shardmap.num_shards

    def test_read_stamp_survives_a_flip_after_the_read(
        self, tmp_path, rng, monkeypatch
    ):
        """A split that flips after a routed read's shard reads but
        before its stamp is taken must not pair the read's epoch with
        the new layout's version vector."""
        cube = make_cube(rng)
        with make_cluster(tmp_path, cube) as cluster:
            shards_at = {cluster.epoch: cluster.shardmap.num_shards}
            replica_set = cluster.replica_sets[0]
            read = replica_set.range_sum_many

            def read_then_split(*args, **kwargs):
                result = read(*args, **kwargs)
                if len(shards_at) == 1:
                    cluster.split_shard(0)
                    shards_at[cluster.epoch] = cluster.shardmap.num_shards
                return result

            monkeypatch.setattr(
                replica_set, "range_sum_many", read_then_split
            )
            with QueryRouter(cluster) as router:
                batch = router.route_many([(0, 0)], [(23, 9)])
            assert shards_at == {0: 2, 1: 3}
            stamp = batch.stamps[0]
            assert len(stamp) == 1 + shards_at[stamp[0]]
            assert batch.values[0] == cube.sum()


class TestRollback:
    @pytest.mark.parametrize(
        "phase", ["plan", "seed", "tail_replay", "dual_write", "flip",
                  "verify"]
    )
    def test_injected_failure_rolls_back_with_zero_acked_loss(
        self, tmp_path, rng, phase
    ):
        cube = make_cube(rng)
        oracle = cube.astype(np.float64)
        plan = FaultPlan(seed=3, reshard_fail_at=phase)
        with make_cluster(tmp_path, cube, fault_plan=plan) as cluster:
            apply_group(cluster, oracle, rng)
            with pytest.raises(ReshardError) as info:
                cluster.split_shard(0)
            assert info.value.rolled_back
            assert info.value.phase == phase
            assert cluster.epoch == 0
            assert cluster.shardmap.num_shards == 2
            # every acked group still served, exactly
            assert_exact_everywhere(cluster, oracle, rng)
            apply_group(cluster, oracle, rng)
            assert_exact_everywhere(cluster, oracle, rng)
            assert cluster.metrics.snapshot()["reshard_rollbacks"] == 1

    def test_epoch_never_reused_after_rollback(self, tmp_path, rng):
        cube = make_cube(rng)
        plan = FaultPlan(seed=3, reshard_fail_at="flip")
        with make_cluster(tmp_path, cube, fault_plan=plan) as cluster:
            with pytest.raises(ReshardError):
                cluster.split_shard(0)
            assert cluster.epoch == 0
            plan.reshard_fail_at = frozenset()
            summary = cluster.split_shard(0)
            # epoch 1 was burned by the failed attempt
            assert summary["new_epoch"] == 2
            assert cluster.epoch == 2

    def test_acked_write_during_dual_window_survives_verify_rollback(
        self, tmp_path, rng
    ):
        cube = make_cube(rng)
        oracle = cube.astype(np.float64)
        plan = FaultPlan(seed=3, reshard_fail_at="verify")
        with make_cluster(tmp_path, cube, fault_plan=plan) as cluster:

            def write_mid_migration(phase):
                if phase in ("dual_write", "flip"):
                    apply_group(cluster, oracle, rng)

            with pytest.raises(ReshardError) as info:
                cluster.split_shard(0, phase_hook=write_mid_migration)
            assert info.value.rolled_back
            # groups acked under the new epoch were reverse-mirrored:
            # the restored topology serves them
            assert_exact_everywhere(cluster, oracle, rng)

    def test_only_one_migration_at_a_time(self, tmp_path, rng):
        cube = make_cube(rng)
        with make_cluster(tmp_path, cube) as cluster:

            def nested(phase):
                if phase == "dual_write":
                    with pytest.raises(ReshardError):
                        cluster.merge_shards(0)

            cluster.split_shard(0, phase_hook=nested)
            assert cluster.shardmap.num_shards == 3


class TestStatsAtomicity:
    def test_stats_includes_epoch_vector_and_migration(self, tmp_path, rng):
        cube = make_cube(rng)
        with make_cluster(tmp_path, cube) as cluster:
            report = cluster.stats()
            assert report["epoch"] == 0
            assert report["shardmap"]["epoch"] == 0
            assert len(report["version_vector"]) == 2
            assert report["migration"] is None
            seen = []

            def capture(phase):
                if phase == "dual_write":
                    seen.append(cluster.stats()["migration"])

            cluster.split_shard(0, phase_hook=capture)
            assert seen and seen[0]["kind"] == "split"
            assert seen[0]["mode"] in ("buffer", "dual")
            assert cluster.stats()["migration"] is None

    def test_stats_never_torn_across_epoch_flips(self, tmp_path, rng):
        """Regression: stats() used to read the shard map and per-node
        receipts without a lock, so a concurrent flip could pair the
        new map with the old nodes. Race it hard and require every
        snapshot to be internally consistent."""
        cube = make_cube(rng)
        torn = []
        stop = threading.Event()

        with make_cluster(tmp_path, cube) as cluster:
            def hammer():
                while not stop.is_set():
                    report = cluster.stats()
                    num_shards = report["shardmap"]["num_shards"]
                    if len(report["shardmap"]["bounds"]) != num_shards:
                        torn.append(report)
                    if len(report["version_vector"]) != num_shards:
                        torn.append(report)
                    if report["epoch"] != report["shardmap"]["epoch"]:
                        torn.append(report)
                    non_warming_shards = {
                        node["shard"]
                        for node in report["nodes"].values()
                        if node["role"] != "warming"
                    }
                    if non_warming_shards - set(range(num_shards)):
                        torn.append(report)

            threads = [
                threading.Thread(target=hammer) for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            try:
                for _ in range(3):
                    cluster.split_shard(0)
                    cluster.merge_shards(0)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30.0)
        assert torn == []


class TestWarmingBreakers:
    def test_warming_failures_never_trip(self):
        breaker = CircuitBreaker(
            "t0", BreakerPolicy(failure_threshold=2, cooldown_s=60.0)
        )
        breaker.set_warming(True)
        for _ in range(10):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.warming_failures == 10

    def test_leaving_warming_resets_failure_charge(self):
        breaker = CircuitBreaker(
            "t0", BreakerPolicy(failure_threshold=2, cooldown_s=60.0)
        )
        breaker.set_warming(True)
        for _ in range(5):
            breaker.record_failure()
        breaker.set_warming(False)
        # one post-warming failure must not trip a threshold-2 breaker
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN

    def test_migration_targets_probed_without_quarantine(
        self, tmp_path, rng
    ):
        cube = make_cube(rng)
        with make_cluster(tmp_path, cube) as cluster:
            observed = []

            def probe_targets(phase):
                if phase == "dual_write":
                    targets = cluster.migration_target_nodes()
                    observed.append([n.node_id for n in targets])
                    results = cluster.monitor.tick()
                    for node in targets:
                        assert node.node_id in results
                        assert cluster.breaker(node.node_id).warming

            cluster.split_shard(0, phase_hook=probe_targets)
            assert observed and len(observed[0]) == 2 * 2
            # post-flip the targets are live members with warming off
            for node_id in observed[0]:
                assert not cluster.breaker(node_id).warming


class TestScrubberBudget:
    def test_repair_budget_derives_from_probe_timeout(self, tmp_path, rng):
        cube = make_cube(rng)
        with make_cluster(tmp_path, cube) as cluster:
            cluster.monitor.probe_timeout_s = 0.5
            budget = cluster.scrubber.repair_budget()
            assert budget == pytest.approx(
                0.5 * cluster.scrubber.REPAIR_BUDGET_PROBES
            )
            cluster.scrubber.repair_timeout = 3.0
            assert cluster.scrubber.repair_budget() == pytest.approx(3.0)

    def test_verify_migration_reports_clean_targets(self, tmp_path, rng):
        cube = make_cube(rng)
        with make_cluster(tmp_path, cube) as cluster:
            reports = []

            def grab(phase):
                if phase == "retire":
                    pass

            summary = cluster.split_shard(0, phase_hook=grab)
            verify = summary["verify"]
            assert verify["targets"] == 2
            assert verify["verified"] == 2
            assert verify["mismatches"] == []


class TestFaultPlanReshard:
    def test_phase_fault_fires_once(self):
        plan = FaultPlan(reshard_fail_at=("seed",))
        with pytest.raises(InjectedFault):
            plan.on_reshard_phase("seed")
        # second entry passes: the fault is one-shot per phase
        plan.on_reshard_phase("seed")
        plan.on_reshard_phase("flip")

    def test_fired_fault_is_tallied(self):
        plan = FaultPlan(reshard_fail_at="plan")
        with pytest.raises(InjectedFault):
            plan.on_reshard_phase("plan")
        assert plan.stats().get("reshard_phase_failures") == 1
