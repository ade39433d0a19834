"""CubeCluster: sharded exact queries, replication, failover, hedging."""

import re

import numpy as np
import pytest

from repro import RelativePrefixSumCube
from repro.cluster import (
    BreakerPolicy,
    ClusterError,
    ClusterUnavailableError,
    CubeCluster,
    Deadline,
    HedgePolicy,
)
from repro.errors import DeadlineExceededError, RangeError, WALError
from repro.faults import FaultPlan
from repro.serve import UpdateGroup
from repro.workloads import ClusterWorkloadRunner

from .conftest import brute_range_sum, random_range

SHAPE = (12, 10)


def make_cube(rng):
    return rng.integers(0, 40, SHAPE).astype(np.int64)


def make_cluster(tmp_path, cube, **kwargs):
    kwargs.setdefault("num_shards", 3)
    kwargs.setdefault("replication_factor", 2)
    kwargs.setdefault(
        "breaker", BreakerPolicy(failure_threshold=2, cooldown_s=60.0)
    )
    return CubeCluster(
        RelativePrefixSumCube, cube, data_dir=tmp_path, **kwargs
    )


def random_groups(rng, oracle, count, per_group=5):
    """Seeded update groups, mirrored into ``oracle`` as they are made."""
    groups = []
    for _ in range(count):
        group = []
        for _ in range(per_group):
            cell = tuple(int(rng.integers(0, n)) for n in SHAPE)
            delta = float(rng.integers(-6, 7) or 1)
            group.append((cell, delta))
            oracle[cell] += delta
        groups.append(group)
    return groups


class TestQueries:
    def test_cross_shard_range_sums_match_oracle(self, tmp_path, rng):
        cube = make_cube(rng)
        with make_cluster(tmp_path, cube) as cluster:
            for _ in range(40):
                low, high = random_range(rng, SHAPE)
                assert cluster.range_sum(low, high) == brute_range_sum(
                    cube, low, high
                )

    def test_batched_queries_accumulate_per_shard_partials(
        self, tmp_path, rng
    ):
        cube = make_cube(rng)
        with make_cluster(tmp_path, cube) as cluster:
            lows, highs = [], []
            for _ in range(15):
                low, high = random_range(rng, SHAPE)
                lows.append(low)
                highs.append(high)
            values = cluster.range_sum_many(lows, highs)
            for value, low, high in zip(values, lows, highs):
                assert value == brute_range_sum(cube, low, high)

    def test_updates_become_visible_after_flush(self, tmp_path, rng):
        cube = make_cube(rng)
        oracle = cube.astype(np.float64)
        with make_cluster(tmp_path, cube) as cluster:
            for group in random_groups(rng, oracle, 6):
                acked = cluster.submit_batch(group)
                assert acked  # at least one shard involved
            cluster.flush()
            assert cluster.total() == oracle.sum()
            for _ in range(20):
                low, high = random_range(rng, SHAPE)
                assert cluster.range_sum(low, high) == brute_range_sum(
                    oracle, low, high
                )

    def test_malformed_query_is_a_caller_error_not_unavailability(
        self, tmp_path, rng
    ):
        with make_cluster(tmp_path, make_cube(rng)) as cluster:
            with pytest.raises(RangeError):
                cluster.range_sum((0, 0), (99, 0))
            with pytest.raises(RangeError):
                cluster.range_sum((3, 3), (1, 3))

    def test_query_counts_one_read_per_involved_shard(self, tmp_path, rng):
        cube = make_cube(rng)
        with make_cluster(tmp_path, cube, num_shards=3) as cluster:
            cluster.range_sum((0, 0), (11, 9))  # spans all three shards
            metrics = cluster.stats()["metrics"]
            assert metrics["queries_routed"] == 1
            assert metrics["query_shard_reads"] == 3


class TestWriteValidation:
    """A bad cell fails the whole group before any shard acks, with
    ``RangeError`` naming the first bad cell in submission order."""

    @pytest.mark.parametrize("group, bad", [
        ([((0, 1), 1), ((1, 2, 3), 1)], (1, 2, 3)),    # ragged, too long
        ([((11, 1), 1), ((0,), 1)], (0,)),             # ragged, too short
        ([((1, 2, 3), 1), ((4, 5, 6), 1)], (1, 2, 3)),  # uniform arity
        ([((0, 0), 1), ((12, 0), 1), ((0, 10), 1)], (12, 0)),
        ([((5, 5), 1), ((3, -1), 1), ((-1, 0), 1)], (3, -1)),
    ])
    def test_bad_cell_fails_the_group_before_any_shard_acks(
        self, tmp_path, rng, group, bad
    ):
        cube = make_cube(rng)
        with make_cluster(tmp_path, cube) as cluster:
            inputs = [group]
            if len({len(cell) for cell, _ in group}) == 1:
                inputs.append(UpdateGroup(
                    np.asarray([c for c, _ in group], dtype=np.intp),
                    np.asarray([d for _, d in group]),
                ))
            for updates in inputs:
                with pytest.raises(RangeError, match=re.escape(str(bad))):
                    cluster.submit_batch(updates)
            assert all(rs.last_acked == 0 for rs in cluster.replica_sets)
            cluster.flush()
            assert cluster.total() == cube.sum()

    def test_a_group_mixing_big_ints_and_a_float_shares_one_dtype(
        self, tmp_path
    ):
        """The group's deltas take one dtype, as on a single service:
        ``2**53 + 1`` beside a float delta on another shard arrives as
        float64 ``2**53``; the int64 shard keeps its dtype, the float
        delta's shard promotes."""
        cube = np.zeros(SHAPE, dtype=np.int64)
        group = [((0, 0), 2 ** 53 + 1), ((11, 0), 0.5)]
        with make_cluster(tmp_path, cube) as cluster:
            cluster.submit_batch(group)
            cluster.flush()
            first = cluster.range_sum((0, 0), (3, 9))
            assert first.dtype == np.int64 and first == 2 ** 53
            assert cluster.range_sum((8, 0), (11, 9)) == 0.5


class TestFailover:
    def test_kill_primary_promotes_replica_with_zero_acked_loss(
        self, tmp_path, rng
    ):
        """The PR's acceptance test: kill a primary under a seeded plan,
        keep serving, and match the brute-force oracle exactly."""
        cube = make_cube(rng)
        oracle = cube.astype(np.float64)
        plan = FaultPlan(seed=11, kill_node_at={"s0.n0": 7})
        with make_cluster(
            tmp_path, cube, num_shards=2, fault_plan=plan
        ) as cluster:
            # the kill fires mid-stream; inline failover must absorb it
            for group in random_groups(rng, oracle, 10):
                cluster.submit_batch(group)
            cluster.flush()
            stats = cluster.stats()
            assert stats["metrics"]["failovers"] == {0: 1}
            assert stats["nodes"]["s0.n0"]["state"] == "dead"
            assert stats["nodes"]["s0.n1"]["role"] == "primary"
            # every acked group survived the failover (WAL replay)
            assert cluster.total() == oracle.sum()
            for _ in range(25):
                low, high = random_range(rng, SHAPE)
                assert cluster.range_sum(low, high) == brute_range_sum(
                    oracle, low, high
                )
            # and the promoted primary keeps acking durably
            for group in random_groups(rng, oracle, 4):
                cluster.submit_batch(group)
            cluster.flush()
            assert cluster.total() == oracle.sum()

    def test_reads_survive_a_killed_primary_before_any_failover(
        self, tmp_path, rng
    ):
        cube = make_cube(rng)
        plan = FaultPlan(seed=3)
        with make_cluster(
            tmp_path, cube, num_shards=2, fault_plan=plan
        ) as cluster:
            plan.kill("s0.n0")
            # no monitor tick yet: the read path itself falls through
            # to the replica after the primary's arm fails
            assert cluster.range_sum((0, 0), (11, 9)) == cube.sum()

    def test_unavailable_when_whole_shard_is_down(self, tmp_path, rng):
        cube = make_cube(rng)
        plan = FaultPlan(seed=5)
        with make_cluster(
            tmp_path, cube, num_shards=2, fault_plan=plan
        ) as cluster:
            plan.kill("s1.n0")
            plan.kill("s1.n1")
            with pytest.raises(ClusterUnavailableError):
                cluster.range_sum((0, 0), (11, 9))
            # the healthy shard still answers exactly
            assert cluster.range_sum((0, 0), (5, 9)) == cube[:6].sum()
            assert cluster.stats()["metrics"]["unavailable_errors"] == 1

    def test_partial_write_reports_acked_shards(self, tmp_path, rng):
        cube = make_cube(rng)
        plan = FaultPlan(seed=5)
        with make_cluster(
            tmp_path, cube, num_shards=2, fault_plan=plan
        ) as cluster:
            plan.kill("s1.n0")
            plan.kill("s1.n1")
            group = [((0, 0), 5.0), ((11, 9), 7.0)]  # spans both shards
            with pytest.raises(ClusterUnavailableError) as excinfo:
                cluster.submit_batch(group)
            assert list(excinfo.value.acked) == [0]
            cluster.flush()
            # shard 0's sub-group committed; shard 1 saw nothing
            assert cluster.range_sum((0, 0), (5, 9)) == cube[:6].sum() + 5.0

    def test_partition_then_heal_restores_service(self, tmp_path, rng):
        cube = make_cube(rng)
        plan = FaultPlan(seed=9)
        with make_cluster(
            tmp_path, cube, num_shards=2, fault_plan=plan
        ) as cluster:
            plan.partition("s0.n0", "s0.n1")
            with pytest.raises(ClusterUnavailableError):
                cluster.range_sum((0, 0), (11, 9))
            plan.heal()
            assert cluster.range_sum((0, 0), (11, 9)) == cube.sum()

    def test_fsync_failure_after_durable_append_is_not_double_applied(
        self, tmp_path, rng
    ):
        """A WAL fsync failure raises *after* the record reached the OS,
        so recovery replays the group; the inline failover retry must
        recognize it as committed instead of resubmitting the deltas."""
        cube = make_cube(rng)
        oracle = cube.astype(np.float64)
        with make_cluster(tmp_path, cube, num_shards=1) as cluster:
            wal = cluster.node("s0.n0").service._wal
            original = wal.sync_upto

            def fail_fsync(seq):
                wal.sync_upto = original  # fail only the first sync
                raise WALError(
                    f"injected fsync failure after seq {seq} hit the OS"
                )

            wal.sync_upto = fail_fsync
            oracle[3, 4] += 5.0
            acked = cluster.submit_batch([((3, 4), 5.0)])
            # the group committed once, under its original sequence
            assert acked == {0: 1}
            cluster.flush()
            stats = cluster.stats()
            assert stats["metrics"]["failovers"] == {0: 1}
            assert stats["nodes"]["s0.n1"]["role"] == "primary"
            # applied exactly once: a blind resubmit would add 5.0 twice
            assert cluster.total() == oracle.sum()
            for _ in range(10):
                low, high = random_range(rng, SHAPE)
                assert cluster.range_sum(low, high) == brute_range_sum(
                    oracle, low, high
                )

    def test_failed_promotion_recovery_keeps_a_retryable_primary(
        self, tmp_path, rng
    ):
        """If recovery of the dead primary's directory fails, the shard
        must keep its (fenced) primary for a later retry and must not
        destroy the replica it tried to promote."""
        cube = make_cube(rng)
        plan = FaultPlan(seed=4)
        with make_cluster(
            tmp_path, cube, num_shards=1, fault_plan=plan
        ) as cluster:
            # make the durable directory unrecoverable
            for path in (tmp_path / "shard-0").glob("ckpt-*.npz"):
                path.unlink()
            plan.kill("s0.n0")
            replica_set = cluster.replica_sets[0]
            with pytest.raises(ClusterUnavailableError):
                replica_set.failover()
            # the fenced node still holds the primary role...
            assert replica_set.primary.node_id == "s0.n0"
            assert not cluster.node("s0.n1").is_primary
            # ...and the replica's service survived the failed attempt
            assert cluster.node("s0.n1").service.total() == cube.sum()
            # the monitor's next tick retries instead of dying
            cluster.monitor.tick()
            assert replica_set.primary.node_id == "s0.n0"

    def test_replica_read_never_predates_an_acked_write(
        self, tmp_path, rng
    ):
        """Replicas apply forwarded groups asynchronously; a read that
        falls through to a trailing replica must wait for it to catch
        up to the last acked group, never serve the older snapshot."""
        cube = make_cube(rng)
        plan = FaultPlan(seed=2)
        with make_cluster(
            tmp_path,
            cube,
            num_shards=1,
            fault_plan=plan,
            # stall the replica's writer on its first group so its
            # snapshot demonstrably trails the primary's ack
            node_fault_plans={
                "s0.n1": FaultPlan(latency_at=1, latency_seconds=0.4)
            },
        ) as cluster:
            cluster.submit_batch([((0, 0), 100.0)])
            plan.kill("s0.n0")  # reads must fall through to the replica
            assert cluster.total() == cube.sum() + 100.0

    def test_lagging_replica_is_excluded_then_resynced(self, tmp_path, rng):
        cube = make_cube(rng)
        oracle = cube.astype(np.float64)
        plan = FaultPlan(seed=13)
        with make_cluster(
            tmp_path, cube, num_shards=1, fault_plan=plan
        ) as cluster:
            plan.partition("s0.n1")  # replica misses the forwards
            for group in random_groups(rng, oracle, 3):
                cluster.submit_batch(group)
            cluster.flush()
            node = cluster.node("s0.n1")
            assert node.lagging
            plan.heal()
            # reads never touch the lagging replica: exact despite it
            assert cluster.total() == oracle.sum()
            cluster.replica_sets[0].resync(node)
            assert not node.lagging
            assert node.service.version == cluster.node(
                "s0.n0"
            ).service.version
            metrics = cluster.stats()["metrics"]
            assert metrics["replica_resyncs"] == {"s0.n1": 1}


class TestHedging:
    def test_slow_primary_is_hedged_and_replica_wins(self, tmp_path, rng):
        cube = make_cube(rng)
        plan = FaultPlan(
            seed=1,
            read_latency_at=(1,),
            read_latency_nodes=["s0.n0"],
            read_latency_seconds=0.5,
        )
        with make_cluster(
            tmp_path,
            cube,
            num_shards=1,
            fault_plan=plan,
            hedge=HedgePolicy(initial_delay_s=0.02),
        ) as cluster:
            assert cluster.range_sum((0, 0), (11, 9)) == cube.sum()
            metrics = cluster.stats()["metrics"]
            assert metrics["hedged_reads"] == 1
            assert metrics["hedge_wins"] == 1

    def test_fast_reads_never_hedge(self, tmp_path, rng):
        cube = make_cube(rng)
        with make_cluster(
            tmp_path,
            cube,
            num_shards=1,
            hedge=HedgePolicy(initial_delay_s=5.0),
        ) as cluster:
            for _ in range(10):
                cluster.range_sum((0, 0), (11, 9))
            assert cluster.stats()["metrics"]["hedged_reads"] == 0

    def test_hedge_delay_tracks_observed_percentile(self):
        from repro.metrics.service import LatencyRecorder

        policy = HedgePolicy(
            quantile=95.0,
            initial_delay_s=0.5,
            min_delay_s=0.001,
            min_samples=4,
        )
        recorder = LatencyRecorder()
        assert policy.delay(recorder) == 0.5  # cold: initial delay
        for value in (0.010, 0.011, 0.012, 0.013, 0.014):
            recorder.record(value)
        assert policy.delay(recorder) == pytest.approx(0.014)

    def test_hedge_delay_follows_a_shift_after_warm_up(self):
        from repro.metrics.service import LatencyRecorder

        policy = HedgePolicy(quantile=95.0)
        recorder = LatencyRecorder()
        for _ in range(10_000):
            recorder.record(0.001)
        assert policy.delay(recorder) == pytest.approx(0.001, rel=0.05)
        for _ in range(10_000):
            recorder.record(0.010)
        assert policy.delay(recorder) >= 0.009

    def test_hedge_policy_validation(self):
        with pytest.raises(ValueError):
            HedgePolicy(quantile=150.0)
        with pytest.raises(ValueError):
            HedgePolicy(initial_delay_s=-1.0)
        with pytest.raises(ValueError):
            HedgePolicy(min_samples=0)


class TestDeadlines:
    def test_expired_deadline_raises_not_partial(self, tmp_path, rng):
        cube = make_cube(rng)
        with make_cluster(tmp_path, cube) as cluster:
            expired = Deadline(0.0)  # already in the past
            with pytest.raises(DeadlineExceededError):
                cluster.range_sum((0, 0), (11, 9), deadline=expired)
            assert cluster.stats()["metrics"]["deadline_exceeded"] >= 1

    def test_expired_deadline_on_write_reports_acked(self, tmp_path, rng):
        cube = make_cube(rng)
        with make_cluster(tmp_path, cube, num_shards=2) as cluster:
            with pytest.raises(ClusterUnavailableError) as excinfo:
                cluster.submit_batch(
                    [((0, 0), 1.0), ((11, 9), 1.0)],
                    deadline=Deadline(0.0),
                )
            assert excinfo.value.acked == {}

    def test_generous_deadline_does_not_interfere(self, tmp_path, rng):
        cube = make_cube(rng)
        with make_cluster(tmp_path, cube) as cluster:
            deadline = Deadline.after(30.0)
            assert (
                cluster.range_sum((0, 0), (11, 9), deadline=deadline)
                == cube.sum()
            )
            acked = cluster.submit_batch(
                [((3, 3), 2.0)], deadline=deadline
            )
            assert acked


class TestClusterLifecycle:
    def test_validates_configuration(self, tmp_path, rng):
        cube = make_cube(rng)
        with pytest.raises(ClusterError):
            CubeCluster(
                RelativePrefixSumCube,
                cube,
                data_dir=tmp_path,
                replication_factor=0,
            )
        with pytest.raises(ClusterError):
            CubeCluster(
                RelativePrefixSumCube,
                cube,
                data_dir=tmp_path,
                num_shards=0,
            )

    def test_stats_shape(self, tmp_path, rng):
        cube = make_cube(rng)
        with make_cluster(tmp_path, cube) as cluster:
            stats = cluster.stats()
            assert stats["shardmap"]["num_shards"] == 3
            assert len(stats["nodes"]) == 6
            for info in stats["nodes"].values():
                assert info["role"] in ("primary", "replica")
                assert info["state"] in ("ok", "lagging", "dead")
                assert info["breaker"] == "closed"
            for key in (
                "hedged_reads",
                "hedge_wins",
                "failovers",
                "breaker_trips",
                "scrub_repairs",
                "read_latency",
            ):
                assert key in stats["metrics"]

    def test_close_is_idempotent(self, tmp_path, rng):
        cluster = make_cluster(tmp_path, make_cube(rng))
        cluster.close()
        cluster.close()

    def test_kill_node_requires_a_fault_plan(self, tmp_path, rng):
        with make_cluster(tmp_path, make_cube(rng)) as cluster:
            with pytest.raises(ClusterError):
                cluster.kill_node("s0.n0")

    def test_kill_node_validates_the_id(self, tmp_path, rng):
        plan = FaultPlan(seed=0)
        with make_cluster(
            tmp_path, make_cube(rng), fault_plan=plan
        ) as cluster:
            with pytest.raises(ClusterError):
                cluster.kill_node("no.such.node")


class TestClusterWorkloadRunner:
    def test_mixed_traffic_matches_oracle(self, tmp_path, rng):
        cube = make_cube(rng)
        with make_cluster(tmp_path, cube) as cluster:
            runner = ClusterWorkloadRunner(
                cluster, cube.astype(np.float64)
            )
            queries = [random_range(rng, SHAPE) for _ in range(12)]
            groups = random_groups(rng, np.zeros(SHAPE), 12)
            result = runner.run(queries, groups)
            assert result.queries == 12
            assert result.updates == 12
            assert result.mismatches == 0
            assert result.unavailable == 0

    def test_oracle_absorbs_only_acked_updates_under_chaos(
        self, tmp_path, rng
    ):
        cube = make_cube(rng)
        plan = FaultPlan(seed=21)
        with make_cluster(
            tmp_path, cube, num_shards=2, fault_plan=plan
        ) as cluster:
            runner = ClusterWorkloadRunner(
                cluster, cube.astype(np.float64)
            )
            plan.kill("s1.n0")
            plan.kill("s1.n1")
            queries = [((0, 0), (5, 9))] * 4  # shard-0-only queries
            groups = random_groups(rng, np.zeros(SHAPE), 4)
            result = runner.run(queries, groups)
            assert result.mismatches == 0
            assert result.unavailable > 0

    def test_answer_one_unit_off_is_a_mismatch(self):
        """Exact, not approximate: on the ``repro.cli cluster`` default
        cube (sum 204,284) a full-cube answer one unit low used to pass
        a relative-tolerance comparison."""

        class OneLow:
            def __init__(self, cube):
                self.cube = cube
                self.shape = cube.shape

            def flush(self):
                pass

            def range_sum(self, low, high, deadline=None):
                return float(brute_range_sum(self.cube, low, high)) - 1.0

        cube = np.random.default_rng(0).integers(0, 100, (64, 64))
        assert cube.sum() == 204_284
        runner = ClusterWorkloadRunner(OneLow(cube), cube.astype(np.float64))
        result = runner.run([((0, 0), (63, 63)), ((5, 5), (5, 5))])
        assert result.queries == 2
        assert result.mismatches == 2

    def test_oracle_shape_must_match(self, tmp_path, rng):
        from repro.errors import WorkloadError

        with make_cluster(tmp_path, make_cube(rng)) as cluster:
            with pytest.raises(WorkloadError):
                ClusterWorkloadRunner(cluster, np.zeros((3, 3)))
