"""Circuit breakers and the probing health monitor."""

import numpy as np
import pytest

from repro import RelativePrefixSumCube
from repro.cluster import BreakerPolicy, CircuitBreaker, CubeCluster
from repro.faults import FaultPlan
from repro.metrics import MetricsRegistry


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=10.0, metrics=None):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "n0",
            BreakerPolicy(failure_threshold=threshold, cooldown_s=cooldown),
            clock=clock,
            metrics=metrics,
        )
        return breaker, clock

    def test_starts_closed_and_allows(self):
        breaker, _ = self.make()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_trips_after_consecutive_failures(self):
        breaker, _ = self.make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_success_resets_the_failure_streak(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_after_cooldown_then_close_on_success(self):
        breaker, clock = self.make(threshold=1, cooldown=5.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()  # the trial call
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_failure_reopens_for_another_cooldown(self):
        breaker, clock = self.make(threshold=1, cooldown=5.0)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()  # trial failed
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.allow()

    def test_metrics_record_trips_and_resets(self):
        metrics = MetricsRegistry(
            keyed=("breaker_trips", "breaker_resets", "warming_failures")
        )
        breaker, clock = self.make(
            threshold=1, cooldown=1.0, metrics=metrics
        )
        breaker.record_failure()
        clock.advance(1.0)
        breaker.record_success()
        snap = metrics.snapshot()
        assert snap["breaker_trips"] == {"n0": 1}
        assert snap["breaker_resets"] == {"n0": 1}

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerPolicy(cooldown_s=-1.0)


@pytest.fixture
def small_cluster(tmp_path, rng):
    cube = rng.integers(0, 30, (8, 6)).astype(np.int64)
    plan = FaultPlan(seed=0)
    cluster = CubeCluster(
        RelativePrefixSumCube,
        cube,
        data_dir=tmp_path,
        num_shards=2,
        replication_factor=2,
        fault_plan=plan,
        breaker=BreakerPolicy(failure_threshold=2, cooldown_s=60.0),
    )
    yield cluster, plan, cube
    cluster.close()


class TestHealthMonitor:
    def test_tick_probes_every_live_node(self, small_cluster):
        cluster, _plan, _ = small_cluster
        results = cluster.monitor.tick()
        assert set(results) == {"s0.n0", "s0.n1", "s1.n0", "s1.n1"}
        assert all(results.values())
        assert cluster.stats()["metrics"]["probes"] == 4

    def test_tick_order_is_seeded(self, tmp_path, rng):
        cube = rng.integers(0, 9, (6, 4)).astype(np.int64)
        orders = []
        for attempt in range(2):
            cluster = CubeCluster(
                RelativePrefixSumCube,
                cube,
                data_dir=tmp_path / str(attempt),
                num_shards=2,
                replication_factor=2,
                seed=7,
            )
            try:
                orders.append(list(cluster.monitor.tick()))
            finally:
                cluster.close()
        assert orders[0] == orders[1]

    def test_failed_probes_trip_breaker_and_fail_over(self, small_cluster):
        cluster, plan, _ = small_cluster
        plan.kill("s1.n0")
        cluster.monitor.tick()
        assert cluster.breaker("s1.n0").state == CircuitBreaker.CLOSED
        cluster.monitor.tick()  # second consecutive failure: trip + failover
        assert not cluster.breaker("s1.n0").allow()
        stats = cluster.stats()
        assert stats["metrics"]["failovers"] == {1: 1}
        assert stats["nodes"]["s1.n1"]["role"] == "primary"
        assert stats["nodes"]["s1.n0"]["state"] == "dead"

    def test_failover_preserves_acked_groups(self, small_cluster):
        cluster, plan, cube = small_cluster
        oracle = cube.astype(np.float64)
        cluster.submit_batch([((6, 2), 11.0), ((7, 5), -4.0)])
        oracle[6, 2] += 11.0
        oracle[7, 5] += -4.0
        cluster.flush()
        plan.kill("s1.n0")
        for _ in range(2):
            cluster.monitor.tick()
        assert cluster.stats()["metrics"]["failovers"] == {1: 1}
        assert cluster.range_sum((0, 0), (7, 5)) == oracle.sum()

    def test_tick_survives_a_primaryless_shard(self, small_cluster):
        """One shard with no primary must not abort the tick: probes
        still run and the other shards keep their failover checks."""
        cluster, plan, _ = small_cluster
        for node in cluster.replica_sets[0].nodes:
            node.is_primary = False
        results = cluster.monitor.tick()  # must not raise
        assert set(results) == {"s0.n0", "s0.n1", "s1.n0", "s1.n1"}
        # shard 1's failover opportunity is not denied by shard 0
        plan.kill("s1.n0")
        for _ in range(2):
            cluster.monitor.tick()
        assert cluster.stats()["metrics"]["failovers"] == {1: 1}
        assert cluster.node("s1.n1").is_primary

    def test_background_thread_starts_and_stops(self, small_cluster):
        cluster, _plan, _ = small_cluster
        cluster.monitor.start(interval_s=0.01)
        try:
            import time

            deadline = time.monotonic() + 5.0
            while (
                cluster.monitor.ticks == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert cluster.monitor.ticks > 0
        finally:
            cluster.monitor.stop()
