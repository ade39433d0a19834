"""Kill the ingest coordinator at every stage boundary and resume.

The exactly-once contract under test: after any crash — including a
power-loss image of the target (``abandon`` + ``recover``) and a
primary failover underneath a cluster target — a resumed pipeline
drives the cube to a state bit-for-bit equal to a never-crashed run,
and every rejected row appears in the dead-letter file exactly once.
"""

import numpy as np
import pytest

from repro import RelativePrefixSumCube
from repro.cluster import CubeCluster
from repro.cube.encoders import IntegerEncoder
from repro.cube.schema import CubeSchema, Dimension
from repro.errors import ServiceOverloadedError
from repro.faults import FaultPlan, InjectedFault
from repro.ingest import (
    CheckpointStore,
    ClusterTarget,
    IngestPipeline,
    MemorySource,
    RollingCubeService,
    RollingServiceTarget,
    ServiceTarget,
    read_dead_letters,
)
from repro.serve import CubeService, DurabilityPolicy

SIZE = 8
STAGES = ["chunk", "encode", "deadletter", "intent", "submit", "checkpoint"]


def flat_schema():
    return CubeSchema(
        [
            Dimension("x", IntegerEncoder(0, SIZE - 1)),
            Dimension("y", IntegerEncoder(0, SIZE - 1)),
        ],
        "sales",
    )


def slot_schema():
    return CubeSchema(
        [Dimension("x", IntegerEncoder(0, SIZE - 1))], "sales"
    )


def flat_records(rng, n=400):
    records = [
        {
            "x": int(rng.integers(0, SIZE)),
            "y": int(rng.integers(0, SIZE)),
            "sales": float(rng.integers(1, 10)),
        }
        for _ in range(n)
    ]
    records.insert(50, {"x": 42, "y": 0, "sales": 1.0})  # poison
    records.insert(150, {"x": 0, "sales": 1.0})  # poison
    return records


def flat_oracle(records):
    cube = np.zeros((SIZE, SIZE))
    poison = []
    for i, r in enumerate(records):
        if "y" not in r or r["x"] >= SIZE:
            poison.append(i)
        else:
            cube[r["x"], r["y"]] += r["sales"]
    return cube, poison


class TestServiceMatrix:
    """Single durable CubeService: crash + power loss at every stage."""

    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize("ordinal", [1, 2])
    def test_resume_is_bit_for_bit(self, tmp_path, rng, stage, ordinal):
        records = flat_records(rng)
        expected, poison = flat_oracle(records)
        state = tmp_path / "svc"

        def pipeline(svc, plan=None):
            return IngestPipeline(
                MemorySource(records, chunk_rows=32),
                flat_schema(),
                ServiceTarget(svc),
                checkpoint_path=tmp_path / "ck.json",
                deadletter_path=tmp_path / "dead.log",
                group_rows=64,
                fault_plan=plan,
            )

        plan = FaultPlan(ingest_crash_at={stage: ordinal})
        svc = CubeService(
            RelativePrefixSumCube, np.zeros((SIZE, SIZE)),
            durability=DurabilityPolicy(dir=state),
        )
        with pipeline(svc, plan) as pipe:
            with pytest.raises(InjectedFault):
                pipe.run()
        svc.abandon()  # power-loss image, queues dropped on the floor

        recovered = CubeService.recover(state, RelativePrefixSumCube)
        try:
            with pipeline(recovered) as pipe:
                report = pipe.run()
            array, _ = recovered.snapshot_array()
        finally:
            recovered.close()

        assert np.array_equal(array, expected)
        assert report["offset"] == len(records)
        dead = read_dead_letters(tmp_path / "dead.log")
        assert sorted(e["offset"] for e in dead) == poison

    def test_double_crash_with_stale_intent(self, tmp_path, rng):
        """Crash at intent, then crash again mid-replay: the cleared
        intent must not fence the second resume against the first
        crash's group boundaries."""
        records = flat_records(rng)
        expected, poison = flat_oracle(records)
        state = tmp_path / "svc"

        def pipeline(svc, plan=None, group_rows=64):
            return IngestPipeline(
                MemorySource(records, chunk_rows=32),
                flat_schema(),
                ServiceTarget(svc),
                checkpoint_path=tmp_path / "ck.json",
                deadletter_path=tmp_path / "dead.log",
                group_rows=group_rows,
                fault_plan=plan,
            )

        svc = CubeService(
            RelativePrefixSumCube, np.zeros((SIZE, SIZE)),
            durability=DurabilityPolicy(dir=state),
        )
        with pipeline(svc, FaultPlan(ingest_crash_at={"intent": 2})) as pipe:
            with pytest.raises(InjectedFault):
                pipe.run()
        svc.abandon()

        # second run crashes again, with a different group size so the
        # replayed groups do not align with the stale intent's range
        svc = CubeService.recover(state, RelativePrefixSumCube)
        with pipeline(
            svc, FaultPlan(ingest_crash_at={"submit": 1}), group_rows=96
        ) as pipe:
            with pytest.raises(InjectedFault):
                pipe.run()
        svc.abandon()

        recovered = CubeService.recover(state, RelativePrefixSumCube)
        try:
            with pipeline(recovered, group_rows=128) as pipe:
                report = pipe.run()
            array, _ = recovered.snapshot_array()
        finally:
            recovered.close()
        assert np.array_equal(array, expected)
        dead = read_dead_letters(tmp_path / "dead.log")
        assert sorted(e["offset"] for e in dead) == poison
        assert report["offset"] == len(records)


class TestRollingMatrix:
    """Rolling-window target: the crash can land mid-roll."""

    WINDOW = 4

    def make_records(self, rng, n=300):
        # one day per 32 rows: days 0..9 wrap the 4-slot physical
        # window twice, and no 64-row group ever spans enough days for
        # the group's own roll to expire its slower rows — so the
        # row-at-a-time oracle below matches the pipeline's
        # group-at-a-time advances exactly
        records = [
            {
                "day": i // 32,
                "x": int(rng.integers(0, SIZE)),
                "sales": float(rng.integers(1, 10)),
            }
            for i in range(n)
        ]
        # a hopelessly late arrival once the window has moved past it
        records.append({"day": 0, "x": 0, "sales": 1.0})
        return records

    def rolling_oracle(self, records):
        """Row-at-a-time simulation of the circular window."""
        array = np.zeros((self.WINDOW, SIZE))
        newest = 0
        expired = []
        for i, r in enumerate(records):
            day = r["day"]
            if day > newest:
                for s in range(newest + 1, day + 1):
                    array[s % self.WINDOW] = 0.0
                newest = day
            if day < max(0, newest - self.WINDOW + 1):
                expired.append(i)
                continue
            array[day % self.WINDOW, r["x"]] += r["sales"]
        return array, expired

    @pytest.mark.parametrize("stage", STAGES + ["roll"])
    def test_resume_mid_roll_is_bit_for_bit(self, tmp_path, rng, stage):
        records = self.make_records(rng)
        expected, expired = self.rolling_oracle(records)
        state = tmp_path / "svc"

        def pipeline(svc, plan=None):
            # fixed-size groups (no adaptation): group boundaries are
            # deterministic, so both runs roll at identical rows
            return IngestPipeline(
                MemorySource(records, chunk_rows=32),
                slot_schema(),
                RollingServiceTarget(RollingCubeService(svc)),
                checkpoint_path=tmp_path / "ck.json",
                deadletter_path=tmp_path / "dead.log",
                time_column="day",
                group_rows=64,
                queue_depth_low=-1,
                queue_depth_high=10 ** 9,
                fault_plan=plan,
            )

        plan = FaultPlan(ingest_crash_at={stage: 2})
        svc = CubeService(
            RelativePrefixSumCube, np.zeros((self.WINDOW, SIZE)),
            durability=DurabilityPolicy(dir=state),
        )
        crashed = True
        with pipeline(svc, plan) as pipe:
            try:
                pipe.run()
                crashed = False  # stage never reached: still verify
            except InjectedFault:
                pass
        svc.abandon()

        recovered = CubeService.recover(state, RelativePrefixSumCube)
        try:
            with pipeline(recovered) as pipe:
                report = pipe.run()
            recovered.flush()
            array, _ = recovered.snapshot_array()
        finally:
            recovered.close()

        assert crashed or stage == "roll"
        assert np.array_equal(array, expected)
        dead = read_dead_letters(tmp_path / "dead.log")
        assert sorted(e["offset"] for e in dead) == expired
        assert all(e["reason"] == "expired_slot" for e in dead)
        assert report["offset"] == len(records)

    def test_slow_writer_roll_completes_and_resumes(self, tmp_path, rng):
        """Every group takes 0.25-0.75 s to apply, longer than the
        pipeline's 0.25 s queue-space wait. The roll's pre-advance
        flush waits out that backlog; when it reused the submit
        timeout, the roll raised TimeoutError and killed the run."""
        records = self.make_records(rng, n=160)
        expected, expired = self.rolling_oracle(records)
        state = tmp_path / "svc"

        def slow():
            return FaultPlan(
                seed=0, latency_at=range(1, 100), latency_seconds=0.5
            )

        def pipeline(svc, plan=None):
            return IngestPipeline(
                MemorySource(records, chunk_rows=32),
                slot_schema(),
                RollingServiceTarget(RollingCubeService(svc)),
                checkpoint_path=tmp_path / "ck.json",
                deadletter_path=tmp_path / "dead.log",
                time_column="day",
                group_rows=64,
                queue_depth_low=-1,
                queue_depth_high=10 ** 9,
                fault_plan=plan,
            )

        svc = CubeService(
            RelativePrefixSumCube, np.zeros((self.WINDOW, SIZE)),
            durability=DurabilityPolicy(dir=state), fault_plan=slow(),
        )
        with pipeline(svc, FaultPlan(ingest_crash_at={"submit": 2})) as pipe:
            with pytest.raises(InjectedFault):
                pipe.run()
        svc.abandon()

        recovered = CubeService.recover(
            state, RelativePrefixSumCube, fault_plan=slow()
        )
        try:
            with pipeline(recovered) as pipe:
                report = pipe.run()
            recovered.flush()
            array, _ = recovered.snapshot_array()
        finally:
            recovered.close()

        assert np.array_equal(array, expected)
        dead = read_dead_letters(tmp_path / "dead.log")
        assert sorted(e["offset"] for e in dead) == expired
        assert report["offset"] == len(records)


class TestClusterMatrix:
    """Sharded cluster target: the coordinator dies, the cluster
    lives, and primaries can fail over underneath the stream."""

    SHAPE = (SIZE, SIZE)

    def make_cluster(self, tmp_path, plan=None):
        return CubeCluster(
            RelativePrefixSumCube, np.zeros(self.SHAPE),
            data_dir=tmp_path / "cluster", num_shards=3,
            replication_factor=2, fault_plan=plan,
        )

    def cluster_array(self, cluster):
        lows, highs = [], []
        for x in range(SIZE):
            for y in range(SIZE):
                lows.append((x, y))
                highs.append((x, y))
        values = cluster.range_sum_many(lows, highs)
        return np.asarray(values, dtype=float).reshape(self.SHAPE)

    def pipeline(self, cluster, records, tmp_path, plan=None):
        return IngestPipeline(
            MemorySource(records, chunk_rows=32),
            flat_schema(),
            ClusterTarget(cluster, retry_backoff=0.005),
            checkpoint_path=tmp_path / "ck.json",
            deadletter_path=tmp_path / "dead.log",
            group_rows=64,
            fault_plan=plan,
        )

    @pytest.mark.parametrize("stage", STAGES)
    def test_coordinator_crash_resumes_exactly(self, tmp_path, rng, stage):
        records = flat_records(rng)
        expected, poison = flat_oracle(records)
        plan = FaultPlan(ingest_crash_at={stage: 2})
        with self.make_cluster(tmp_path) as cluster:
            with self.pipeline(cluster, records, tmp_path, plan) as pipe:
                with pytest.raises(InjectedFault):
                    pipe.run()
            with self.pipeline(cluster, records, tmp_path) as pipe:
                report = pipe.run()
            cluster.flush()
            assert np.array_equal(self.cluster_array(cluster), expected)
        dead = read_dead_letters(tmp_path / "dead.log")
        assert sorted(e["offset"] for e in dead) == poison
        assert report["offset"] == len(records)

    def test_overloaded_shard_mid_group_does_not_double_apply(
        self, tmp_path, rng
    ):
        """A ``ServiceOverloadedError`` from one shard's bounded queue
        escapes to the backpressure loop *after* earlier shards in the
        group durably acked; the retried fenced submit must resubmit
        only the unmet shards — resubmitting the acked ones would apply
        their sub-updates twice."""
        records = flat_records(rng)
        expected, poison = flat_oracle(records)
        with self.make_cluster(tmp_path) as cluster:
            victim = cluster.replica_sets[-1]
            original = victim.submit
            state = {"tripped": False}

            def flaky_submit(updates, **kwargs):
                if not state["tripped"]:
                    state["tripped"] = True
                    raise ServiceOverloadedError("synthetic shard overload")
                return original(updates, **kwargs)

            victim.submit = flaky_submit
            with self.pipeline(cluster, records, tmp_path) as pipe:
                report = pipe.run()
            cluster.flush()
            assert state["tripped"]
            assert report["overload_backoffs"] == 1
            assert np.array_equal(self.cluster_array(cluster), expected)
        dead = read_dead_letters(tmp_path / "dead.log")
        assert sorted(e["offset"] for e in dead) == poison

    def test_fenced_resubmit_of_committed_group_is_noop(self, tmp_path):
        """Re-entering a fenced submit whose expectations are already
        met everywhere (the post-ack overload image) applies nothing."""
        with self.make_cluster(tmp_path) as cluster:
            target = ClusterTarget(cluster)
            pairs = [((0, 0), 1.0), ((SIZE - 1, SIZE - 1), 2.0)]
            expect = target.expect(pairs)
            target.submit_fenced(pairs, expect)
            assert target.committed(expect) == "all"
            target.submit_fenced(pairs, expect)
            cluster.flush()
            assert self.cluster_array(cluster).sum() == 3.0

    def test_primary_failover_under_the_stream(self, tmp_path, rng):
        records = flat_records(rng)
        expected, poison = flat_oracle(records)
        plan = FaultPlan(seed=7, ingest_crash_at={"submit": 2})
        with self.make_cluster(tmp_path, plan) as cluster:
            with self.pipeline(cluster, records, tmp_path, plan) as pipe:
                with pytest.raises(InjectedFault):
                    pipe.run()
            # the crashed group is durable on the old primary; kill it
            # so the fence and the rest of the stream run against the
            # promoted replica
            plan.kill("s0.n0")
            with self.pipeline(cluster, records, tmp_path) as pipe:
                report = pipe.run()
            cluster.flush()
            assert np.array_equal(self.cluster_array(cluster), expected)
            assert report["fence_skips"] == 1
        dead = read_dead_letters(tmp_path / "dead.log")
        assert sorted(e["offset"] for e in dead) == poison

    def test_partial_group_completes_missing_shards_only(
        self, tmp_path, rng
    ):
        """Simulate a coordinator that died between per-shard submits:
        intent durable, exactly one shard's sub-group applied."""
        records = flat_records(rng)
        expected, poison = flat_oracle(records)
        plan = FaultPlan(ingest_crash_at={"intent": 1})
        with self.make_cluster(tmp_path) as cluster:
            with self.pipeline(
                cluster, records, tmp_path, plan
            ) as pipe:
                with pytest.raises(InjectedFault):
                    pipe.run()

            # hand-apply the intended group's sub-updates for exactly
            # the shards the intent fenced lowest — one shard here —
            # mimicking a crash after that shard's ack
            store = CheckpointStore(tmp_path / "ck.json")
            pending = store.load()["pending"]
            start, end = pending["start"], pending["end"]
            schema = flat_schema()
            sums = {}
            for r in records[start:end]:
                try:
                    coords, measure = schema.encode_record(r)
                except Exception:
                    continue
                sums[coords] = sums.get(coords, 0.0) + float(measure)
            pairs = sorted(sums.items())
            grouped = {}
            for cell, delta in pairs:
                shard = cluster.shardmap.shard_of(cell)
                grouped.setdefault(shard, []).append((cell, delta))
            first_shard = sorted(grouped)[0]
            cluster.submit_batch(grouped[first_shard])

            with self.pipeline(cluster, records, tmp_path) as pipe:
                report = pipe.run()
            cluster.flush()
            assert np.array_equal(self.cluster_array(cluster), expected)
            assert report["partial_resubmits"] == 1
        dead = read_dead_letters(tmp_path / "dead.log")
        assert sorted(e["offset"] for e in dead) == poison
