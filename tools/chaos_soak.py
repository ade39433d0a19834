"""Seeded fault-injection soak: every serving stack, one oracle.

Each round builds one stack, drives seeded writes and box reads through
it while injecting that mode's faults, and holds every answer to one
:class:`~repro.testing.VersionOracle`: the exact sum at the version the
answer is stamped with, or — for an explicit degraded ``RangeEstimate``
— an interval that contains it. A mode is one row of :data:`MODES` (RNG
salt, cube shapes, parameter draw, run function); its run function holds
only the fault choreography:

* ``single`` (default) cycles three crash/recover scenarios against one
  durable :class:`~repro.serve.CubeService`. **crash**: abandon at a
  random point (the power-loss disk image), recover, and match the
  acknowledged prefix. **torn-tail**: a :class:`~repro.faults.FaultPlan`
  tears a WAL append mid-record; recovery surfaces exactly the groups
  before it and the resumed service appends cleanly. **bad-checkpoint**:
  flip a byte in the newest checkpoint; recovery falls back to the
  previous one and replays the WAL.
* ``cluster`` drives a seeded sharded, replicated
  :class:`~repro.cluster.CubeCluster` while **killing a primary** (the
  health monitor must fail over with zero acked-group loss),
  **partitioning a replica** (reads keep flowing) and **corrupting a
  replica's state** (the anti-entropy scrubber must detect and repair
  it).
* ``router`` races concurrent readers of a
  :class:`~repro.routing.QueryRouter` against writer churn while a fault
  fails every backend read in the middle third of the round: each
  injected fault must reach exactly one reader (never swallowed, never
  silently retried), no failed read may poison the cache, and reads
  must be exact again once the fault heals.
* ``net`` fronts a service whose writer is slowed by injected apply
  latency with a :class:`~repro.net.CubeServer`; batched and streaming
  socket clients read while a client writes, and mid-round the round
  starves a tenant's quota, sends malformed frames and a bad token, and
  drops a connection mid-frame. Each abuse must get its documented wire
  error; ``overloaded`` and ``quota_exceeded`` are retried per their
  ``retry_after_s`` hint, and a stream with a missing chunk fails.
* ``reshard`` runs a live split or merge with a write and exact reads at
  every migration phase boundary, while a coordinator crash at a chosen
  phase, a whole migration-target kill mid-dual-write, or no fault
  fires. A failed migration must roll back to the prior epoch with zero
  acked-group loss; the retry must land on a larger epoch. The round
  ends by killing a whole shard: exact reads must refuse, and
  ``allow_estimate=True`` answers must be marked estimates whose
  interval contains the truth.
* ``ingest`` streams a seeded record set with planted poison rows into
  a service, a rolling-window service or a cluster, crashes the ingest
  coordinator at a seeded stage boundary, power-loses single-service
  targets, resumes, and requires the cube to equal the oracle cell for
  cell with every poison row dead-lettered exactly once.

A new stack composition is one more row whose run function builds the
stack, ``record``s each acknowledged group and ``check``s each answer.

Every round is deterministic in ``(seed, round_index)``. A failed round
keeps its state directory (WAL, checkpoints, dead letters) and a
``round.json`` of its parameters under ``--artifact-dir``, and the
process exits nonzero.

Usage::

    PYTHONPATH=src python tools/chaos_soak.py --seeds 0 1 2 \\
        --time-budget 60 --artifact-dir chaos-artifacts
    PYTHONPATH=src python tools/chaos_soak.py --mode cluster \\
        --seeds 0 1 --time-budget 60
"""

import argparse
import asyncio
import json
import shutil
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path
from typing import Callable, NamedTuple, Tuple

import numpy as np

from repro import CubeService, DurabilityPolicy, FaultPlan
from repro.cluster import BreakerPolicy, CubeCluster
from repro.core.rps import RelativePrefixSumCube
from repro.faults import InjectedFault
from repro.routing import QueryRouter
from repro.routing.router import ServiceBackend
from repro.serve import recover_state
from repro.testing import VersionOracle, assert_recovery_correct
from repro.workloads import ClusterWorkloadRunner, random_group, random_ranges


def _ints(rng, **bounds):
    """One ``rng.integers(low, high)`` draw per keyword, in order."""
    return {name: int(rng.integers(*b)) for name, b in bounds.items()}


def _boxes(rng, shape, count):
    """``count`` random boxes drawn from ``rng``, as lows and highs."""
    lows, highs = zip(*random_ranges(shape, count, seed=rng))
    return list(lows), list(highs)


def _assert_cube(oracle, array, what):
    mismatches = oracle.check_array(array, oracle.version)
    assert not mismatches, f"{what} diverged from the oracle: {mismatches[:3]}"


def _service(params, cube, state_dir, fault_plan=None, **durability):
    """A durable RPS service checkpointing at the round's cadence."""
    durability.setdefault("checkpoint_every", params["checkpoint_every"])
    return CubeService(
        RelativePrefixSumCube,
        cube,
        durability=DurabilityPolicy(dir=state_dir, **durability),
        fault_plan=fault_plan,
    )


def _cluster(params, cube, data_dir, fault_plan=None):
    """The round's RPS cluster (2 shards x 2 replicas unless drawn)."""
    return CubeCluster(
        RelativePrefixSumCube,
        cube,
        data_dir=data_dir,
        num_shards=params.get("num_shards", 2),
        replication_factor=params.get("replication_factor", 2),
        checkpoint_every=params["checkpoint_every"],
        fault_plan=fault_plan,
        breaker=BreakerPolicy(failure_threshold=2, cooldown_s=30.0),
        seed=params["seed"],
    )


# -- single: crash / torn-tail / bad-checkpoint ---------------------------


def _run_crash(rng, params, state_dir):
    crash_after = int(rng.integers(0, params["groups"] + 1))
    params["crash_after"] = crash_after if crash_after < params["groups"] else None
    assert_recovery_correct(
        RelativePrefixSumCube,
        state_dir,
        shape=params["shape"],
        groups=params["groups"],
        crash_after=params["crash_after"],
        checkpoint_every=params["checkpoint_every"],
        seed=int(rng.integers(2**31)),
    )


def _feed(service, oracle, rng, count, shape):
    for _ in range(count):
        group = random_group(rng, shape, 1)
        service.submit_batch(group)
        oracle.record(group)


def _run_torn_tail(rng, params, state_dir):
    shape = params["shape"]
    tear_at = int(rng.integers(2, params["groups"]))
    params["torn_write_at"] = tear_at
    oracle = VersionOracle(np.zeros(shape, dtype=np.int64))
    service = _service(
        params, np.zeros(shape, dtype=np.int64), state_dir,
        fault_plan=FaultPlan(seed=params["seed"], torn_write_at=tear_at),
    )
    try:
        _feed(service, oracle, rng, tear_at - 1, shape)
        try:
            service.submit_batch([(tuple(0 for _ in shape), 1)])
        except InjectedFault:
            pass  # the torn group was never acknowledged
        else:
            raise AssertionError("torn write was not injected")
    finally:
        service.abandon()
    state = recover_state(state_dir)
    assert state.version == oracle.version == tear_at - 1, (
        state.version, tear_at,
    )
    _assert_cube(oracle, state.method.to_array(), "recovered state")
    # the resumed service truncates the tear and appends cleanly
    resumed = CubeService.recover(state_dir)
    try:
        _feed(resumed, oracle, rng, 2, shape)
        resumed.flush()
        _assert_cube(oracle, resumed.snapshot_array()[0], "resumed service")
    finally:
        resumed.close()


def _run_bad_checkpoint(rng, params, state_dir):
    shape = params["shape"]
    # checkpoint every cycle, and flush twice so at least two non-seed
    # checkpoints exist — corrupting the newest must leave a fallback
    params["checkpoint_every"] = 1
    oracle = VersionOracle(np.zeros(shape, dtype=np.int64))
    service = _service(
        params, np.zeros(shape, dtype=np.int64), state_dir,
        keep_checkpoints=2,
    )
    try:
        half = max(1, params["groups"] // 2)
        _feed(service, oracle, rng, half, shape)
        service.flush()
        _feed(service, oracle, rng, params["groups"] - half, shape)
        service.flush()
    finally:
        service.abandon()
    checkpoints = sorted(Path(state_dir).glob("ckpt-*.npz"))
    assert len(checkpoints) >= 2, [p.name for p in checkpoints]
    target = checkpoints[-1]
    blob = bytearray(target.read_bytes())
    blob[int(rng.integers(len(blob)))] ^= 0xFF
    target.write_bytes(bytes(blob))
    params["corrupted_checkpoint"] = target.name
    _assert_cube(
        oracle, recover_state(state_dir).method.to_array(), "recovered state"
    )


SINGLE_SCENARIOS = {
    "crash": _run_crash,
    "torn-tail": _run_torn_tail,
    "bad-checkpoint": _run_bad_checkpoint,
}


# -- cluster: kill / partition / corrupt / heal ---------------------------


def _run_cluster(rng, params, state_dir):
    """One kill/partition/corrupt/heal round against an exact oracle."""
    shape = params["shape"]
    cube = rng.integers(0, 50, shape).astype(np.int64)
    plan = FaultPlan(seed=params["seed"])
    cluster = _cluster(params, cube, state_dir, plan)
    runner = ClusterWorkloadRunner(cluster, cube.astype(np.float64))

    def drive(queries, groups):
        result = runner.run(
            list(random_ranges(shape, queries, seed=rng)),
            [
                random_group(rng, shape, int(rng.integers(1, 6)))
                for _ in range(groups)
            ],
        )
        assert result.mismatches == 0, f"{result.mismatches} wrong answers"
        return result

    try:
        third_q = max(1, params["queries"] // 3)
        third_g = max(1, params["groups"] // 3)
        drive(third_q, third_g)

        # -- kill a primary: monitor must promote, no acked loss --------------
        victim_shard = int(rng.integers(params["num_shards"]))
        victim = f"s{victim_shard}.n0"
        params["killed_primary"] = victim
        cluster.kill_node(victim)
        for _ in range(3):  # enough probes to trip the breaker
            cluster.monitor.tick()
        assert cluster.stats()["metrics"]["failovers"].get(
            victim_shard
        ), "kill did not trigger a failover"
        drive(third_q, third_g)

        # -- partition a replica, corrupt another, heal and scrub -------------
        part_shard = int(rng.integers(params["num_shards"]))
        replicas = [
            n
            for n in cluster.replica_sets[part_shard].nodes
            if not n.is_primary and not n.dead
        ]
        if replicas:
            target = replicas[0]
            params["partitioned_replica"] = target.node_id
            plan.partition(target.node_id)
            drive(third_q, third_g)  # reads flow without the replica
            plan.heal(target.node_id)
        node = next(
            (
                n
                for n in cluster.nodes()
                if not n.is_primary and not n.dead and not n.lagging
            ),
            None,
        )
        if node is not None:
            params["corrupted_replica"] = node.node_id
            # drain pending groups first so the corrupted front buffer
            # is the one the scrubber digests (no swap hides it)
            cluster.flush()
            node.service._front.method.rp._rp.flat[0] += 997.0
            report = cluster.scrubber.scrub_once()
            assert (
                report["divergences"] >= 1
            ), f"scrubber missed the corruption: {report}"
        report = cluster.scrubber.scrub_once()
        assert report["divergences"] == 0, f"scrub did not converge: {report}"
        final = drive(third_q, 0)
        assert final.unavailable == 0, "healed cluster still unavailable"
        params["metrics"] = cluster.stats()["metrics"]
    finally:
        cluster.close()


# -- router: writer churn + backend read faults + cached readers ---------

ROUTER_PAGE_BOXES = 4


class _ReadFaultBackend:
    """Backend wrapper whose *armed* state fails every read that reaches
    it. Cache hits never get here, so arming it fails exactly the routed
    reads that miss the cache; ``injected`` counts each one raised."""

    def __init__(self, backend):
        self._backend = backend
        self._lock = threading.Lock()
        self.armed = False
        self.injected = 0

    def query_many(self, lows, highs, deadline=None):
        if self.armed:
            with self._lock:
                self.injected += 1
            raise InjectedFault("injected backend read failure")
        return self._backend.query_many(lows, highs, deadline=deadline)

    def __getattr__(self, name):
        return getattr(self._backend, name)


def _run_router(rng, params, state_dir):
    """Writer churn + injected backend read faults + concurrent cached
    readers; every routed answer must match the oracle at its stamp,
    and every injected fault must reach exactly one reader."""
    shape = params["shape"]
    cube = rng.integers(0, 50, shape).astype(np.float64)
    oracle = VersionOracle(cube)
    groups = [
        random_group(rng, shape, int(rng.integers(1, 4)))
        for _ in range(params["groups"])
    ]
    pages = [
        tuple(map(np.array, _boxes(rng, shape, ROUTER_PAGE_BOXES)))
        for _ in range(3)
    ]

    errors = []
    faults_seen = []
    stop = threading.Event()
    service = _service(params, cube, state_dir)
    backend = _ReadFaultBackend(ServiceBackend(service))
    try:
        with QueryRouter(backend) as router:

            def read_page(page_lows, page_highs):
                batch = router.route_many(page_lows, page_highs)
                mismatches = oracle.check(
                    page_lows, page_highs, batch.values, batch.stamps
                )
                errors.extend(
                    dict(m, tier=batch.tiers[m["index"]]) for m in mismatches
                )

            def reader(page_index):
                page = pages[page_index % len(pages)]
                seen = 0
                while not stop.is_set() and not errors:
                    try:
                        read_page(*page)
                    except InjectedFault:
                        seen += 1
                faults_seen.append(seen)

            threads = [
                threading.Thread(target=reader, args=(i,))
                for i in range(params["readers"])
            ]
            for t in threads:
                t.start()
            fault_from, fault_until = (
                params["groups"] // 3, 2 * params["groups"] // 3
            )
            for i, group in enumerate(groups):
                if errors:
                    break
                backend.armed = fault_from <= i < fault_until
                # recorded before the submit: no reader can observe a
                # version the oracle does not know yet
                oracle.record(group)
                router.submit_batch(group)
                if i % params["flush_every"] == 0:
                    router.flush()
                if i == fault_until - 1:
                    # the flushed version postdates every cached entry
                    # and no backend read can succeed while armed, so
                    # the readers' next cache miss must hit the fault
                    router.flush()
                    deadline = time.monotonic() + 10.0
                    while not backend.injected and not errors:
                        assert time.monotonic() < deadline, (
                            "armed round never injected a read fault"
                        )
                        time.sleep(0.001)
            backend.armed = False
            router.flush()
            stop.set()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive(), "reader thread hung"

            assert not errors, f"stale routed reads: {errors[:3]}"
            stats = router.stats()["router"]
            params["router_stats"] = stats
            params["faults"] = {
                "injected": backend.injected, "seen": sum(faults_seen),
            }
            assert backend.injected >= 1, "round never injected a read fault"
            assert sum(faults_seen) == backend.injected, (
                f"{backend.injected} injected read faults but readers "
                f"saw {sum(faults_seen)}"
            )

            # healed: every page and a fresh full-cube read are exact
            for page in pages:
                read_page(*page)
            assert not errors, f"routed reads after the fault: {errors[:3]}"
            full_lo, full_hi = [(0,) * len(shape)], [tuple(n - 1 for n in shape)]
            final = router.route_many(full_lo, full_hi)
            mismatches = oracle.check(
                full_lo, full_hi, final.values, oracle.version
            )
            assert not mismatches, f"final routed read: {mismatches}"
    finally:
        service.close()


# -- reshard: live split/merge with phase-boundary faults -----------------

#: migration phases a coordinator crash can be injected at ("retire" is
#: excluded: past retire the migration is already durable and complete)
RESHARD_FAIL_PHASES = (
    "plan", "seed", "tail_replay", "dual_write", "flip", "verify",
)


def _reshard_draw(rng, params):
    fault = ("none", "crash", "kill-target")[params["round"] % 3]
    drawn = _ints(rng, num_shards=(2, 4))
    drawn.update(
        replication_factor=2,
        op=("split", "merge")[int(rng.integers(2))],
        fault=fault,
        fail_phase=(
            RESHARD_FAIL_PHASES[int(rng.integers(len(RESHARD_FAIL_PHASES)))]
            if fault == "crash"
            else None
        ),
    )
    drawn.update(_ints(rng, groups=(6, 16), queries=(8, 16)))
    return drawn


def _run_reshard(rng, params, state_dir):
    """One live split/merge round: writes and exact reads at every
    phase boundary, an optional injected failure with verified
    rollback, then the degraded-read contract on a killed shard."""
    from repro.cluster import ReshardError
    from repro.errors import ClusterUnavailableError

    shape = params["shape"]
    cube = rng.integers(0, 50, shape).astype(np.int64)
    oracle = VersionOracle(cube.astype(np.float64))
    plan = FaultPlan(seed=params["seed"])
    cluster = _cluster(params, cube, state_dir, plan)

    def write(group):
        # the oracle records exactly the acked groups: an unacked submit
        # raises before the record, so a lost acked group (or a
        # double-applied one) shows up as a query mismatch
        cluster.submit_batch(group)
        oracle.record(group)

    def write_group():
        write(random_group(rng, shape, int(rng.integers(1, 5))))

    def check_exact(count):
        lows, highs = _boxes(rng, shape, count)
        values = [cluster.range_sum(lo, hi) for lo, hi in zip(lows, highs)]
        mismatches = oracle.check(lows, highs, values, oracle.version)
        assert not mismatches, (
            f"stale/lossy answer at epoch {cluster.epoch}: {mismatches[:3]}"
        )

    phases_seen = []

    def phase_hook(phase):
        # a client write and an exact read land at the entry of every
        # phase — the realistic interleaving an epoch fence must survive
        phases_seen.append(phase)
        write_group()
        check_exact(2)
        if (
            params["fault"] == "kill-target"
            and phase == "dual_write"
            and not params.get("killed_target")
        ):
            # kill a whole target replica set: a single node loss could
            # be absorbed by the target's own failover, but the dual
            # write to a fully dead target must fail the migration
            targets = cluster.migration_target_nodes()
            prefixes = sorted(
                {n.node_id.rsplit(".", 1)[0] for n in targets},
                key=lambda p: int(p.rsplit("s", 1)[1]),
            )
            pick = int(rng.integers(len(prefixes)))
            prefix = prefixes[pick]
            victims = [
                node.node_id
                for node in targets
                if node.node_id.startswith(prefix + ".")
            ]
            params["killed_target"] = victims
            for node_id in victims:
                plan.kill(node_id)
            # then land a write inside the dead target's rows so the
            # dual-write window observes the death (a group that never
            # touches those rows cannot — and must not — fail it)
            t_start, t_stop = cluster.stats()["migration"][
                "target_bounds"
            ][pick]
            [(cell, delta)] = random_group(
                rng, (t_stop - t_start,) + shape[1:], 1
            )
            write([((cell[0] + t_start,) + cell[1:], delta)])

    def run_migration(expect_failure):
        op = params["op"]
        if op == "merge" and cluster.shardmap.num_shards < 2:
            op = "split"
        if op == "split":
            widths = [
                stop - start for start, stop in cluster.shardmap.bounds
            ]
            migrate, shard = cluster.split_shard, int(np.argmax(widths))
        else:
            migrate = cluster.merge_shards
            shard = int(rng.integers(cluster.shardmap.num_shards - 1))
        if not expect_failure:
            return migrate(shard, phase_hook=phase_hook)
        try:
            migrate(shard, phase_hook=phase_hook)
        except ReshardError as error:
            assert error.rolled_back, (
                f"migration failed without rollback: {error}"
            )
            # only the injected fault may fail the migration: a crash
            # round must die at its chosen phase, a kill-target round
            # must have actually fired its kill first
            if params["fault"] == "crash":
                assert error.phase == params["fail_phase"], (
                    f"failed at {error.phase!r}, fault was armed at "
                    f"{params['fail_phase']!r}: {error}"
                )
            elif not params.get("killed_target"):
                raise
            return None
        raise AssertionError(
            f"injected {params['fault']} fault at "
            f"{params['fail_phase'] or 'dual_write'} did not fail the "
            f"migration"
        )

    try:
        for _ in range(params["groups"] // 2):
            write_group()
        check_exact(params["queries"] // 2)
        epoch_before = cluster.epoch
        shards_before = cluster.shardmap.num_shards

        if params["fault"] == "crash":
            plan.reshard_fail_at = frozenset((params["fail_phase"],))
        if params["fault"] != "none":
            run_migration(expect_failure=True)
            # rollback contract: prior epoch, prior layout, exact
            # serving of every acked group (including phase-boundary
            # writes acked during the failed migration)
            assert cluster.epoch == epoch_before, (
                f"rollback left epoch {cluster.epoch} != {epoch_before}"
            )
            assert cluster.shardmap.num_shards == shards_before
            write_group()
            check_exact(params["queries"] // 2)
            plan.reshard_fail_at = frozenset()

        summary = run_migration(expect_failure=False)
        params["migration"] = summary
        assert summary["new_epoch"] > epoch_before, (
            f"epoch did not advance: {summary}"
        )
        assert summary["verify"]["mismatches"] == [], summary["verify"]
        assert cluster.epoch == summary["new_epoch"]
        write_group()
        check_exact(params["queries"])

        # -- degraded-read contract on a dead shard -----------------------
        victim_shard = int(rng.integers(cluster.shardmap.num_shards))
        params["killed_shard"] = victim_shard
        for node in cluster.replica_sets[victim_shard].nodes:
            plan.kill(node.node_id)
        full_low = tuple(0 for _ in shape)
        full_high = tuple(n - 1 for n in shape)
        try:
            cluster.range_sum(full_low, full_high)
        except ClusterUnavailableError:
            pass
        else:
            raise AssertionError(
                "exact read over a dead shard did not refuse"
            )
        lows, highs = _boxes(rng, shape, 4)
        lows.insert(0, full_low)
        highs.insert(0, full_high)
        values, estimates = cluster.range_sum_many(
            lows, highs, allow_estimate=True
        )
        mismatches = oracle.check(
            lows, highs, values, oracle.version, estimates=estimates
        )
        assert not mismatches, f"degraded read broke its bound: {mismatches}"
        marked = [e for e in estimates if e is not None]
        assert all(e.epoch == cluster.epoch for e in marked), marked
        assert marked, "full-cube read over a dead shard not marked"
        params["degraded_answers"] = len(marked)
        params["phases_seen"] = phases_seen
        params["metrics"] = cluster.stats()["metrics"]
    finally:
        cluster.close()


# -- ingest: coordinator crash + resume, exactly once ---------------------

INGEST_STAGES = (
    "chunk", "encode", "deadletter", "intent", "submit", "checkpoint",
)


def _ingest_draw(rng, params):
    target = ("service", "rolling", "cluster")[params["round"] % 3]
    stages = INGEST_STAGES + (("roll",) if target == "rolling" else ())
    drawn = {"target": target}
    drawn.update(_ints(rng, size=(6, 12), rows=(200, 500), poison=(1, 4)))
    drawn["crash_stage"] = stages[int(rng.integers(len(stages)))]
    drawn.update(_ints(rng, crash_ordinal=(1, 4)))
    # <= 96 keeps any group's day span under the rolling window even
    # after poison inserts shift offsets, so the row-at-a-time oracle
    # stays valid (no intra-group expiry)
    drawn["group_rows"] = int(rng.choice([64, 96]))
    return drawn


def _run_ingest(rng, params, state_dir):
    """One crash/resume round of the streaming pipeline: the resumed
    run must land bit-for-bit on the oracle with every poison row
    dead-lettered exactly once."""
    from repro.cube.encoders import IntegerEncoder
    from repro.cube.schema import CubeSchema, Dimension
    from repro.ingest import (
        ClusterTarget,
        IngestPipeline,
        MemorySource,
        RollingCubeService,
        RollingServiceTarget,
        ServiceTarget,
        read_dead_letters,
    )

    size = params["size"]
    rolling = params["target"] == "rolling"
    window = 4
    axes = ("x",) if rolling else ("x", "y")
    schema = CubeSchema(
        [Dimension(a, IntegerEncoder(0, size - 1)) for a in axes], "sales"
    )
    records = []
    for i in range(params["rows"]):
        record = {a: int(rng.integers(0, size)) for a in axes}
        record["sales"] = float(rng.integers(1, 10))
        if rolling:
            # deterministic day ladder: one day per 32 rows keeps every
            # fixed-size group's slot span below the window, so the
            # row-at-a-time oracle below matches group-at-a-time rolls
            record = {"day": i // 32, **record}
        records.append(record)
    poison_offsets = sorted(
        int(x) for x in rng.choice(
            np.arange(1, len(records)), size=params["poison"], replace=False
        )
    )
    for offset in poison_offsets:
        records.insert(offset, {"x": 10 * size, "y": 0, "sales": 1.0})
    if rolling:
        # plus a hopelessly late arrival after the window moved on
        records.append({"day": 0, "x": 0, "sales": 1.0})

    # -- oracle: poison rows and rows older than the window when they
    # arrive are dead letters; of the rest, the ones still inside the
    # final window land in their slot, as one acked group in row order
    expected_dead, kept, newest = [], [], 0
    for i, r in enumerate(records):
        if r["x"] >= size or (rolling and "day" not in r):
            expected_dead.append(i)
        elif rolling and r["day"] <= newest - window:
            expected_dead.append(i)
        else:
            newest = max(newest, r.get("day", 0))
            kept.append(r)
    shape = (window, size) if rolling else (size, size)
    oracle = VersionOracle(np.zeros(shape))
    oracle.record(
        ((r["day"] % window, r["x"]) if rolling else (r["x"], r["y"]),
         r["sales"])
        for r in kept
        if not rolling or r["day"] > newest - window
    )

    ck = state_dir / "ingest-ck.json"
    dl = state_dir / "ingest-dead.log"

    def pipe(target, plan=None):
        kwargs = {}
        if rolling:
            kwargs = {
                "time_column": "day",
                "queue_depth_low": -1,
                "queue_depth_high": 10 ** 9,
                "min_group_rows": params["group_rows"],
                "max_group_rows": params["group_rows"],
            }
        return IngestPipeline(
            MemorySource(records, chunk_rows=32), schema, target,
            checkpoint_path=ck, deadletter_path=dl,
            group_rows=params["group_rows"], fault_plan=plan,
            **kwargs,
        )

    plan = FaultPlan(
        ingest_crash_at={params["crash_stage"]: params["crash_ordinal"]}
    )
    crashed = False

    if params["target"] == "cluster":
        cluster = _cluster(params, np.zeros(shape), state_dir / "cluster")
        try:
            try:
                with pipe(ClusterTarget(cluster), plan) as p:
                    p.run()
            except InjectedFault:
                crashed = True
            with pipe(ClusterTarget(cluster)) as p:
                report = p.run()
            cluster.flush()
            cells = np.argwhere(np.ones(shape, dtype=bool))
            actual = np.asarray(
                cluster.range_sum_many(cells, cells), dtype=float
            ).reshape(shape)
        finally:
            cluster.close()
    else:
        svc_dir = state_dir / "svc"
        service = _service(params, np.zeros(shape), svc_dir)

        def target_for(svc):
            return (
                RollingServiceTarget(RollingCubeService(svc))
                if rolling else ServiceTarget(svc)
            )

        try:
            with pipe(target_for(service), plan) as p:
                p.run()
        except InjectedFault:
            crashed = True
        service.abandon()  # power-loss image

        recovered = CubeService.recover(svc_dir, RelativePrefixSumCube)
        try:
            with pipe(target_for(recovered)) as p:
                report = p.run()
            recovered.flush()
            actual, _ = recovered.snapshot_array()
        finally:
            recovered.close()

    params["crashed"] = crashed
    params["report"] = report
    _assert_cube(oracle, actual, "resumed cube")
    dead = read_dead_letters(dl)
    got_dead = sorted(e["offset"] for e in dead)
    assert got_dead == expected_dead, (
        f"dead letters not exactly-once: got {got_dead}, "
        f"expected {expected_dead}"
    )
    assert report["offset"] == len(records)


# -- net: socket clients, injected latency, abuse -------------------------


def _run_net(rng, params, state_dir):
    """Socket-level soak: concurrent clients against a per-version
    oracle, with injected writer latency, quota starvation, malformed
    frames, and an abrupt disconnect — zero stale or partial reads."""
    import socket
    import struct

    from repro.errors import QuotaExceededError, ServiceOverloadedError
    from repro.net import Authenticator, CubeClient, CubeServer, Tenant
    from repro.net.protocol import encode_frame

    shape = params["shape"]
    cube = rng.integers(0, 50, shape).astype(np.float64)
    oracle = VersionOracle(cube)
    groups = [
        random_group(rng, shape, int(rng.integers(1, 4)))
        for _ in range(params["groups"])
    ]

    # slow the writer on a few random groups so readers race a lagging
    # version — the stamp check below is what makes that race safe
    latency_at = tuple(
        sorted(
            int(x)
            for x in rng.choice(
                np.arange(1, params["groups"] + 1),
                size=params["latency_groups"],
                replace=False,
            )
        )
    )
    params["latency_at"] = latency_at

    def check(lows, highs, values, stamp, where):
        errors.extend(
            dict(m, where=where)
            for m in oracle.check(lows, highs, values, stamp)
        )

    service = _service(
        params, cube, state_dir,
        fault_plan=FaultPlan(
            seed=params["seed"], latency_at=latency_at,
            latency_seconds=0.05,
        ),
    )
    auth = Authenticator([
        Tenant("soak", "soak-token", rate_per_s=5000.0, burst=2000.0),
        Tenant("starved", "starved-token", rate_per_s=5.0, burst=2.0),
    ])
    server = CubeServer(
        service,
        port=0,
        authenticator=auth,
        max_inflight=params["max_inflight"],
        overload_retry_s=0.01,
    )
    errors = []
    counts = {
        "reads": 0, "stream_chunks": 0, "overloaded": 0, "quota": 0,
    }

    async def retry_overload(op):
        """Clients must survive admission rejections: back off per the
        server's hint and retry."""
        while True:
            try:
                return await op()
            except ServiceOverloadedError as error:
                counts["overloaded"] += 1
                await asyncio.sleep(
                    getattr(error, "retry_after_s", 0.0) or 0.01
                )

    async def read_stream(client, lows, highs, where):
        # every chunk checks against its own stamp, and coverage must be
        # complete — a missing chunk is a partial read
        seen = 0
        async for offset, values, stamp in client.stream_range_sums(
            lows, highs, chunk=2
        ):
            if offset != seen:
                errors.append({
                    "where": where, "gap_at": seen, "got_offset": offset,
                })
                return
            check(
                lows[offset:offset + len(values)],
                highs[offset:offset + len(values)],
                values, stamp, where,
            )
            seen += len(values)
            counts["stream_chunks"] += 1
        if seen != len(lows) and not errors:
            errors.append({
                "where": where, "partial": f"{seen}/{len(lows)} boxes",
            })

    async def reader(stop, reader_id):
        reader_rng = np.random.default_rng(
            [params["seed"], params["round"], reader_id]
        )
        where = f"reader{reader_id}"
        client = await CubeClient.connect(
            server.host, server.port, token="soak-token"
        )
        try:
            while not stop.is_set() and not errors:
                lows, highs = _boxes(reader_rng, shape, 3)
                if reader_rng.integers(4) == 0:
                    await retry_overload(lambda: read_stream(
                        client, lows, highs, where + "-stream"
                    ))
                else:
                    values, stamp = await retry_overload(
                        lambda: client.range_sum_many(lows, highs)
                    )
                    check(lows, highs, values, stamp, where)
                    counts["reads"] += 1
        finally:
            await client.close()

    async def starved_tenant(stop):
        """Exhaust a tiny quota; every refusal must be typed and carry
        a positive retry-after."""
        client = await CubeClient.connect(
            server.host, server.port, token="starved-token"
        )
        try:
            while not stop.is_set() and not errors:
                try:
                    # admission control fires before quota (it is the
                    # cheaper check); back off from it and keep hammering
                    await retry_overload(client.ping)
                except QuotaExceededError as error:
                    counts["quota"] += 1
                    if error.retry_after_s <= 0.0:
                        errors.append({
                            "where": "starved",
                            "bad_retry_after": error.retry_after_s,
                        })
                    await asyncio.sleep(0.02)
                else:
                    await asyncio.sleep(0.005)
        finally:
            await client.close()

    def reply(sock):
        (length,) = struct.unpack("!I", sock.recv(4))
        return json.loads(sock.recv(length))

    def abuse_sockets():
        """Malformed frame -> typed error; bad token -> auth_failed;
        abrupt disconnect -> server unaffected. Sync, on raw sockets."""
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(struct.pack("!I", 9) + b"not json!")
            frame = reply(sock)
            assert frame["error"]["code"] == "bad_request", frame
        with socket.create_connection(server.address, timeout=5.0) as sock:
            # admission control outranks auth, so a busy server may
            # answer "overloaded" first — honor the hint and resend
            for _ in range(200):
                sock.sendall(encode_frame({
                    "id": 1, "op": "ping", "params": {}, "token": "wrong",
                }))
                frame = reply(sock)
                if frame["error"]["code"] != "overloaded":
                    break
                time.sleep(frame["error"].get("retry_after_s", 0.01))
            assert frame["error"]["code"] == "auth_failed", frame
        # half-written frame, then slam the connection shut
        sock = socket.create_connection(server.address, timeout=5.0)
        sock.sendall(struct.pack("!I", 500) + b"partial")
        sock.close()

    async def round_main():
        stop = asyncio.Event()
        tasks = [
            asyncio.ensure_future(reader(stop, i))
            for i in range(params["readers"])
        ]
        tasks.append(asyncio.ensure_future(starved_tenant(stop)))
        writer = await CubeClient.connect(
            server.host, server.port, token="soak-token"
        )
        loop = asyncio.get_running_loop()
        try:
            for i, group in enumerate(groups):
                if errors:
                    break
                # recorded before the submit: no reader can observe a
                # version the oracle does not know yet
                oracle.record(group)
                await retry_overload(lambda: writer.submit_batch(group))
                if i % params["flush_every"] == 0:
                    await retry_overload(
                        lambda: writer.flush(timeout=30.0)
                    )
                if i == params["groups"] // 2:
                    await loop.run_in_executor(None, abuse_sockets)
            await retry_overload(lambda: writer.flush(timeout=30.0))
            # quiesced differential: the final full-cube read equals
            # the last oracle state exactly
            full_lo = [[0] * len(shape)]
            full_hi = [[n - 1 for n in shape]]
            values, stamp = await retry_overload(
                lambda: writer.range_sum_many(full_lo, full_hi)
            )
            if int(stamp) != params["groups"]:
                errors.append({
                    "where": "final",
                    "stamp": int(stamp), "expect": params["groups"],
                })
            check(full_lo, full_hi, values, stamp, "final")
        finally:
            stop.set()
            await asyncio.gather(*tasks, return_exceptions=True)
            await writer.close()

    async def quota_probe():
        """Post-quiesce, the tiny bucket must refuse within its burst:
        deterministic, no admission-control race to hide behind."""
        client = await CubeClient.connect(
            server.host, server.port, token="starved-token"
        )
        try:
            for _ in range(10):
                try:
                    await retry_overload(client.ping)
                except QuotaExceededError as error:
                    counts["quota"] += 1
                    assert error.retry_after_s > 0.0, (
                        f"quota refusal without retry-after: "
                        f"{error.retry_after_s}"
                    )
                    return
            raise AssertionError(
                "starved tenant was never refused post-quiesce"
            )
        finally:
            await client.close()

    try:
        server.start_background()
        asyncio.run(round_main())
        asyncio.run(quota_probe())
        net = server.metrics.snapshot()
        params["counts"] = counts
        params["net"] = net
        assert not errors, f"stale or partial reads: {errors[:3]}"
        assert counts["reads"] >= 1, "no batched reads completed"
        assert counts["stream_chunks"] >= 1, "no stream chunks served"
        assert net["quota_rejects"] >= 1, "no quota refusal recorded"
        assert net["auth_rejects"] >= 1, "bad token was not rejected"
        assert net["protocol_errors"] >= 1, (
            "malformed frame was not rejected"
        )
    finally:
        server.stop_background()
        service.close()


# -- the mode table and the soak loop -------------------------------------


class Mode(NamedTuple):
    """One soak mode: how a round is seeded, drawn and run."""

    salt: Tuple[int, ...]  # appended to [seed, round] to seed the round
    shapes: Tuple[Tuple[int, ...], ...]  # cube shapes; () sizes its own
    draw: Callable  # (rng, params) -> the mode's own round parameters
    run: Callable  # (rng, params, state_dir); raises on any breach


SMALL_SHAPES = ((24,), (12, 10), (6, 5, 4))

MODES = {
    "single": Mode(
        (), ((23,), (11, 9), (6, 5, 4)),
        lambda rng, p: {
            "scenario": tuple(SINGLE_SCENARIOS)[p["round"] % 3],
            **_ints(rng, groups=(8, 30)),
        },
        lambda rng, p, d: SINGLE_SCENARIOS[p["scenario"]](rng, p, d),
    ),
    "cluster": Mode(
        (1000,), ((16, 9), (12, 7, 5)),
        lambda rng, p: _ints(
            rng, num_shards=(2, min(4, p["shape"][0]) + 1),
            replication_factor=(2, 4), groups=(10, 25), queries=(10, 25),
        ),
        _run_cluster,
    ),
    "router": Mode(
        (2000,), SMALL_SHAPES,
        lambda rng, p: _ints(
            rng, groups=(30, 60), readers=(2, 4), flush_every=(3, 8),
        ),
        _run_router,
    ),
    "net": Mode(
        (3000,), SMALL_SHAPES,
        lambda rng, p: _ints(
            rng, groups=(20, 40), readers=(2, 4), flush_every=(3, 8),
            max_inflight=(2, 5), latency_groups=(1, 4),
        ),
        _run_net,
    ),
    "reshard": Mode(
        (4000,), ((16, 9), (18, 5), (12, 4, 3)), _reshard_draw, _run_reshard
    ),
    "ingest": Mode((5000,), (), _ingest_draw, _run_ingest),
}


def round_params(mode, seed, round_index):
    """The round's generator and its JSON-friendly parameters."""
    spec = MODES[mode]
    rng = np.random.default_rng([seed, round_index, *spec.salt])
    params = {"seed": seed, "round": round_index, "scenario": mode}
    if spec.shapes:
        params["shape"] = spec.shapes[int(rng.integers(len(spec.shapes)))]
    params.update(spec.draw(rng, params))
    params["checkpoint_every"] = int(rng.integers(1, 8))
    return rng, params


def soak(seeds, time_budget, artifact_dir=Path("chaos-artifacts"),
         mode="single", min_rounds=0):
    run = MODES[mode].run
    start = time.monotonic()
    rounds = 0
    round_index = 0
    while (
        time.monotonic() - start < time_budget or rounds < min_rounds
    ):
        for seed in seeds:
            rng, params = round_params(mode, seed, round_index)
            with tempfile.TemporaryDirectory(prefix="chaos-") as tmp:
                state_dir = Path(tmp) / "state"
                state_dir.mkdir()
                try:
                    run(rng, params, state_dir)
                except Exception:
                    artifact_dir = Path(artifact_dir)
                    artifact_dir.mkdir(parents=True, exist_ok=True)
                    dest = artifact_dir / f"seed{seed}-round{round_index}"
                    shutil.copytree(state_dir, dest / "state")
                    params["traceback"] = traceback.format_exc()
                    (dest / "round.json").write_text(
                        json.dumps(params, indent=2, default=str) + "\n"
                    )
                    print(f"FAIL {params['scenario']} seed={seed} "
                          f"round={round_index}; state kept in {dest}")
                    print(params["traceback"])
                    return 1
            rounds += 1
        round_index += 1
    elapsed = time.monotonic() - start
    print(f"chaos soak passed: {rounds} rounds, seeds {list(seeds)}, "
          f"{elapsed:.1f}s")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--time-budget", type=float, default=60.0,
                        help="stop starting new rounds after this many seconds")
    parser.add_argument("--artifact-dir", type=Path,
                        default=Path("chaos-artifacts"),
                        help="failed rounds keep their WAL/checkpoint dir here")
    parser.add_argument("--mode", choices=tuple(MODES), default="single",
                        help="the stack and faults each round soaks (see "
                        "the module docstring)")
    parser.add_argument("--min-rounds", type=int, default=0,
                        help="keep starting rounds until at least this "
                        "many completed, even past the time budget")
    args = parser.parse_args(argv)
    return soak(args.seeds, args.time_budget, args.artifact_dir,
                mode=args.mode, min_rounds=args.min_rounds)


if __name__ == "__main__":
    sys.exit(main())
