"""Differential tests: every router tier agrees with direct RPS,
bit for bit.

The router's tiers must be *indistinguishable* from the backend they
front. For cubes of dimension 1 through 3 this suite drives the same
workload through three configurations — the cache tier (a router asked
the same page twice), the routed RPS tier (cache disabled), and direct
``CubeService.query_many`` — and requires
``np.array_equal`` on the answers: integer-valued cubes make every sum
exact in float64, so any tier that diverges by even one ULP fails.

Three axes of stress ride on top:

* **workload fixtures** — the named ``dashboard`` scenario (hotspot
  reads + append trickle) replays through router and direct paths;
* **crash matrix** — services killed mid-batch (injected
  ``crash_at_group``) or crash-stopped after a flush are recovered from
  their WAL, and a fresh router over the recovered service must answer
  exactly like direct reads of the recovered state;
* **reads racing version swaps** — writer churn runs concurrently with
  routed readers, and every answer must still equal the per-version
  oracle at its stamp (the same contract the property suite checks
  single-threaded).
"""

import threading

import numpy as np
import pytest

from repro.core.rps import RelativePrefixSumCube
from repro.faults import FaultPlan
from repro.routing import QueryRouter
from repro.serve import CubeService, DurabilityPolicy, ServiceClosedError
from repro.testing import VersionOracle
from repro.workloads import random_group, random_ranges

from .conftest import brute_range_sum

SHAPES = {1: (48,), 2: (16, 12), 3: (8, 6, 10)}
GRANULARITY = {1: 4, 2: 4, 3: 2}


def _workload(shape, seed, rounds=4, queries=12, writes=3):
    """Per-round query pages (grid-aligned + ragged mix) and write
    groups."""
    rng = np.random.default_rng(seed)
    g = GRANULARITY[len(shape)]
    plan = []
    for _ in range(rounds):
        lows, highs = [], []
        for _ in range(queries):
            if rng.random() < 0.5:  # grid-aligned box
                lo, hi = [], []
                for n in shape:
                    blocks = n // g
                    a = int(rng.integers(0, blocks))
                    b = int(rng.integers(a, blocks))
                    lo.append(a * g)
                    hi.append(min((b + 1) * g - 1, n - 1))
            else:
                lo, hi = [], []
                for n in shape:
                    a, b = sorted(int(x) for x in rng.integers(0, n, 2))
                    lo.append(a)
                    hi.append(b)
            lows.append(lo)
            highs.append(hi)
        group = [
            (
                tuple(int(rng.integers(0, n)) for n in shape),
                float(rng.integers(-9, 10) or 3),
            )
            for _ in range(writes)
        ]
        plan.append((np.array(lows), np.array(highs), group))
    return plan


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cache_and_direct_agree_bitwise(d):
    """Quiesced differential, d=1..3: direct RPS, the cache tier, and
    the routed RPS tier return identical bits round after round, with
    writes (and therefore invalidation) between rounds."""
    shape = SHAPES[d]
    rng = np.random.default_rng(d)
    cube = rng.integers(0, 100, shape).astype(np.float64)
    plan = _workload(shape, seed=d + 10)
    with CubeService(RelativePrefixSumCube, cube) as direct_service, \
            CubeService(RelativePrefixSumCube, cube) as cached_service, \
            CubeService(RelativePrefixSumCube, cube) as rps_service:
        with QueryRouter(cached_service) as cache_router, QueryRouter(
            rps_service, enable_cache=False
        ) as rps_router:
            for lows, highs, group in plan:
                direct, _ = direct_service.query_many(lows, highs)
                direct = np.asarray(direct)

                cold = cache_router.route_many(lows, highs)
                warm = cache_router.route_many(lows, highs)
                assert set(cold.tiers) == {"rps"}
                assert set(warm.tiers) == {"cache"}
                assert np.array_equal(np.asarray(cold.values), direct)
                assert np.array_equal(np.asarray(warm.values), direct)

                routed = rps_router.route_many(lows, highs)
                assert set(routed.tiers) == {"rps"}
                assert np.array_equal(np.asarray(routed.values), direct)

                for service in (direct_service, cached_service, rps_service):
                    service.submit_batch(group)
                    service.flush()


def test_dashboard_scenario_routed_equals_direct():
    """Workload fixture: the named dashboard scenario (hotspot reads,
    append-trickle writes) replayed through a router with every tier
    enabled matches direct RPS bit for bit at each step."""
    from repro.workloads.scenarios import SCENARIOS

    scenario = SCENARIOS["dashboard"]
    shape = (24, 24)
    cube = scenario.make_cube(shape, seed=5).astype(np.float64)
    queries = scenario.make_queries(shape, 40, seed=5)
    updates = scenario.make_updates(shape, 40, seed=5)
    with CubeService(RelativePrefixSumCube, cube) as direct_service, \
            CubeService(RelativePrefixSumCube, cube) as routed_service:
        with QueryRouter(routed_service) as router:
            for step, (low, high) in enumerate(queries):
                direct, _ = direct_service.query_many([low], [high])
                routed = router.route_many([low], [high])
                # ask again: the repeat must come from a cache tier and
                # still match
                again = router.route_many([low], [high])
                assert np.array_equal(np.asarray(routed.values), direct)
                assert np.array_equal(np.asarray(again.values), direct)
                assert set(again.tiers) == {"cache"}
                if step < len(updates):
                    cell, delta = updates[step]
                    group = [(cell, float(delta))]
                    for service in (direct_service, routed_service):
                        service.submit_batch(group)
                        service.flush()


class TestCrashMatrix:
    """Recovered-from-crash services must serve routers exactly."""

    def _check_recovered(self, tmp_path, expected):
        recovered = CubeService.recover(
            tmp_path,
            RelativePrefixSumCube,
            durability=DurabilityPolicy(dir=tmp_path),
        )
        shape = expected.shape
        lows, highs = map(list, zip(*random_ranges(shape, 16, seed=99)))
        lows.append(tuple(0 for _ in shape))
        highs.append(tuple(n - 1 for n in shape))
        with recovered:
            direct, _ = recovered.query_many(lows, highs)
            oracle = np.array([
                brute_range_sum(expected, lo, hi)
                for lo, hi in zip(lows, highs)
            ])
            assert np.array_equal(np.asarray(direct), oracle)
            with QueryRouter(recovered) as router:
                cold = router.route_many(lows, highs)
                warm = router.route_many(lows, highs)
                assert np.array_equal(np.asarray(cold.values), oracle)
                assert np.array_equal(np.asarray(warm.values), oracle)
                assert set(warm.tiers) == {"cache"}

    def test_crash_stop_after_flush(self, tmp_path):
        base = np.zeros((12, 12), dtype=np.int64)
        expected = base.copy()
        service = CubeService(
            RelativePrefixSumCube,
            base,
            durability=DurabilityPolicy(dir=tmp_path, checkpoint_every=3),
        )
        for i in range(7):
            cell = (i, (i * 5) % 12)
            service.submit_batch([(cell, i + 1)])
            expected[cell] += i + 1
        service.flush()
        service.abandon()  # power loss: no drain, no final checkpoint
        self._check_recovered(tmp_path, expected)

    def test_injected_crash_mid_batch(self, tmp_path):
        base = np.zeros((12, 12), dtype=np.int64)
        expected = base.copy()
        service = CubeService(
            RelativePrefixSumCube,
            base,
            durability=DurabilityPolicy(dir=tmp_path, checkpoint_every=2),
            fault_plan=FaultPlan(seed=0, crash_at_group=5),
        )
        with pytest.raises(ServiceClosedError):
            for i in range(5):
                cell = (i, i)
                service.submit_batch([(cell, 2)])
                expected[cell] += 2
            service.flush(timeout=10)
        # every acked group is recovered — the crash died *applying*
        # group 5, after its WAL record was fsynced
        self._check_recovered(tmp_path, expected)


def test_reads_racing_version_swaps():
    """Concurrency differential: routed readers race a writer that
    churns snapshot versions; every answer must equal the per-version
    oracle at its own stamp — cache and RPS tiers alike."""
    shape = (12, 12)
    rng = np.random.default_rng(42)
    cube = rng.integers(0, 50, shape).astype(np.float64)
    groups = [random_group(rng, shape, 2) for _ in range(60)]
    oracle = VersionOracle(cube)
    page_lows = np.array([[0, 0], [2, 3], [4, 0], [0, 4]])
    page_highs = np.array([[11, 11], [9, 10], [7, 11], [11, 7]])
    errors = []
    stop = threading.Event()

    with CubeService(RelativePrefixSumCube, cube) as service:
        with QueryRouter(service) as router:

            def reader():
                while not stop.is_set():
                    batch = router.route_many(page_lows, page_highs)
                    mismatches = oracle.check(
                        page_lows, page_highs, batch.values, batch.stamps
                    )
                    if mismatches:
                        errors.extend(mismatches)
                        return

            threads = [threading.Thread(target=reader) for _ in range(3)]
            for t in threads:
                t.start()
            for i, group in enumerate(groups):
                # recorded before the submit, so no reader can observe a
                # version the oracle does not know yet
                oracle.record(group)
                router.submit_batch(group)
                if i % 7 == 0:
                    router.flush()
            router.flush()
            stop.set()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
    assert not errors, f"stale/torn routed reads: {errors[:3]}"
