"""The serving layer: snapshot isolation, ordering, and lifecycle.

The crucial property is freedom from torn reads: a reader hammering the
service while the writer applies batches must only ever observe sums
consistent with a *complete* pre- or post-batch snapshot. The stress
test verifies this against exact per-version oracles — the snapshot
version returned with each read names the precise logical state, so
every observed value is checked against the matching brute-force oracle,
not merely against a set of plausible answers.
"""

import threading
import time

import numpy as np
import pytest

from repro.baselines.prefix import PrefixSumCube
from repro.core.rps import RelativePrefixSumCube
from repro.serve import CubeService, ServiceClosedError

SHAPE = (24, 24)


def _make_workload(seed, n_batches, shape=SHAPE):
    """Seeded batches plus the oracle array after each batch prefix."""
    rng = np.random.default_rng(seed)
    array = rng.integers(0, 50, size=shape)
    oracles = [array.copy()]
    batches = []
    for _ in range(n_batches):
        state = oracles[-1].copy()
        batch = []
        for _ in range(int(rng.integers(1, 9))):
            cell = tuple(int(rng.integers(0, n)) for n in shape)
            delta = int(rng.integers(-9, 10)) or 3
            batch.append((cell, delta))
            state[cell] += delta
        batches.append(batch)
        oracles.append(state)
    probes_lo, probes_hi = [], []
    for _ in range(8):
        lo, hi = [], []
        for n in shape:
            a, b = sorted(int(x) for x in rng.integers(0, n, size=2))
            lo.append(a)
            hi.append(b)
        probes_lo.append(lo)
        probes_hi.append(hi)
    lows = np.asarray(probes_lo, dtype=np.intp)
    highs = np.asarray(probes_hi, dtype=np.intp)
    expected = [
        np.array(
            [state[tuple(slice(l, h + 1) for l, h in zip(lo, hi))].sum()
             for lo, hi in zip(lows, highs)]
        )
        for state in oracles
    ]
    return array, batches, lows, highs, expected


class TestBasics:
    def test_reads_reflect_flushed_writes(self):
        array, batches, lows, highs, expected = _make_workload(1, 5)
        with CubeService(RelativePrefixSumCube, array) as svc:
            assert np.array_equal(
                svc.range_sum_many(lows, highs), expected[0]
            )
            for k, batch in enumerate(batches, start=1):
                seq = svc.submit_batch(batch)
                assert seq == k
                svc.flush()
                assert svc.version == k
                values, version = svc.query_many(lows, highs)
                assert version == k
                assert np.array_equal(values, expected[k])

    def test_scalar_reads_and_total(self):
        array, batches, _, _, _ = _make_workload(2, 3)
        with CubeService(PrefixSumCube, array) as svc:
            for batch in batches:
                svc.submit_batch(batch)
            svc.flush()
            final = array.copy()
            for batch in batches:
                for cell, delta in batch:
                    final[cell] += delta
            assert svc.total() == final.sum()
            assert svc.cell_value((3, 4)) == final[3, 4]
            assert svc.range_sum((0, 0), (5, 5)) == final[:6, :6].sum()
            assert svc.prefix_sum((5, 5)) == final[:6, :6].sum()

    def test_coalescing_merges_same_cell_deltas(self):
        array = np.zeros((4, 4), dtype=np.int64)
        with CubeService(RelativePrefixSumCube, array) as svc:
            svc.submit_batch([((1, 1), 5), ((1, 1), -2), ((2, 2), 7)])
            svc.flush()
            assert svc.cell_value((1, 1)) == 3
            assert svc.cell_value((2, 2)) == 7
            stats = svc.stats()
            assert stats["updates_submitted"] == 3
            assert stats["updates_applied"] == 2  # (1,1) pair coalesced
            assert stats["updates_coalesced"] == 1

    def test_closed_service_rejects_updates(self):
        svc = CubeService(PrefixSumCube, np.ones((3, 3)))
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.submit_delta((0, 0), 1)

    def test_close_drains_pending_updates(self):
        svc = CubeService(PrefixSumCube, np.zeros((6, 6), dtype=np.int64))
        for i in range(6):
            svc.submit_delta((i, i), i + 1)
        svc.close()
        assert svc.version == 6
        assert svc._front.method.total() == sum(range(1, 7))

    def test_metrics_wiring(self):
        array, batches, lows, highs, _ = _make_workload(3, 4)
        with CubeService(RelativePrefixSumCube, array) as svc:
            for batch in batches:
                svc.submit_batch(batch)
            svc.flush()
            svc.range_sum_many(lows, highs)
            svc.range_sum_many(lows, highs)
            stats = svc.stats()
            assert stats["queries_served"] == 2 * len(lows)
            assert stats["read_calls"] == 2
            assert stats["groups_applied"] == len(batches)
            assert stats["groups_pending"] == 0
            assert stats["read_latency"]["count"] == 2
            assert stats["apply_latency"]["count"] >= 1
            assert stats["read_latency"]["p95_s"] >= 0.0


class TestWriterDeath:
    """Genuine writer death (an injected crash — supervision quarantines
    mere poison groups, so killing the writer now takes a fault plan)."""

    @staticmethod
    def _dead_service():
        from repro.faults import FaultPlan

        svc = CubeService(
            PrefixSumCube,
            np.zeros((4, 4), dtype=np.int64),
            fault_plan=FaultPlan(seed=0, crash_at_group=1),
        )
        svc.submit_batch([((0, 0), 1)])
        return svc

    def test_submit_after_writer_death_raises(self):
        """A dead writer must fail fast at submit time — before the fix,
        submits kept enqueueing into a queue nothing would ever drain."""
        svc = self._dead_service()
        with pytest.raises(ServiceClosedError):
            svc.flush(timeout=10)
        with pytest.raises(ServiceClosedError):
            svc.submit_delta((0, 0), 1)
        with pytest.raises(ServiceClosedError):
            svc.submit_batch([((0, 0), 1)])
        with pytest.raises(ServiceClosedError):
            svc.close()

    def test_reads_after_writer_death_raise(self):
        svc = self._dead_service()
        with pytest.raises(ServiceClosedError):
            svc.flush(timeout=10)
        with pytest.raises(ServiceClosedError):
            svc.total()

    def test_writer_death_counted(self):
        svc = self._dead_service()
        with pytest.raises(ServiceClosedError):
            svc.flush(timeout=10)
        assert svc.stats()["writer_errors"] == 1


class TestStatsConsistency:
    def test_version_never_ahead_of_groups_applied(self):
        """The writer publishes the snapshot and the applied-group count
        atomically; before the fix, stats() polled between the two could
        observe ``version > groups_applied``."""
        array = np.zeros((16, 16), dtype=np.int64)
        violations = []
        stop = threading.Event()

        def poll(svc):
            while not stop.is_set():
                stats = svc.stats()
                if stats["version"] > stats["groups_applied"]:
                    violations.append(
                        (stats["version"], stats["groups_applied"])
                    )
                    return

        def read(svc):
            # keeps readers pinned to retiring snapshots, widening the
            # window between publish and the retired buffer's catch-up
            while not stop.is_set():
                svc.total()

        with CubeService(RelativePrefixSumCube, array) as svc:
            threads = [
                threading.Thread(target=poll, args=(svc,), daemon=True),
                threading.Thread(target=read, args=(svc,), daemon=True),
            ]
            for thread in threads:
                thread.start()
            for i in range(200):
                svc.submit_delta((i % 16, (i * 7) % 16), 1)
            svc.flush()
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
        assert not violations, (
            f"stats reported version {violations[0][0]} with only "
            f"{violations[0][1]} groups applied"
        )

    def test_reader_snapshot_never_behind_observed_stats_version(self):
        """Regression for the router's freshness contract: a reader that
        first observes ``stats()['version'] == v`` must then be served a
        snapshot stamped >= v. The query router keys cache freshness on
        exactly this handoff (observe the version, then read), so a
        stats() that runs ahead of the snapshot reads actually served
        would let a cache admit entries the backend cannot reproduce —
        an invisible staleness bug with no torn read to betray it."""
        array = np.zeros((16, 16), dtype=np.int64)
        violations = []
        stop = threading.Event()

        def observe_then_read(svc):
            while not stop.is_set():
                observed = svc.stats()["version"]
                _, read_version = svc.query_many([(0, 0)], [(15, 15)])
                if read_version < observed:
                    violations.append((observed, read_version))
                    return

        with CubeService(RelativePrefixSumCube, array) as svc:
            threads = [
                threading.Thread(
                    target=observe_then_read, args=(svc,), daemon=True
                )
                for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            for i in range(200):
                svc.submit_delta((i % 16, (i * 3) % 16), 1)
            svc.flush()
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
        assert not violations, (
            f"reader observed stats version {violations[0][0]} but was "
            f"then served snapshot version {violations[0][1]}"
        )

    def test_stats_after_flush_account_every_group(self):
        array = np.zeros((8, 8), dtype=np.int64)
        with CubeService(PrefixSumCube, array) as svc:
            for i in range(5):
                svc.submit_delta((i, i), 1)
            svc.flush()
            stats = svc.stats()
            assert stats["version"] == stats["groups_applied"] == 5
            assert stats["groups_pending"] == 0
            assert stats["updates_applied"] + stats["updates_coalesced"] == 5

    def test_stats_expose_queue_depth_and_wal_bytes(self, tmp_path):
        """Regression: the observability keys health monitors alarm on
        must exist in every stats() snapshot — ``queue_depth`` (the true
        submission backlog, including the retired buffer's catch-up) and
        ``wal_bytes_written``."""
        from repro.serve import DurabilityPolicy

        array = np.zeros((8, 8), dtype=np.int64)
        # no durability: the keys are still present (zeroed WAL bytes)
        with CubeService(PrefixSumCube, array) as svc:
            stats = svc.stats()
            assert stats["queue_depth"] == 0
            assert stats["wal_bytes_written"] == 0
            assert stats["wal_enabled"] is False
        with CubeService(
            RelativePrefixSumCube,
            array,
            durability=DurabilityPolicy(dir=tmp_path),
        ) as svc:
            for i in range(4):
                svc.submit_delta((i, i), 1)
            svc.flush()
            stats = svc.stats()
            assert stats["queue_depth"] == 0  # drained after flush
            assert stats["wal_bytes_written"] > 0
            assert stats["wal_enabled"] is True
            before = stats["wal_bytes_written"]
            svc.submit_delta((0, 0), 2)
            svc.flush()
            assert svc.stats()["wal_bytes_written"] > before


@pytest.mark.slow
class TestConcurrentStress:
    """N reader threads during continuous writer batches: every observed
    (values, version) pair must match the version's exact oracle."""

    READERS = 4
    BATCHES = 60

    def test_no_torn_reads_under_concurrent_batches(self):
        array, batches, lows, highs, expected = _make_workload(
            42, self.BATCHES
        )
        errors = []
        versions_seen = set()
        stop = threading.Event()

        def reader(svc):
            try:
                while not stop.is_set():
                    values, version = svc.query_many(lows, highs)
                    versions_seen.add(version)
                    if not np.array_equal(values, expected[version]):
                        errors.append(
                            f"version {version}: got {values.tolist()}, "
                            f"expected {expected[version].tolist()}"
                        )
                        return
            except Exception as exc:  # surface thread failures
                errors.append(repr(exc))

        with CubeService(
            RelativePrefixSumCube, array, method_kwargs={"box_size": 5}
        ) as svc:
            threads = [
                threading.Thread(target=reader, args=(svc,), daemon=True)
                for _ in range(self.READERS)
            ]
            for thread in threads:
                thread.start()
            for batch in batches:
                svc.submit_batch(batch)
                time.sleep(0.0005)  # let readers overlap the applies
            svc.flush()
            # final read is post-everything
            values, version = svc.query_many(lows, highs)
            assert version == self.BATCHES
            assert np.array_equal(values, expected[-1])
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive(), "reader thread hung"
        assert not errors, errors[0]
        # the readers genuinely overlapped the write stream
        assert len(versions_seen) > 2, (
            f"readers only saw versions {sorted(versions_seen)}; "
            "no concurrency was exercised"
        )
        # and the writer's structures survived the churn intact
        svc._front.method.verify_structures()

    def test_interleaved_submit_and_read_from_many_threads(self):
        """Writers submitting from several threads, readers checking
        monotonic versions — totals must always equal a prefix state."""
        rng = np.random.default_rng(7)
        array = rng.integers(0, 20, size=(16, 16))
        # every group adds exactly +1 somewhere: total(version v) = base + v
        cells = [
            tuple(int(x) for x in rng.integers(0, 16, size=2))
            for _ in range(80)
        ]
        base = int(array.sum())
        errors = []

        def submitter(svc, chunk):
            try:
                for cell in chunk:
                    svc.submit_delta(cell, 1)
            except Exception as exc:
                errors.append(repr(exc))

        full_lo = np.array([[0, 0]], dtype=np.intp)
        full_hi = np.array([[15, 15]], dtype=np.intp)

        def reader(svc, stop):
            last_version = -1
            try:
                while not stop.is_set():
                    values, version = svc.query_many(full_lo, full_hi)
                    total = values[0]
                    if int(total) != base + version:
                        errors.append(
                            f"total {total} at version {version}"
                        )
                        return
                    if version < last_version:
                        errors.append("version went backwards")
                        return
                    last_version = version
            except Exception as exc:
                errors.append(repr(exc))

        stop = threading.Event()
        with CubeService(RelativePrefixSumCube, array) as svc:
            readers = [
                threading.Thread(
                    target=reader, args=(svc, stop), daemon=True
                )
                for _ in range(3)
            ]
            submitters = [
                threading.Thread(
                    target=submitter, args=(svc, cells[i::4]), daemon=True
                )
                for i in range(4)
            ]
            for thread in readers + submitters:
                thread.start()
            for thread in submitters:
                thread.join(timeout=10)
            svc.flush()
            stop.set()
            for thread in readers:
                thread.join(timeout=10)
            assert svc.version == len(cells)
            assert int(svc.total()) == base + len(cells)
        assert not errors, errors[0]


class TestServePathFixes:
    """Regression tests for the serve-path bug trio: the flush timeout
    message, flush waiters racing close/abandon, and the hardcoded
    self_check rebuild wait."""

    @staticmethod
    def _stalled_service(latency_seconds=1.2, method_cls=PrefixSumCube):
        """A service whose writer sleeps >= latency_seconds/2 applying
        group 1 (injected apply latency), one group per cycle."""
        from repro.faults import FaultPlan

        return CubeService(
            method_cls,
            np.zeros((6, 6), dtype=np.int64),
            fault_plan=FaultPlan(
                seed=0, latency_at=(1,), latency_seconds=latency_seconds
            ),
            max_groups_per_cycle=1,
        )

    def test_flush_timeout_reports_completed_not_applied(self):
        """The wait condition tracks _completed_groups; before the fix
        the timeout message reported _applied_groups, which runs one
        writer cycle ahead — the error could claim progress the waiter
        never observed."""
        svc = CubeService(PrefixSumCube, np.zeros((6, 6), dtype=np.int64))
        gate = threading.Event()
        original = svc.metrics.observe

        def stall(name, seconds):
            # the writer's apply_latency record sits between the
            # applied-groups publish and the completed-groups bump:
            # applied == 1 while the flush condition still sees 0
            if name == "apply_latency":
                gate.wait(timeout=10)
            original(name, seconds)

        svc.metrics.observe = stall
        try:
            svc.submit_batch([((0, 0), 1)])
            with pytest.raises(TimeoutError) as excinfo:
                svc.flush(timeout=0.3)
            message = str(excinfo.value)
            assert "0/1" in message, message
            assert "completed" in message, message
            assert "applied" not in message, message
        finally:
            gate.set()
            svc.close()

    def test_abandon_wakes_blocked_flush_promptly(self):
        """A flush blocked in the state-lock wait while abandon() kills
        the writer must raise ServiceClosedError as soon as the writer
        exits — before the fix it slept out its whole timeout."""
        svc = self._stalled_service()
        svc.submit_batch([((0, 0), 1)])   # group 1: writer sleeps in apply
        svc.submit_batch([((1, 1), 2)])   # group 2: never applied
        caught = []

        def do_flush():
            try:
                svc.flush(timeout=30.0)
            except BaseException as error:  # noqa: BLE001
                caught.append(error)

        waiter = threading.Thread(target=do_flush)
        waiter.start()
        time.sleep(0.1)  # let the flush reach its wait
        start = time.monotonic()
        svc.abandon()
        waiter.join(timeout=10)
        elapsed = time.monotonic() - start
        assert not waiter.is_alive(), "flush waiter still blocked"
        assert elapsed < 10.0, f"flush took {elapsed:.1f}s to fail"
        assert caught and isinstance(caught[0], ServiceClosedError), caught
        assert "1/2" in str(caught[0])

    def test_flush_after_writer_exit_fails_immediately(self):
        svc = self._stalled_service()
        svc.submit_batch([((0, 0), 1)])
        svc.submit_batch([((1, 1), 2)])
        svc.abandon()
        start = time.monotonic()
        with pytest.raises(ServiceClosedError):
            svc.flush(timeout=30.0)
        assert time.monotonic() - start < 5.0

    def test_self_check_timeout_parameter_and_context(self):
        """self_check(repair=True) hardcoded a 300 s rebuild wait; it now
        takes a timeout and reports the elapsed wait on expiry."""
        svc = self._stalled_service(method_cls=RelativePrefixSumCube)
        try:
            svc.submit_batch([((0, 0), 1)])  # writer busy >= 0.6 s
            # corrupt the published snapshot's overlay (range sums go
            # wrong, to_array() stays right) so the check fails and the
            # repair path queues a rebuild behind the stalled cycle
            method = svc._front.method
            mask = next(iter(method.overlay._values))
            method.overlay._values[mask][...] += 1000
            with pytest.raises(TimeoutError) as excinfo:
                svc.self_check(repair=True, timeout=0.05)
            message = str(excinfo.value)
            assert "0.05" in message, message
            assert "waited" in message, message
        finally:
            svc.flush(timeout=10)
            svc.close()

    def test_self_check_deadline_caps_the_wait(self):
        from repro.deadline import Deadline

        svc = self._stalled_service(method_cls=RelativePrefixSumCube)
        try:
            svc.submit_batch([((0, 0), 1)])
            method = svc._front.method
            mask = next(iter(method.overlay._values))
            method.overlay._values[mask][...] += 1000
            start = time.monotonic()
            with pytest.raises(TimeoutError):
                svc.self_check(repair=True, deadline=Deadline.after(0.05))
            assert time.monotonic() - start < 5.0
        finally:
            svc.flush(timeout=10)
            svc.close()


class TestFloatDeltaGroups:
    """Acked groups with float deltas must never be quarantined away.

    An int64-seeded cube receiving integral float64 deltas (exactly what
    WAL replay and cross-process clients produce) used to raise
    ``UFuncTypeError`` inside the incremental apply path; supervision
    then quarantined the group *after* it had been durably acked —
    silent loss. Delta coercion in the method base class fixes this;
    these tests pin the service-level contract.
    """

    def test_paced_float_delta_groups_apply_exactly(self):
        rng = np.random.default_rng(7)
        array = rng.integers(0, 50, size=SHAPE)
        oracle = np.asarray(array, dtype=np.float64).copy()
        with CubeService(
            RelativePrefixSumCube, array, max_groups_per_cycle=1
        ) as svc:
            # one group per cycle forces the incremental apply path —
            # the path that used to raise and quarantine
            for _ in range(40):
                group = []
                for _ in range(3):
                    cell = tuple(int(x) for x in rng.integers(0, 24, size=2))
                    group.append((cell, float(int(rng.integers(-9, 10)) or 1)))
                svc.submit_batch(group)
                for cell, delta in group:
                    oracle[cell] += delta
            svc.flush()
            assert svc.quarantined_groups() == ()
            assert svc.stats()["groups_quarantined"] == 0
            reconstructed, _ = svc.snapshot_array()
            assert np.array_equal(
                np.asarray(reconstructed, dtype=np.float64), oracle
            )

    def test_fractional_deltas_survive_via_promotion(self):
        array = np.zeros((8, 8), dtype=np.int64)
        with CubeService(
            RelativePrefixSumCube, array, max_groups_per_cycle=1
        ) as svc:
            svc.submit_batch([((1, 1), 0.25)])
            svc.submit_batch([((1, 1), 0.25)])
            svc.flush()
            assert svc.quarantined_groups() == ()
            assert float(svc.cell_value((1, 1))) == pytest.approx(0.5)
