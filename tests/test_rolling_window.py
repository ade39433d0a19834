"""Unit tests for the circular time window (repro.ingest.rolling) over an
in-memory, non-durable CubeService."""

import numpy as np
import pytest

from repro.baselines.naive import NaiveCube
from repro.cluster.degraded import RangeEstimate
from repro.core.rps import RelativePrefixSumCube
from repro.errors import RangeError, ReproError, ServiceOverloadedError
from repro.faults import FaultPlan
from repro.ingest.rolling import RollingCubeService, physical_ranges
from repro.serve import CubeService


@pytest.fixture
def make_window():
    """``make(slot_shape, window, method=RPS, **method_kwargs)`` wraps a
    fresh in-memory service; every service is closed at teardown."""
    services = []

    def make(slot_shape, window, method=RelativePrefixSumCube,
             **method_kwargs):
        service = CubeService(
            method, np.zeros((window, *slot_shape)),
            method_kwargs=method_kwargs,
        )
        services.append(service)
        return RollingCubeService(service)

    yield make
    for service in services:
        service.close()


@pytest.fixture
def roller(make_window):
    # 7-day window over 4 buckets, small enough to reason about exactly
    return make_window((4,), window=7, box_size=2)


class ServiceProbe:
    """Service proxy counting snapshots; overloads the ``fail_at``-th
    submit (1-based) once."""

    def __init__(self, service, fail_at=None):
        self._service = service
        self.fail_at = fail_at
        self.snapshots = 0
        self.submits = 0

    def __getattr__(self, name):
        return getattr(self._service, name)

    def snapshot_array(self):
        self.snapshots += 1
        return self._service.snapshot_array()

    def submit_batch(self, updates, **kwargs):
        self.submits += 1
        if self.submits == self.fail_at:
            raise ServiceOverloadedError("synthetic overload")
        return self._service.submit_batch(updates, **kwargs)


class TestConstruction:
    def test_validation(self, make_window):
        with pytest.raises(RangeError):
            make_window((4,), window=1)
        # an empty slot axis is refused by the method itself
        with pytest.raises(ReproError):
            make_window((0,), window=7)

    def test_starts_empty(self, roller):
        assert roller.window_sum(0, 0) == 0.0
        assert roller.oldest_slot == roller.newest_slot == 0

    def test_alternate_backend(self, make_window):
        roller = make_window((3,), window=4, method=NaiveCube)
        roller.record(0, (1,), 5.0)
        assert roller.window_sum(0, 0) == 5.0


class TestRecordAndQuery:
    def test_single_slot(self, roller):
        roller.record(0, (2,), 10.0)
        roller.record(0, (3,), 5.0)
        assert roller.window_sum(0, 0) == 15.0
        assert roller.window_sum(0, 0, low=(2,), high=(2,)) == 10.0

    def test_recording_into_future_advances(self, roller):
        roller.record(3, (0,), 7.0)
        assert roller.newest_slot == 3
        assert roller.window_sum(0, 3) == 7.0

    def test_multi_slot_range(self, roller):
        for slot in range(5):
            roller.record(slot, (1,), float(slot + 1))
        assert roller.window_sum(1, 3) == 2 + 3 + 4
        assert roller.trailing_sum(2) == 4 + 5

    def test_slot_out_of_window_rejected(self, roller):
        roller.record(10, (0,), 1.0)  # window now [4, 10]
        with pytest.raises(RangeError):
            roller.window_sum(3, 5)
        with pytest.raises(RangeError):
            roller.record(2, (0,), 1.0)

    def test_inverted_slot_range(self, roller):
        roller.record(3, (0,), 1.0)
        with pytest.raises(RangeError):
            roller.window_sum(3, 1)

    def test_empty_slot_batch_is_acked(self, roller):
        """An empty group is forwarded and acked like
        ``CubeService.submit_batch([])``; reads are unchanged."""
        roller.record(0, (1,), 5.0)
        seq = roller.submit_slot_batch([])
        assert seq == roller.service.last_submitted_seq == 2
        roller.flush()
        assert roller.service.version == seq
        assert roller.window_sum(0, 0) == 5.0
        assert roller.newest_slot == 0


class TestExpiry:
    def test_old_data_expires_on_wrap(self, roller):
        roller.record(0, (0,), 100.0)
        roller.record(7, (0,), 1.0)  # slot 7 reuses physical slice 0
        # slot 0's 100.0 must be gone: totals reflect only live slots
        assert roller.window_sum(roller.oldest_slot,
                                 roller.newest_slot) == 1.0

    def test_window_total_over_long_stream(self, make_window):
        """Logical totals always equal the sum of live slots' facts."""
        roller = make_window((3,), window=5, box_size=2)
        rng = np.random.default_rng(9)
        ledger = {}  # slot -> total recorded
        for slot in range(20):
            amount = float(rng.integers(1, 10))
            roller.record(slot, (int(rng.integers(0, 3)),), amount)
            ledger[slot] = ledger.get(slot, 0.0) + amount
            first = roller.oldest_slot
            expected = sum(
                ledger.get(s, 0.0) for s in range(first, slot + 1)
            )
            assert roller.window_sum(first, slot) == expected

    def test_wrap_range_splits_into_two_physical_ranges(self, make_window):
        roller = make_window((2,), window=5, box_size=2)
        for slot in range(6):  # newest 5, window [1..5]
            roller.record(slot, (0,), 1.0)
        # logical [2, 5] (4 of 5 slots) wraps physically ([2,4] + [0,0])
        assert roller.window_sum(2, 5) == 4.0
        assert physical_ranges(2, 5, roller.window) == [(2, 4), (0, 0)]

    def test_full_window_range_is_single_physical_scan(self, make_window):
        roller = make_window((2,), window=4)
        roller.advance(10)
        assert physical_ranges(
            roller.oldest_slot, roller.newest_slot, roller.window
        ) == [(0, 3)]


class TestAdvance:
    def test_advance_returns_new_slot(self, roller):
        assert roller.advance(3) == 3

    def test_advance_backwards_rejected(self, roller):
        with pytest.raises(RangeError):
            roller.advance(0)

    def test_advance_beyond_window_clears_everything(self, roller):
        roller.record(0, (0,), 50.0)
        roller.advance(20)
        assert roller.window_sum(
            roller.oldest_slot, roller.newest_slot
        ) == 0.0

    def test_trailing_sum_clips_to_window(self, roller):
        roller.record(2, (0,), 3.0)
        # asking for more history than exists clips to the window start
        assert roller.trailing_sum(100) == 3.0

    def test_repr(self, roller):
        roller.advance(9)
        assert "slots=[3..9]" in repr(roller)

    def test_advance_far_past_window_snapshots_once(self):
        """A roll of ten windows costs one flush + snapshot and at most
        one zeroing group per physical slab, not one per slot."""
        with CubeService(RelativePrefixSumCube, np.zeros((7, 4))) as svc:
            probe = ServiceProbe(svc)
            roller = RollingCubeService(probe)
            roller.submit_slot_batch(
                [((slot, slot % 4), 1.0 + slot) for slot in range(7)]
            )
            probe.snapshots = probe.submits = 0
            assert roller.advance(70) == 76
            assert probe.snapshots == 1
            assert probe.submits == 7
            assert roller.window_sum(70, 76) == 0.0
            svc.flush()
            assert not svc.snapshot_array()[0].any()

    def test_read_during_roll_past_window_is_estimate(self):
        """Until a past-the-window roll's zeroing group applies, a read
        of the slot its slab now serves is a marked estimate whose
        interval holds the true (zero) sum, never the stale value."""
        slow_second_group = FaultPlan(latency_at=[2], latency_seconds=0.5)
        with CubeService(
            RelativePrefixSumCube, np.zeros((3, 2)),
            fault_plan=slow_second_group,
        ) as svc:
            roller = RollingCubeService(svc)
            roller.record(0, (0,), 5.0)
            roller.advance(7)  # slot 0's slab now serves slot 6
            answer = roller.window_sum(6, 6, allow_estimate=True)
            assert isinstance(answer, RangeEstimate) and answer.estimate
            assert answer.low <= 0.0 <= answer.high
            assert roller.window_sum(6, 6) == 0.0

    def test_overload_mid_roll_keeps_window_then_retry_completes(self):
        """An overload mid-roll leaves a consistent window: it stops at
        the last slot whose slab was zeroed, and the retry re-snapshots
        and finishes the roll."""
        with CubeService(RelativePrefixSumCube, np.zeros((4, 2))) as svc:
            probe = ServiceProbe(svc)
            roller = RollingCubeService(probe)
            roller.submit_slot_batch(
                [((slot, 0), 1.0) for slot in range(4)]
            )
            probe.fail_at = probe.submits + 3
            with pytest.raises(ServiceOverloadedError):
                roller.advance(10)
            # slots 4 and 5 reuse the zeroed slabs of slots 0 and 1
            assert roller.newest_slot == 5
            assert roller.window_sum(2, 5) == 2.0
            assert roller.advance(13 - roller.newest_slot) == 13
            assert roller.trailing_sum(4) == 0.0
