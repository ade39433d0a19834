"""Unit tests for rolling time windows (repro.cube.rolling_window)."""

import numpy as np
import pytest

from repro.baselines.naive import NaiveCube
from repro.cube.rolling_window import RollingWindowEngine, physical_ranges
from repro.errors import RangeError, SchemaError


@pytest.fixture
def engine():
    # 7-day window over 4 buckets, small enough to reason about exactly
    return RollingWindowEngine((4,), window=7, box_size=2)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(RangeError):
            RollingWindowEngine((4,), window=1)
        with pytest.raises(SchemaError):
            RollingWindowEngine((0,), window=7)

    def test_starts_empty(self, engine):
        assert engine.window_sum(0, 0) == 0.0
        assert engine.oldest_slot == engine.newest_slot == 0

    def test_alternate_backend(self):
        engine = RollingWindowEngine((3,), window=4, method=NaiveCube)
        engine.record(0, (1,), 5.0)
        assert engine.window_sum(0, 0) == 5.0


class TestRecordAndQuery:
    def test_single_slot(self, engine):
        engine.record(0, (2,), 10.0)
        engine.record(0, (3,), 5.0)
        assert engine.window_sum(0, 0) == 15.0
        assert engine.window_sum(0, 0, low=(2,), high=(2,)) == 10.0

    def test_recording_into_future_advances(self, engine):
        engine.record(3, (0,), 7.0)
        assert engine.newest_slot == 3
        assert engine.window_sum(0, 3) == 7.0

    def test_multi_slot_range(self, engine):
        for slot in range(5):
            engine.record(slot, (1,), float(slot + 1))
        assert engine.window_sum(1, 3) == 2 + 3 + 4
        assert engine.trailing_sum(2) == 4 + 5

    def test_slot_out_of_window_rejected(self, engine):
        engine.record(10, (0,), 1.0)  # window now [4, 10]
        with pytest.raises(RangeError):
            engine.window_sum(3, 5)
        with pytest.raises(RangeError):
            engine.record(2, (0,), 1.0)

    def test_inverted_slot_range(self, engine):
        engine.record(3, (0,), 1.0)
        with pytest.raises(RangeError):
            engine.window_sum(3, 1)


class TestExpiry:
    def test_old_data_expires_on_wrap(self, engine):
        engine.record(0, (0,), 100.0)
        engine.record(7, (0,), 1.0)  # slot 7 reuses physical slice 0
        # slot 0's 100.0 must be gone: totals reflect only live slots
        assert engine.window_sum(engine.oldest_slot,
                                 engine.newest_slot) == 1.0

    def test_window_total_over_long_stream(self):
        """Logical totals always equal the sum of live slots' facts."""
        engine = RollingWindowEngine((3,), window=5, box_size=2)
        rng = np.random.default_rng(9)
        ledger = {}  # slot -> total recorded
        for slot in range(20):
            amount = float(rng.integers(1, 10))
            engine.record(slot, (int(rng.integers(0, 3)),), amount)
            ledger[slot] = ledger.get(slot, 0.0) + amount
            first = engine.oldest_slot
            expected = sum(
                ledger.get(s, 0.0) for s in range(first, slot + 1)
            )
            assert engine.window_sum(first, slot) == pytest.approx(expected)

    def test_wrap_range_splits_into_two_physical_ranges(self):
        engine = RollingWindowEngine((2,), window=5, box_size=2)
        for slot in range(6):  # newest 5, window [1..5]
            engine.record(slot, (0,), 1.0)
        # logical [2, 5] (4 of 5 slots) wraps physically ([2,4] + [0,0])
        assert engine.window_sum(2, 5) == 4.0
        assert physical_ranges(2, 5, engine.window) == [(2, 4), (0, 0)]

    def test_full_window_range_is_single_physical_scan(self):
        engine = RollingWindowEngine((2,), window=4)
        engine.advance(10)
        assert physical_ranges(
            engine.oldest_slot, engine.newest_slot, engine.window
        ) == [(0, 3)]


class TestAdvance:
    def test_advance_returns_new_slot(self, engine):
        assert engine.advance(3) == 3

    def test_advance_backwards_rejected(self, engine):
        with pytest.raises(RangeError):
            engine.advance(0)

    def test_advance_beyond_window_clears_everything(self, engine):
        engine.record(0, (0,), 50.0)
        engine.advance(20)
        assert engine.window_sum(
            engine.oldest_slot, engine.newest_slot
        ) == 0.0

    def test_trailing_sum_clips_to_window(self, engine):
        engine.record(2, (0,), 3.0)
        # asking for more history than exists clips to the window start
        assert engine.trailing_sum(100) == 3.0

    def test_repr(self, engine):
        engine.advance(9)
        assert "slots=[3..9]" in repr(engine)
