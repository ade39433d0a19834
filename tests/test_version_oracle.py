"""Unit tests for :class:`repro.testing.VersionOracle`, the one
per-version truth every stamped answer in the repo is checked against."""

import sys
import threading

import numpy as np
import pytest

from repro.cluster import RangeEstimate
from repro.testing import VersionOracle

FULL = ((0, 0), (2, 3))


def _oracle():
    """A 3x4 cube of ones with two recorded groups: v1 adds 5 at (0, 0),
    v2 adds -2 at (2, 3) and 1 at (0, 0)."""
    oracle = VersionOracle(np.ones((3, 4)))
    assert oracle.record([((0, 0), 5.0)]) == 1
    assert oracle.record([((2, 3), -2.0), ((0, 0), 1.0)]) == 2
    return oracle


def _estimate(low, high, marked=True):
    return RangeEstimate(
        value=(low + high) / 2, low=low, high=high, confidence=1.0,
        degraded_shards=(0,), epoch=0, estimate=marked,
    )


def test_states_fold_each_group_in_order():
    oracle = _oracle()
    assert oracle.version == 2
    assert [oracle.box_sum(*FULL, v) for v in (0, 1, 2)] == [12, 17, 16]
    assert oracle.state(2)[0, 0] == 7.0
    assert oracle.state(0)[0, 0] == 1.0  # the initial cube is untouched


@pytest.mark.parametrize("stamp", [-1, 3, 1.0, True])
def test_stamp_outside_acked_versions_is_rejected(stamp):
    oracle = _oracle()
    with pytest.raises(ValueError, match="no acknowledged version"):
        oracle.state(stamp)
    [mismatch] = oracle.check(*zip(FULL), [16.0], stamp)
    assert "no acknowledged version" in mismatch["error"]


def test_exact_answer_passes_and_off_by_one_fails():
    oracle = _oracle()
    assert oracle.check([FULL[0]], [FULL[1]], [16.0], 2) == []
    [mismatch] = oracle.check([FULL[0]], [FULL[1]], [15.0], 2)
    assert mismatch["value"] == 15.0 and mismatch["expect"] == 16.0
    assert mismatch["stamp"] == 2


def test_per_box_stamps_are_each_checked():
    oracle = _oracle()
    lows, highs = [FULL[0]] * 3, [FULL[1]] * 3
    assert oracle.check(lows, highs, [12.0, 17.0, 16.0], [0, 1, 2]) == []
    [mismatch] = oracle.check(lows, highs, [12.0, 16.0, 16.0], [0, 1, 2])
    assert mismatch["index"] == 1 and mismatch["expect"] == 17.0


def test_estimate_must_be_marked_and_contain_the_truth():
    oracle = _oracle()
    lows, highs = [FULL[0]], [FULL[1]]
    # the value is ignored for an estimated slot; the interval decides
    assert oracle.check(
        lows, highs, [0.0], 2, estimates=[_estimate(10.0, 16.0)]
    ) == []
    assert oracle.check(lows, highs, [16.0], 2, estimates=[_estimate(17, 20)])
    assert oracle.check(lows, highs, [16.0], 2, estimates=[_estimate(0, 15)])
    assert oracle.check(
        lows, highs, [16.0], 2, estimates=[_estimate(0, 99, marked=False)]
    )


def test_answer_count_must_match_the_boxes():
    assert _oracle().check([FULL[0]], [FULL[1]], [16.0, 16.0], 2)


def test_check_array_is_exact_cell_for_cell():
    oracle = _oracle()
    cube = oracle.state(2).copy()
    assert oracle.check_array(cube, 2) == []
    cube[1, 2] += 1
    [mismatch] = oracle.check_array(cube, 2)
    assert mismatch["box"] == ([1, 2], [1, 2])
    assert oracle.check_array(cube[:2], 2)  # wrong shape
    with pytest.raises(ValueError):
        oracle.check_array(cube, 5)  # unknown stamp


def test_states_rebuild_after_eviction(monkeypatch):
    monkeypatch.setattr(VersionOracle, "MAX_STATES", 3)
    oracle = VersionOracle(np.zeros(4))
    for i in range(10):
        oracle.record([((i % 4,), 1.0)])
    sums = [oracle.box_sum((0,), (3,), v) for v in range(11)]
    assert sums == list(range(11))
    assert oracle.box_sum((0,), (3,), 2) == 2  # evicted, folded again


def test_readers_may_check_while_a_writer_records():
    """Version ``v`` of a cube of zeros plus one unit per group sums to
    ``v``: a fold racing a record would break that for some reader."""
    oracle = VersionOracle(np.zeros((4, 4)))
    errors = []

    def reader():
        for _ in range(300):
            v = oracle.version
            errors.extend(oracle.check([(0, 0)], [(3, 3)], [float(v)], v))

    threads = [threading.Thread(target=reader) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for i in range(300):
            oracle.record([((i % 4, i % 3), 1.0)])
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
