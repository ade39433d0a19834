"""Unit tests for the operational metrics registry (repro.metrics.registry)."""

import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import LatencyRecorder, MetricsRegistry, NetMetrics
from repro.metrics.service import _HALF, _LOW_S, _UPPER_EDGES

THREADS = 8
CALLS = 10_000


def make_registry():
    return MetricsRegistry(
        counters=("calls", "items"),
        keyed=("per_key",),
        latencies=("latency",),
    )


def test_declared_names_report_zero():
    snapshot = make_registry().snapshot()
    assert snapshot["calls"] == 0
    assert snapshot["items"] == 0
    assert snapshot["per_key"] == {}
    assert snapshot["latency"]["count"] == 0
    assert set(snapshot) == {"calls", "items", "per_key", "latency"}


def test_undeclared_names_raise():
    registry = make_registry()
    with pytest.raises(KeyError):
        registry.inc(unknown=1)
    with pytest.raises(KeyError):
        registry.inc_key("unknown", "k")
    with pytest.raises(KeyError):
        registry.observe("unknown", 0.1)


def test_concurrent_updates_are_exact():
    registry = make_registry()
    start = threading.Barrier(THREADS)

    def worker():
        start.wait()
        for n in range(CALLS):
            registry.inc(calls=1, items=3)
            # every thread bumps the same four keys: contended updates
            registry.inc_key("per_key", n % 4)
            registry.observe("latency", 0.001)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    snapshot = registry.snapshot()
    assert snapshot["calls"] == THREADS * CALLS
    assert snapshot["items"] == 3 * THREADS * CALLS
    assert snapshot["per_key"] == {k: THREADS * CALLS // 4 for k in range(4)}
    assert snapshot["latency"]["count"] == THREADS * CALLS
    assert registry.latency("latency").count == THREADS * CALLS


def test_snapshot_copies_keyed_tables():
    registry = make_registry()
    registry.inc_key("per_key", "a", 2)
    snapshot = registry.snapshot()
    registry.inc_key("per_key", "a")
    assert snapshot["per_key"] == {"a": 2}
    assert registry.snapshot()["per_key"] == {"a": 3}


def test_net_metrics_derive_totals_and_reject_classes():
    metrics = NetMetrics()
    metrics.inc(connections_opened=3, connections_closed=1)
    for op in ("ping", "ping", "range_sum"):
        metrics.record_request(op, 0.01)
    for code in ("auth_failed", "bad_request", "payload_too_large"):
        metrics.inc_key("errors_by_code", code)
    metrics.inflight_enter()
    metrics.inflight_enter()
    metrics.inflight_exit()
    snapshot = metrics.snapshot()
    assert snapshot["requests"] == 3
    assert snapshot["requests_by_op"] == {"ping": 2, "range_sum": 1}
    assert snapshot["errors"] == 3
    assert snapshot["error_rate"] == 1.0
    assert snapshot["connections_active"] == 2
    assert snapshot["auth_rejects"] == 1
    assert snapshot["protocol_errors"] == 2
    assert snapshot["quota_rejects"] == 0
    assert snapshot["inflight"] == 1
    assert snapshot["inflight_peak"] == 2


def shifted_recorder():
    """10k reads at 1 ms, then 10k at 10 ms: the shift lands long after
    the first 8192 samples."""
    recorder = LatencyRecorder()
    for _ in range(10_000):
        recorder.record(0.001)
    for _ in range(10_000):
        recorder.record(0.010)
    return recorder


def test_latency_quantiles_track_a_late_shift():
    recorder = shifted_recorder()
    assert recorder.percentile(99) >= 0.009
    assert recorder.percentile(50) >= 0.009
    assert recorder.count == 20_000
    assert recorder.min_seconds == 0.001
    assert recorder.max_seconds == 0.010


def test_percentile_costs_buckets_not_a_sort():
    recorder = LatencyRecorder()
    rng = random.Random(7)
    for _ in range(8192):
        recorder.record(rng.uniform(0.0005, 0.02))
    start = time.perf_counter()
    for _ in range(1000):
        recorder.percentile(95)
    assert time.perf_counter() - start < 0.2


# one bucket's width, with room for float rounding at the edges
RATIO = (_UPPER_EDGES[1] / _UPPER_EDGES[0]) * (1 + 1e-9)

durations = st.one_of(
    st.just(0.0),
    st.floats(0.0, _LOW_S),  # below the grid
    st.floats(_LOW_S, 10.0),
    st.floats(_UPPER_EDGES[-1], 1e6),  # above the grid
)


def on_grid(seconds):
    """Clamp into the grid: it resolves nothing finer at its ends."""
    return min(max(seconds, _LOW_S), _UPPER_EDGES[-1])


def nearest_rank(samples, q):
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(q / 100.0 * len(ordered))))
    return ordered[rank]


@settings(max_examples=60, deadline=None)
@given(
    runs=st.lists(
        st.tuples(durations, st.integers(1, 2 * _HALF)),
        min_size=1,
        max_size=6,
    ),
    qs=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=5),
)
def test_quantiles_within_one_bucket_of_the_window(runs, qs):
    """Runs of equal durations, up to ~6 windows of samples in all;
    every quantile lies within one bucket of the exact nearest-rank
    value over the last ``_HALF + count % _HALF`` samples."""
    recorder = LatencyRecorder()
    samples = []
    for value, repeat in runs:
        samples.extend([value] * repeat)
        for _ in range(repeat):
            recorder.record(value)
    window = samples[-min(len(samples), _HALF + len(samples) % _HALF):]
    for q in qs + [0.0, 50.0, 95.0, 99.0, 100.0]:
        got = on_grid(recorder.percentile(q))
        exact = on_grid(nearest_rank(window, q))
        assert exact / RATIO <= got <= exact * RATIO, (q, got, exact)
    summary = recorder.summary()
    assert summary["min_s"] == min(samples)
    assert summary["max_s"] == max(samples)
    for q in (0.0, 100.0):
        assert summary["min_s"] <= recorder.percentile(q) <= summary["max_s"]
    assert (
        summary["min_s"]
        <= summary["p50_s"]
        <= summary["p95_s"]
        <= summary["p99_s"]
        <= summary["max_s"]
    )


def test_summary_quantiles_ordered_under_concurrent_records():
    recorder = LatencyRecorder()
    stop = threading.Event()

    def writer():
        rng = random.Random(3)
        while not stop.is_set():
            # a shifting mix, so the window keeps rotating under reads
            recorder.record(rng.expovariate(1000.0) * rng.choice((1, 50)))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    thread = threading.Thread(target=writer)
    thread.start()
    try:
        deadline = time.monotonic() + 30.0
        checked = 0
        while recorder.count < 3 * _HALF and time.monotonic() < deadline:
            summary = recorder.summary()
            assert (
                summary["p50_s"]
                <= summary["p95_s"]
                <= summary["p99_s"]
                <= summary["max_s"]
            ), summary
            checked += 1
    finally:
        stop.set()
        thread.join(timeout=30)
        sys.setswitchinterval(previous)
    assert not thread.is_alive()
    assert checked > 0
    assert recorder.count >= 3 * _HALF
