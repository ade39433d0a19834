"""Unit tests for the operational metrics registry (repro.metrics.registry)."""

import sys
import threading

import pytest

from repro.metrics import MetricsRegistry, NetMetrics

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
