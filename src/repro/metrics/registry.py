"""One thread-safe registry for every operational counter.

The :class:`~repro.metrics.counters.AccessCounter` family measures the
paper's unit, logical cells touched. The serving stack's operational
tallies (reads served, failovers, cache hits, rows quarantined...) all
have one shape instead: a set of names fixed by their owner, bumped from
many threads, and reported as one plain dict. :class:`MetricsRegistry`
is that shape, once. Each owner (service, cluster, router, net server,
ingest pipeline) declares its names at construction, so every key is
present in :meth:`MetricsRegistry.snapshot` from the start, at zero.
"""

from __future__ import annotations

import threading
from typing import Dict, Hashable, Iterable

from repro.metrics.service import LatencyRecorder


class MetricsRegistry:
    """Named counters, keyed counters and latency histograms.

    Args:
        counters: names of plain integer counters.
        keyed: names of per-key counter tables (per node, per shard,
            per error code...), reported as ``{key: count}`` dicts.
        latencies: names of :class:`LatencyRecorder` histograms,
            reported as their :meth:`~LatencyRecorder.summary` dicts.

    Updating an undeclared name raises ``KeyError``: the declaration is
    the key set of the report.
    """

    def __init__(
        self,
        counters: Iterable[str] = (),
        keyed: Iterable[str] = (),
        latencies: Iterable[str] = (),
    ) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = dict.fromkeys(counters, 0)
        self._keyed: Dict[str, Dict[Hashable, int]] = {
            name: {} for name in keyed
        }
        self._latencies: Dict[str, LatencyRecorder] = {
            name: LatencyRecorder() for name in latencies
        }

    def inc(self, **deltas: int) -> None:
        """Add each ``name=amount`` pair, all under one lock acquisition."""
        with self._lock:
            counters = self._counters
            for name, amount in deltas.items():
                counters[name] += amount

    def inc_key(self, name: str, key: Hashable, amount: int = 1) -> None:
        """Add ``amount`` to ``key``'s entry of the keyed counter ``name``."""
        with self._lock:
            table = self._keyed[name]
            table[key] = table.get(key, 0) + amount

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration into the histogram ``name``."""
        self._latencies[name].record(seconds)

    def latency(self, name: str) -> LatencyRecorder:
        """The histogram ``name`` itself (e.g. for a quantile-driven
        policy such as the cluster's hedge delay)."""
        return self._latencies[name]

    def snapshot(self) -> Dict:
        """Every counter, keyed table and latency summary, one plain dict."""
        with self._lock:
            report: Dict = dict(self._counters)
            for name, table in self._keyed.items():
                report[name] = dict(table)
        for name, recorder in self._latencies.items():
            report[name] = recorder.summary()
        return report
