"""Latency instrumentation for the serving layer.

The :class:`~repro.metrics.counters.AccessCounter` family measures the
paper's unit — logical cells touched. A serving process needs the
operational complement: how long reads and batch applications take and
where the tail is. :class:`LatencyRecorder` provides that, thread-safely;
it is the histogram kind of :class:`~repro.metrics.registry.MetricsRegistry`
and nothing in it is specific to serving.
"""

from __future__ import annotations

import threading
from typing import Dict, List


class LatencyRecorder:
    """Thread-safe duration tally with percentile summaries.

    Keeps exact count/total/min/max plus a bounded sample reservoir for
    percentiles (the first ``capacity`` observations — adequate for the
    benchmark- and test-sized runs this library performs; it is not a
    streaming quantile sketch).
    """

    def __init__(self, capacity: int = 8192) -> None:
        self._lock = threading.Lock()
        self._capacity = int(capacity)
        self._samples: List[float] = []
        self.count = 0
        self.total_seconds = 0.0
        self.min_seconds = float("inf")
        self.max_seconds = 0.0

    def record(self, seconds: float) -> None:
        """Add one observed duration (seconds)."""
        value = float(seconds)
        with self._lock:
            self.count += 1
            self.total_seconds += value
            if value < self.min_seconds:
                self.min_seconds = value
            if value > self.max_seconds:
                self.max_seconds = value
            if len(self._samples) < self._capacity:
                self._samples.append(value)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained samples (0 if empty)."""
        with self._lock:
            samples = sorted(self._samples)
        if not samples:
            return 0.0
        rank = min(len(samples) - 1, max(0, int(q / 100.0 * len(samples))))
        return samples[rank]

    def summary(self) -> Dict[str, float]:
        """Count, mean, p50/p95/p99 and extrema as a plain dict."""
        with self._lock:
            count = self.count
            total = self.total_seconds
            low = self.min_seconds if count else 0.0
            high = self.max_seconds
        return {
            "count": count,
            "mean_s": (total / count) if count else 0.0,
            "p50_s": self.percentile(50),
            "p95_s": self.percentile(95),
            "p99_s": self.percentile(99),
            "min_s": low,
            "max_s": high,
            "total_s": total,
        }
