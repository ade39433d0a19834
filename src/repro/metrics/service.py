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
from bisect import bisect_right
from itertools import accumulate
from math import log2
from operator import sub
from typing import Dict, List, Tuple

# The bucket grid, 16 buckets per octave: bucket 0 holds every duration
# up to 100 ns (zero included, which perf_counter can return) and bucket
# b >= 1 the durations from _UPPER_EDGES[b-1] to _UPPER_EDGES[b], so a
# bucket is at most 2**(1/16) - 1 < 4.5% wide. The top bucket also takes
# everything above the grid (~30 min).
_PER_OCTAVE = 16
_LOW_S = 1e-7
_BUCKETS = 546
_UPPER_EDGES = tuple(
    _LOW_S * 2.0 ** (b / _PER_OCTAVE) for b in range(_BUCKETS)
)
_LOG_OFFSET = _PER_OCTAVE * log2(_LOW_S)
_TOP_LOW_S = _UPPER_EDGES[-2]  # the top bucket's lower edge
# Samples per window half: quantiles cover the most recent
# _HALF..2*_HALF observations.
_HALF = 4096


class LatencyRecorder:
    """Thread-safe duration tally with windowed percentile summaries.

    ``count``, ``total_seconds``, ``min_seconds`` and ``max_seconds`` are
    exact over the recorder's lifetime. Percentiles come from a
    fixed-memory log-bucketed histogram of the recent window: counts are
    kept in two halves, and when the current half reaches 4096 samples
    it becomes the previous one, so quantiles cover the last 4096–8192
    observations and keep tracking live traffic. A quantile is reported
    as its bucket's upper edge clamped into ``[min_seconds,
    max_seconds]``: at most one bucket (< 4.5%) above the exact
    nearest-rank value, and resolved only to the grid's edge below
    100 ns or above ~30 min.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._current: List[int] = [0] * _BUCKETS
        self._previous: List[int] = [0] * _BUCKETS
        self._window: List[int] = [0] * _BUCKETS  # previous + current
        self.count = 0
        self.total_seconds = 0.0
        self.min_seconds = float("inf")
        self.max_seconds = 0.0

    def record(self, seconds: float) -> None:
        """Add one observed duration (seconds)."""
        value = float(seconds)
        if not value > _LOW_S:  # NaN included
            bucket = 0
        elif value > _TOP_LOW_S:  # inf included
            bucket = _BUCKETS - 1
        else:
            bucket = int(log2(value) * _PER_OCTAVE - _LOG_OFFSET) + 1
        with self._lock:
            self.count += 1
            self.total_seconds += value
            if value < self.min_seconds:
                self.min_seconds = value
            if value > self.max_seconds:
                self.max_seconds = value
            self._current[bucket] += 1
            self._window[bucket] += 1
            if not self.count % _HALF:
                self._window = list(map(sub, self._window, self._previous))
                self._previous = self._current
                self._current = [0] * _BUCKETS

    def _read(self, qs) -> Tuple[int, float, float, float, List[float]]:
        """Count, total, min, max and the nearest-rank percentiles ``qs``
        over the window, all from one copy taken under the lock."""
        with self._lock:
            count = self.count
            total = self.total_seconds
            low = self.min_seconds if count else 0.0
            high = self.max_seconds
            counts = self._window[:]
        if not count:
            return count, total, low, high, [0.0] * len(qs)
        # the current half's count % _HALF samples plus, once the window
        # has rotated, the previous half's _HALF
        size = min(count, _HALF + count % _HALF)
        cumulative = list(accumulate(counts))
        quantiles = []
        for q in qs:
            rank = min(size - 1, max(0, int(q / 100.0 * size)))
            edge = _UPPER_EDGES[bisect_right(cumulative, rank)]
            quantiles.append(min(high, max(low, edge)))
        return count, total, low, high, quantiles

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the recent window (0 if empty)."""
        return self._read((q,))[4][0]

    def summary(self) -> Dict[str, float]:
        """Count, mean, p50/p95/p99 and extrema as a plain dict."""
        count, total, low, high, (p50, p95, p99) = self._read((50, 95, 99))
        return {
            "count": count,
            "mean_s": (total / count) if count else 0.0,
            "p50_s": p50,
            "p95_s": p95,
            "p99_s": p99,
            "min_s": low,
            "max_s": high,
            "total_s": total,
        }
