"""Shared plumbing for the workloads: clocks, pacing, spans, proxies.

Every latency the benchmark reports comes from the timers in this
package, never from a ``stats()`` quantile: ``LatencyRecorder`` in
``repro.metrics.service`` keeps only its first 8192 samples, so its
quantiles freeze early in a long run. Counters from ``stats()`` and
the ingest report are exact and are used as they are.
"""

from __future__ import annotations

import gc
import resource
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

clock = time.perf_counter


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (0 for an empty sample)."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


#: ten samples beyond the p99 are the least that make it more than the
#: maximum; an untraced run with fewer read samples fails
MIN_P99_SAMPLES = 1000


def windowed_p99(samples: Sequence[float]) -> float:
    """Median, over consecutive windows of at least 1000 samples (at
    most five windows), of each window's p99.

    ``samples`` must be in time order. One burst of host contention then
    moves one window's p99, not the reported value.
    """
    windows = max(1, min(5, len(samples) // MIN_P99_SAMPLES))
    parts = np.array_split(np.asarray(samples, dtype=np.float64), windows)
    return median([percentile(part, 99) for part in parts])


def per_second(times: Sequence[float], start: float, end: float) -> float:
    """Median over the whole seconds of ``[start, end)`` of how many of
    ``times`` fall in each second."""
    seconds = max(1, int(end - start))
    counts = np.bincount(
        np.clip(((np.asarray(times) - start)).astype(int), 0, None),
        minlength=seconds,
    )[:seconds]
    return median(counts)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def resident_mb() -> float:
    """Resident set size of this process now, in MiB, after a garbage
    collection (Linux ``/proc/self/statm``).

    Taken once the inputs are generated, it is the baseline ``rss_mb``
    is measured from: the interpreter, the imported modules and the
    pre-generated inputs are then left out, and ``rss_mb`` is how far
    set-up and the measured window raised the process's peak above it.
    """
    gc.collect()
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * resource.getpagesize() / 2.0 ** 20


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


class Pacer:
    """Open-loop schedule: operation ``i`` is due at ``start + i / rate``.

    :meth:`wait` sleeps until the next due time and returns it, so the
    caller times the operation from when it was due. How late the caller
    actually got going (``lateness``) is kept apart: a stalled generator
    then shows up here instead of hiding in the program's latency.
    """

    def __init__(self, rate_per_s: float, start: float) -> None:
        self.interval = 1.0 / float(rate_per_s)
        self.start = start
        self.count = 0
        self.lateness: List[float] = []

    def wait(self, stop: threading.Event) -> Optional[float]:
        """Sleep until the next operation is due; ``None`` once stopped."""
        due = self.start + self.count * self.interval
        self.count += 1
        while True:
            remaining = due - clock()
            if stop.is_set():
                return None
            if remaining <= 0:
                break
            stop.wait(min(remaining, 0.05))
        self.lateness.append(clock() - due)
        return due


class Tracer:
    """In-memory span store for the traced run.

    A span is ``(name, start, end, thread, meta)``. Spans are taken only
    at proxy boundaries in the benchmark's own code (see :class:`Timed`)
    and are correlated to requests afterwards by time containment: each
    workload keeps one read in flight at a time, so a span that starts
    inside a read's interval belongs to that read. ``totals`` accumulate
    durations for calls too frequent to keep as spans (per-row encode).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.spans: List[Tuple[str, float, float, str, Dict]] = []
        self.totals: Dict[str, float] = {}

    def record(self, name: str, start: float, end: float, **meta) -> None:
        entry = (name, start, end, threading.current_thread().name, meta)
        with self._lock:
            self.spans.append(entry)

    def add_total(self, name: str, seconds: float) -> None:
        with self._lock:
            self.totals[name] = self.totals.get(name, 0.0) + seconds

    def named(self, name: str, thread_prefix: str = "") -> List[Tuple]:
        """Spans called ``name`` taken on threads named ``thread_prefix*``,
        sorted by start."""
        with self._lock:
            chosen = [
                s for s in self.spans
                if s[0] == name and s[3].startswith(thread_prefix)
            ]
        chosen.sort(key=lambda s: s[1])
        return chosen

    def to_json(
        self,
        origin: float,
        requests: Dict[str, Sequence[Tuple[float, float]]],
        describe: Callable[[str, str], Tuple[str, Optional[str]]],
    ) -> List[Dict]:
        """Spans as plain dicts, times in ms since ``origin``.

        ``requests`` maps a request kind (``"read"``, ``"write"``...) to
        its sorted, non-overlapping ``(start, end)`` intervals, and
        ``describe(name, thread)`` gives a span's request kind and the
        name of its parent span. Each span gets the id of the request of
        its kind whose interval contains its start — the order-based
        correlation one request in flight per kind allows — and each
        request is written as a span of its own, ``client.<kind>``.
        """
        with self._lock:
            spans = list(self.spans)
        starts = {
            kind: np.asarray([lo for lo, _ in spans_of])
            for kind, spans_of in requests.items()
        }
        ms = lambda t: (t - origin) * 1e3  # noqa: E731
        out = []
        for kind, intervals in requests.items():
            for i, (lo, hi) in enumerate(intervals):
                out.append({
                    "name": f"client.{kind}", "start_ms": ms(lo),
                    "end_ms": ms(hi), "thread": "load", "parent": None,
                    "request": f"{kind}-{i}",
                })
        for name, start, end, thread, meta in spans:
            kind, parent = describe(name, thread)
            request = None
            if kind in requests and len(starts[kind]):
                i = int(np.searchsorted(starts[kind], start, "right")) - 1
                if i >= 0 and start <= requests[kind][i][1]:
                    request = f"{kind}-{i}"
            out.append({
                "name": name, "start_ms": ms(start), "end_ms": ms(end),
                "thread": thread, "parent": parent, "request": request,
                **meta,
            })
        return out


class Timed:
    """A forwarding proxy that times the named methods as spans.

    ``methods`` maps a method name to its span name. Every other
    attribute (properties included) is forwarded untouched, so the proxy
    can stand wherever the program accepts the wrapped object or holds
    it in a public attribute. ``meta`` is attached to every span (a node
    id, say); ``sizer`` may add the call's size (boxes in a batch). With
    ``total=True`` durations only accumulate into ``tracer.totals``, for
    calls made once per row.
    """

    def __init__(
        self,
        target,
        tracer: Tracer,
        methods: Dict[str, str],
        *,
        meta: Optional[Dict] = None,
        sizer: Optional[Callable] = None,
        total: bool = False,
    ) -> None:
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "_methods", dict(methods))
        object.__setattr__(self, "_meta", dict(meta or {}))
        object.__setattr__(self, "_sizer", sizer)
        object.__setattr__(self, "_total", total)

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        span = self._methods.get(name)
        if span is None:
            return attr
        tracer, meta, sizer = self._tracer, self._meta, self._sizer
        if self._total:
            def timed(*args, **kwargs):
                start = clock()
                try:
                    return attr(*args, **kwargs)
                finally:
                    tracer.add_total(span, clock() - start)
        else:
            def timed(*args, **kwargs):
                start = clock()
                try:
                    return attr(*args, **kwargs)
                finally:
                    extra = sizer(name, args) if sizer is not None else {}
                    tracer.record(span, start, clock(), **meta, **extra)

        # later lookups find the wrapper without coming back here
        object.__setattr__(self, name, timed)
        return timed

    def __setattr__(self, name, value):
        setattr(self._target, name, value)


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float
            ) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def within(spans: Sequence[Tuple], reads: Sequence[Tuple[float, float]]
           ) -> List[List[Tuple]]:
    """Assign each span to the read whose ``[start, end]`` contains the
    span's start; spans outside every read are dropped. ``reads`` must
    be sorted and must not overlap — one read in flight at a time."""
    out: List[List[Tuple]] = [[] for _ in reads]
    starts = np.asarray([r[0] for r in reads])
    for span in spans:
        i = int(np.searchsorted(starts, span[1], side="right")) - 1
        if i >= 0 and span[1] <= reads[i][1]:
            out[i].append(span)
    return out


#: workloads whose traced run must attribute its read wall time
COVERAGE_GATED = ("net_dashboard", "cluster_mixed")
COVERAGE_TOLERANCE = 0.10


def coverage_failure(workload: str, coverage: float) -> Optional[str]:
    """Why ``trace.coverage_ratio`` fails the gate, or ``None``.

    A read's stages are cut at its spans' boundaries and the outer
    stages are residuals (client wall minus the span inside it), so for
    a read whose top-level span is matched they add up to its wall time
    exactly. A read with no matched span adds nothing. The gate
    therefore checks span-to-read matching: a proxy that is missing, or
    spans that fall outside the reads they belong to, pull the ratio
    below 1 - tolerance. It does not check that the stages within a
    matched read are measured independently of each other.
    """
    if workload not in COVERAGE_GATED:
        return None
    if abs(coverage - 1.0) <= COVERAGE_TOLERANCE:
        return None
    return (f"trace coverage {coverage:.3f} is outside "
            f"1 +/- {COVERAGE_TOLERANCE}")


class Outcome:
    """What one workload phase hands back to ``run.py``.

    ``attempted`` / ``failed`` count operations (reads, writes, flushes,
    ingest passes); ``errors`` holds one line per failure for the report;
    ``metrics`` maps metric names to values; ``notes`` are report lines.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.notes: List[str] = []
        self.spans: List[Dict] = []
        self.read_samples = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


def serve_metrics(m, tracer, service_stats, *, reads_thread, writes_thread):
    """The ``serve``/``core``/``wal`` metrics shared by all workloads:
    spans from the named threads, counters from each service's
    ``stats()``."""
    read_spans = tracer.named("serve.query_many", reads_thread)
    durations = [s[2] - s[1] for s in read_spans]
    per_box = [
        (s[2] - s[1]) / s[4]["boxes"] for s in read_spans
        if s[4].get("boxes")
    ]
    m["serve.read_ms"] = median(durations) * 1e3
    m["core.read_us_per_box"] = median(per_box) * 1e6
    submits = [
        s[2] - s[1]
        for s in tracer.named("serve.submit_batch", writes_thread)
        if s[4].get("wal", True)
    ]
    m["serve.submit_p50_ms"] = median(submits) * 1e3
    m["serve.submit_p99_ms"] = percentile(submits, 99) * 1e3
    flushes = [s[2] - s[1] for s in tracer.named("serve.flush", writes_thread)]
    m["serve.flush_ms"] = median(flushes) * 1e3
    total = {
        k: sum(s[k] for s in service_stats)
        for k in ("reader_retries", "read_calls", "groups_applied",
                  "batches_applied")
    }
    durable = [s for s in service_stats if s["wal_enabled"]]
    m["serve.reader_retries_per_read"] = (
        total["reader_retries"] / max(1, total["read_calls"])
    )
    m["serve.groups_per_apply"] = (
        total["groups_applied"] / max(1, total["batches_applied"])
    )
    m["wal.fsyncs_per_group"] = sum(s["wal_fsyncs"] for s in durable) / max(
        1, sum(s["groups_submitted"] for s in durable)
    )
    m["wal.bytes_per_update"] = sum(s["wal_bytes"] for s in durable) / max(
        1, sum(s["updates_submitted"] for s in durable)
    )
