"""Cost instrumentation and the paper's analytic complexity models."""

from repro.metrics.counters import AccessCounter, CounterSnapshot, measured
from repro.metrics.net import NetMetrics
from repro.metrics.profile import characterize, render_profile
from repro.metrics.registry import MetricsRegistry
from repro.metrics.service import LatencyRecorder

__all__ = [
    "AccessCounter",
    "CounterSnapshot",
    "LatencyRecorder",
    "MetricsRegistry",
    "NetMetrics",
    "characterize",
    "measured",
    "render_profile",
]
