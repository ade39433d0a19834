"""Request counters for the network serving tier.

:class:`NetMetrics` is the :class:`~repro.metrics.registry.MetricsRegistry`
of one :mod:`repro.net` server: connections, per-op request counts and
latencies, bytes moved, and every error response by wire code. The
rejection classes the wire protocol documents (auth failures, quota
refusals, admission-control overloads, deadline expiries, protocol
errors) are derived from the per-code table at snapshot time.

Rejections are deliberately first-class: for a serving tier the
operational question is rarely "how fast are the 200s" and usually
"who is being told no, and why".
"""

from __future__ import annotations

from typing import Dict

from repro.metrics.registry import MetricsRegistry

#: snapshot key -> the wire error codes it counts
REJECT_CLASSES = {
    "auth_rejects": ("auth_failed",),
    "quota_rejects": ("quota_exceeded",),
    "overload_rejects": ("overloaded",),
    "deadline_rejects": ("deadline_exceeded",),
    "protocol_errors": ("bad_request", "payload_too_large"),
}


class NetMetrics(MetricsRegistry):
    """Counters for one :class:`~repro.net.server.CubeServer`.

    ``request_latency`` holds per-request durations across every op,
    accept-to-last-byte (streaming ops count once, at the final chunk).
    """

    def __init__(self) -> None:
        super().__init__(
            counters=(
                "connections_opened", "connections_closed", "bytes_in",
                "bytes_out", "stream_chunks", "inflight", "inflight_peak",
            ),
            keyed=("requests_by_op", "errors_by_code"),
            latencies=("request_latency",),
        )

    def record_bytes(self, inbound: int = 0, outbound: int = 0) -> None:
        """Frame bytes read from / written to a connection."""
        self.inc(bytes_in=inbound, bytes_out=outbound)

    def record_request(self, op: str, seconds: float) -> None:
        """One completed request (success or failure) for ``op``."""
        self.inc_key("requests_by_op", op)
        self.observe("request_latency", seconds)

    def inflight_enter(self) -> None:
        with self._lock:
            counters = self._counters
            counters["inflight"] += 1
            if counters["inflight"] > counters["inflight_peak"]:
                counters["inflight_peak"] = counters["inflight"]

    def inflight_exit(self) -> None:
        self.inc(inflight=-1)

    def snapshot(self) -> Dict:
        """All tallies plus the totals and rejection classes derived
        from them, one plain dict."""
        report = super().snapshot()
        by_code = report["errors_by_code"]
        requests = sum(report["requests_by_op"].values())
        errors = sum(by_code.values())
        report.update(
            connections_active=(
                report["connections_opened"] - report["connections_closed"]
            ),
            requests=requests,
            errors=errors,
            error_rate=errors / requests if requests else 0.0,
        )
        for key, codes in REJECT_CLASSES.items():
            report[key] = sum(by_code.get(code, 0) for code in codes)
        return report
