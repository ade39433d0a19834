"""What each reported number means.

``BENCHMARK.json`` at the repository root lists every metric's name,
unit and direction; :func:`load` reads them from there. This module adds
what that file has no room for: for an end-to-end metric how each
workload measures it, and for a per-layer metric the ``src/repro`` layer
it times, the end-to-end metric it should move and the workload it
should move it on. On every other workload the prediction is no change.
Later changes name their claims by these names.

Latencies are always the benchmark's own ``perf_counter`` timers
(:mod:`perfbench.harness`), never ``stats()`` quantiles: the program's
``LatencyRecorder`` keeps only the first 8192 samples, so its quantiles
freeze early in a long run. Counters from ``stats()``, ``cluster.stats()``,
``router.stats()``, ``server.metrics.snapshot()`` and the ``IngestReport``
are exact and are used for ratios.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, NamedTuple

SPEC = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class Reported(NamedTuple):
    unit: str
    definition: str


class PerLayer(NamedTuple):
    layer: str
    moves: str
    on: str
    definition: str


END_TO_END: Dict[str, str] = {
    "setup_s":
        "median of several set-ups in one run: cube build, service / "
        "cluster / server start, connect; input generation excluded",
    "read_p50_ms":
        "median read request latency from send. The closed-loop "
        "readers (net_dashboard, cluster_mixed) send when the previous "
        "read returns; the paced ingest_rolling reader thread shares the "
        "interpreter lock with the pipeline, and how late it sends "
        "(tens of ms of lock waits, set by host scheduling) is reported "
        "apart as generator lateness",
    "write_ack_p50_ms":
        "median time from a write group being due to its durable ack "
        "(net_dashboard, cluster_mixed: the paced writer; "
        "ingest_rolling: each group the pipeline submits to the service, "
        "data and roll-zeroing groups, from submit to ack)",
    "rows_per_s":
        "updates made durable per second: source rows per second from "
        "first chunk to final flush on ingest_rolling (less the time the "
        "benchmark spends recording groups for the oracle), acked cell "
        "deltas per second of the paced writer elsewhere",
    "rss_mb":
        "how far set-up and the measured window raise the process's peak "
        "resident memory above its resident memory once the inputs are "
        "generated: the interpreter, the imported modules and the "
        "pre-generated inputs (on ingest_rolling the 240k records the "
        "MemorySource holds) are left out. It still counts what the "
        "benchmark keeps while the clock runs: the answers of every read "
        "(checked after the clock; a faster reader keeps more of them) "
        "and on ingest_rolling the submitted groups as arrays",
}


#: measured and printed by ``--trace 0`` but not bounded in
#: ``BENCHMARK.json``: on a shared 2-core host their run-to-run spread
#: over ten seeds on net_dashboard (read_p99_ms 0.63, flush_mean_ms
#: 0.36, reads_per_s up to 0.24 of the median) is wider than, or as wide
#: as, the largest bound a metric may have. With one closed-loop reader,
#: reads_per_s is the reciprocal of the mean read latency, so the bounded
#: read_p50_ms carries the same signal.
REPORTED: Dict[str, Reported] = {
    "reads_per_s": Reported(
        "1/s",
        "completed read requests per second: on net_dashboard and "
        "cluster_mixed (closed loop) the median over the window's whole "
        "seconds; on ingest_rolling the paced reader's completed pages per "
        "second of the passes, below its offered 50/s only if reads fall "
        "behind",
    ),
    "read_p99_ms": Reported(
        "ms",
        "p99 of the read latencies behind read_p50_ms, as the median of the "
        "p99s of up to five consecutive windows of at least 1000 samples "
        "each; a run must collect at least 1000",
    ),
    "flush_mean_ms": Reported(
        "ms",
        "mean time for flush to return (write -> readable): the paced "
        "writer's flush on net_dashboard and cluster_mixed, the flushes the "
        "pipeline makes (window rolls, final) on ingest_rolling. A mean, not "
        "a median: a flush that finds its groups applied returns in "
        "microseconds, so the median flips between modes",
    ),
}


PER_LAYER: Dict[str, PerLayer] = {
    "net.inbound_ms": PerLayer(
        "net", "read_p50_ms, reads_per_s", "net_dashboard",
        "p50, client send -> backend entered: lumps client encode, socket, "
        "frame read, admission/auth and the executor hop",
    ),
    "net.outbound_ms": PerLayer(
        "net", "read_p50_ms, reads_per_s", "net_dashboard",
        "p50, backend returned -> client holds the decoded reply: lumps "
        "executor return, reply encode, socket and decode",
    ),
    "net.req_bytes": PerLayer(
        "net", "read_p50_ms", "net_dashboard",
        "bytes per read request frame, counted exactly on the reader's "
        "server connection",
    ),
    "net.reply_bytes": PerLayer(
        "net", "read_p50_ms", "net_dashboard",
        "bytes per read reply frame, counted likewise",
    ),
    "net.write_self_ms": PerLayer(
        "net", "write_ack_p50_ms", "net_dashboard",
        "p50, write round trip minus the service submit_batch inside it",
    ),
    "net.refused": PerLayer(
        "net", "error rate", "net_dashboard",
        "overload + quota + auth rejects",
    ),
    "routing.self_ms": PerLayer(
        "routing", "read_p50_ms", "net_dashboard",
        "p50, route time minus the backend query time inside it",
    ),
    "routing.hit_ratio": PerLayer(
        "routing", "read_p50_ms", "net_dashboard",
        "(batch + cache + rollup hits) / queries routed, over the window",
    ),
    "routing.stale_ratio": PerLayer(
        "routing", "read_p50_ms", "net_dashboard",
        "stale rejects / tier lookups (one batch lookup per request plus one "
        "box lookup per box of a batch miss)",
    ),
    "cluster.read_self_ms": PerLayer(
        "cluster", "read_p50_ms, reads_per_s", "cluster_mixed",
        "p50, range_sum_many minus the time its shard reads cover (service "
        "query_many and read-after-ack flush; shards are read one after "
        "another, so this is the union of their spans): lumps box splitting, "
        "executor submit and wake-up, hedge bookkeeping and the merge",
    ),
    "cluster.read_after_ack_ms": PerLayer(
        "cluster", "read_p50_ms, read_p99_ms", "cluster_mixed",
        "p50 time a read arm spends in node.service.flush because the node "
        "trails the shard's last acked group",
    ),
    "cluster.read_after_ack_ratio": PerLayer(
        "cluster", "read_p99_ms", "cluster_mixed",
        "reads that hit at least one read-after-ack flush / reads",
    ),
    "cluster.hedge_ratio": PerLayer(
        "cluster", "read_p99_ms", "cluster_mixed",
        "hedged_reads / query_shard_reads, over the window",
    ),
    "cluster.write_self_ms": PerLayer(
        "cluster", "write_ack_p50_ms", "cluster_mixed",
        "p50, cluster submit_batch minus the primaries' service submit_batch "
        "inside it (replica forwarding, split, aggregates)",
    ),
    "serve.read_ms": PerLayer(
        "serve", "read_p50_ms", "ingest_rolling (most), cluster_mixed",
        "p50 service.query_many (snapshot acquire + RPS gather)",
    ),
    "core.read_us_per_box": PerLayer(
        "core", "read_p50_ms", "ingest_rolling",
        "p50 of service.query_many time / boxes in the call",
    ),
    "serve.reader_retries_per_read": PerLayer(
        "serve", "read_p99_ms", "ingest_rolling, cluster_mixed",
        "reader_retries / read calls, summed over services",
    ),
    "serve.submit_p50_ms": PerLayer(
        "serve", "write_ack_p50_ms, rows_per_s", "all three",
        "p50 service.submit_batch on WAL-backed services (WAL append + fsync)",
    ),
    "serve.submit_p99_ms": PerLayer(
        "serve", "write_ack_p50_ms, rows_per_s", "all three",
        "p99 of the same spans",
    ),
    "serve.flush_ms": PerLayer(
        "serve", "flush_mean_ms", "net_dashboard, cluster_mixed",
        "p50 service.flush called on the write path (not read arms)",
    ),
    "serve.groups_per_apply": PerLayer(
        "serve", "flush_mean_ms, rows_per_s", "cluster_mixed, ingest_rolling",
        "groups applied / batches_applied (writer coalescing)",
    ),
    "wal.fsyncs_per_group": PerLayer(
        "serve", "write_ack_p50_ms, rows_per_s", "all three",
        "wal_fsyncs / groups submitted (group commit)",
    ),
    "wal.bytes_per_update": PerLayer(
        "serve", "rows_per_s", "ingest_rolling",
        "wal_bytes / updates submitted",
    ),
    "ingest.source_ms": PerLayer(
        "ingest", "rows_per_s", "ingest_rolling",
        "per pass, total time inside source.chunks",
    ),
    "ingest.encode_ms": PerLayer(
        "ingest", "rows_per_s", "ingest_rolling",
        "per pass, total time inside schema.encode_record",
    ),
    "ingest.submit_p50_ms": PerLayer(
        "ingest", "rows_per_s", "ingest_rolling",
        "p50 target.submit_fenced per group, less the time the benchmark "
        "spends inside it recording the group for the oracle",
    ),
    "ingest.submit_p99_ms": PerLayer(
        "ingest", "rows_per_s", "ingest_rolling",
        "p99 of the same",
    ),
    "ingest.roll_ms": PerLayer(
        "ingest", "rows_per_s, read_p99_ms", "ingest_rolling",
        "p50 RollingCubeService.advance (flush, snapshot copy, zeroing "
        "group), reached through target.prepare, less the recording of "
        "the zeroing group for the oracle",
    ),
    "ingest.self_ms": PerLayer(
        "ingest", "rows_per_s", "ingest_rolling",
        "per pass, run wall minus source, encode, submit and prepare: lumps "
        "coalesce, checkpoint fsyncs and dead letters",
    ),
    "ingest.cells_per_row": PerLayer(
        "ingest", "rows_per_s", "ingest_rolling",
        "cells_submitted / rows_read (coalescing)",
    ),
    "ingest.backoffs": PerLayer(
        "ingest", "rows_per_s", "ingest_rolling",
        "overload_backoffs",
    ),
    "loadgen.lateness_p99_ms": PerLayer(
        "benchmark", "validity of every paced metric", "all three",
        "p99 of how late paced sends started behind their schedule",
    ),
    "trace.overhead_ratio": PerLayer(
        "benchmark", "validity of the per-layer numbers", "all three",
        "traced / untraced read_p50_ms, both measured in the traced run",
    ),
    "trace.coverage_ratio": PerLayer(
        "benchmark", "validity of the per-layer numbers",
        "net_dashboard, cluster_mixed",
        "stage self times plus named residuals / traced read wall time, "
        "reads with no matched span adding nothing; the run fails outside "
        "0.9..1.1 on these two workloads. The stages of a matched read are "
        "cut at its spans' boundaries and the outer ones are residuals, so "
        "they add up to its wall time by construction: the gate checks "
        "that every read is matched to its spans (a missing proxy or a "
        "span outside its read pulls the ratio down), not that the stages "
        "are timed independently of each other",
    ),
}


def load() -> Dict:
    """``BENCHMARK.json``: every metric's name, unit and direction."""
    return json.loads(SPEC.read_text())


def units(spec: Dict) -> Dict[str, str]:
    """Metric name -> unit, for every metric a run may print."""
    listed = {m["name"]: m["unit"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    return {**{k: m.unit for k, m in REPORTED.items()}, **listed}


def describe(spec: Dict) -> str:
    """A plain-text table of every metric, for ``run.py --describe``."""
    lines = ["end-to-end metrics (untraced run, --trace 0):"]
    for m in spec["end_to_end"]:
        lines.append(f"  {m['name']} [{m['unit']}, {m['better']} is "
                     f"better, bound {m['bound']}]")
        lines.append(f"      {END_TO_END.get(m['name'], '')}")
    lines.append("")
    lines.append("also printed by --trace 0, not bounded:")
    for name, m in REPORTED.items():
        lines.append(f"  {name} [{m.unit}]")
        lines.append(f"      {m.definition}")
    lines.append("")
    lines.append("per-layer metrics (traced run, --trace 1):")
    for m in spec["per_layer"]:
        info = PER_LAYER.get(m["name"], PerLayer("?", "?", "?", ""))
        lines.append(
            f"  {m['name']} [{m['unit']}, {m['better']} is better] "
            f"layer={info.layer} moves={info.moves} on={info.on}"
        )
        lines.append(f"      {info.definition}")
    return "\n".join(lines)
