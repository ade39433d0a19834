"""Pin the key sets of every operational ``stats()``/``snapshot()`` dict.

Dashboards, benchmarks and the chaos soak read these dicts by key, so a
key that disappears or changes shape is a breaking change. Each owner is
driven through a little traffic first, so the per-node/per-shard dicts
hold entries and their key types are pinned too.
"""

import asyncio

import numpy as np

from repro import (
    CubeCluster,
    CubeServer,
    CubeService,
    QueryRouter,
    RelativePrefixSumCube,
)
from repro.cube.encoders import IntegerEncoder
from repro.cube.schema import CubeSchema, Dimension
from repro.ingest import IngestPipeline, MemorySource, ServiceTarget
from repro.net import CubeClient
from repro.routing import ServiceBackend

SUMMARY = {
    "count", "mean_s", "p50_s", "p95_s", "p99_s", "min_s", "max_s", "total_s",
}


def split(report):
    """``(scalars, keyed dicts, latency summaries)`` key sets."""
    scalars, keyed, latencies = set(), set(), set()
    for key, value in report.items():
        if isinstance(value, dict) and "p50_s" in value:
            assert set(value) == SUMMARY, key
            latencies.add(key)
        elif isinstance(value, dict):
            keyed.add(key)
        else:
            scalars.add(key)
    return scalars, keyed, latencies


def test_service_stats_keys():
    with CubeService(RelativePrefixSumCube, np.zeros((4, 4))) as svc:
        svc.submit_batch([((0, 0), 1.0), ((1, 1), 2.0)])
        svc.flush()
        svc.range_sum((0, 0), (3, 3))
        stats = svc.stats()
    scalars, keyed, latencies = split(stats)
    assert scalars == {
        "read_calls", "queries_served", "updates_submitted",
        "updates_applied", "updates_coalesced", "batches_applied", "swaps",
        "reader_retries", "writer_errors", "groups_quarantined", "rebuilds",
        "wal_appends", "wal_bytes", "wal_fsyncs", "wal_failures",
        "checkpoints_written", "recovery_replays", "version",
        "groups_submitted", "groups_applied", "groups_pending",
        "queue_depth", "wal_bytes_written", "quarantined_groups",
        "wal_enabled", "wal_failed", "last_checkpoint_seq",
    }
    assert keyed == set()
    assert latencies == {"read_latency", "apply_latency", "swap_wait"}
    assert stats["swaps"] == stats["batches_applied"] >= 1


def test_cluster_metrics_keys(tmp_path):
    with CubeCluster(
        RelativePrefixSumCube, np.zeros((4, 4)), data_dir=tmp_path,
        num_shards=2, replication_factor=2,
    ) as cluster:
        cluster.submit_batch([((0, 0), 1.0), ((3, 3), 2.0)])
        cluster.flush()
        cluster.range_sum((0, 0), (3, 3))
        metrics = cluster.stats()["metrics"]
    scalars, keyed, latencies = split(metrics)
    assert scalars == {
        "queries_routed", "query_shard_reads", "updates_routed", "probes",
        "hedged_reads", "hedge_wins", "deadline_exceeded",
        "unavailable_errors", "scrub_rounds", "scrub_digest_checks",
        "scrub_divergences", "scrub_repairs", "reshards_started",
        "reshard_flips", "reshard_rollbacks", "dual_writes",
        "degraded_reads", "estimate_refused",
    }
    assert keyed == {
        "shard_queries", "shard_updates", "probe_failures", "breaker_trips",
        "breaker_resets", "node_failures", "failovers", "replica_lags",
        "replica_resyncs", "reshard_phases", "warming_failures",
        "degraded_shard_reads",
    }
    assert latencies == {"read_latency"}
    assert set(metrics["shard_updates"]) == {0, 1}
    assert set(metrics["shard_queries"]) == {0, 1}


def test_router_metrics_keys():
    with CubeService(RelativePrefixSumCube, np.zeros((4, 4))) as svc:
        router = QueryRouter(ServiceBackend(svc))
        try:
            router.range_sum_many(np.array([[0, 0]]), np.array([[3, 3]]))
            snapshot = router.metrics.snapshot()
        finally:
            router.close()
    scalars, keyed, latencies = split(snapshot)
    assert scalars == {
        "queries_routed", "cache_hits", "batch_hits", "rollup_hits",
        "backend_queries", "cache_stale_rejects", "batch_stale_rejects",
        "rollup_stale_rejects", "deadline_exceeded", "cache_hit_rate",
        "backend_rate",
    }
    assert keyed == set()
    assert latencies == {"route_latency", "backend_latency"}


def test_net_metrics_keys():
    async def traffic(address):
        client = await CubeClient.connect(*address)
        try:
            await client.range_sum((0, 0), (3, 3))
        finally:
            await client.close()

    with CubeService(RelativePrefixSumCube, np.zeros((4, 4))) as svc:
        with CubeServer(svc, port=0) as server:
            asyncio.run(traffic(server.address))
        # the server records a request after sending its reply; stopping
        # it drains the handler, so the snapshot cannot race that record
        snapshot = server.metrics.snapshot()
    scalars, keyed, latencies = split(snapshot)
    assert scalars == {
        "connections_opened", "connections_closed", "connections_active",
        "requests", "errors", "error_rate", "bytes_in", "bytes_out",
        "stream_chunks", "auth_rejects", "quota_rejects",
        "overload_rejects", "deadline_rejects", "protocol_errors",
        "inflight", "inflight_peak",
    }
    assert keyed == {"requests_by_op", "errors_by_code"}
    assert latencies == {"request_latency"}
    assert "range_sum" in snapshot["requests_by_op"]


def test_ingest_metrics_keys(tmp_path):
    schema = CubeSchema(
        [
            Dimension("x", IntegerEncoder(0, 3)),
            Dimension("y", IntegerEncoder(0, 3)),
        ],
        "sales",
    )
    records = [{"x": i % 4, "y": i // 4 % 4, "sales": 1.0} for i in range(40)]
    records.append({"x": 42, "y": 0, "sales": 1.0})  # poison
    with CubeService(RelativePrefixSumCube, np.zeros((4, 4))) as svc:
        with IngestPipeline(
            MemorySource(records, chunk_rows=16), schema, ServiceTarget(svc),
            checkpoint_path=tmp_path / "ck.json",
            deadletter_path=tmp_path / "dead.log",
        ) as pipe:
            pipe.run()
            snapshot = pipe.metrics.snapshot()
    scalars, keyed, latencies = split(snapshot)
    assert scalars == {
        "rows_read", "rows_applied", "rows_quarantined", "chunks_read",
        "groups_submitted", "cells_submitted", "fence_skips",
        "partial_resubmits", "resumes", "overload_backoffs", "rolls",
    }
    assert keyed == {"quarantine_reasons"}
    assert latencies == set()
    assert snapshot["rows_quarantined"] == 1
    assert sum(snapshot["quarantine_reasons"].values()) == 1
