"""N1 — end-to-end serving latency over sockets under concurrency.

The in-process tiers answer a box query in microseconds; the question
this benchmark gates is what the *network* tier adds when it is
actually busy: **64 concurrent client connections** issuing batched
range-sum requests against a :class:`~repro.net.CubeServer` while a
writer streams update groups (with periodic flushes) through the same
server. That is the deployment shape the serving tier exists for — a
dashboard fleet reading through one endpoint that is simultaneously
ingesting.

Every response is verified against the per-version oracle at its own
stamp after the clock stops — a fast server returning stale snapshots
would fail before any latency is compared. The acceptance gate holds
end-to-end p99 under :data:`P99_GATE_MS` and requires every request to
have completed (no drops, no unexpected errors).

Writes ``results/N1.json`` next to T1/S1/S2/U1/R1. Run standalone
(``python benchmarks/bench_n1_net_serving.py``) or via pytest.
"""

import asyncio
import json
import pathlib
import time

import numpy as np

from repro.core.rps import RelativePrefixSumCube
from repro.net import CubeClient, CubeServer
from repro.serve import CubeService
from repro.testing import VersionOracle
from repro.workloads import random_group, random_ranges

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"

SHAPE = (256, 256)
CONNECTIONS = 64
REQUESTS_PER_CONNECTION = 60
BOXES_PER_REQUEST = 4
WRITE_GROUPS = 120
WRITE_INTERVAL_S = 0.01
FLUSH_EVERY = 10

#: end-to-end p99 (connect excluded, verify excluded) must stay under
#: this many milliseconds with all 64 connections and the write stream
#: active — a generous bound on purpose: the gate is about regressions
#: (an event-loop stall, a lost wakeup, accidental serialization), not
#: about squeezing the container's scheduler
P99_GATE_MS = 250.0


def _pages(shape, seed, count, boxes):
    lows, highs = zip(*random_ranges(shape, count * boxes, seed=seed))
    return [
        (lows[i:i + boxes], highs[i:i + boxes])
        for i in range(0, count * boxes, boxes)
    ]


async def _reader(host, port, pages, latencies, answers, worker_id):
    client = await CubeClient.connect(host, port)
    try:
        for request_index, (lows, highs) in enumerate(pages):
            start = time.perf_counter()
            values, stamp = await client.range_sum_many(lows, highs)
            latencies.append(time.perf_counter() - start)
            answers.append((worker_id, request_index, values, stamp))
    finally:
        await client.close()


async def _writer(host, port, groups, done):
    client = await CubeClient.connect(host, port)
    try:
        for i, group in enumerate(groups):
            await client.submit_batch(group)
            if (i + 1) % FLUSH_EVERY == 0:
                await client.flush(timeout=30.0)
            await asyncio.sleep(WRITE_INTERVAL_S)
        await client.flush(timeout=30.0)
    finally:
        done.set()
        await client.close()


async def _drive(host, port, reader_pages, groups):
    latencies, answers = [], []
    done = asyncio.Event()
    tasks = [
        asyncio.ensure_future(
            _reader(host, port, reader_pages[i], latencies, answers, i)
        )
        for i in range(len(reader_pages))
    ]
    tasks.append(asyncio.ensure_future(_writer(host, port, groups, done)))
    await asyncio.gather(*tasks)
    return latencies, answers


def run_n1(
    shape=SHAPE,
    connections=CONNECTIONS,
    requests=REQUESTS_PER_CONNECTION,
    seed=31,
):
    """Drive the concurrent socket workload; returns the N1 report."""
    rng = np.random.default_rng(seed)
    cube = rng.integers(0, 100, shape).astype(np.float64)
    write_rng = np.random.default_rng(seed + 1)
    groups = [random_group(write_rng, shape, 4) for _ in range(WRITE_GROUPS)]
    oracle = VersionOracle(cube)
    for group in groups:
        oracle.record(group)
    reader_pages = [
        _pages(shape, [seed, worker], requests, BOXES_PER_REQUEST)
        for worker in range(connections)
    ]

    service = CubeService(RelativePrefixSumCube, cube)
    server = CubeServer(
        service, port=0, max_inflight=2 * connections, executor_workers=8
    )
    try:
        host, port = server.start_background()
        wall_start = time.perf_counter()
        latencies, answers = asyncio.run(
            _drive(host, port, reader_pages, groups)
        )
        wall = time.perf_counter() - wall_start
        net = server.metrics.snapshot()
    finally:
        server.stop_background()
        service.close()

    # clock stopped: now verify every answer against the oracle at its
    # own stamp — zero tolerance, any stale read fails the benchmark
    mismatches = 0
    versions_seen = set()
    for worker_id, request_index, values, stamp in answers:
        versions_seen.add(int(stamp))
        lows, highs = reader_pages[worker_id][request_index]
        mismatches += len(oracle.check(lows, highs, values, stamp))

    lat = np.asarray(sorted(latencies))
    expected = connections * requests
    return {
        "experiment": "N1",
        "title": "End-to-end net serving p99 under concurrent connections",
        "shape": list(shape),
        "connections": connections,
        "requests_per_connection": requests,
        "boxes_per_request": BOXES_PER_REQUEST,
        "write_groups": WRITE_GROUPS,
        "seed": seed,
        "p99_gate_ms": P99_GATE_MS,
        "rows": [
            {
                "config": "net_64conn_with_writes",
                "requests": len(latencies),
                "requests_expected": expected,
                "wall_seconds": wall,
                "requests_per_s": len(latencies) / wall,
                "latency_ms": {
                    "p50": float(np.percentile(lat, 50) * 1e3),
                    "p95": float(np.percentile(lat, 95) * 1e3),
                    "p99": float(np.percentile(lat, 99) * 1e3),
                    "max": float(lat[-1] * 1e3),
                },
                "mismatches": mismatches,
                "versions_observed": len(versions_seen),
                "server_errors": net["errors"],
                "overload_rejects": net["overload_rejects"],
                "inflight_peak": net["inflight_peak"],
            },
        ],
    }


def write_report(report, path=None):
    path = path or (RESULTS / "N1.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def test_n1_net_serving_p99_within_gate():
    """Acceptance gate: all requests complete, every answer matches the
    per-version oracle at its stamp, the write stream actually churned
    versions mid-read, and end-to-end p99 stays under the gate."""
    report = run_n1()
    write_report(report)
    row = report["rows"][0]
    assert row["requests"] == row["requests_expected"], (
        f"dropped requests: {row['requests']}/{row['requests_expected']}"
    )
    assert row["mismatches"] == 0, (
        f"{row['mismatches']} stale answers under concurrent writes"
    )
    assert row["server_errors"] == 0, (
        f"{row['server_errors']} unexpected wire errors"
    )
    assert row["versions_observed"] > 1, (
        "write stream never advanced the served version — the benchmark "
        "did not actually race reads against writes"
    )
    assert row["latency_ms"]["p99"] <= P99_GATE_MS, (
        f"p99 {row['latency_ms']['p99']:.1f} ms exceeds the "
        f"{P99_GATE_MS:.0f} ms gate at {report['connections']} connections"
    )


def main():
    report = run_n1()
    path = write_report(report)
    print(f"wrote {path}")
    row = report["rows"][0]
    lat = row["latency_ms"]
    print(
        f"  {row['config']}: {row['requests']} requests in "
        f"{row['wall_seconds']:.2f}s ({row['requests_per_s']:.0f} req/s)\n"
        f"  p50 {lat['p50']:.2f} ms  p95 {lat['p95']:.2f} ms  "
        f"p99 {lat['p99']:.2f} ms  max {lat['max']:.2f} ms\n"
        f"  mismatches={row['mismatches']} "
        f"versions={row['versions_observed']} "
        f"overload_rejects={row['overload_rejects']}"
    )


if __name__ == "__main__":
    main()
