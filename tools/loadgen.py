"""Concurrent-connection load generator for the ``repro.net`` tier.

Opens ``--connections`` independent :class:`~repro.net.CubeClient`
sockets against a :class:`~repro.net.CubeServer` (an external one via
``--host/--port``, or a self-served in-process one with
``--self-serve``), drives random box-query batches — optionally with a
concurrent write stream (``--write-every``) — and prints per-request
latency percentiles, throughput, and the rejection counts
(overloaded/quota/deadline) the admission machinery produced.

With ``--mode mixed`` a pool of ingest workers runs alongside the
readers: each generates synthetic fact rows, coalesces them into cell
deltas (the same shape of group the streaming pipeline submits), and
drives them through ``submit_batch`` under the same backpressure
etiquette — the firehose and the dashboards sharing one server.

Rejections are handled the way a well-behaved client should: back off
for the server's ``retry_after_s`` hint and retry, counting the event.
Any *other* error fails the run — the load generator doubles as a
smoke test that nothing under concurrency maps to ``internal``. The
report lists every unexpected error by class, and any occurrence makes
the exit status non-zero.

Usage::

    PYTHONPATH=src python tools/loadgen.py --self-serve \
        --connections 16 --duration 5 --write-every 0.02
    PYTHONPATH=src python tools/loadgen.py --self-serve --mode mixed \
        --connections 8 --ingest-workers 4 --duration 5
    PYTHONPATH=src python tools/loadgen.py --host 127.0.0.1 --port 7421 \
        --connections 64 --duration 10 --token dash=s3cret
"""

import argparse
import asyncio
import json
import sys
import time

import numpy as np

from repro import CubeClient, CubeServer, CubeService, Deadline
from repro.core.rps import RelativePrefixSumCube
from repro.workloads import random_group, random_ranges
from repro.errors import (
    DeadlineExceededError,
    QuotaExceededError,
    ServiceOverloadedError,
)


async def _reader(args, shape, stop, latencies, counts, worker_id):
    rng = np.random.default_rng([args.seed, worker_id])
    client = await CubeClient.connect(
        args.host, args.port, token=args.token_value
    )
    try:
        while not stop.is_set():
            lows, highs = zip(*random_ranges(shape, args.batch, seed=rng))
            deadline = (
                Deadline.after(args.deadline_ms / 1000.0)
                if args.deadline_ms else None
            )
            start = time.perf_counter()
            try:
                await client.range_sum_many(lows, highs, deadline=deadline)
            except ServiceOverloadedError as error:
                counts["overloaded"] += 1
                await asyncio.sleep(
                    getattr(error, "retry_after_s", 0.0) or 0.01
                )
                continue
            except QuotaExceededError as error:
                counts["quota"] += 1
                await asyncio.sleep(error.retry_after_s or 0.01)
                continue
            except DeadlineExceededError:
                counts["deadline"] += 1
                continue
            latencies.append(time.perf_counter() - start)
            counts["ok"] += 1
    finally:
        await client.close()


async def _writer(args, shape, stop, counts):
    rng = np.random.default_rng([args.seed, 10_000])
    client = await CubeClient.connect(
        args.host, args.port, token=args.token_value
    )
    try:
        since_flush = 0
        while not stop.is_set():
            group = random_group(rng, shape, 4)
            try:
                await client.submit_batch(group)
                counts["writes"] += 1
                since_flush += 1
                if since_flush >= args.flush_every:
                    await client.flush(timeout=30.0)
                    since_flush = 0
            except (ServiceOverloadedError, QuotaExceededError) as error:
                counts["write_rejects"] += 1
                await asyncio.sleep(
                    getattr(error, "retry_after_s", 0.0) or 0.01
                )
            await asyncio.sleep(args.write_every)
    finally:
        await client.close()


async def _ingester(args, shape, stop, counts, worker_id):
    """One synthetic firehose: generate rows, coalesce, submit.

    Mirrors the streaming pipeline's write shape — many rows folded
    into one multi-cell group per submit — so a mixed run exercises
    the server against ingest-sized groups, not just single-cell
    dribbles.
    """
    rng = np.random.default_rng([args.seed, 20_000 + worker_id])
    client = await CubeClient.connect(
        args.host, args.port, token=args.token_value
    )
    try:
        since_flush = 0
        while not stop.is_set():
            sums = {}
            for _ in range(args.ingest_group):
                cell = tuple(int(rng.integers(0, n)) for n in shape)
                sums[cell] = sums.get(cell, 0.0) + float(
                    rng.integers(1, 10)
                )
            group = sorted(sums.items())
            try:
                await client.submit_batch(group)
                counts["ingest_rows"] += args.ingest_group
                counts["ingest_groups"] += 1
                since_flush += 1
                if since_flush >= args.flush_every:
                    await client.flush(timeout=30.0)
                    since_flush = 0
            except (ServiceOverloadedError, QuotaExceededError) as error:
                counts["ingest_rejects"] += 1
                await asyncio.sleep(
                    getattr(error, "retry_after_s", 0.0) or 0.01
                )
            await asyncio.sleep(0)
    finally:
        await client.close()


async def _run(args, shape):
    stop = asyncio.Event()
    latencies = []
    counts = {
        "ok": 0, "overloaded": 0, "quota": 0, "deadline": 0,
        "writes": 0, "write_rejects": 0,
        "ingest_rows": 0, "ingest_groups": 0, "ingest_rejects": 0,
    }
    tasks = [
        asyncio.ensure_future(
            _reader(args, shape, stop, latencies, counts, i)
        )
        for i in range(args.connections)
    ]
    if args.write_every:
        tasks.append(
            asyncio.ensure_future(_writer(args, shape, stop, counts))
        )
    if args.mode == "mixed":
        tasks.extend(
            asyncio.ensure_future(
                _ingester(args, shape, stop, counts, i)
            )
            for i in range(args.ingest_workers)
        )
    await asyncio.sleep(args.duration)
    stop.set()
    done = await asyncio.gather(*tasks, return_exceptions=True)
    failures = [d for d in done if isinstance(d, BaseException)]
    return latencies, counts, failures


def summarize(latencies, counts, duration, failures=()):
    lat = np.asarray(sorted(latencies))
    report = {"requests": counts["ok"], "rps": counts["ok"] / duration}
    report.update({k: v for k, v in counts.items() if k != "ok"})
    if counts["ingest_rows"]:
        report["ingest_rows_per_s"] = counts["ingest_rows"] / duration
    if failures:
        errors = {}
        for failure in failures:
            name = type(failure).__name__
            errors[name] = errors.get(name, 0) + 1
        report["worker_errors"] = errors
    if len(lat):
        report["latency_ms"] = {
            "p50": float(np.percentile(lat, 50) * 1e3),
            "p95": float(np.percentile(lat, 95) * 1e3),
            "p99": float(np.percentile(lat, 99) * 1e3),
            "max": float(lat[-1] * 1e3),
        }
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7421)
    parser.add_argument(
        "--self-serve", action="store_true",
        help="stand up an in-process server instead of connecting out",
    )
    parser.add_argument(
        "--n", type=int, default=256,
        help="cube side for --self-serve (default 256)",
    )
    parser.add_argument("--connections", type=int, default=16)
    parser.add_argument("--duration", type=float, default=5.0)
    parser.add_argument(
        "--batch", type=int, default=8, help="boxes per query request"
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=0.0,
        help="per-request budget; 0 disables (default)",
    )
    parser.add_argument(
        "--write-every", type=float, default=0.02,
        help="seconds between write groups; 0 disables the writer",
    )
    parser.add_argument(
        "--flush-every", type=int, default=8,
        help="write groups per flush (default 8)",
    )
    parser.add_argument(
        "--mode", choices=("read", "mixed"), default="read",
        help="mixed adds a pool of synthetic-row ingest workers",
    )
    parser.add_argument(
        "--ingest-workers", type=int, default=4,
        help="ingest connections for --mode mixed (default 4)",
    )
    parser.add_argument(
        "--ingest-group", type=int, default=256,
        help="synthetic rows coalesced per submitted group (default 256)",
    )
    parser.add_argument(
        "--token", default=None, metavar="TOKEN",
        help="bearer token for authenticated servers",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=64,
        help="admission cap for --self-serve (default 64)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    args.token_value = args.token

    server = None
    service = None
    if args.self_serve:
        rng = np.random.default_rng(args.seed)
        cube = rng.integers(0, 100, (args.n, args.n)).astype(np.float64)
        service = CubeService(RelativePrefixSumCube, cube)
        server = CubeServer(
            service, port=0, max_inflight=args.max_inflight
        )
        args.host, args.port = server.start_background()
        shape = cube.shape
        print(f"self-serving a {args.n}x{args.n} cube on "
              f"{args.host}:{args.port}")
    else:
        shape = None

    try:
        if shape is None:
            async def probe():
                async with await CubeClient.connect(
                    args.host, args.port, token=args.token_value
                ) as client:
                    return (await client.ping())["shape"]

            shape = tuple(asyncio.run(probe()))
        start = time.monotonic()
        latencies, counts, failures = asyncio.run(_run(args, shape))
        elapsed = time.monotonic() - start
        report = summarize(latencies, counts, elapsed, failures)
        if server is not None:
            report["server"] = server.metrics.snapshot()
        print(json.dumps(report, indent=2, default=str))
        if failures:
            for failure in failures[:3]:
                print(f"worker failed: {failure!r}", file=sys.stderr)
            return 1
        return 0
    finally:
        if server is not None:
            server.stop_background()
        if service is not None:
            service.close()


if __name__ == "__main__":
    sys.exit(main())
