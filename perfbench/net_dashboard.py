"""net_dashboard: a read-heavy dashboard over sockets.

Stack: ``CubeServer`` -> ``QueryRouter`` (cache and rollup on) ->
``CubeService`` running RPS on a 256x256 float64 cube with a WAL, fsync
on. An ``Authenticator`` holds one tenant whose quota is far above the
offered load.

Load, from one client event loop with two connections:

* reader: closed loop, each request a 4-box ``range_sum_many``; half the
  pages come from 32 fixed hot pages, half are fresh uniform boxes;
* writer: open loop at 50 groups/s, 4 single-cell deltas per group,
  ``flush`` after every 10th group.

Why: the per-request cost is almost all framing, JSON, admission and the
executor hop, while the RPS work per request is microseconds. Hot pages
exercise the router cache and the write stream keeps invalidating its
stamps, so ``net`` and ``routing`` do most of the work and ``core``
almost none.
"""

from __future__ import annotations

import asyncio
import os
import shutil

import numpy as np

from harness import (
    Outcome,
    Tracer,
    Timed,
    clock,
    covered,
    median,
    peak_rss_mb,
    per_second,
    percentile,
    resident_mb,
    serve_metrics,
    windowed_p99,
    within,
)
from oracle import answers_at, as_pairs, box_pages, random_group
from repro.core.rps import RelativePrefixSumCube
from repro.net import CubeClient, CubeServer
from repro.net.auth import Authenticator, Tenant
from repro.routing.router import QueryRouter, ServiceBackend
from repro.serve import CubeService, DurabilityPolicy

SHAPE = (256, 256)
BOXES = 4
HOT_PAGES = 32
WRITE_RATE = 50.0
WRITE_CELLS = 4
FLUSH_EVERY = 10
SETUPS = 9
WARMUP_S = 0.5
#: read pages pre-generated. The reader takes them round-robin; at the
#: ~550 requests/s one connection reaches a 30 s run does not wrap, so
#: a fresh page is not asked again while the router might still hold it
PAGES = 32768
#: rss_mb is read when the reader completes this many measured reads,
#: which every 30 s run reaches: the router's result cache grows with
#: each fresh page read, so a fixed read count keeps the figure from
#: following how many reads the host lets a run fit in its seconds
RSS_AT_READS = 8000
TOKEN = "perfbench-dashboard"
#: per-layer metric prefixes of layers this workload never calls
BYPASSED = ("cluster.", "ingest.")


class Inputs:
    """Everything the load sends, generated from the seed off the clock."""

    def __init__(self, seed: int, seconds: float) -> None:
        rng = np.random.default_rng([seed, 11])
        self.cube = rng.integers(0, 100, SHAPE).astype(np.float64)
        hot_lows, hot_highs = box_pages(rng, SHAPE, HOT_PAGES, BOXES)
        is_hot = rng.random(PAGES) < 0.5
        pick = rng.integers(0, HOT_PAGES, PAGES)[is_hot]
        self.lows, self.highs = box_pages(rng, SHAPE, PAGES, BOXES)
        self.lows[is_hot] = hot_lows[pick]
        self.highs[is_hot] = hot_highs[pick]
        self.groups = [
            random_group(rng, SHAPE, WRITE_CELLS)
            for _ in range(int(WRITE_RATE * seconds) + 50)
        ]
        self.group_pairs = [as_pairs(g) for g in self.groups]


class ByteTally:
    """Forwards a server's ``NetMetrics``, counting frame bytes per
    connection: the server reports bytes and finished requests from the
    connection's own handler task, so the task identifies the socket."""

    def __init__(self, metrics) -> None:
        self._metrics = metrics
        self.by_task = {}

    def _tally(self):
        key = id(asyncio.current_task())
        return self.by_task.setdefault(key, {"in": 0, "out": 0, "ops": {}})

    def record_bytes(self, inbound: int = 0, outbound: int = 0) -> None:
        tally = self._tally()
        tally["in"] += int(inbound)
        tally["out"] += int(outbound)
        self._metrics.record_bytes(inbound=inbound, outbound=outbound)

    def record_request(self, op: str, seconds: float) -> None:
        ops = self._tally()["ops"]
        ops[op] = ops.get(op, 0) + 1
        self._metrics.record_request(op, seconds)

    def __getattr__(self, name):
        return getattr(self._metrics, name)


class Stack:
    """One server stack plus its two client connections."""

    def __init__(self, inputs: Inputs, directory: str) -> None:
        self.directory = directory
        self.service = CubeService(
            RelativePrefixSumCube,
            inputs.cube,
            durability=DurabilityPolicy(dir=directory, fsync=True),
        )
        self.router = QueryRouter(ServiceBackend(self.service))
        tenant = Tenant("dashboard", TOKEN, rate_per_s=1e6, burst=1e6)
        self.server = CubeServer(
            self.router, authenticator=Authenticator([tenant])
        )
        self.address = self.server.start_background()
        self.reader = self.writer = None

    async def connect(self) -> None:
        host, port = self.address
        self.reader = await CubeClient.connect(host, port, token=TOKEN)
        self.writer = await CubeClient.connect(host, port, token=TOKEN)

    async def close(self) -> None:
        for client in (self.reader, self.writer):
            if client is not None:
                await client.close()
        self.server.stop_background()
        self.router.close()
        self.service.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def trace(self, tracer: Tracer) -> None:
        """Wrap the layer boundaries in timing proxies."""
        self.server.backend = Timed(
            self.server.backend, tracer,
            {"query_many": "net.backend", "submit_batch": "net.submit"},
        )
        backend = self.router.backend
        backend.service = Timed(
            backend.service, tracer,
            {
                "query_many": "serve.query_many",
                "submit_batch": "serve.submit_batch",
                "flush": "serve.flush",
            },
            sizer=_boxes,
        )
        self.router.backend = Timed(
            backend, tracer, {"query_many": "routing.backend"}
        )
        self.bytes = ByteTally(self.server.metrics)
        self.server.metrics = self.bytes


#: span name -> (request kind, parent span)
_SPANS = {
    "net.backend": ("read", "client.read"),
    "routing.backend": ("read", "net.backend"),
    "serve.query_many": ("read", "routing.backend"),
    "net.submit": ("write", "client.write"),
    "serve.submit_batch": ("write", "net.submit"),
    "serve.flush": ("flush", None),
}


def _boxes(name, args):
    return {"boxes": len(args[0])} if name == "query_many" else {}


async def _read(stack, inputs, index, until, reads, out, peaks=None):
    """Closed-loop reads from page ``index`` until ``until``; appends the
    process's peak RSS to ``peaks`` at the ``RSS_AT_READS``-th read."""
    while clock() < until:
        page = index % PAGES
        lows = inputs.lows[page].tolist()
        highs = inputs.highs[page].tolist()
        start = clock()
        out.attempted += 1
        try:
            values, version = await stack.reader.range_sum_many(lows, highs)
        except Exception as error:  # noqa: BLE001 - counted, run goes on
            out.fail(f"read {index}: {error!r}")
        else:
            reads.append((start, clock(), page, values, version))
            if peaks is not None and len(reads) == RSS_AT_READS:
                peaks.append(peak_rss_mb())
        index += 1
    return index


async def _write(stack, inputs, start, until, acks, flushes, lateness, out):
    """Open-loop writer: group ``i`` due at ``start + i / WRITE_RATE``."""
    for i, pairs in enumerate(inputs.group_pairs):
        due = start + i / WRITE_RATE
        if due >= until:
            break
        await asyncio.sleep(max(0.0, due - clock()))
        sent = clock()
        lateness.append(sent - due)
        out.attempted += 1
        try:
            seq = await stack.writer.submit_batch(pairs)
        except Exception as error:  # noqa: BLE001 - counted, run goes on
            out.fail(f"write {i}: {error!r}")
            continue
        acks.append((due, sent, clock(), i, seq))
        if (i + 1) % FLUSH_EVERY == 0:
            began = clock()
            out.attempted += 1
            try:
                await stack.writer.flush(timeout=30.0)
            except Exception as error:  # noqa: BLE001 - counted
                out.fail(f"flush after {i}: {error!r}")
            else:
                flushes.append(clock() - began)


def _verify(inputs, reads, acks, out) -> None:
    """Every read equals the oracle at its own stamp."""
    groups = {}
    for _, _, _, i, seq in acks:
        groups[int(seq)] = inputs.groups[i]
    for slot, (_, _, _, i, seq) in enumerate(acks):
        if int(seq) != slot + 1:
            out.fail(f"group {i} acked at seq {seq}, expected {slot + 1}")
            break
    if not reads:
        return
    # a read answered whole at one version carries an int stamp, one
    # assembled from several carries a stamp per box
    versions = np.concatenate([
        np.broadcast_to(np.asarray(r[4], dtype=np.int64), BOXES)
        for r in reads
    ])
    pages = np.asarray([r[2] for r in reads])
    got = np.concatenate([np.asarray(r[3], dtype=np.float64) for r in reads])
    expected = answers_at(
        inputs.cube, groups, versions,
        inputs.lows[pages].reshape(-1, len(SHAPE)),
        inputs.highs[pages].reshape(-1, len(SHAPE)),
    )
    wrong = (got != expected).reshape(len(reads), BOXES).any(axis=1)
    for r in np.flatnonzero(wrong)[:5]:
        out.errors.append(f"read of page {reads[r][2]} differs from the "
                          f"oracle at stamp {reads[r][4]}")
    out.failed += int(wrong.sum())


def _layer_metrics(stack, tracer, reads, acks, counters, out) -> None:
    m = out.metrics
    windows = [(r[0], r[1]) for r in reads]
    matched = [
        (window, spans[0])
        for window, spans in zip(
            windows, within(tracer.named("net.backend", "cube-server"),
                            windows)
        )
        if len(spans) == 1
    ]
    calls = [(span[1], span[2]) for _, span in matched]
    routed = within(tracer.named("routing.backend", "cube-server"), calls)
    served = within(tracer.named("serve.query_many", "cube-server"), calls)
    inbound, route_self, adapter, serve, outbound = [], [], [], [], []
    for ((start, end), span), inner, svc in zip(matched, routed, served):
        b0, b1 = span[1], span[2]
        routed_t = covered([(s[1], s[2]) for s in inner], b0, b1)
        serve_t = covered([(s[1], s[2]) for s in svc], b0, b1)
        inbound.append(b0 - start)
        route_self.append((b1 - b0) - routed_t)
        adapter.append(routed_t - serve_t)
        serve.append(serve_t)
        outbound.append(end - b1)
    stages = (inbound, route_self, adapter, serve, outbound)
    wall = sum(end - start for start, end in windows)
    m["net.inbound_ms"] = median(inbound) * 1e3
    m["net.outbound_ms"] = median(outbound) * 1e3
    m["routing.self_ms"] = median(route_self) * 1e3
    # reads whose backend call could not be matched count as unattributed
    m["trace.coverage_ratio"] = (
        sum(sum(stage) for stage in stages) / wall if wall else 0.0
    )
    out.notes.append(
        "coverage: net.inbound (client encode, socket, frame read, "
        "admission/auth, executor hop) + routing.self + service adapter "
        "(ServiceBackend deadline check) + serve.read + net.outbound "
        "(executor return, reply encode, socket, decode); mean ms "
        + " + ".join(f"{np.mean(stage) * 1e3 if stage else 0.0:.3f}"
                     for stage in stages)
        + f" of {wall / max(1, len(windows)) * 1e3:.3f}"
    )

    reader_tally = next(
        (t for t in stack.bytes.by_task.values()
         if t["ops"].get("range_sum_many")), None,
    )
    if reader_tally is not None:
        n = reader_tally["ops"]["range_sum_many"]
        m["net.req_bytes"] = reader_tally["in"] / n
        m["net.reply_bytes"] = reader_tally["out"] / n
    submits = tracer.named("serve.submit_batch", "cube-server")
    write_self = []
    for (_, sent, acked, _, _), spans in zip(
        acks, within(submits, [(a[1], a[2]) for a in acks])
    ):
        write_self.append(
            (acked - sent) - covered([(s[1], s[2]) for s in spans],
                                     sent, acked)
        )
    m["net.write_self_ms"] = median(write_self) * 1e3
    net = counters["net"]
    m["net.refused"] = float(
        net["overload_rejects"] + net["quota_rejects"] + net["auth_rejects"]
    )
    before, after = counters["router_before"], counters["router_after"]
    delta = {k: after[k] - before[k] for k in (
        "queries_routed", "cache_hits", "batch_hits", "rollup_hits",
        "cache_stale_rejects", "batch_stale_rejects",
        "rollup_stale_rejects",
    )}
    m["routing.hit_ratio"] = (
        delta["cache_hits"] + delta["batch_hits"] + delta["rollup_hits"]
    ) / max(1, delta["queries_routed"])
    lookups = counters["window_reads"] + (
        delta["queries_routed"] - delta["batch_hits"]
    )
    m["routing.stale_ratio"] = (
        delta["cache_stale_rejects"] + delta["batch_stale_rejects"]
        + delta["rollup_stale_rejects"]
    ) / max(1, lookups)
    serve_metrics(m, tracer, [counters["service"]],
                  reads_thread="cube-server", writes_thread="cube-server")


async def _run(inputs: Inputs, seconds: float, trace: bool, workdir: str
               ) -> Outcome:
    baseline = resident_mb()
    out = Outcome()
    setups = []
    stack = None
    tracer = Tracer()
    try:
        for i in range(SETUPS):
            if stack is not None:
                await stack.close()
            began = clock()
            stack = Stack(inputs, os.path.join(workdir, f"net-{i}"))
            await stack.connect()
            setups.append(clock() - began)
        if trace:
            stack.trace(tracer)
        reads, acks, flushes, lateness, peaks = [], [], [], [], []
        warm = []
        index = await _read(stack, inputs, 0, clock() + WARMUP_S, warm, out)
        router_before = stack.router.metrics.snapshot()
        start = clock()
        until = start + seconds
        reader = asyncio.ensure_future(
            _read(stack, inputs, index, until, reads, out, peaks)
        )
        writer = asyncio.ensure_future(
            _write(stack, inputs, start, until, acks, flushes, lateness, out)
        )
        await asyncio.gather(reader, writer)
        window = max(clock(), until) - start
        rss_mb = (peaks[0] if peaks else peak_rss_mb()) - baseline
        router_after = stack.router.metrics.snapshot()
        await stack.writer.flush(timeout=30.0)
        counters = {
            "net": stack.server.metrics.snapshot(),
            "router_before": router_before,
            "router_after": router_after,
            "service": stack.service.stats(),
            "window_reads": len(reads),
        }
    finally:
        if stack is not None:
            await stack.close()
    out.notes.append(
        f"{len(warm)} warm-up reads, {len(reads)} measured reads, "
        f"{len(acks)} write groups, {len(flushes)} flushes"
    )
    _verify(inputs, warm + reads, acks, out)

    read_ms = [(r[1] - r[0]) * 1e3 for r in reads]
    m = out.metrics
    m["setup_s"] = median(setups)
    m["read_p50_ms"] = median(read_ms)
    m["read_p99_ms"] = windowed_p99(read_ms)
    out.read_samples = len(read_ms)
    m["reads_per_s"] = per_second([r[1] for r in reads], start, until)
    m["write_ack_p50_ms"] = median([(a[2] - a[0]) * 1e3 for a in acks])
    m["flush_mean_ms"] = float(np.mean(flushes)) * 1e3 if flushes else 0.0
    m["rows_per_s"] = len(acks) * WRITE_CELLS / window
    m["rss_mb"] = rss_mb
    if trace:
        m["loadgen.lateness_p99_ms"] = percentile(lateness, 99) * 1e3
        _layer_metrics(stack, tracer, reads, acks, counters, out)
        out.spans = tracer.to_json(
            start,
            {
                "read": [(r[0], r[1]) for r in warm + reads],
                "write": [(a[1], a[2]) for a in acks],
            },
            lambda name, thread: _SPANS.get(name, (None, None)),
        )
    return out


def run(seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    inputs = Inputs(seed, seconds)
    return asyncio.run(_run(inputs, seconds, trace, workdir))
