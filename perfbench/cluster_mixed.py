"""cluster_mixed: in-process reads beside writes on a replicated cluster.

Stack: ``CubeCluster`` over RPS on a 512x512 float64 cube, 2 shards x 2
replicas, WAL with fsync on every primary. ``start()`` is not called,
so no health probes or scrubs run.

Load, from one process:

* reader: the main thread, closed loop, each request
  ``range_sum_many`` over 64 fresh uniform boxes (most span both
  shards);
* writer: a second thread, open loop at 10 groups/s, 64 single-cell
  deltas per group, ``flush`` after every 4th group.

Why: the cluster layer does most of the work — fan-out, hedging,
read-after-ack waits and replica forwarding — while ``net`` and
``routing`` are bypassed, so a change to either should leave this
workload unchanged.
"""

from __future__ import annotations

import os
import shutil
import threading

import numpy as np

from harness import (
    Outcome,
    Pacer,
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
from oracle import answers_at, as_pairs, box_pages, group_of, random_group
from repro.cluster import CubeCluster
from repro.core.rps import RelativePrefixSumCube

SHAPE = (512, 512)
SHARDS = 2
REPLICAS = 2
BOXES = 64
WRITE_RATE = 10.0
WRITE_CELLS = 64
FLUSH_EVERY = 4
SETUPS = 9
WARMUP_S = 0.5
#: read pages pre-generated; the reader takes them round-robin, so a
#: run of any length or read rate has pages enough
PAGES = 4096
BYPASSED = ("net.", "routing.", "ingest.")


class Inputs:
    """Everything the load sends, generated from the seed off the clock."""

    def __init__(self, seed: int, seconds: float) -> None:
        rng = np.random.default_rng([seed, 23])
        self.cube = rng.integers(0, 100, SHAPE).astype(np.float64)
        self.lows, self.highs = box_pages(rng, SHAPE, PAGES, BOXES)
        self.groups = [
            random_group(rng, SHAPE, WRITE_CELLS)
            for _ in range(int(WRITE_RATE * seconds) + 20)
        ]
        self.group_pairs = [as_pairs(g) for g in self.groups]


def _build(inputs, workdir, i):
    directory = os.path.join(workdir, f"cluster-{i}")
    cluster = CubeCluster(
        RelativePrefixSumCube,
        inputs.cube,
        data_dir=directory,
        num_shards=SHARDS,
        replication_factor=REPLICAS,
        fsync=True,
    )
    return cluster, directory


def _teardown(built):
    cluster, directory = built
    cluster.close()
    shutil.rmtree(directory, ignore_errors=True)


def _trace(cluster, tracer):
    """Wrap every node's service in a timing proxy."""
    for replica_set in cluster.replica_sets:
        for node in replica_set.nodes:
            node.service = Timed(
                node.service, tracer,
                {
                    "query_many": "serve.query_many",
                    "submit_batch": "serve.submit_batch",
                    "flush": "serve.flush",
                },
                meta={"node": node.node_id, "wal": node.is_primary},
                sizer=lambda name, args: (
                    {"boxes": len(args[0])} if name == "query_many" else {}
                ),
            )


def _describe(name, thread):
    """A span's request kind and parent: read arms run on the cluster's
    pool, the write path on the benchmark's writer thread."""
    if thread.startswith("cube-cluster"):
        return "read", "client.read"
    if name == "serve.submit_batch":
        return "write", "client.write"
    return "flush", None


def _writer(cluster, inputs, pacer, until, stop, acks, flushes, out, lock):
    for i, pairs in enumerate(inputs.group_pairs):
        due = pacer.wait(stop)
        if due is None or due >= until:
            return
        sent = clock()
        try:
            seqs = cluster.submit_batch(pairs)
        except Exception as error:  # noqa: BLE001 - counted, run goes on
            with lock:
                out.attempted += 1
                out.fail(f"write {i}: {error!r}")
            continue
        acked = clock()
        with lock:
            out.attempted += 1
        acks.append((due, sent, acked, i, seqs))
        if (i + 1) % FLUSH_EVERY == 0:
            began = clock()
            try:
                cluster.flush(timeout=30.0)
            except Exception as error:  # noqa: BLE001 - counted
                with lock:
                    out.attempted += 1
                    out.fail(f"flush after {i}: {error!r}")
                continue
            flushes.append(clock() - began)
            with lock:
                out.attempted += 1


def _read(cluster, inputs, index, until, reads, out, lock):
    while clock() < until:
        page = index % PAGES
        lows, highs = inputs.lows[page], inputs.highs[page]
        start = clock()
        try:
            values, receipt = cluster.range_sum_many(
                lows, highs, return_shard_versions=True
            )
        except Exception as error:  # noqa: BLE001 - counted, run goes on
            with lock:
                out.attempted += 1
                out.fail(f"read {index}: {error!r}")
        else:
            reads.append((start, clock(), page, values, receipt))
            with lock:
                out.attempted += 1
        index += 1
    return index


def _verify(cluster, inputs, reads, acks, out) -> None:
    """Every read equals the oracle at its per-shard stamp.

    A read's answer for box ``q`` is the sum over shards ``s`` of the
    box's rows inside shard ``s``, at the version of ``s`` the receipt
    names; each shard's oracle replays only that shard's groups.
    """
    shardmap = cluster.shardmap
    per_shard = {s: {} for s in range(shardmap.num_shards)}
    for _, _, _, i, seqs in acks:
        local = shardmap.split_updates(inputs.group_pairs[i])
        for shard, seq in seqs.items():
            per_shard[shard][int(seq)] = group_of(local[shard])
    if not reads:
        return
    index = np.asarray([r[2] for r in reads])
    lows = inputs.lows[index].reshape(-1, len(SHAPE))
    highs = inputs.highs[index].reshape(-1, len(SHAPE))
    got = np.concatenate([np.asarray(r[3], dtype=np.float64) for r in reads])
    expected = np.zeros(len(got))
    for shard, (row0, row1) in enumerate(shardmap.bounds):
        versions = np.repeat(
            [r[4]["versions"].get(shard, -1) for r in reads], BOXES
        )
        local_lows = lows.copy()
        local_highs = highs.copy()
        local_lows[:, 0] = np.maximum(lows[:, 0], row0) - row0
        local_highs[:, 0] = np.minimum(highs[:, 0], row1 - 1) - row0
        touches = local_lows[:, 0] <= local_highs[:, 0]
        # a shard a box does not touch contributes 0 whatever its version
        versions = np.where(touches, versions, 0)
        expected += answers_at(
            inputs.cube[row0:row1], per_shard[shard], versions,
            local_lows, local_highs,
        )
    wrong = (got != expected).reshape(len(reads), BOXES).any(axis=1)
    for r in np.flatnonzero(wrong)[:5]:
        out.errors.append(f"read of page {reads[r][2]} differs from the "
                          f"oracle at stamp {reads[r][4]}")
    out.failed += int(wrong.sum())


def _layer_metrics(cluster, tracer, reads, acks, counters, out) -> None:
    m = out.metrics
    arms = sorted(
        tracer.named("serve.query_many", "cube-cluster")
        + tracer.named("serve.flush", "cube-cluster"),
        key=lambda s: s[1],
    )
    windows = [(r[0], r[1]) for r in reads]
    read_self, shard_time, hit_flush = [], [], 0
    for (start, end), spans in zip(windows, within(arms, windows)):
        if not spans:
            continue
        shard_time.append(covered([(s[1], s[2]) for s in spans], start, end))
        read_self.append((end - start) - shard_time[-1])
        hit_flush += any(s[0] == "serve.flush" for s in spans)
    wall = sum(end - start for start, end in windows)
    m["cluster.read_self_ms"] = median(read_self) * 1e3
    # reads with no shard span matched count as unattributed
    m["trace.coverage_ratio"] = (
        (sum(read_self) + sum(shard_time)) / wall if wall else 0.0
    )
    flushes = [
        s[2] - s[1] for s in tracer.named("serve.flush", "cube-cluster")
        if windows[0][0] <= s[1] <= windows[-1][1]
    ]
    m["cluster.read_after_ack_ms"] = median(flushes) * 1e3
    m["cluster.read_after_ack_ratio"] = hit_flush / max(1, len(reads))
    before, after = counters["cluster_before"], counters["cluster_after"]
    m["cluster.hedge_ratio"] = (
        after["hedged_reads"] - before["hedged_reads"]
    ) / max(1, after["query_shard_reads"] - before["query_shard_reads"])
    primaries = [
        s for s in tracer.named("serve.submit_batch", "perfbench-writer")
        if s[4]["wal"]
    ]
    write_self = []
    for (_, sent, acked, _, _), spans in zip(
        acks, within(primaries, [(a[1], a[2]) for a in acks])
    ):
        write_self.append(
            (acked - sent)
            - covered([(s[1], s[2]) for s in spans], sent, acked)
        )
    m["cluster.write_self_ms"] = median(write_self) * 1e3
    serve_metrics(
        m, tracer, counters["services"],
        reads_thread="cube-cluster", writes_thread="perfbench-writer",
    )
    mean = lambda xs: float(np.mean(xs)) * 1e3 if xs else 0.0  # noqa: E731
    out.notes.append(
        "coverage: cluster.read_self (box split, executor submit and "
        "wake-up, hedge bookkeeping, merge) + shard reads (union of "
        "service query_many and read-after-ack flush spans); mean "
        f"{mean(read_self):.3f} ms self of "
        f"{wall / max(1, len(windows)) * 1e3:.3f} ms"
    )


def run(seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    inputs = Inputs(seed, seconds)
    baseline = resident_mb()
    out = Outcome()
    lock = threading.Lock()
    # set-up is repeated so that its median is steady enough to compare
    # commits by; all but the last cluster are torn down unmeasured
    setups, built = [], None
    for i in range(SETUPS):
        if built is not None:
            _teardown(built)
        began = clock()
        built = _build(inputs, workdir, i)
        setups.append(clock() - began)
    cluster = built[0]
    tracer = Tracer()
    reads, acks, flushes = [], [], []
    stop = threading.Event()
    writer = None
    try:
        if trace:
            _trace(cluster, tracer)
        warm = []
        index = _read(cluster, inputs, 0, clock() + WARMUP_S, warm, out, lock)
        cluster_before = cluster.stats()["metrics"]
        start = clock()
        until = start + seconds
        pacer = Pacer(WRITE_RATE, start)
        writer = threading.Thread(
            target=_writer, name="perfbench-writer",
            args=(cluster, inputs, pacer, until, stop, acks, flushes, out,
                  lock),
        )
        writer.start()
        _read(cluster, inputs, index, until, reads, out, lock)
        writer.join(timeout=seconds + 60.0)
        window = max(clock(), until) - start
        rss_mb = peak_rss_mb() - baseline
        cluster_after = cluster.stats()["metrics"]
        cluster.flush(timeout=30.0)
        counters = {
            "cluster_before": cluster_before,
            "cluster_after": cluster_after,
            "services": [
                node.service.stats()
                for rs in cluster.replica_sets for node in rs.nodes
            ],
        }
    finally:
        stop.set()
        if writer is not None:
            writer.join(timeout=60.0)
        _teardown(built)
    if writer.is_alive():
        out.fail("writer thread did not stop")
    out.notes.append(
        f"{len(warm)} warm-up reads, {len(reads)} measured reads, "
        f"{len(acks)} write groups, {len(flushes)} flushes"
    )
    _verify(cluster, inputs, warm + reads, acks, out)

    read_ms = [(r[1] - r[0]) * 1e3 for r in reads]
    m = out.metrics
    m["setup_s"] = median(setups)
    m["read_p50_ms"] = median(read_ms)
    m["read_p99_ms"] = windowed_p99(read_ms)
    out.read_samples = len(read_ms)
    m["reads_per_s"] = per_second([r[1] for r in reads], start, until)
    ack_ms = [(a[2] - a[0]) * 1e3 for a in acks]
    m["write_ack_p50_ms"] = median(ack_ms)
    m["flush_mean_ms"] = float(np.mean(flushes)) * 1e3 if flushes else 0.0
    m["rows_per_s"] = len(acks) * WRITE_CELLS / window
    m["rss_mb"] = rss_mb
    if trace:
        m["loadgen.lateness_p99_ms"] = percentile(pacer.lateness, 99) * 1e3
        _layer_metrics(cluster, tracer, reads, acks, counters, out)
        out.spans = tracer.to_json(
            start,
            {
                "read": [(r[0], r[1]) for r in warm + reads],
                "write": [(a[1], a[2]) for a in acks],
            },
            _describe,
        )
    return out
