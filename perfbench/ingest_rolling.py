"""ingest_rolling: a write-heavy firehose beside a paced reader.

Stack: ``IngestPipeline`` over a ``MemorySource`` of prebuilt records ->
``RollingServiceTarget`` -> ``RollingCubeService`` -> ``CubeService``
running RPS on a (16, 64, 64) float64 cube with a WAL, fsync on.

Load, from one process:

* the pipeline, on the main thread: 240k rows whose ``day`` column
  advances so that the stream covers 64 slots (48 window rolls); every
  5000th row is a poison row. Group size is pinned (8192 rows, chunks of
  4096) so group boundaries and roll points are deterministic. The pass
  repeats, on a fresh stack, until the run's seconds are used;
* reader: a second thread, open loop at 50 pages/s, each page
  ``query_many`` over 256 fresh boxes on the physical window.

Why: writes dominate — encode, coalesce, fenced submit, WAL,
slab-zeroing rolls and writer apply — and the reads are large pages, so
``core`` gather does most of their work. A change that speeds ingest at
the readers' expense shows here.
"""

from __future__ import annotations

import os
import shutil
import threading

import numpy as np

from harness import (
    MIN_P99_SAMPLES,
    Outcome,
    Pacer,
    Tracer,
    Timed,
    clock,
    covered,
    median,
    peak_rss_mb,
    percentile,
    resident_mb,
    serve_metrics,
    windowed_p99,
    within,
)
from oracle import answers_at, box_pages, group_of, replay
from repro.core.rps import RelativePrefixSumCube
from repro.cube.encoders import IntegerEncoder
from repro.cube.schema import CubeSchema, Dimension
from repro.ingest import (
    IngestPipeline,
    MemorySource,
    RollingCubeService,
    RollingServiceTarget,
    read_dead_letters,
)
from repro.serve import CubeService, DurabilityPolicy

WINDOW = 16
SIDE = 64
SHAPE = (WINDOW, SIDE, SIDE)
ROWS = 240_000
DAYS = 64
POISON_EVERY = 5_000
GROUP_ROWS = 8_192
CHUNK_ROWS = 4_096
READ_RATE = 50.0
READ_BOXES = 256
#: stand-alone set-ups before the first pass, so that set-up time is a
#: median of several samples even when only one pass fits
EXTRA_SETUPS = 6
#: a pass takes about this long on a 2-core machine; a run measures
#: round(seconds / PASS_S) whole passes, so that the work done does not
#: depend on how fast the machine happens to be
PASS_S = 9.0
#: the pipeline's bound on a submit's queue wait and on the roll's
#: flush; the default 0.25 s makes a roll on a busy host raise
#: TimeoutError, which the overload backoff does not retry
SUBMIT_TIMEOUT_S = 30.0
BYPASSED = ("net.", "routing.", "cluster.")


def _schema():
    return CubeSchema(
        [
            Dimension("x", IntegerEncoder(0, SIDE - 1)),
            Dimension("y", IntegerEncoder(0, SIDE - 1)),
        ],
        "sales",
    )


class Inputs:
    """Records, planted poison, read pages and the expected final window."""

    def __init__(self, seed: int, seconds: float) -> None:
        rng = np.random.default_rng([seed, 37])
        days = np.arange(ROWS) * DAYS // ROWS
        xs = rng.integers(0, SIDE, ROWS)
        ys = rng.integers(0, SIDE, ROWS)
        sales = rng.integers(1, 100, ROWS).astype(np.float64)
        self.poison = list(range(POISON_EVERY, ROWS, POISON_EVERY))
        clean = np.ones(ROWS, dtype=bool)
        clean[self.poison] = False

        def records():
            # one record at a time: the source keeps its own copy of
            # each, so no second list of 240k records ever exists
            for d, x, y, s, ok in zip(days.tolist(), xs.tolist(),
                                      ys.tolist(), sales.tolist(), clean):
                if ok:
                    yield {"day": d, "x": x, "y": y, "sales": s}
                else:
                    yield {"day": d, "x": 10 * SIDE, "y": 0, "sales": 1.0}

        self.source = MemorySource(records(), chunk_rows=CHUNK_ROWS)
        last = days >= DAYS - WINDOW
        keep = clean & last
        self.final = np.zeros(SHAPE)
        np.add.at(
            self.final, (days[keep] % WINDOW, xs[keep], ys[keep]), sales[keep]
        )
        # pages are taken round-robin; three nominal passes' worth
        pages = int(READ_RATE * PASS_S * 3)
        self.lows, self.highs = box_pages(rng, SHAPE, pages, READ_BOXES)


#: span name -> (request kind, parent span); the rest belong to a pass
_SPANS = {
    "serve.query_many": ("read", "client.read"),
    "ingest.submit": ("pass", "client.pass"),
    "ingest.prepare": ("pass", "client.pass"),
    "ingest.roll": ("pass", "ingest.prepare"),
}


class Recorder:
    """Forwards a ``CubeService``, keeping every group submitted through
    it (roll-zeroing groups included) for the oracle, with the submit
    and flush times as the workload's write-ack and flush samples.

    Each group is kept as compact arrays as soon as it is acked: kept as
    the program's own list of tuples, a pass's groups would hold about
    40 MB more for the whole pass and swamp ``rss_mb``. The conversion
    runs on the pipeline thread, so its intervals are kept in
    ``bookkeeping`` and taken out of the pass wall and of the ingest
    spans they fall in.
    """

    def __init__(self, service) -> None:
        self._service = service
        self.groups = {}
        self.acks = []
        self.flushes = []
        self.bookkeeping = []

    def submit_batch(self, updates, *, timeout=None):
        began = clock()
        seq = self._service.submit_batch(updates, timeout=timeout)
        acked = clock()
        self.acks.append(acked - began)
        self.groups[int(seq)] = group_of(updates)
        self.bookkeeping.append((acked, clock()))
        return seq

    def flush(self, timeout=None):
        began = clock()
        version = self._service.flush(timeout=timeout)
        self.flushes.append(clock() - began)
        return version

    def __getattr__(self, name):
        return getattr(self._service, name)


class TimedSource:
    """Forwards a source, summing the time spent producing its chunks."""

    def __init__(self, source, tracer: Tracer) -> None:
        self._source = source
        self._tracer = tracer

    def chunks(self, start: int = 0):
        chunks = iter(self._source.chunks(start))
        while True:
            began = clock()
            try:
                chunk = next(chunks)
            except StopIteration:
                return
            finally:
                self._tracer.add_total("ingest.source", clock() - began)
            yield chunk

    def __getattr__(self, name):
        return getattr(self._source, name)


class Pass:
    """One fresh stack: service, roller, target, pipeline."""

    def __init__(self, inputs: Inputs, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.service = CubeService(
            RelativePrefixSumCube,
            np.zeros(SHAPE),
            durability=DurabilityPolicy(
                dir=os.path.join(directory, "wal"), fsync=True
            ),
        )
        self.reads_from = self.service
        self.recorder = Recorder(self.service)
        self.roller = RollingCubeService(self.recorder)
        self.target = RollingServiceTarget(self.roller)
        self.deadletters = os.path.join(directory, "dead.log")
        self.pipeline = IngestPipeline(
            inputs.source,
            _schema(),
            self.target,
            checkpoint_path=os.path.join(directory, "checkpoint.json"),
            deadletter_path=self.deadletters,
            time_column="day",
            group_rows=GROUP_ROWS,
            min_group_rows=GROUP_ROWS,
            max_group_rows=GROUP_ROWS,
            submit_timeout=SUBMIT_TIMEOUT_S,
        )

    def trace(self, tracer: Tracer) -> None:
        """Wrap the layer boundaries in timing proxies."""
        timed = Timed(
            self.service, tracer,
            {
                "query_many": "serve.query_many",
                "submit_batch": "serve.submit_batch",
                "flush": "serve.flush",
            },
            sizer=lambda name, args: (
                {"boxes": len(args[0])} if name == "query_many" else {}
            ),
        )
        self.reads_from = timed
        self.recorder._service = timed
        self.target.roller = Timed(
            self.roller, tracer, {"advance": "ingest.roll"}
        )
        pipe = self.pipeline
        pipe.source = TimedSource(pipe.source, tracer)
        pipe.schema = Timed(
            pipe.schema, tracer, {"encode_record": "ingest.encode"},
            total=True,
        )
        pipe.target = Timed(
            pipe.target, tracer,
            {"submit_fenced": "ingest.submit", "prepare": "ingest.prepare"},
        )

    def close(self) -> None:
        self.pipeline.close()
        self.service.close()
        shutil.rmtree(self.directory, ignore_errors=True)


def _reader(stack, inputs, first, pacer, stop, reads, out, lock):
    page = first
    while True:
        due = pacer.wait(stop)
        if due is None:
            return
        sent = clock()
        page %= len(inputs.lows)
        try:
            values, version = stack.reads_from.query_many(
                inputs.lows[page], inputs.highs[page]
            )
        except Exception as error:  # noqa: BLE001 - counted, run goes on
            with lock:
                out.attempted += 1
                out.fail(f"read {page}: {error!r}")
        else:
            reads.append((due, sent, clock(), page, values, version))
            with lock:
                out.attempted += 1
        page += 1


def _verify(inputs, groups, final, dead, reads, report, out) -> None:
    """Reads at their stamps, the final window and the dead letters."""
    if not np.array_equal(final, inputs.final):
        out.fail("final window differs from the records' oracle")
    if not np.array_equal(replay(np.zeros(SHAPE), groups), final):
        out.fail("final window differs from the replayed groups")
    if dead != inputs.poison:
        out.fail(f"dead letters {dead[:5]}... are not the planted poison")
    if report["rows_read"] != ROWS or report["offset"] != ROWS:
        out.fail(f"pass read {report['rows_read']} rows, ended at "
                 f"{report['offset']}, expected {ROWS}")
    if not reads:
        return
    pages = np.asarray([r[3] for r in reads])
    versions = np.repeat([int(r[5]) for r in reads], READ_BOXES)
    expected = answers_at(
        np.zeros(SHAPE), groups, versions,
        inputs.lows[pages].reshape(-1, 3), inputs.highs[pages].reshape(-1, 3),
    )
    got = np.concatenate([np.asarray(r[4], dtype=np.float64) for r in reads])
    wrong = (got != expected).reshape(len(reads), READ_BOXES).any(axis=1)
    for r in np.flatnonzero(wrong)[:5]:
        out.errors.append(f"read of page {reads[r][3]} differs from the "
                          f"oracle at version {reads[r][5]}")
    out.failed += int(wrong.sum())


def _one_pass(inputs, workdir, i, trace, first_page, out, tracer, sink):
    began = clock()
    stack = Pass(inputs, os.path.join(workdir, f"pass-{i}"))
    sink["setups"].append(clock() - began)
    lock = threading.Lock()
    reads = []
    stop = threading.Event()
    reader = None
    try:
        if trace:
            stack.trace(tracer)
        totals_before = dict(tracer.totals)
        start = clock()
        pacer = Pacer(READ_RATE, start)
        reader = threading.Thread(
            target=_reader, name="perfbench-reader",
            args=(stack, inputs, first_page, pacer, stop, reads, out, lock),
        )
        reader.start()
        out.attempted += 1
        try:
            report = stack.pipeline.run()
        except Exception as error:  # noqa: BLE001 - counted, pass is lost
            out.fail(f"pass {i}: {error!r}")
            report = None
        end = clock()
        stop.set()
        reader.join(timeout=60.0)
        sink["peak_mb"].append(peak_rss_mb())
        if reader.is_alive():
            out.fail("reader thread did not stop")
        if report is not None:
            final, _ = stack.service.snapshot_array()
            dead = sorted(
                e["offset"] for e in read_dead_letters(stack.deadletters)
            )
            sink["service"].append(stack.service.stats())
    finally:
        stop.set()
        if reader is not None:
            reader.join(timeout=60.0)
        stack.close()
    # checked with the stack gone, so the oracle's arrays do not add to
    # the resident peak the next pass is measured by
    if report is not None:
        _verify(inputs, stack.recorder.groups, final, dead, reads, report,
                out)
    bookkeeping = stack.recorder.bookkeeping
    sink["bookkeeping"].extend(bookkeeping)
    wall = (end - start) - sum(b - a for a, b in bookkeeping)
    sink["wall"].append(wall)
    sink["reads"].extend(reads)
    sink["lateness"].extend(pacer.lateness)
    sink["acks"].extend(stack.recorder.acks)
    sink["flushes"].extend(stack.recorder.flushes)
    if report is not None:
        sink["reports"].append(report)
        totals = {
            k: tracer.totals.get(k, 0.0) - totals_before.get(k, 0.0)
            for k in ("ingest.source", "ingest.encode")
        }
        sink["totals"].append(totals)
        sink["windows"].append((start, end))
    return first_page + len(reads) + 1


def _layer_metrics(tracer, sink, out) -> None:
    m = out.metrics

    def own(span):
        """A span's duration less the oracle's bookkeeping inside it."""
        return (span[2] - span[1]) - covered(
            sink["bookkeeping"], span[1], span[2]
        )

    submits = [own(s) for s in tracer.named("ingest.submit")]
    prepares = tracer.named("ingest.prepare")
    m["ingest.submit_p50_ms"] = median(submits) * 1e3
    m["ingest.submit_p99_ms"] = percentile(submits, 99) * 1e3
    m["ingest.roll_ms"] = median(
        [own(s) for s in tracer.named("ingest.roll")]
    ) * 1e3
    sources, encodes, selfs = [], [], []
    for (lo, hi), totals in zip(sink["windows"], sink["totals"]):
        inside = lambda spans: sum(  # noqa: E731
            s[2] - s[1] for s in spans if lo <= s[1] <= hi
        )
        submit_s = inside(tracer.named("ingest.submit"))
        prepare_s = inside(prepares)
        sources.append(totals["ingest.source"])
        encodes.append(totals["ingest.encode"])
        # the bookkeeping lies inside the submit and prepare spans, so
        # it cancels out of the pass's self time
        selfs.append(
            (hi - lo) - totals["ingest.source"] - totals["ingest.encode"]
            - submit_s - prepare_s
        )
    m["ingest.source_ms"] = median(sources) * 1e3
    m["ingest.encode_ms"] = median(encodes) * 1e3
    m["ingest.self_ms"] = median(selfs) * 1e3
    reports = sink["reports"]
    m["ingest.cells_per_row"] = sum(r["cells_submitted"] for r in reports) / (
        max(1, sum(r["rows_read"] for r in reports))
    )
    m["ingest.backoffs"] = float(
        sum(r["overload_backoffs"] for r in reports)
    )
    m["loadgen.lateness_p99_ms"] = percentile(sink["lateness"], 99) * 1e3
    serve_metrics(
        m, tracer, sink["service"],
        reads_thread="perfbench-reader", writes_thread="MainThread",
    )
    reads = sink["reads"]
    windows = [(r[1], r[2]) for r in reads]
    gathers = tracer.named("serve.query_many", "perfbench-reader")
    spent = sum(
        covered([(s[1], s[2]) for s in spans], lo, hi)
        for (lo, hi), spans in zip(windows, within(gathers, windows))
    )
    wall = sum(hi - lo for lo, hi in windows)
    m["trace.coverage_ratio"] = spent / wall if wall else 0.0
    out.notes.append(
        "coverage: serve.query_many over the read from send to reply; "
        "the residual is the reader thread's own dispatch"
    )


def run(seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    inputs = Inputs(seed, seconds)
    baseline = resident_mb()
    out = Outcome()
    tracer = Tracer()
    sink = {
        "setups": [], "wall": [], "reads": [], "lateness": [],
        "acks": [], "flushes": [], "reports": [], "bookkeeping": [],
        "totals": [], "windows": [], "service": [], "peak_mb": [],
    }
    for i in range(EXTRA_SETUPS):
        began = clock()
        stack = Pass(inputs, os.path.join(workdir, f"setup-{i}"))
        sink["setups"].append(clock() - began)
        stack.close()
    page = 0
    passes = 0
    # a faster machine gets extra passes until the reads carry a p99
    while passes < max(1, round(seconds / PASS_S)) or (
        not trace and len(sink["reads"]) < MIN_P99_SAMPLES
    ):
        page = _one_pass(
            inputs, workdir, passes, trace, page, out, tracer, sink
        )
        passes += 1
    out.notes.append(
        f"{passes} passes of {ROWS} rows, {len(sink['reads'])} reads, "
        f"{len(sink['acks'])} groups acked, {len(sink['flushes'])} flushes"
    )
    # reads are timed from send: the reader thread shares the process's
    # interpreter lock with the pipeline, so waking on schedule costs it
    # tens of ms of lock waits that say more about thread scheduling on
    # the host than about the cube; that lateness is reported apart
    read_ms = [(r[2] - r[1]) * 1e3 for r in sink["reads"]]
    late_ms = [(r[1] - r[0]) * 1e3 for r in sink["reads"]]
    out.notes.append(
        f"reads from due: p50 "
        f"{median([(r[2] - r[0]) * 1e3 for r in sink['reads']]):.1f} ms; "
        f"reader lateness p50 {median(late_ms):.1f} ms, "
        f"p99 {percentile(late_ms, 99):.1f} ms"
    )
    m = out.metrics
    m["setup_s"] = median(sink["setups"])
    m["read_p50_ms"] = median(read_ms)
    m["read_p99_ms"] = windowed_p99(read_ms)
    out.read_samples = len(read_ms)
    m["reads_per_s"] = len(sink["reads"]) / sum(sink["wall"])
    m["write_ack_p50_ms"] = median(sink["acks"]) * 1e3
    m["flush_mean_ms"] = float(np.mean(sink["flushes"])) * 1e3
    m["rows_per_s"] = (
        sum(r["rows_read"] for r in sink["reports"]) / sum(sink["wall"])
    )
    m["rss_mb"] = max(sink["peak_mb"]) - baseline
    if trace:
        _layer_metrics(tracer, sink, out)
        out.spans = tracer.to_json(
            sink["windows"][0][0],
            {
                "read": [(r[1], r[2]) for r in sink["reads"]],
                "pass": sink["windows"],
            },
            lambda name, thread: _SPANS.get(name, ("pass", None)),
        )
    return out
