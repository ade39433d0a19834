"""Streaming ingestion: the firehose from raw facts into a live cube.

The paper's premise is *dynamic* cubes — "new information arrives on a
daily basis" — and the serving stack (WAL-backed :class:`CubeService`,
failover-capable :class:`CubeCluster`) is built to absorb updates
durably. This package supplies the missing front half: a single-pass,
chunked, columnar pipeline that streams raw fact records through
``encode -> coalesce -> submit`` into a live target, engineered
robustness-first:

* **Exactly-once delivery.** A durable source-offset checkpoint
  (:mod:`repro.ingest.checkpoint`) is fenced to the target's acked
  group sequence: before every submit the coordinator persists an
  *intent* recording the rows in flight and the sequence number the
  group will commit at; after a crash the resume path compares that
  expectation against the recovered target's
  :attr:`~repro.serve.CubeService.last_submitted_seq` and either skips
  the group (it committed before the crash) or replays it (it never
  did) — never both, never neither.
* **Poison-row quarantine.** Rows failing schema validation or index
  encoding are appended to a CRC-checksummed dead-letter file
  (:mod:`repro.ingest.deadletter`) with per-reason counters — never
  silently dropped, never allowed to poison the writer.
* **End-to-end backpressure.** The coalescing stage adapts its group
  size off :class:`~repro.errors.ServiceOverloadedError` and the
  target's queue depth instead of OOMing or hot-spinning.
* **Time rolling.** :class:`~repro.ingest.rolling.RollingCubeService`
  makes the leading axis of a serving cube a circular time window: it
  retires its oldest slab and opens a new one mid-stream without a
  rebuild, and reads during the roll stay exact or come back explicitly
  :class:`~repro.cluster.degraded.RangeEstimate`-marked.
"""

from repro.ingest.checkpoint import CheckpointStore
from repro.ingest.deadletter import DeadLetterFile, read_dead_letters
from repro.ingest.pipeline import IngestPipeline, IngestReport
from repro.ingest.rolling import RollingCubeService
from repro.ingest.sources import (
    ColumnarSource,
    CSVSource,
    MemorySource,
)
from repro.ingest.targets import (
    ClusterTarget,
    RollingServiceTarget,
    ServiceTarget,
)

__all__ = [
    "CheckpointStore",
    "ClusterTarget",
    "ColumnarSource",
    "CSVSource",
    "DeadLetterFile",
    "IngestPipeline",
    "IngestReport",
    "MemorySource",
    "read_dead_letters",
    "RollingCubeService",
    "RollingServiceTarget",
    "ServiceTarget",
]
