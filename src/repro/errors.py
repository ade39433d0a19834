"""Exception hierarchy for the :mod:`repro` package.

All errors raised intentionally by this library derive from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while still letting programming errors (``TypeError``,
``AttributeError`` and friends) propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class DimensionError(ReproError):
    """A coordinate, range, or shape does not match the cube's dimensions."""


class RangeError(ReproError):
    """A query range is malformed (out of bounds, inverted, wrong arity)."""


class BoxSizeError(ReproError):
    """An overlay box size is invalid for the given cube shape."""


class SchemaError(ReproError):
    """A cube schema is inconsistent or a record does not fit the schema."""


class EncodingError(ReproError):
    """A dimension value cannot be encoded to (or decoded from) an index."""


class StorageError(ReproError):
    """A simulated storage operation failed (bad page id, pool exhausted...)."""


class WorkloadError(ReproError):
    """A workload specification is invalid."""


class WALError(StorageError):
    """A write-ahead-log operation failed (bad sequence, failed log...)."""


class WALCorruptionError(WALError):
    """A WAL segment holds corrupt records *before* its tail.

    A torn tail — a partial final record after a crash — is expected and
    silently truncated; corruption in the committed body of the log is
    not, and replay refuses to guess past it.
    """


class RecoveryError(StorageError):
    """Crash recovery cannot restore a usable state from a durability
    directory (no valid checkpoint, conflicting sequences...)."""


class ServiceOverloadedError(ReproError):
    """The service's bounded submission queue stayed full past the
    caller's timeout; back off and retry (see :mod:`repro.serve.retry`)."""


class DeadlineExceededError(ReproError):
    """The caller's time budget (:class:`repro.deadline.Deadline`) ran
    out before the operation completed."""


class NetError(ReproError):
    """Base class for errors raised by the :mod:`repro.net` serving tier."""


class ProtocolError(NetError):
    """A wire frame or request is malformed (bad length prefix, invalid
    JSON, unknown operation, missing parameters...)."""


class PayloadTooLargeError(ProtocolError):
    """A frame exceeds the connection's negotiated size limit."""


class AuthError(NetError):
    """A request carried a missing or unknown tenant token."""


class QuotaExceededError(NetError):
    """The tenant's quota bucket is empty; retry after ``retry_after_s``
    seconds (token-bucket refill, see :mod:`repro.net.auth`)."""

    def __init__(self, message: str, retry_after_s: float = 0.0):
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class RemoteError(NetError):
    """The server failed internally while handling a request; the
    original error class did not survive the wire, only its message."""


class ClusterError(ReproError):
    """Base class for errors raised by the :mod:`repro.cluster` layer."""


class ClusterUnavailableError(ClusterError):
    """A query or write could not reach every shard it needs.

    Failure handling in the cluster is exact, never approximate: rather
    than returning a partial sum (or silently dropping a shard's
    updates), the call fails. ``acked`` carries the per-shard sequence
    numbers of any sub-groups that *were* acknowledged before the
    failure, so a writer can reconcile a partially routed group.
    """

    def __init__(self, message: str, acked=None):
        super().__init__(message)
        self.acked = dict(acked or {})


class ClusterDeadlineExceededError(ClusterUnavailableError, DeadlineExceededError):
    """A cluster write's budget ran out before every shard acked.

    It is both errors at once: a :class:`DeadlineExceededError`, as
    every layer raises for a spent budget, and a
    :class:`ClusterUnavailableError` whose ``acked`` names the shards
    that did commit, so a writer can reconcile the partial group.
    """


class NodeUnavailableError(ClusterError):
    """A single serving node could not be reached (dead, partitioned,
    or circuit-broken); the caller should try another replica."""


class ReshardError(ClusterError):
    """A live reshard migration failed.

    ``phase`` names the migration phase that failed and ``rolled_back``
    whether the cluster was restored to its prior epoch (always true
    for pre-flip failures; a post-flip verify failure rolls back unless
    the reverse dual-write mirror had already been lost).
    """

    def __init__(self, message: str, *, phase: str = "?",
                 rolled_back: bool = False):
        super().__init__(message)
        self.phase = str(phase)
        self.rolled_back = bool(rolled_back)


class IngestError(ReproError):
    """Base class for errors raised by the :mod:`repro.ingest` layer."""


class FenceError(IngestError):
    """An ingest resume could not decide whether an in-flight group
    committed.

    Raised when the durable checkpoint's fence no longer matches the
    target — e.g. the shard-map epoch changed underneath a partially
    acked cross-shard group — so neither skipping nor resubmitting the
    group can be proven safe. Exactly-once beats availability here: the
    pipeline stops instead of guessing.
    """


class DeadLetterCorruptionError(StorageError):
    """A dead-letter file failed its per-entry CRC away from the tail.

    A torn final entry is the expected image of a crash mid-append and
    is repaired silently; a bad checksum anywhere *else* means the file
    was damaged after the fact, and the quarantine record can no longer
    be trusted.
    """
