"""Concurrent serving: snapshot-isolated reads over batched writes.

See :mod:`repro.serve.service` for the design; the short version is
double buffering — readers pin an immutable snapshot, a single writer
thread coalesces queued deltas into ``apply_batch`` on the back buffer
and atomically swaps it in. :mod:`repro.serve.wal` adds the durability
layer (write-ahead log + checkpoints + crash recovery) and
:mod:`repro.serve.retry` the client-side backoff for overloaded
services. :mod:`repro.serve.group` is the array-pair form every group
travels in, from where it is built to the WAL.
"""

from repro.errors import ServiceOverloadedError
from repro.serve.group import UpdateGroup
from repro.serve.retry import ExponentialBackoff, call_with_retries
from repro.serve.service import CubeService, ServiceClosedError
from repro.serve.wal import (
    DurabilityPolicy,
    RecoveredState,
    WriteAheadLog,
    recover_state,
    replay,
)

__all__ = [
    "CubeService",
    "DurabilityPolicy",
    "ExponentialBackoff",
    "RecoveredState",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "UpdateGroup",
    "WriteAheadLog",
    "call_with_retries",
    "recover_state",
    "replay",
]
