"""Write-ahead log and checkpoints for durable cube serving.

The paper's premise is *dynamic* cubes — updates are first-class — so a
serving process must not lose acknowledged update groups when it dies.
This module provides the two halves of the classic durability contract
:class:`~repro.serve.CubeService` builds on:

* a **segmented, checksummed, binary WAL**: every submitted update group
  is appended (and optionally fsynced) *before* the submit call returns,
  so an acknowledged group is on disk by definition;
* **checkpoints**: periodic snapshots of the cube written through
  :func:`repro.persistence.save_method` (atomic rename + embedded
  SHA-256), which bound replay time and let the WAL be pruned.

Commit point and crash anatomy
------------------------------

A group is *committed* the moment its WAL record is fully on disk, and
*durable* once that record is fsynced — the service acknowledges only
after both (appends are buffered under the admission lock, then
group-committed to disk via :meth:`WriteAheadLog.sync_upto`, so
concurrent submitters share one fsync). A crash can therefore leave two
kinds of artifact: a **torn tail** — a partial final record from an
append that never finished — and a **headerless final segment** — a
rotation that died before the 8-byte header hit the disk. Both are
expected, not errors: replay detects a torn tail (short record or
checksum mismatch at end-of-log), truncates it, and recovers the
committed prefix; reopening the log discards a headerless final segment
(it holds no records by construction) and rotates into a fresh one. A
checksum mismatch *before* the tail means real corruption and raises
:class:`~repro.errors.WALCorruptionError` — replay never guesses past
damaged committed data.

On-disk format
--------------

Segments are named ``wal-<seq>.seg`` where ``<seq>`` is the first
sequence number the segment was opened for. Each begins with an 8-byte
header: magic ``RPWAL1\\x00`` plus one checksum-algorithm byte (0 =
zlib CRC-32, the default — C speed; 1 = CRC-32C/Castagnoli via the
pure-Python fallback table in :func:`crc32c`). Records follow
back-to-back::

    <u32 payload_len> <u32 checksum(payload)> <payload>
    payload = <u64 seq> <u32 m> <u16 d> <u8 dtype> <u8 0>
              <m*d int64 indices> <m int64|float64 deltas>

Checkpoints are ``ckpt-<seq>.npz`` files; ``<seq>`` is the number of
update groups folded in. The newest *valid* checkpoint wins at recovery;
a corrupt one (digest mismatch, truncation) falls back to the previous,
which is why :func:`prune_wal` only drops segments below the *oldest*
retained checkpoint — the fallback path must still find every record it
needs to replay.
"""

from __future__ import annotations

import os
import re
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    RecoveryError,
    StorageError,
    WALCorruptionError,
    WALError,
)

SEGMENT_MAGIC = b"RPWAL1\x00"
#: checksum-algorithm byte values recorded in the segment header
ALGO_CRC32 = 0
ALGO_CRC32C = 1

_RECORD_HEADER = struct.Struct("<II")  # payload length, payload checksum
_PAYLOAD_HEADER = struct.Struct("<QIHBB")  # seq, m, d, dtype code, reserved
_DTYPE_CODES = {0: np.dtype(np.int64), 1: np.dtype(np.float64)}

_SEGMENT_RE = re.compile(r"^wal-(\d{20})\.seg$")
_CKPT_RE = re.compile(r"^ckpt-(\d{20})\.npz$")


def _make_crc32c_table() -> Tuple[int, ...]:
    polynomial = 0x82F63B78  # Castagnoli, reflected
    table = []
    for index in range(256):
        crc = index
        for _ in range(8):
            crc = (crc >> 1) ^ polynomial if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)


_CRC32C_TABLE = _make_crc32c_table()


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC-32C (Castagnoli) of ``data`` — pure-Python, table-driven.

    Kept as the portable reference implementation; the WAL defaults to
    zlib's C-speed CRC-32 and records which algorithm each segment uses
    in its header, so either can read the other's files.
    """
    crc = ~crc & 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _CRC32C_TABLE[(crc ^ byte) & 0xFF]
    return ~crc & 0xFFFFFFFF


def _checksum(algo: int, payload: bytes) -> int:
    if algo == ALGO_CRC32:
        return zlib.crc32(payload) & 0xFFFFFFFF
    if algo == ALGO_CRC32C:
        return crc32c(payload)
    raise WALError(f"unknown WAL checksum algorithm byte {algo}")


# ---------------------------------------------------------------------------
# Record encoding
# ---------------------------------------------------------------------------


def encode_record(
    seq: int, indices: np.ndarray, deltas: np.ndarray, algo: int = ALGO_CRC32
) -> bytes:
    """One framed WAL record for update group ``seq``."""
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    if indices.ndim != 2:
        raise WALError(
            f"indices must be (m, d), got shape {indices.shape}"
        )
    m, d = indices.shape
    deltas = np.asarray(deltas)
    if deltas.shape != (m,):
        raise WALError(
            f"deltas must align with indices: {deltas.shape} vs m={m}"
        )
    if np.issubdtype(deltas.dtype, np.floating):
        code, deltas = 1, np.ascontiguousarray(deltas, dtype=np.float64)
    else:
        code, deltas = 0, np.ascontiguousarray(deltas, dtype=np.int64)
    payload = (
        _PAYLOAD_HEADER.pack(int(seq), m, d, code, 0)
        + indices.tobytes()
        + deltas.tobytes()
    )
    return _RECORD_HEADER.pack(len(payload), _checksum(algo, payload)) + payload


def _decode_payload(payload: bytes) -> Tuple[int, np.ndarray, np.ndarray]:
    seq, m, d, code, _ = _PAYLOAD_HEADER.unpack_from(payload)
    if code not in _DTYPE_CODES:
        raise WALCorruptionError(f"unknown delta dtype code {code}")
    expected = _PAYLOAD_HEADER.size + m * d * 8 + m * 8
    if len(payload) != expected:
        raise WALCorruptionError(
            f"payload length {len(payload)} != declared {expected}"
        )
    offset = _PAYLOAD_HEADER.size
    indices = np.frombuffer(
        payload, dtype=np.int64, count=m * d, offset=offset
    ).reshape(m, d).astype(np.intp)
    deltas = np.frombuffer(
        payload, dtype=_DTYPE_CODES[code], count=m, offset=offset + m * d * 8
    ).copy()
    return seq, indices, deltas


@dataclass(frozen=True)
class WalRecord:
    """One committed update group read back from the log."""

    seq: int
    indices: np.ndarray
    deltas: np.ndarray


@dataclass(frozen=True)
class TornTail:
    """A partial final record left by a crash mid-append."""

    path: str
    offset: int  # file offset where the committed prefix ends
    size: int  # bytes of torn garbage after it


# ---------------------------------------------------------------------------
# Segment scanning and replay
# ---------------------------------------------------------------------------


def _list_segments(directory) -> List[Tuple[int, Path]]:
    directory = Path(directory)
    found = []
    if directory.is_dir():
        for entry in directory.iterdir():
            match = _SEGMENT_RE.match(entry.name)
            if match:
                found.append((int(match.group(1)), entry))
    return sorted(found)


def _scan_segment(
    path,
) -> Tuple[List[WalRecord], int, int, int]:
    """Parse one segment: ``(records, good_bytes, torn_bytes, algo)``.

    ``good_bytes`` is the offset where the committed prefix ends;
    ``torn_bytes`` counts trailing bytes that do not form a complete,
    checksum-valid record. A bad record *followed by more data* is
    corruption of the committed body and raises
    :class:`~repro.errors.WALCorruptionError`.
    """
    blob = Path(path).read_bytes()
    if len(blob) < len(SEGMENT_MAGIC) + 1:
        # a segment header that never finished writing is itself a torn tail
        return [], 0, len(blob), ALGO_CRC32
    if blob[: len(SEGMENT_MAGIC)] != SEGMENT_MAGIC:
        raise WALCorruptionError(
            f"{os.fspath(path)!r} is not a WAL segment (bad magic)"
        )
    algo = blob[len(SEGMENT_MAGIC)]
    if algo not in (ALGO_CRC32, ALGO_CRC32C):
        raise WALCorruptionError(
            f"{os.fspath(path)!r} declares unknown checksum algorithm {algo}"
        )
    records: List[WalRecord] = []
    offset = len(SEGMENT_MAGIC) + 1
    size = len(blob)
    while offset < size:
        if size - offset < _RECORD_HEADER.size:
            return records, offset, size - offset, algo
        length, crc = _RECORD_HEADER.unpack_from(blob, offset)
        end = offset + _RECORD_HEADER.size + length
        if end > size:
            return records, offset, size - offset, algo
        payload = blob[offset + _RECORD_HEADER.size : end]
        if _checksum(algo, payload) != crc:
            if end == size:
                # checksum failure on the very last record: torn tail
                return records, offset, size - offset, algo
            raise WALCorruptionError(
                f"{os.fspath(path)!r}: checksum mismatch at offset "
                f"{offset} with committed records after it — the log "
                f"body is corrupt"
            )
        try:
            seq, indices, deltas = _decode_payload(payload)
        except WALCorruptionError as err:
            if end == size:
                return records, offset, size - offset, algo
            raise WALCorruptionError(
                f"{os.fspath(path)!r}: undecodable record at offset "
                f"{offset}: {err}"
            ) from None
        records.append(WalRecord(seq, indices, deltas))
        offset = end
    return records, offset, 0, algo


def replay(
    directory, *, tolerate_torn_tail: bool = True
) -> Tuple[List[WalRecord], Optional[TornTail]]:
    """Read every committed record in sequence order.

    Only the *last* segment may carry a torn tail (appends are strictly
    sequential, so a crash can only tear the end of the log); a torn or
    short earlier segment raises :class:`~repro.errors.WALCorruptionError`,
    as does any gap or regression in the record sequence numbers.
    """
    segments = _list_segments(directory)
    records: List[WalRecord] = []
    torn: Optional[TornTail] = None
    for position, (_, path) in enumerate(segments):
        found, good, torn_bytes, _ = _scan_segment(path)
        if torn_bytes:
            last = position == len(segments) - 1
            if not last or not tolerate_torn_tail:
                raise WALCorruptionError(
                    f"{os.fspath(path)!r} has {torn_bytes} torn bytes but "
                    f"is not the final segment"
                )
            torn = TornTail(os.fspath(path), good, torn_bytes)
        records.extend(found)
    for previous, current in zip(records, records[1:]):
        if current.seq != previous.seq + 1:
            raise WALCorruptionError(
                f"WAL sequence gap: record {previous.seq} followed by "
                f"{current.seq}"
            )
    return records, torn


# ---------------------------------------------------------------------------
# The writer
# ---------------------------------------------------------------------------


class WriteAheadLog:
    """Append-only segmented log of update groups.

    Args:
        directory: where segments live (created if missing).
        segment_max_bytes: rotate to a fresh segment once the current
            one exceeds this size.
        sync: fsync after every append (the durability of the ack).
        checksum: ``"crc32"`` (zlib, default) or ``"crc32c"``.
        faults: optional :class:`~repro.faults.FaultPlan`; consulted
            before every append (fail-nth-write, torn writes).
        metrics: optional :class:`~repro.metrics.registry.MetricsRegistry`
            declaring ``wal_appends``, ``wal_bytes``, ``wal_fsyncs`` and
            ``wal_failures``, to tally appends, bytes, fsyncs and
            poisonings.
        repair: truncate a torn tail found at open so appends continue
            from the committed prefix; with ``repair=False`` a torn tail
            raises :class:`~repro.errors.WALError` instead.

    A torn append injected by the fault plan leaves the partial record
    on disk and marks the log **failed**: every later append raises
    :class:`~repro.errors.WALError`. That mirrors a real engine losing
    its log device — the service degrades to read-only instead of
    appending after garbage.
    """

    def __init__(
        self,
        directory,
        *,
        segment_max_bytes: int = 4 << 20,
        sync: bool = True,
        checksum: str = "crc32",
        faults=None,
        metrics=None,
        repair: bool = True,
    ) -> None:
        if checksum not in ("crc32", "crc32c"):
            raise WALError(
                f"checksum must be 'crc32' or 'crc32c', got {checksum!r}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_max_bytes = int(segment_max_bytes)
        self.sync = bool(sync)
        self._algo = ALGO_CRC32C if checksum == "crc32c" else ALGO_CRC32
        self._faults = faults
        self._metrics = metrics
        self._lock = threading.RLock()
        self._sync_lock = threading.Lock()
        self._handle = None
        self._failed: Optional[str] = None
        self._segment_last_seq: Dict[Path, int] = {}
        self._open_existing(repair)
        self._durable_seq = self._next_seq - 1

    def _open_existing(self, repair: bool) -> None:
        segments = _list_segments(self.directory)
        header_size = len(SEGMENT_MAGIC) + 1
        last_seq = 0
        for position, (start, path) in enumerate(segments):
            records, good, torn_bytes, _ = _scan_segment(path)
            if torn_bytes:
                if position != len(segments) - 1:
                    raise WALCorruptionError(
                        f"{os.fspath(path)!r} has a torn tail but is not "
                        f"the final segment"
                    )
                if not repair:
                    raise WALError(
                        f"{os.fspath(path)!r} ends in a {torn_bytes}-byte "
                        f"torn record; open with repair=True to truncate it"
                    )
                with open(path, "r+b") as handle:
                    handle.truncate(good)
            if records:
                last_seq = records[-1].seq
                self._segment_last_seq[path] = records[-1].seq
            else:
                self._segment_last_seq[path] = start - 1
        self._next_seq = last_seq + 1 if segments else 1
        self._current_path = None
        if segments:
            path = segments[-1][1]
            if path.stat().st_size < header_size:
                # A crash during rotation — or the torn-header truncation
                # above — left the final segment without a complete
                # RPWAL1 header. Appending to it would produce a
                # headerless file that replay can never read, so discard
                # the empty shell; the next append rotates into a fresh,
                # properly-headered segment. Nothing committed is lost:
                # a segment without a header holds no records.
                if not repair:
                    raise WALError(
                        f"{os.fspath(path)!r} has no complete segment "
                        f"header; open with repair=True to discard it"
                    )
                path.unlink()
                self._segment_last_seq.pop(path, None)
            else:
                # keep appending to the final segment (post-repair)
                self._current_path = path
                self._handle = open(path, "ab")

    # -- properties ----------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """Sequence number the next append must carry."""
        with self._lock:
            return self._next_seq

    @property
    def failed(self) -> bool:
        """True once a torn/failed append has poisoned the log."""
        with self._lock:
            return self._failed is not None

    @property
    def durable_seq(self) -> int:
        """Highest sequence number known to be fsynced to disk."""
        with self._lock:
            return self._durable_seq

    # -- appending -----------------------------------------------------------

    def _poison(self, reason: str) -> None:
        """Mark the log failed (caller holds ``_lock``) and count it."""
        self._failed = reason
        if self._metrics is not None:
            self._metrics.inc(wal_failures=1)

    def _rotate(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            # everything written so far lives in the segment just synced
            self._durable_seq = self._next_seq - 1
            self._handle.close()
        path = self.directory / f"wal-{self._next_seq:020d}.seg"
        self._handle = open(path, "ab")
        self._handle.write(SEGMENT_MAGIC + bytes([self._algo]))
        self._handle.flush()
        if self.sync:
            os.fsync(self._handle.fileno())
        self._current_path = path
        self._segment_last_seq[path] = self._next_seq - 1

    def append(self, seq: int, indices, deltas, *, sync=None) -> int:
        """Log update group ``seq``; returns bytes written.

        With ``sync`` left at ``None`` the log's own ``sync`` setting
        decides: the record is on disk — fsynced — before this returns,
        and the caller may acknowledge the group afterwards. Passing
        ``sync=False`` writes the record (buffered, flushed to the OS)
        but defers durability to a later :meth:`sync_upto` — the
        group-commit path :class:`~repro.serve.CubeService` uses so
        concurrent submitters share one fsync.

        On any failure — injected or a real ``OSError`` from the write
        or fsync (disk full, I/O error) — nothing is acknowledged, the
        tail may hold a partial record, and the log refuses further
        appends until reopened (the service degrades to read-only).
        """
        with self._lock:
            if self._failed is not None:
                raise WALError(
                    f"write-ahead log has failed ({self._failed}); the "
                    f"service is degraded to read-only"
                )
            if seq != self._next_seq:
                raise WALError(
                    f"append out of order: got seq {seq}, expected "
                    f"{self._next_seq}"
                )
            record = encode_record(seq, indices, deltas, self._algo)
            action, keep = "ok", len(record)
            if self._faults is not None:
                action, keep = self._faults.on_wal_append(len(record))
            if action == "fail":
                self._poison(f"injected write failure at seq {seq}")
                from repro.faults import InjectedFault

                raise InjectedFault(self._failed)
            do_sync = self.sync if sync is None else bool(sync)
            try:
                if (
                    self._handle is None
                    or self._handle.tell() >= self.segment_max_bytes
                ):
                    self._rotate()
                if action == "torn":
                    # persist the partial record — the crash image —
                    # then fail
                    self._handle.write(record[:keep])
                    self._handle.flush()
                    os.fsync(self._handle.fileno())
                    self._poison(f"injected torn write at seq {seq}")
                    from repro.faults import InjectedFault

                    raise InjectedFault(self._failed)
                self._handle.write(record)
                self._handle.flush()
                if do_sync:
                    os.fsync(self._handle.fileno())
            except BaseException as err:
                # A real I/O failure leaves the same artifact as an
                # injected torn write: an unknown amount of the record
                # on disk. Appending after it would bury garbage inside
                # the committed body, so the log is poisoned either way.
                if self._failed is None:
                    self._poison(f"append of seq {seq} failed: {err!r}")
                raise
            self._next_seq = seq + 1
            if do_sync:
                self._durable_seq = seq
            self._segment_last_seq[self._current_path] = seq
            if self._metrics is not None:
                self._metrics.inc(
                    wal_appends=1, wal_bytes=len(record),
                    wal_fsyncs=int(do_sync),
                )
            return len(record)

    def sync_upto(self, seq: int) -> None:
        """Block until record ``seq`` is durable (fsynced); group commit.

        Safe to call from many threads: callers serialize on a dedicated
        sync lock, and one fsync covers every record written before it,
        so concurrent submitters share a single disk flush instead of
        paying one each. A no-op when the log was opened with
        ``sync=False`` (durability disabled by policy) or when ``seq``
        is already durable. An fsync failure poisons the log exactly
        like a failed append.
        """
        if not self.sync:
            return
        with self._sync_lock:
            with self._lock:
                if self._durable_seq >= seq:
                    return
                if self._failed is not None:
                    raise WALError(
                        f"write-ahead log has failed ({self._failed}); "
                        f"durability of seq {seq} cannot be guaranteed"
                    )
                if seq >= self._next_seq:
                    raise WALError(
                        f"sync_upto({seq}): only {self._next_seq - 1} "
                        f"records have been appended"
                    )
                handle = self._handle
                written = self._next_seq - 1
            if handle is None:
                raise WALError(
                    f"sync_upto({seq}): the log has no open segment"
                )
            try:
                # outside ``_lock`` on purpose: appenders keep writing
                # (buffered) while the flush runs, and the service's
                # admission lock never waits behind the disk
                os.fsync(handle.fileno())
            except (OSError, ValueError) as err:
                with self._lock:
                    # a concurrent rotation fsyncs-and-closes the handle
                    # under us — re-check before declaring failure
                    if self._durable_seq >= seq:
                        return
                    self._poison(f"fsync of seq {seq} failed: {err!r}")
                raise WALError(
                    f"write-ahead log fsync failed: {err!r}"
                ) from err
            with self._lock:
                if self._durable_seq < written:
                    self._durable_seq = written
            if self._metrics is not None:
                self._metrics.inc(wal_fsyncs=1)

    # -- maintenance ---------------------------------------------------------

    def prune_upto(self, seq: int) -> int:
        """Delete segments whose every record is ``<= seq``; returns the
        number removed. The active segment is never deleted."""
        removed = 0
        with self._lock:
            for start, path in _list_segments(self.directory):
                if path == self._current_path:
                    continue
                last = self._segment_last_seq.get(path)
                if last is None:
                    last = start - 1
                    records, _, _, _ = _scan_segment(path)
                    if records:
                        last = records[-1].seq
                if last <= seq:
                    path.unlink()
                    self._segment_last_seq.pop(path, None)
                    removed += 1
        return removed

    def close(self, sync: bool = True) -> None:
        """Close the active segment handle (optionally without fsync, to
        model an unclean shutdown)."""
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.flush()
                    if sync:
                        os.fsync(self._handle.fileno())
                        self._durable_seq = self._next_seq - 1
                finally:
                    self._handle.close()
                    self._handle = None

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog(dir={os.fspath(self.directory)!r}, "
            f"next_seq={self._next_seq}, failed={self.failed})"
        )


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def checkpoint_path(directory, seq: int) -> Path:
    """Canonical path of the checkpoint at ``seq`` applied groups."""
    return Path(directory) / f"ckpt-{int(seq):020d}.npz"


def list_checkpoints(directory) -> List[Tuple[int, Path]]:
    """All checkpoint files, sorted by sequence ascending."""
    directory = Path(directory)
    found = []
    if directory.is_dir():
        for entry in directory.iterdir():
            match = _CKPT_RE.match(entry.name)
            if match:
                found.append((int(match.group(1)), entry))
    return sorted(found)


def write_checkpoint(method, directory, seq: int) -> Path:
    """Snapshot ``method`` as the state after ``seq`` groups.

    Goes through :func:`repro.persistence.save_method` — atomic rename
    plus embedded digest — so a crash mid-checkpoint leaves either the
    old file set or the new one, never a half-written snapshot.
    """
    from repro import persistence

    path = checkpoint_path(directory, seq)
    persistence.save_method(method, path)
    return path


def prune_checkpoints(directory, keep: int = 2) -> int:
    """Remove all but the newest ``keep`` checkpoints; returns count."""
    checkpoints = list_checkpoints(directory)
    removed = 0
    for _, path in checkpoints[: max(0, len(checkpoints) - int(keep))]:
        path.unlink()
        removed += 1
    return removed


def prune_wal(directory, wal: WriteAheadLog, keep_checkpoints: int = 2) -> int:
    """Drop WAL segments no retained checkpoint could need.

    Replay starts from the newest valid checkpoint but may *fall back*
    to an older one if the newest is corrupt — so segments are pruned
    only below the oldest retained checkpoint's sequence.
    """
    retained = list_checkpoints(directory)[-max(1, int(keep_checkpoints)):]
    if not retained:
        return 0
    return wal.prune_upto(retained[0][0])


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveredState:
    """What :func:`recover_state` restored, and how it got there."""

    method: object  # the rebuilt RangeSumMethod
    version: int  # update groups folded in (checkpoint + replay)
    checkpoint_seq: int  # sequence of the checkpoint that loaded
    replayed_groups: int  # committed WAL groups applied on top
    quarantined: Tuple[Tuple[int, str], ...] = ()  # (seq, error) skipped
    skipped_checkpoints: Tuple[Tuple[int, str], ...] = ()  # corrupt ckpts
    torn_tail: Optional[TornTail] = None  # truncatable crash artifact


def recover_state(
    directory,
    method_cls=None,
    *,
    method_kwargs: Optional[dict] = None,
) -> RecoveredState:
    """Rebuild the newest recoverable cube state from ``directory``.

    The algorithm (see ``docs/architecture.md`` for the crash matrix):

    1. try checkpoints newest-first; digest or read failures fall back
       to the next-older checkpoint (recorded in
       ``skipped_checkpoints``),
    2. replay every committed WAL record with ``seq`` greater than the
       checkpoint's through ``apply_batch_array`` — a torn tail is
       truncated-by-ignoring, a record that fails to apply is
       quarantined (skipped, recorded) exactly as the live writer would,
    3. the recovered ``version`` is the highest committed sequence seen
       (or the checkpoint's, if the log is empty).

    Args:
        directory: the durability directory (checkpoints + WAL).
        method_cls: optionally rebuild as a different
            :class:`~repro.core.base.RangeSumMethod` subclass than the
            checkpoint recorded.
        method_kwargs: forwarded when ``method_cls`` forces a rebuild.

    Raises:
        RecoveryError: no checkpoint loads, or committed groups are
            missing from the log (a sequence gap above the checkpoint).
    """
    from repro import persistence

    checkpoints = list_checkpoints(directory)
    if not checkpoints:
        raise RecoveryError(
            f"no checkpoints in {os.fspath(directory)!r}; nothing to "
            f"recover from"
        )
    method = None
    base_seq = 0
    skipped: List[Tuple[int, str]] = []
    for seq, path in reversed(checkpoints):
        try:
            method = persistence.load_method(path)
            base_seq = seq
            break
        except StorageError as err:
            skipped.append((seq, str(err)))
    if method is None:
        raise RecoveryError(
            f"every checkpoint in {os.fspath(directory)!r} is corrupt: "
            f"{[(seq, msg[:80]) for seq, msg in skipped]}"
        )
    if method_cls is not None and type(method) is not method_cls:
        kwargs = dict(method_kwargs or {})
        if not kwargs and getattr(method, "box_sizes", None) is not None:
            kwargs["box_size"] = method.box_sizes
        try:
            method = method_cls(method.to_array(), **kwargs)
        except TypeError:
            method = method_cls(method.to_array())

    records, torn = replay(directory)
    pending = [record for record in records if record.seq > base_seq]
    if pending and pending[0].seq != base_seq + 1:
        raise RecoveryError(
            f"WAL starts at seq {pending[0].seq} but the checkpoint is at "
            f"{base_seq}: committed groups "
            f"{base_seq + 1}..{pending[0].seq - 1} are missing"
        )
    quarantined: List[Tuple[int, str]] = []
    replayed = 0
    version = base_seq
    for record in pending:
        try:
            method.apply_batch_array(record.indices, record.deltas)
            replayed += 1
        except Exception as err:  # poisoned group: skip, like the writer
            quarantined.append((record.seq, repr(err)))
        version = record.seq
    return RecoveredState(
        method=method,
        version=version,
        checkpoint_seq=base_seq,
        replayed_groups=replayed,
        quarantined=tuple(quarantined),
        skipped_checkpoints=tuple(skipped),
        torn_tail=torn,
    )


# ---------------------------------------------------------------------------
# Policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DurabilityPolicy:
    """How a :class:`~repro.serve.CubeService` persists its updates.

    Args:
        dir: durability directory; WAL segments and checkpoints live
            here, and :meth:`~repro.serve.CubeService.recover` reads it.
        checkpoint_every: write a checkpoint after this many applied
            groups (bounds replay length). ``0`` disables periodic
            checkpoints (one is still written at open and close).
        fsync: fsync the WAL before every ack — the strict reading of
            "acked means durable". The flush is *group-committed*: the
            record is written (buffered) under the service's admission
            lock to pin the sequence order, but the fsync itself runs
            outside it via :meth:`WriteAheadLog.sync_upto`, so
            concurrent submitters share one disk flush and readers,
            ``stats()``, and the writer's publish path never serialize
            behind the disk. Disable for throughput experiments.
        segment_max_bytes: WAL segment rotation threshold.
        keep_checkpoints: checkpoints retained for corruption fallback;
            WAL segments below the oldest retained one are pruned.
    """

    dir: object = field(default=None)
    checkpoint_every: int = 256
    fsync: bool = True
    segment_max_bytes: int = 4 << 20
    keep_checkpoints: int = 2

    def __post_init__(self):
        if self.dir is None:
            raise StorageError("DurabilityPolicy requires a dir")
        if self.checkpoint_every < 0:
            raise StorageError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.keep_checkpoints < 1:
            raise StorageError(
                f"keep_checkpoints must be >= 1, got {self.keep_checkpoints}"
            )
