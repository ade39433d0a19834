"""The dead-letter file: checksummed quarantine for poison rows.

"Never silently dropped, never poisoning the writer": a row the
pipeline cannot turn into a cell delta — missing dimension, value
outside an encoder's domain, a measure the cube's dtype cannot hold —
is appended here and counted, and the stream moves on.

Format: one entry per line, ``<crc32c hex8>\\t<canonical json>``. The
JSON carries ``offset`` (the row's position in the source stream),
``reason`` (a stable category for counters), ``error`` (the human
message) and ``record`` (the offending row, stringified where not
JSON-representable). The CRC is over the JSON bytes, same crc32c the
WAL uses.

Crash semantics mirror the WAL's:

* an append is durable once :meth:`DeadLetterFile.sync` returns — the
  pipeline syncs quarantined rows *before* persisting the intent to
  submit their chunk, so a chunk the fence later proves committed
  always has its dead letters on disk already;
* a torn final line is the expected image of a crash mid-append and is
  repaired (truncated) on open; a bad checksum anywhere else raises
  :class:`~repro.errors.DeadLetterCorruptionError`;
* :meth:`DeadLetterFile.truncate_from` drops every entry at or past a
  source offset — the resume path calls it with the offset it will
  re-read from, so re-processed rows re-quarantine exactly once.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from typing import Dict, List, Optional

from repro.errors import DeadLetterCorruptionError
from repro.serve.wal import crc32c


def _encode_entry(entry: Dict) -> bytes:
    payload = json.dumps(
        entry, sort_keys=True, separators=(",", ":"), default=str
    ).encode("utf-8")
    return b"%08x\t%s\n" % (crc32c(payload), payload)


def _decode_line(line: bytes) -> Optional[Dict]:
    """One parsed entry, or ``None`` for a torn/invalid line."""
    if not line.endswith(b"\n"):
        return None
    body = line[:-1]
    if len(body) < 10 or body[8:9] != b"\t":
        return None
    try:
        expected = int(body[:8], 16)
    except ValueError:
        return None
    payload = body[9:]
    if crc32c(payload) != expected:
        return None
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None


def read_dead_letters(path) -> List[Dict]:
    """All entries of a dead-letter file, CRC-verified.

    A torn final line (crash mid-append) is tolerated and dropped; a
    checksum failure on any earlier line raises
    :class:`~repro.errors.DeadLetterCorruptionError`.
    """
    try:
        with open(path, "rb") as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        return []
    entries: List[Dict] = []
    for i, line in enumerate(lines):
        entry = _decode_line(line)
        if entry is None:
            if i == len(lines) - 1:
                break  # torn tail: the expected crash image
            raise DeadLetterCorruptionError(
                f"{path!s}: bad checksum at entry {i} "
                f"(not the tail — the file was damaged after writing)"
            )
        entries.append(entry)
    return entries


class DeadLetterFile:
    """Append-only quarantine with per-reason counters.

    Opening scans the existing file (if any) to repair a torn tail and
    rebuild counters, so a resumed pipeline reports totals over the
    whole run, not just the rows since the last crash.
    """

    def __init__(self, path) -> None:
        self.path = path
        self._reasons: Counter = Counter()
        entries = read_dead_letters(path)  # validates + detects torn tail
        if entries:
            for entry in entries:
                self._reasons[str(entry.get("reason", "?"))] += 1
        self._rewrite(entries, preserve_missing=True)
        # the append handle opens lazily on first append: a clean
        # stream never creates an empty quarantine file
        self._handle = None
        # appends not yet fsynced: a sync with none is a no-op
        self._unsynced = 0

    def _rewrite(self, entries: List[Dict], preserve_missing=False) -> None:
        """Atomically replace the file with exactly ``entries``."""
        if preserve_missing and not os.path.exists(self.path):
            # nothing to repair and nothing to write: don't create an
            # empty quarantine file for a clean stream
            if not entries:
                return
        tmp = f"{self.path}.tmp"
        with open(tmp, "wb") as handle:
            for entry in entries:
                handle.write(_encode_entry(entry))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        dirfd = os.open(os.path.dirname(os.path.abspath(self.path)),
                        os.O_RDONLY)
        try:
            os.fsync(dirfd)
        finally:
            os.close(dirfd)

    def append(self, offset: int, reason: str, error: str, record) -> None:
        """Quarantine one row (buffered; durable after :meth:`sync`)."""
        entry = {
            "offset": int(offset),
            "reason": str(reason),
            "error": str(error),
            "record": record if isinstance(record, dict) else str(record),
        }
        if self._handle is None:
            self._handle = open(self.path, "ab")
        self._handle.write(_encode_entry(entry))
        self._reasons[str(reason)] += 1
        self._unsynced += 1

    def sync(self) -> None:
        """Make every appended entry durable (no-op when nothing was
        appended since the last sync — rewrites fsync themselves)."""
        if self._handle is None or not self._unsynced:
            return
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._unsynced = 0

    def truncate_from(self, offset: int) -> int:
        """Drop entries with ``entry.offset >= offset``; returns count.

        The resume path's idempotence guard: rows at or past the resume
        offset are about to be re-processed, so their earlier quarantine
        entries (written after the checkpoint the pipeline is resuming
        from) must go, or they would appear twice.
        """
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        entries = read_dead_letters(self.path)
        keep = [e for e in entries if int(e.get("offset", -1)) < int(offset)]
        dropped = len(entries) - len(keep)
        if dropped:
            self._rewrite(keep)
            self._reasons = Counter()
            for entry in keep:
                self._reasons[str(entry.get("reason", "?"))] += 1
        return dropped

    def counters(self) -> Dict[str, int]:
        """Per-reason quarantine tallies (whole file, all passes)."""
        return dict(self._reasons)

    @property
    def total(self) -> int:
        """Total quarantined rows currently recorded."""
        return sum(self._reasons.values())

    def close(self) -> None:
        if self._handle is None:
            return
        self.sync()
        self._handle.close()
        self._handle = None

    def __enter__(self) -> "DeadLetterFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"DeadLetterFile({self.path!s}, {self.total} entries)"
