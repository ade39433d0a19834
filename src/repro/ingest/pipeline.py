"""The ingest coordinator: one pass, encode -> coalesce -> submit.

:class:`IngestPipeline` drives a replayable source
(:mod:`repro.ingest.sources`) into a target adapter
(:mod:`repro.ingest.targets`) with three robustness properties the rest
of this package exists for:

**Exactly-once.** Groups cover contiguous row ranges ``[start, end)``.
Per group, the order of durable effects is fixed::

    1. quarantined rows appended to the dead-letter file, fsynced
    2. intent checkpoint: {offset: start, pending: {start, end, expect}}
    3. submit — the target's WAL ack is the commit point
    4. commit checkpoint: {offset: end}

A crash between any two steps is recoverable without loss or
double-apply: :meth:`IngestPipeline.run` starts by resolving any
pending intent against the recovered target (see
:mod:`repro.ingest.checkpoint` for the fence), truncates the
dead-letter file back to the offset it will re-read from, and streams
on. Re-encoding is deterministic, so a replayed group is bit-for-bit
the group that would have committed.

**Columnar.** A group travels as one array pair — ``(n, d)`` cells and
``n`` float64 deltas — from the encoded chunk to the target's WAL
append. Each chunk is encoded column by column: a dimension, time or
measure column is checked and converted with a handful of array
operations, and only the rows those checks reject (a string, a bool, a
NaN, a missing key, a value out of the encoder's domain, an encoder
with no integer domain) go through the per-record
:meth:`~repro.cube.schema.CubeSchema.encode_record` path, which names
their quarantine reason. Admission is one mask per chunk and one per
group after its roll, and the coalesce is one 1-D sort
(:func:`~repro.serve.group.coalesce`).

**Quarantine.** A row failing schema validation, index encoding, the
measure-dtype check, or window admission is dead-lettered with a
stable reason and counted — the stream never stops for one bad row,
and the row is never silently dropped.

**Backpressure.** The coalescing stage targets ``group_rows`` source
rows per submitted group and adapts it: a
:class:`~repro.errors.ServiceOverloadedError` halves it and backs off
exponentially before retrying (the group itself is already formed and
is retried as-is; the *next* groups shrink); a deep target queue
shrinks it; a drained queue grows it back toward ``max_group_rows``.
The same backoff covers the pre-submit roll — a rolling target's
``prepare`` submits slab-zeroing groups through the same bounded
queue, and an overload there retries instead of killing the run. The
pipeline therefore idles at whatever rate the writer sustains instead
of OOMing its buffer or hot-spinning on rejections.
"""

from __future__ import annotations

import operator
import time
from itertools import repeat
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.cube.encoders import IdentityEncoder, IntegerEncoder
from repro.cube.fact_table import validate_measure
from repro.errors import (
    EncodingError,
    IngestError,
    SchemaError,
    ServiceOverloadedError,
)
from repro.ingest.checkpoint import CheckpointStore
from repro.ingest.deadletter import DeadLetterFile
from repro.metrics.registry import MetricsRegistry
from repro.serve.group import UpdateGroup, coalesce


#: The largest time slot a cell can hold; a larger ``day`` is ``bad_time``.
_MAX_SLOT = int(np.iinfo(np.intp).max)


class _Encoded(NamedTuple):
    """One chunk's admitted rows as arrays, plus the chunk's records —
    kept so a row expired by its own group's roll can dead-letter with
    its source contents, not just the encoded cell."""

    chunk_offset: int
    records: list
    offsets: np.ndarray
    cells: np.ndarray
    deltas: np.ndarray


class IngestReport(dict):
    """The run's outcome: metrics snapshot plus final positions.

    A plain dict (JSON-ready for the CLI and benchmarks) with attribute
    access for the common fields tests assert on.
    """

    def __getattr__(self, name):
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None


class IngestPipeline:
    """Single-pass chunked ingestion with crash-exact resume.

    Args:
        source: a replayable chunk source (``chunks(start)``).
        schema: the :class:`~repro.cube.schema.CubeSchema` encoding
            records to cell coordinates. With ``time_column`` set the
            schema covers only the non-time dimensions; the time slot
            is read from ``record[time_column]`` and prepended.
        target: a target adapter (:mod:`repro.ingest.targets`).
        checkpoint_path: the durable offset checkpoint file.
        deadletter_path: the quarantine file.
        time_column: optional name of the record attribute holding the
            logical time slot (rolling targets).
        measure_dtype: optional cube dtype to validate measures against
            (:func:`~repro.cube.fact_table.validate_measure` with
            promotion *disallowed* — a fractional measure on an integer
            cube quarantines instead of stalling the writer behind an
            O(n^d) promotion rebuild).
        group_rows: initial source rows per submitted group.
        min_group_rows / max_group_rows: adaptation bounds.
        submit_timeout: per-attempt queue-space wait before a submit
            counts as overloaded.
        max_submit_retries: overload retries per group before giving up.
        backoff_seconds: base of the exponential overload backoff.
        queue_depth_low / queue_depth_high: grow the group size when
            the target backlog is at or below the low mark, shrink at
            or above the high mark.
        fault_plan: optional :class:`~repro.faults.FaultPlan`; its
            :meth:`~repro.faults.FaultPlan.on_ingest_stage` is consulted
            at every stage boundary (the crash matrix's kill sites).
    """

    def __init__(
        self,
        source,
        schema,
        target,
        *,
        checkpoint_path,
        deadletter_path,
        time_column: Optional[str] = None,
        measure_dtype=None,
        group_rows: int = 4096,
        min_group_rows: int = 64,
        max_group_rows: int = 65536,
        submit_timeout: Optional[float] = 0.25,
        max_submit_retries: int = 10,
        backoff_seconds: float = 0.01,
        queue_depth_low: int = 1,
        queue_depth_high: int = 8,
        fault_plan=None,
    ) -> None:
        self.source = source
        self.schema = schema
        self.target = target
        self.checkpoint = CheckpointStore(checkpoint_path)
        self.deadletter = DeadLetterFile(deadletter_path)
        self.time_column = time_column
        self._ndim = len(schema.dimensions) + (time_column is not None)
        self.measure_dtype = (
            None if measure_dtype is None else np.dtype(measure_dtype)
        )
        self.min_group_rows = int(min_group_rows)
        self.max_group_rows = int(max_group_rows)
        if not 1 <= self.min_group_rows <= self.max_group_rows:
            raise IngestError(
                f"need 1 <= min_group_rows <= max_group_rows, got "
                f"[{self.min_group_rows}, {self.max_group_rows}]"
            )
        self.group_rows = min(
            self.max_group_rows, max(self.min_group_rows, int(group_rows))
        )
        self.submit_timeout = submit_timeout
        self.max_submit_retries = int(max_submit_retries)
        self.backoff_seconds = float(backoff_seconds)
        self.queue_depth_low = int(queue_depth_low)
        self.queue_depth_high = int(queue_depth_high)
        self.faults = fault_plan
        # quarantine_reasons counts rows per reason: the dead-letter
        # file is the record, these counters are the dashboard
        self.metrics = MetricsRegistry(
            counters=(
                "rows_read", "rows_applied", "rows_quarantined",
                "chunks_read", "groups_submitted", "cells_submitted",
                "fence_skips", "partial_resubmits", "resumes",
                "overload_backoffs", "rolls",
            ),
            keyed=("quarantine_reasons",),
        )

    # -- stage boundary hook -------------------------------------------------

    def _boundary(self, stage: str) -> None:
        if self.faults is not None:
            self.faults.on_ingest_stage(stage)

    # -- the single pass -----------------------------------------------------

    def run(self) -> IngestReport:
        """Stream the source to completion (resuming if checkpointed).

        Returns an :class:`IngestReport`. Raises whatever a stage
        boundary's injected fault raises (the crash matrix), or the
        target's terminal errors after retries are exhausted.
        """
        offset = self._resume()
        buffer: List[_Encoded] = []
        buf_start = buf_end = offset
        for chunk_offset, records in self.source.chunks(offset):
            self._boundary("chunk")
            self.metrics.inc(chunks_read=1, rows_read=len(records))
            buffer.append(self._encode_chunk(chunk_offset, records))
            self._boundary("encode")
            buf_end = chunk_offset + len(records)
            if buf_end - buf_start >= self.group_rows:
                self._commit_group(buffer, buf_start, buf_end)
                buffer = []
                buf_start = buf_end
        if buf_end > buf_start:
            self._commit_group(buffer, buf_start, buf_end)
        # terminal state: committed offset, no pending — also covers an
        # empty source (offset 0 becomes durable instead of no file)
        self.checkpoint.save(self._committed_state(buf_end))
        self.target.flush()
        self.deadletter.sync()
        return self._report(buf_end)

    # -- resume --------------------------------------------------------------

    def _resume(self) -> int:
        state = self.checkpoint.load()
        if state is None:
            # fresh run: an inherited dead-letter file would double-
            # count every row this pass re-quarantines
            self.deadletter.truncate_from(0)
            return 0
        self.metrics.inc(resumes=1)
        self.target.restore(state.get("target_state", {}))
        pending = state.get("pending")
        if pending is None:
            offset = int(state["offset"])
            self.deadletter.truncate_from(offset)
            return offset
        status = self.target.committed(pending["expect"])
        start, end = int(pending["start"]), int(pending["end"])
        if status == "all":
            # the in-flight group committed before the crash: its rows
            # and dead letters are fully accounted for — skip them
            self.target.restore(pending.get("target_state", {}))
            self.metrics.inc(fence_skips=1)
            self.checkpoint.save(self._committed_state(end))
            self.deadletter.truncate_from(end)
            return end
        if status == "none":
            # nothing committed: clear the intent *now* so a second
            # crash cannot fence a replayed group against a stale
            # expectation covering different row boundaries
            self.checkpoint.save(self._committed_state(start))
            self.deadletter.truncate_from(start)
            return start
        # partial (cluster): some shards hold the group, some do not.
        # Re-read exactly the intended rows, re-encode (deterministic),
        # and resubmit only the missing shards' sub-updates.
        self.metrics.inc(partial_resubmits=1)
        self.deadletter.truncate_from(start)
        _, cells, deltas = self._concat(
            self._reencode_range(start, end, pending)
        )
        group = _coalesce(cells, deltas)
        self.deadletter.sync()
        if group:
            self.target.resubmit_missing(
                group, pending["expect"], timeout=self.submit_timeout
            )
        self.checkpoint.save(self._committed_state(end))
        self.deadletter.truncate_from(end)
        return end

    def _reencode_range(self, start: int, end: int, pending: Dict
                        ) -> List[_Encoded]:
        self.target.restore(pending.get("target_state", {}))
        parts: List[_Encoded] = []
        for chunk_offset, records in self.source.chunks(start):
            if chunk_offset >= end:
                break
            take = records[: max(0, end - chunk_offset)]
            parts.append(self._encode_chunk(chunk_offset, take))
        return parts

    # -- encode --------------------------------------------------------------

    def _quarantine(self, offset: int, reason: str, error, record) -> None:
        self.deadletter.append(offset, reason, str(error), record)
        self.metrics.inc(rows_quarantined=1)
        self.metrics.inc_key("quarantine_reasons", reason)

    def _encode_chunk(self, chunk_offset: int, records) -> _Encoded:
        """Encode and admit one chunk; quarantine the rest in row order.

        The columnar encode takes every row its checks accept; each
        row they reject goes through :meth:`_encode_coords`, which
        either encodes it after all (a ``"3"`` the encoder parses, a
        date, a category) or names its quarantine reason.
        """
        cells, deltas, encoded = self._encode_columns(records)
        failures = []
        for row in np.flatnonzero(~encoded).tolist():
            try:
                coords, delta = self._encode_coords(records[row])
            except SchemaError as error:
                failures.append((row, "schema", error))
                continue
            except EncodingError as error:
                failures.append((row, "encoding", error))
                continue
            except _BadTime as error:
                failures.append((row, "bad_time", error))
                continue
            except _BadMeasure as error:
                failures.append((row, "measure_dtype", error))
                continue
            cells[row] = coords
            deltas[row] = delta
            encoded[row] = True
        admitted, reason = self.target.admit(cells)
        admitted &= encoded
        for row in np.flatnonzero(encoded & ~admitted).tolist():
            failures.append((
                row, reason,
                f"cell {tuple(cells[row].tolist())} not admissible",
            ))
        failures.sort(key=lambda failure: failure[0])
        for row, why, error in failures:
            self._quarantine(chunk_offset + row, why, error, records[row])
        keep = np.flatnonzero(admitted)
        return _Encoded(
            chunk_offset, records, chunk_offset + keep,
            cells[keep], deltas[keep],
        )

    def _encode_columns(
        self, records
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(cells, deltas, encoded)`` for a chunk, column by column.

        A row is marked encoded only where the per-record path would
        encode it to the same cell and delta: exact-``int`` time and
        dimension values inside the integer domain, and a finite
        ``int`` or ``float`` measure the ``measure_dtype`` check passes.
        Every other row is left to :meth:`_encode_coords`.
        """
        n = len(records)
        cells = np.zeros((n, self._ndim), dtype=np.intp)
        domains = []
        if self.time_column is not None:
            domains.append((self.time_column, 0, None))
        for dim in self.schema.dimensions:
            domain = _int_domain(dim.encoder)
            if domain is None:
                return cells, np.zeros(n), np.zeros(n, dtype=bool)
            domains.append((dim.name,) + domain)
        deltas, encoded = _measure_column(
            _column(records, self.schema.measure), self.measure_dtype
        )
        for axis, (name, low, high) in enumerate(domains):
            values, ok = _int_column(_column(records, name))
            ok &= values >= low
            if high is not None:
                ok &= values <= high
            cells[:, axis] = values - low
            encoded &= ok
        return cells, deltas, encoded

    def _encode_coords(self, record) -> Tuple[Tuple[int, ...], float]:
        slot = None
        if self.time_column is not None:
            if self.time_column not in record:
                raise _BadTime(
                    f"record missing time column {self.time_column!r}"
                )
            raw = record[self.time_column]
            try:
                slot = int(raw)
            except (TypeError, ValueError):
                raise _BadTime(
                    f"time column {self.time_column!r}={raw!r} is not "
                    f"an integer slot"
                ) from None
            if slot < 0:
                raise _BadTime(f"negative time slot {slot}")
            if slot > _MAX_SLOT:
                # past the index dtype: no cell can hold it
                raise _BadTime(
                    f"time slot {slot} exceeds the largest index "
                    f"{_MAX_SLOT}"
                )
        coords, measure = self.schema.encode_record(record)
        if self.measure_dtype is not None:
            try:
                validate_measure(
                    measure, self.measure_dtype, allow_promotion=False
                )
            except SchemaError as error:
                raise _BadMeasure(str(error)) from None
        if slot is not None:
            coords = (slot,) + coords
        return coords, float(measure)

    # -- submit --------------------------------------------------------------

    def _concat(
        self, parts: List[_Encoded]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The buffered chunks' offsets, cells and deltas, joined."""
        if not parts:
            return (
                np.empty(0, dtype=np.intp),
                np.empty((0, self._ndim), dtype=np.intp),
                np.empty(0),
            )
        return tuple(
            np.concatenate([getattr(part, name) for part in parts])
            for name in ("offsets", "cells", "deltas")
        )

    def _commit_group(self, parts: List[_Encoded], start: int, end: int
                      ) -> None:
        offsets, cells, deltas = self._concat(parts)
        if len(offsets):
            # the roll comes first: opening the group's top slot may
            # expire slots earlier rows were admitted under, and the
            # intent's expected sequence must account for any slab-
            # zeroing groups the advance submits
            before = getattr(self.target, "roller", None)
            newest_before = before.newest_slot if before else None
            rows = UpdateGroup(cells, deltas)
            kept, refusal = self._retry_on_overload(
                lambda: self.target.prepare(
                    rows, timeout=self.submit_timeout
                )
            )
            if before is not None and before.newest_slot != newest_before:
                self.metrics.inc(rolls=before.newest_slot - newest_before)
            self._boundary("roll")
            live, expiry = self.target.admit(cells)
            admitted = kept & live
            if not admitted.all():
                for row in np.flatnonzero(~admitted).tolist():
                    offset = int(offsets[row])
                    self._quarantine(
                        offset, expiry if kept[row] else refusal,
                        f"cell {tuple(cells[row].tolist())} "
                        f"{'expired during' if kept[row] else 'refused by'}"
                        f" the group's roll",
                        _record_at(parts, offset),
                    )
                offsets = offsets[admitted]
                cells, deltas = cells[admitted], deltas[admitted]
        self.deadletter.sync()
        self._boundary("deadletter")
        group = _coalesce(cells, deltas)
        if group:
            expect = self.target.expect(group)
            self.checkpoint.save({
                "offset": int(start),
                "target_state": self.target.state(),
                "pending": {
                    "start": int(start),
                    "end": int(end),
                    "expect": expect,
                    "target_state": self.target.state(),
                },
            })
            self._boundary("intent")
            self._submit_with_backpressure(group, expect)
            self.metrics.inc(rows_applied=len(offsets))
            self._boundary("submit")
        self.checkpoint.save(self._committed_state(end))
        self._boundary("checkpoint")
        self._adapt_group_size()

    def _submit_with_backpressure(self, group, expect) -> None:
        self._retry_on_overload(
            lambda: self.target.submit_fenced(
                group, expect, timeout=self.submit_timeout
            )
        )
        self.metrics.inc(groups_submitted=1, cells_submitted=len(group))

    def _retry_on_overload(self, operation):
        """Run ``operation`` under the overload backoff and return its
        result: each rejection shrinks future groups and waits before
        retrying. Used for both
        the fenced submit and the pre-submit roll — both must be safe
        to re-run as-is, which submits are (the intent is durable) and
        the roll is (``advance`` moves the window only past slabs whose
        zeroing group was acked)."""
        for attempt in range(self.max_submit_retries + 1):
            try:
                return operation()
            except ServiceOverloadedError:
                self.metrics.inc(overload_backoffs=1)
                self.group_rows = max(
                    self.min_group_rows, self.group_rows // 2
                )
                if attempt >= self.max_submit_retries:
                    raise
                time.sleep(
                    self.backoff_seconds * min(64, 2 ** attempt)
                )

    def _adapt_group_size(self) -> None:
        depth = self.target.queue_depth()
        if depth >= self.queue_depth_high:
            self.group_rows = max(self.min_group_rows, self.group_rows // 2)
        elif depth <= self.queue_depth_low:
            self.group_rows = min(self.max_group_rows, self.group_rows * 2)

    # -- state/report --------------------------------------------------------

    def _committed_state(self, offset: int) -> Dict:
        return {
            "offset": int(offset),
            "target_state": self.target.state(),
            "pending": None,
        }

    def _report(self, offset: int) -> IngestReport:
        report = IngestReport(self.metrics.snapshot())
        report["offset"] = int(offset)
        report["group_rows"] = self.group_rows
        report["deadletter_reasons"] = self.deadletter.counters()
        report["deadletter_total"] = self.deadletter.total
        return report

    def close(self) -> None:
        """Release the dead-letter file handle."""
        self.deadletter.close()

    def __enter__(self) -> "IngestPipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class _BadTime(IngestError):
    """Internal: a record's time slot is missing or malformed."""


class _BadMeasure(IngestError):
    """Internal: a measure the configured cube dtype cannot hold."""


def _coalesce(cells: np.ndarray, deltas: np.ndarray) -> UpdateGroup:
    """Merge per-row deltas into one delta per touched cell.

    One :func:`~repro.serve.group.coalesce`: a 1-D ``np.unique`` over
    packed cell keys plus one ``np.bincount`` — no tuple per row or per
    cell. Output order is the lexicographic cell order a row-wise
    ``np.unique`` defines, and cells whose deltas cancel stay,
    which makes replayed groups byte-identical to the originals.
    """
    return UpdateGroup(*coalesce(cells, deltas))


def _record_at(parts: List[_Encoded], offset: int):
    """The source record at ``offset`` among the buffered chunks."""
    for part in parts:
        if 0 <= offset - part.chunk_offset < len(part.records):
            return part.records[offset - part.chunk_offset]
    raise IngestError(f"offset {offset} is not buffered")


# -- the columnar encode ----------------------------------------------------

#: int column values at or beyond this magnitude go the per-record way
_INT_LIMIT = 1 << 62


def _int_domain(encoder) -> Optional[Tuple[int, int]]:
    """``(low, high)`` of an encoder that maps an int ``v`` to
    ``v - low`` inside ``[low, high]``; ``None`` for any other."""
    if type(encoder) is IntegerEncoder:
        return encoder.minimum, encoder.maximum
    if type(encoder) is IdentityEncoder:
        return 0, encoder.size - 1
    return None


def _column(records, name) -> list:
    """``record.get(name)`` of every record (``None`` for a record
    that is not a dict: the per-record path judges it)."""
    try:
        return list(map(dict.get, records, repeat(name)))
    except TypeError:
        return [
            record.get(name) if isinstance(record, dict) else None
            for record in records
        ]


def _exactly(values: list, kind: type) -> np.ndarray:
    """Mask of the values whose type is ``kind`` itself (a ``bool`` is
    not an ``int`` here)."""
    return np.fromiter(
        map(operator.is_, map(type, values), repeat(kind)),
        dtype=bool, count=len(values),
    )


def _int_column(values: list) -> Tuple[np.ndarray, np.ndarray]:
    """``(int64 values, ok)``: ``ok`` marks exact ``int`` values that
    fit comfortably in int64; the rest read 0."""
    ok = _exactly(values, int)
    if not ok.all():
        values = [v if good else 0 for v, good in zip(values, ok.tolist())]
    try:
        return np.array(values, dtype=np.int64), ok
    except OverflowError:
        fits = np.fromiter(
            (-_INT_LIMIT < v < _INT_LIMIT for v in values),
            dtype=bool, count=len(values),
        )
        values = [v if good else 0 for v, good in zip(values, fits.tolist())]
        return np.array(values, dtype=np.int64), ok & fits


def _measure_column(
    values: list, dtype: Optional[np.dtype]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(float64 measures, ok)``: ``ok`` marks finite ``int`` and
    ``float`` measures that :func:`validate_measure` accepts, with
    ``dtype`` and promotion disallowed, as the per-record path calls it.
    """
    is_float = _exactly(values, float)
    is_int = _exactly(values, int)
    ok = is_float | is_int
    if not ok.all():
        values = [v if good else 0.0 for v, good in zip(values, ok.tolist())]
    try:
        measures = np.array(values, dtype=np.float64)
    except OverflowError:  # an int no float can hold
        fits = np.fromiter(
            (type(v) is not int or -_INT_LIMIT < v < _INT_LIMIT
             for v in values),
            dtype=bool, count=len(values),
        )
        values = [v if good else 0.0 for v, good in zip(values, fits.tolist())]
        measures = np.array(values, dtype=np.float64)
        ok &= fits
    ok &= np.isfinite(measures)
    if dtype is None:
        return measures, ok
    if not np.can_cast(np.float64, dtype, "same_kind"):
        # the lossless-cast check of validate_measure, per value
        with np.errstate(invalid="ignore", over="ignore"):
            exact = measures.astype(dtype) == measures
        ok &= ~is_float | exact
    # np.asarray of an int inside int64 is int64, as the check assumes
    if np.can_cast(np.int64, dtype, "same_kind"):
        ok &= ~is_int | (np.abs(measures) < 2.0 ** 63)
    else:
        ok &= ~is_int
    return measures, ok
