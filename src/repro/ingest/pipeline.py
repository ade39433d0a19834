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

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

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

#: one buffered encoded row: (source offset, cell coords, delta,
#: original record — kept so a row expired by its own group's roll can
#: dead-letter with its source contents, not just the encoded cell)
Row = Tuple[int, Tuple[int, ...], float, object]


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
        buffer: List[Row] = []
        buf_start = buf_end = offset
        for chunk_offset, records in self.source.chunks(offset):
            self._boundary("chunk")
            self.metrics.inc(chunks_read=1, rows_read=len(records))
            buffer.extend(self._encode_chunk(chunk_offset, records))
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
        rows = self._reencode_range(start, end, pending)
        pairs = _coalesce(rows)
        self.deadletter.sync()
        if pairs:
            self.target.resubmit_missing(
                pairs, pending["expect"], timeout=self.submit_timeout
            )
        self.checkpoint.save(self._committed_state(end))
        self.deadletter.truncate_from(end)
        return end

    def _reencode_range(self, start: int, end: int, pending: Dict
                        ) -> List[Row]:
        self.target.restore(pending.get("target_state", {}))
        rows: List[Row] = []
        for chunk_offset, records in self.source.chunks(start):
            if chunk_offset >= end:
                break
            take = records[: max(0, end - chunk_offset)]
            rows.extend(self._encode_chunk(chunk_offset, take))
        return rows

    # -- encode --------------------------------------------------------------

    def _quarantine(self, offset: int, reason: str, error, record) -> None:
        self.deadletter.append(offset, reason, str(error), record)
        self.metrics.inc(rows_quarantined=1)
        self.metrics.inc_key("quarantine_reasons", reason)

    def _encode_chunk(self, chunk_offset: int, records) -> List[Row]:
        rows: List[Row] = []
        for i, record in enumerate(records):
            offset = chunk_offset + i
            try:
                coords = self._encode_coords(record)
            except SchemaError as error:
                self._quarantine(offset, "schema", error, record)
                continue
            except EncodingError as error:
                self._quarantine(offset, "encoding", error, record)
                continue
            except _BadTime as error:
                self._quarantine(offset, "bad_time", error, record)
                continue
            except _BadMeasure as error:
                self._quarantine(offset, "measure_dtype", error, record)
                continue
            ok, reason = self.target.admit(coords[0])
            if not ok:
                self._quarantine(
                    offset, reason,
                    f"cell {coords[0]} not admissible", record,
                )
                continue
            rows.append((offset, coords[0], coords[1], record))
        return rows

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

    def _commit_group(self, rows: List[Row], start: int, end: int) -> None:
        if rows:
            # the roll comes first: opening the group's top slot may
            # expire slots earlier rows were admitted under, and the
            # intent's expected sequence must account for any slab-
            # zeroing groups the advance submits
            before = getattr(self.target, "roller", None)
            newest_before = before.newest_slot if before else None
            pairs_to_roll = [(c, d) for _, c, d, _ in rows]
            self._retry_on_overload(
                lambda: self.target.prepare(
                    pairs_to_roll, timeout=self.submit_timeout
                )
            )
            if before is not None and before.newest_slot != newest_before:
                self.metrics.inc(rolls=before.newest_slot - newest_before)
            self._boundary("roll")
            admitted: List[Row] = []
            for offset, coords, delta, record in rows:
                ok, reason = self.target.admit(coords)
                if ok:
                    admitted.append((offset, coords, delta, record))
                else:
                    self._quarantine(
                        offset, reason,
                        f"cell {coords} expired during the group's roll",
                        record,
                    )
            rows = admitted
        self.deadletter.sync()
        self._boundary("deadletter")
        pairs = _coalesce(rows)
        if pairs:
            expect = self.target.expect(pairs)
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
            self._submit_with_backpressure(pairs, expect)
            self.metrics.inc(rows_applied=len(rows))
            self._boundary("submit")
        self.checkpoint.save(self._committed_state(end))
        self._boundary("checkpoint")
        self._adapt_group_size()

    def _submit_with_backpressure(self, pairs, expect) -> None:
        self._retry_on_overload(
            lambda: self.target.submit_fenced(
                pairs, expect, timeout=self.submit_timeout
            )
        )
        self.metrics.inc(groups_submitted=1, cells_submitted=len(pairs))

    def _retry_on_overload(self, operation) -> None:
        """Run ``operation`` under the overload backoff: each rejection
        shrinks future groups and waits before retrying. Used for both
        the fenced submit and the pre-submit roll — both must be safe
        to re-run as-is, which submits are (the intent is durable) and
        the roll is (``advance`` moves the window only past slabs whose
        zeroing group was acked)."""
        for attempt in range(self.max_submit_retries + 1):
            try:
                operation()
                return
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


def _coalesce(rows: List[Row]) -> List[Tuple[Tuple[int, ...], float]]:
    """Merge per-row deltas into one delta per touched cell.

    Columnar: one ``np.unique`` over the coordinate matrix plus one
    scatter-add — no Python dict of tuples. Output order is the sorted
    cell order ``np.unique`` defines, which makes replayed groups
    byte-identical to the originals.
    """
    if not rows:
        return []
    coords = np.asarray([row[1] for row in rows], dtype=np.intp)
    deltas = np.asarray([row[2] for row in rows], dtype=np.float64)
    cells, inverse = np.unique(coords, axis=0, return_inverse=True)
    sums = np.zeros(len(cells), dtype=np.float64)
    np.add.at(sums, inverse.reshape(-1), deltas)
    return [
        (tuple(int(c) for c in cell), float(total))
        for cell, total in zip(cells, sums)
    ]
