"""Snapshot-isolated, durable, fault-tolerant serving of a range-sum method.

The paper's structures are single-writer by construction: an update
cascades through shared arrays, so a reader that interleaves with it can
observe a half-applied state (a torn read). :class:`CubeService` makes
the trade the OLAP workload actually wants — heavy concurrent reads,
periodic batched writes — safe:

* **Readers** run against an immutable *snapshot*: a fully-built method
  instance that is never mutated while published. Any number of threads
  may query it concurrently (queries only read).
* **A single writer thread** drains queued deltas, coalesces them per
  cell with one array pass (:func:`~repro.serve.group.coalesce`: one
  1-D sort of packed cell keys plus a segment sum), applies them to
  the *back buffer* via the method's own ``apply_batch_array`` (so the
  RPS strategy planner — incremental, vectorized, or rebuild — still
  applies), and atomically swaps the back buffer in as the new
  snapshot.
* After the swap the writer waits for in-flight readers to drain off the
  retired snapshot, then replays the same batch onto it — classic
  double buffering: each batch is applied twice, but no reader ever
  sees a structure mid-cascade, and batch cost stays proportional to
  the batch (no per-batch rebuild).

Consistency contract: every read observes the state after some prefix
of the submitted update groups — never a partially applied group. Each
``submit_*`` call is one atomic group; the snapshot ``version`` equals
the number of groups processed, so ``query_many`` callers can correlate
results with an exact logical state.

On top of that, this layer makes the service *production-shaped*:

* **Durability** (:class:`~repro.serve.wal.DurabilityPolicy`): each
  submitted group is appended to a checksummed write-ahead log — and
  fsynced — *before* the submit call returns, checkpoints bound replay,
  and :meth:`CubeService.recover` restores the committed prefix after a
  crash (torn WAL tails are truncated, corrupt checkpoints fall back).
* **Overload control**: ``max_pending_groups`` bounds the submission
  backlog; a full queue raises
  :class:`~repro.errors.ServiceOverloadedError` after the caller's
  ``timeout`` instead of buffering without limit (pair with
  :mod:`repro.serve.retry` for jittered backoff).
* **Supervision**: a group whose ``apply_batch`` raises no longer kills
  the writer — the poisoned group is quarantined, the back buffer is
  rebuilt from the last published state, and serving continues.
  :meth:`self_check` verifies snapshot integrity on demand and rebuilds
  both buffers on a mismatch.
* **Fault injection** (:class:`~repro.faults.FaultPlan`): deterministic
  torn writes, write failures, latency spikes, and writer crashes for
  reproducible chaos tests.
"""

from __future__ import annotations

import copy
import queue
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import RangeSumMethod
from repro.deadline import Deadline
from repro.errors import (
    RecoveryError,
    ReproError,
    ServiceOverloadedError,
)
from repro.metrics.registry import MetricsRegistry
from repro.serve import wal as wal_mod
from repro.serve.group import UpdateGroup, coalesce
from repro.serve.wal import DurabilityPolicy, WriteAheadLog


class ServiceClosedError(ReproError):
    """Raised when submitting to or querying a closed service."""


#: queue sentinel: wakes the writer immediately at close/abandon time
_CLOSE = object()


class _Rebuild:
    """Queue token asking the writer to rebuild both buffers in place."""

    __slots__ = ("event", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.error: Optional[BaseException] = None


class _Snapshot:
    """One published state: a method instance plus reader accounting.

    ``version`` is the number of update groups folded in. ``active`` is
    the count of in-flight reader calls; the writer mutates the instance
    only while it is unpublished *and* ``active == 0``.
    """

    __slots__ = ("method", "version", "active", "cond")

    def __init__(self, method: RangeSumMethod, version: int) -> None:
        self.method = method
        self.version = version
        self.active = 0
        self.cond = threading.Condition(threading.Lock())


class CubeService:
    """Serve one data cube to concurrent readers during batched writes.

    Args:
        method_cls: any :class:`~repro.core.base.RangeSumMethod`
            subclass. One instance is built (the front buffer) and the
            back buffer is a ``copy.deepcopy`` of it, so the paper's
            O(n^d) build runs once per service (and once per repair).
        array: the initial dense cube.
        method_kwargs: forwarded to every construction (box sizes etc.).
        poll_seconds: writer heartbeat while idle. The writer blocks on
            the queue (submits and ``close()`` wake it immediately via
            the queue itself), so this only bounds how often an idle
            writer re-checks lifecycle state — it is not a busy-wait.
        max_groups_per_cycle: most queued groups merged into one
            ``apply_batch`` cycle (bounds swap latency under a firehose).
        durability: optional
            :class:`~repro.serve.wal.DurabilityPolicy`; when set, every
            submitted group is WAL-logged before it is acknowledged and
            checkpoints are written every ``checkpoint_every`` groups.
            Recover a crashed service's directory with :meth:`recover`.
        max_pending_groups: bound on submitted-but-unapplied groups;
            ``submit_batch`` blocks up to its ``timeout`` for space and
            then raises :class:`~repro.errors.ServiceOverloadedError`.
            ``None`` (default) keeps the queue unbounded.
        fault_plan: optional :class:`~repro.faults.FaultPlan` consulted
            by the WAL layer and the writer loop — deterministic chaos
            for tests.

    Use as a context manager, or call :meth:`close` explicitly — the
    writer is a daemon thread, but an orderly close drains the queue::

        with CubeService(RelativePrefixSumCube, cube) as svc:
            svc.submit_batch([((3, 4), +10), ((0, 1), -2)])
            svc.flush()
            total = svc.total()
    """

    def __init__(
        self,
        method_cls,
        array: np.ndarray,
        *,
        method_kwargs: Optional[Dict] = None,
        poll_seconds: float = 0.25,
        max_groups_per_cycle: int = 1024,
        durability: Optional[DurabilityPolicy] = None,
        max_pending_groups: Optional[int] = None,
        fault_plan=None,
        _initial_version: int = 0,
    ) -> None:
        kwargs = dict(method_kwargs or {})
        source = np.asarray(array)
        self._method_cls = method_cls
        self._method_kwargs = kwargs
        initial = int(_initial_version)
        self._front = _Snapshot(method_cls(source, **kwargs), version=initial)
        self._back = copy.deepcopy(self._front.method)
        self.shape = self._front.method.shape
        self.metrics = MetricsRegistry(
            counters=(
                "read_calls", "queries_served", "updates_submitted",
                "updates_applied", "updates_coalesced", "batches_applied",
                # failure visibility: each counter names a distinct bad day
                "reader_retries", "writer_errors", "groups_quarantined",
                "rebuilds",
                # durability path
                "wal_appends", "wal_bytes", "wal_fsyncs", "wal_failures",
                "checkpoints_written", "recovery_replays",
            ),
            # read_latency: per read call (one call may carry a whole
            # batch); apply_latency: per writer cycle (coalesce + apply
            # + swap + back-buffer catch-up); swap_wait: the writer's
            # wait for readers to drain off the retiring snapshot
            latencies=("read_latency", "apply_latency", "swap_wait"),
        )
        self._poll_seconds = float(poll_seconds)
        self._max_groups = int(max_groups_per_cycle)
        self._max_pending = (
            None if max_pending_groups is None else int(max_pending_groups)
        )
        if self._max_pending is not None and self._max_pending < 1:
            raise ValueError(
                f"max_pending_groups must be >= 1, got {self._max_pending}"
            )
        self._faults = fault_plan
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._state_lock = threading.Condition(threading.Lock())
        self._submitted_groups = initial
        self._applied_groups = initial
        self._completed_groups = initial
        self._closed = False
        self._abandoned = False
        self._writer_exited = False
        self._writer_error: Optional[BaseException] = None
        self._quarantined: List[Tuple[int, str]] = []
        self._durability = durability
        self._wal: Optional[WriteAheadLog] = None
        self._last_checkpoint_seq = initial
        if durability is not None:
            self._open_durability(initial)
        self._writer = threading.Thread(
            target=self._writer_loop, name="cube-service-writer", daemon=True
        )
        self._writer.start()

    def _open_durability(self, initial: int) -> None:
        """Open the WAL, refuse stale directories, seed a checkpoint."""
        policy = self._durability
        self._wal = WriteAheadLog(
            policy.dir,
            segment_max_bytes=policy.segment_max_bytes,
            sync=policy.fsync,
            faults=self._faults,
            metrics=self.metrics,
        )
        on_disk = self._wal.next_seq - 1
        checkpoints = wal_mod.list_checkpoints(policy.dir)
        if checkpoints:
            on_disk = max(on_disk, checkpoints[-1][0])
        if on_disk > initial:
            self._wal.close()
            raise RecoveryError(
                f"{policy.dir!s} already holds state up to group {on_disk}; "
                f"opening a fresh service at version {initial} would orphan "
                f"it — use CubeService.recover() instead"
            )
        # Always (re)write the seed checkpoint, even when a file with
        # this sequence already exists: a leftover ckpt-<initial> from
        # an earlier, unrelated run (e.g. a ckpt-0 of a different
        # dataset) would otherwise be trusted and a later recovery
        # would silently restore foreign state. save_method's
        # write-temp-then-os.replace makes the overwrite crash-safe.
        wal_mod.write_checkpoint(self._front.method, policy.dir, initial)
        self.metrics.inc(checkpoints_written=1)
        self._last_checkpoint_seq = initial
        wal_mod.prune_checkpoints(policy.dir, policy.keep_checkpoints)
        wal_mod.prune_wal(policy.dir, self._wal, policy.keep_checkpoints)

    # -- reader API ----------------------------------------------------------

    def _acquire(self) -> _Snapshot:
        """Pin the current snapshot against retirement while reading.

        Retry protocol: after registering on a snapshot, re-check that it
        is still published; the writer only mutates a snapshot once it is
        unpublished and its active count has hit zero, so a successful
        re-check guarantees the instance stays frozen until release.
        """
        while True:
            snap = self._front
            with snap.cond:
                snap.active += 1
            if snap is self._front:
                return snap
            self._release(snap)
            self.metrics.inc(reader_retries=1)

    def _release(self, snap: _Snapshot) -> None:
        with snap.cond:
            snap.active -= 1
            if snap.active == 0:
                snap.cond.notify_all()

    def _read(self, fn):
        if self._writer_error is not None:
            raise ServiceClosedError(
                "service writer died"
            ) from self._writer_error
        start = time.perf_counter()
        snap = self._acquire()
        try:
            result = fn(snap.method)
            version = snap.version
        finally:
            self._release(snap)
        return result, version, time.perf_counter() - start

    def _counted_read(self, fn, batch: bool = False):
        """``(result, version)`` of :meth:`_read`, counted as one read
        call serving ``len(result)`` queries if ``batch``, else one."""
        result, version, seconds = self._read(fn)
        self.metrics.inc(
            read_calls=1, queries_served=len(result) if batch else 1
        )
        self.metrics.observe("read_latency", seconds)
        return result, version

    def query_many(
        self, lows, highs, deadline: Optional[Deadline] = None
    ) -> Tuple[np.ndarray, int]:
        """Batched range sums plus the snapshot version that served them.

        The whole batch is answered by one snapshot — results are
        mutually consistent, and ``version`` names the exact logical
        state (number of update groups applied). An expired
        ``deadline`` raises
        :class:`~repro.errors.DeadlineExceededError` before the read.
        """
        if deadline is not None:
            deadline.check("query_many")
        return self._counted_read(
            lambda m: m.range_sum_many(lows, highs), batch=True
        )

    def range_sum_many(self, lows, highs) -> np.ndarray:
        """Batched range sums against one consistent snapshot."""
        return self.query_many(lows, highs)[0]

    def prefix_sum_many(self, targets) -> np.ndarray:
        """Batched prefix sums against one consistent snapshot."""
        return self._counted_read(
            lambda m: m.prefix_sum_many(targets), batch=True
        )[0]

    def range_sum(self, low: Sequence[int], high: Sequence[int]):
        """One range sum (snapshot-isolated like the batched calls)."""
        return self._counted_read(lambda m: m.range_sum(low, high))[0]

    def prefix_sum(self, target: Sequence[int]):
        """One prefix sum against the current snapshot."""
        return self._counted_read(lambda m: m.prefix_sum(target))[0]

    def cell_value(self, index: Sequence[int]):
        """One cell read against the current snapshot."""
        return self._counted_read(lambda m: m.cell_value(index))[0]

    def total(self):
        """Sum of the whole cube at the current snapshot."""
        return self._counted_read(lambda m: m.total())[0]

    @property
    def version(self) -> int:
        """Update groups visible to a reader acquiring a snapshot now."""
        with self._state_lock:
            return self._front.version

    def current_stamp(self) -> int:
        """The backend-protocol stamp: :attr:`version`, the ``int`` the
        double-buffered writer bumps atomically with every publish."""
        return self.version

    @property
    def last_submitted_seq(self) -> int:
        """Sequence number of the newest submitted group (0 if none).

        On a freshly :meth:`recover`-ed service this equals the highest
        committed sequence replayed from the log — the cluster layer
        compares it against an in-flight group's expected sequence to
        decide whether a failed submit actually committed before it
        raised (and must not be resubmitted).
        """
        with self._state_lock:
            return self._submitted_groups

    # -- writer API ----------------------------------------------------------

    def submit_delta(
        self, index: Sequence[int], delta, *, timeout: Optional[float] = None
    ) -> int:
        """Queue one cell delta as its own atomic group; returns the
        group's sequence number (compare with :attr:`version`)."""
        return self.submit_batch([(index, delta)], timeout=timeout)

    def submit_batch(
        self,
        updates: Iterable[Tuple[Sequence[int], object]],
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> int:
        """Queue one atomic group of ``(index, delta)`` updates.

        The group is applied in a single ``apply_batch`` cycle — readers
        either see all of it or none of it. Returns the group's sequence
        number: once :attr:`version` reaches it, every read reflects it.

        With durability configured, the group is appended to the WAL
        (and fsynced, per the policy) *before* this method returns — a
        sequence number in hand means the group survives a crash.

        Args:
            updates: the ``(index, delta)`` pairs of the group, or an
                :class:`~repro.serve.group.UpdateGroup` — pairs are
                converted to one once, here, and the same arrays serve
                the WAL append and the writer's apply.
            timeout: with a bounded queue (``max_pending_groups``), how
                long to wait for backlog space before raising
                :class:`~repro.errors.ServiceOverloadedError`; ``None``
                waits indefinitely.
            deadline: the caller's budget; an expired one raises
                :class:`~repro.errors.DeadlineExceededError` before
                anything is queued, a live one bounds ``timeout``.
        """
        if deadline is not None:
            deadline.check("submit_batch")
            timeout = deadline.bound(timeout)
        group = UpdateGroup.of(updates, len(self.shape))
        indices, deltas = group.cells, group.deltas
        give_up_at = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._state_lock:
            while True:
                if self._writer_error is not None:
                    # Nothing enqueued now can ever be applied; failing
                    # the submit is the only honest answer.
                    raise ServiceClosedError(
                        "service writer died"
                    ) from self._writer_error
                if self._closed:
                    raise ServiceClosedError(
                        "service is closed to new updates"
                    )
                pending = self._submitted_groups - self._completed_groups
                if self._max_pending is None or pending < self._max_pending:
                    break
                remaining = (
                    None if give_up_at is None
                    else give_up_at - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise ServiceOverloadedError(
                        f"submission queue full ({pending} groups pending, "
                        f"limit {self._max_pending}); back off and retry"
                    )
                self._state_lock.wait(remaining)
            seq = self._submitted_groups + 1
            if self._wal is not None:
                # Written (buffered) under the lock so append order ==
                # sequence order == queue order. The expensive fsync
                # happens below, outside the lock — the commit point is
                # still before the ack, but readers, stats(), and the
                # writer's publish path never serialize behind the disk.
                self._wal.append(seq, indices, deltas, sync=False)
            self._submitted_groups = seq
            # enqueue under the lock so queue order == sequence order
            self._queue.put((seq, indices, deltas))
        if self._wal is not None:
            # Group commit: concurrent submitters share one fsync. On
            # an fsync failure this raises — the group is not acked and
            # the poisoned log refuses further appends (read-only
            # degradation), though the unacknowledged group may still
            # be applied in memory; either surviving or vanishing at
            # recovery respects the acked-prefix contract.
            self._wal.sync_upto(seq)
        self.metrics.inc(updates_submitted=len(group))
        return seq

    def flush(self, timeout: Optional[float] = None) -> int:
        """Block until every group submitted so far is applied.

        Returns the applied-group count (== the version any subsequent
        read will see at minimum). Waits for the whole writer cycle —
        including the retired buffer's catch-up and the metrics record —
        so ``stats()`` after a flush reflects every awaited group.
        Raises on writer death, writer exit with the awaited groups
        still unapplied (``abandon()`` racing the wait), or timeout.
        """
        with self._state_lock:
            target = self._submitted_groups
            deadline = None if timeout is None else time.monotonic() + timeout
            while self._completed_groups < target:
                if self._writer_error is not None:
                    raise ServiceClosedError(
                        "service writer died"
                    ) from self._writer_error
                if self._writer_exited:
                    # the writer is gone for good (abandon, or a close
                    # that discarded the queue): the awaited groups will
                    # never complete, so fail now rather than sleeping
                    # out the caller's timeout
                    raise ServiceClosedError(
                        f"service writer exited with "
                        f"{self._completed_groups}/{target} groups "
                        f"completed"
                    )
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    # report the count the wait condition actually
                    # tracks — _applied_groups can run ahead of it by
                    # one in-flight cycle
                    raise TimeoutError(
                        f"flush timed out at {self._completed_groups}/"
                        f"{target} groups completed"
                    )
                self._state_lock.wait(remaining)
            return self._applied_groups

    # -- health --------------------------------------------------------------

    def snapshot_digest(self) -> Tuple[int, str]:
        """``(version, sha256)`` of the published snapshot's dense array.

        The digest covers the reconstructed values plus shape and dtype,
        so two services hold identical logical state *iff* their digests
        match at equal versions. This is the anti-entropy hook the
        cluster scrubber compares across replicas; it reads through the
        normal snapshot pin, so it is safe against concurrent writes.
        """
        import hashlib

        def digest(method: RangeSumMethod) -> str:
            array = np.ascontiguousarray(method.to_array())
            h = hashlib.sha256()
            h.update(str(array.shape).encode())
            h.update(str(array.dtype).encode())
            h.update(array.tobytes())
            return h.hexdigest()

        value, version = self._counted_read(digest)
        return version, value

    def snapshot_array(self) -> Tuple[np.ndarray, int]:
        """``(dense array copy, version)`` of the published snapshot.

        Reads through the normal snapshot pin like
        :meth:`snapshot_digest`; the cluster's reshard path uses it to
        seed degraded-read aggregates and verify migrated slabs against
        their sources without reaching into method internals.
        """
        return self._counted_read(
            lambda method: np.array(method.to_array(), copy=True)
        )

    def quarantined_groups(self) -> Tuple[Tuple[int, str], ...]:
        """Poisoned groups skipped by supervision: ``(seq, error)``."""
        with self._state_lock:
            return tuple(self._quarantined)

    def self_check(
        self,
        probes: int = 16,
        seed: int = 0,
        repair: bool = True,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> Dict:
        """Verify the published snapshot; optionally repair a bad one.

        Samples ``probes`` random range sums on the current snapshot and
        checks them against its own reconstructed array (the method's
        :meth:`~repro.core.base.RangeSumMethod.verify` invariant). On a
        mismatch with ``repair=True``, the writer rebuilds both buffers
        from the reconstructed array and the check runs again.

        Args:
            probes: sampled range sums per verification pass.
            seed: seeds the probe sampler.
            repair: rebuild both buffers on a failed check.
            timeout: how long to wait for the writer to finish the
                repair rebuild before raising :class:`TimeoutError`
                (default 300 s — a rebuild behind a deep backlog is
                still a rebuild, but a caller with its own budget, like
                the cluster scrubber, should pass a tighter bound).
            deadline: optional :class:`~repro.deadline.Deadline` that
                caps ``timeout`` to the caller's remaining budget.

        Returns a report dict: ``ok`` (final verdict), ``version``,
        ``repaired``, and ``error`` (the first failure message, if any).
        For the stronger guarantee — rebuilding from the durable log
        instead of the in-memory state — stop the service and use
        :meth:`recover`.
        """
        report = {"ok": True, "version": 0, "repaired": False, "error": None}

        def check() -> bool:
            values, version, _ = self._read(
                lambda m: m.verify(probes=probes, seed=seed)
            )
            report["version"] = version
            return True

        try:
            check()
            return report
        except ServiceClosedError:
            raise
        except ReproError as err:
            report["ok"] = False
            report["error"] = str(err)
        if not repair:
            return report
        with self._state_lock:
            if self._closed or self._writer_error is not None:
                return report
        if deadline is not None:
            wait = deadline.bound(timeout)
        elif timeout is not None:
            wait = float(timeout)
        else:
            wait = 300.0
        token = _Rebuild()
        self._queue.put(token)
        start = time.monotonic()
        if not token.event.wait(timeout=wait):
            elapsed = time.monotonic() - start
            raise TimeoutError(
                f"snapshot rebuild did not complete within {wait:.3f}s "
                f"(waited {elapsed:.3f}s at version {report['version']})"
            )
        if token.error is not None:
            return report
        try:
            check()
            report["ok"] = True
            report["repaired"] = True
        except ReproError as err:
            report["error"] = str(err)
        return report

    # -- lifecycle -----------------------------------------------------------

    def close(self, timeout: Optional[float] = 30.0) -> None:
        """Stop accepting updates, drain the queue, stop the writer.

        With durability configured, a final checkpoint is written and
        the WAL pruned, so the next open replays nothing.
        """
        with self._state_lock:
            already = self._closed
            self._closed = True
        if not already:
            self._queue.put(_CLOSE)  # wake the writer immediately
        self._writer.join(timeout)
        if self._writer.is_alive():
            raise TimeoutError("service writer did not stop in time")
        if self._writer_error is not None:
            if self._wal is not None:
                self._wal.close()
            raise ServiceClosedError(
                "service writer died"
            ) from self._writer_error
        if self._wal is not None and not self._abandoned:
            with self._state_lock:
                completed = self._completed_groups
            if completed > self._last_checkpoint_seq:
                self._write_checkpoint(self._back, completed)
            self._wal.close()

    def abandon(self) -> None:
        """Crash-simulation hook: stop serving *without* draining.

        Queued groups are discarded, no final checkpoint is written, and
        the WAL handle is closed without a sync — the durability
        directory is left exactly as a power loss would leave it, which
        is what :meth:`recover` and the chaos tests need. The in-memory
        service is unusable afterwards.
        """
        with self._state_lock:
            self._closed = True
            self._abandoned = True
        self._queue.put(_CLOSE)
        self._writer.join(timeout=10.0)
        if self._wal is not None:
            self._wal.close(sync=False)

    def __enter__(self) -> "CubeService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def stats(self) -> Dict:
        """Operational snapshot: version, backlog, health, and metrics.

        Version and group counters are read in one ``_state_lock``
        acquisition (the lock is not reentrant, so this reads
        ``_front.version`` directly rather than via :attr:`version`), and
        the writer publishes the new snapshot and bumps
        ``_applied_groups`` under the same lock — the report is
        internally consistent: ``version <= groups_applied`` always.
        """
        with self._state_lock:
            version = self._front.version
            submitted = self._submitted_groups
            applied = self._applied_groups
            completed = self._completed_groups
            quarantined = len(self._quarantined)
        report = self.metrics.snapshot()
        report.update(
            # every writer cycle publishes exactly one snapshot swap
            swaps=report["batches_applied"],
            version=version,
            groups_submitted=submitted,
            groups_applied=applied,
            groups_pending=submitted - applied,
            # the true submission backlog: groups the writer has not
            # fully cycled yet (including the retired buffer's catch-up)
            # — what a health monitor or dashboard should alarm on,
            # without reaching into private counters
            queue_depth=submitted - completed,
            wal_bytes_written=report["wal_bytes"],
            quarantined_groups=quarantined,
            wal_enabled=self._wal is not None,
            wal_failed=self._wal.failed if self._wal is not None else False,
            last_checkpoint_seq=(
                self._last_checkpoint_seq if self._wal is not None else None
            ),
        )
        return report

    # -- recovery ------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        directory,
        method_cls=None,
        *,
        method_kwargs: Optional[Dict] = None,
        durability: Optional[DurabilityPolicy] = None,
        **service_kwargs,
    ) -> "CubeService":
        """Restore a service from a durability directory after a crash.

        Loads the newest valid checkpoint (a corrupt one falls back to
        the previous), truncates any torn WAL tail, replays every
        committed group past the checkpoint through ``apply_batch``, and
        resumes serving at the recovered ``version`` — appending new
        groups to the same log. The recovered state is always the state
        after some prefix of the acknowledged groups: never a torn
        group, never a lost acked-and-fsynced one.

        Args:
            directory: the durability directory of the dead service.
            method_cls: optionally rebuild under a different method
                class than the checkpoint recorded.
            method_kwargs: forwarded to method construction (defaults to
                the persisted box sizes, when the method has them).
            durability: policy for the resumed service (defaults to
                ``DurabilityPolicy(dir=directory)``).
            **service_kwargs: forwarded to the constructor
                (``max_pending_groups``, ``fault_plan``...).
        """
        state = wal_mod.recover_state(
            directory, method_cls, method_kwargs=method_kwargs
        )
        method = state.method
        kwargs = method_kwargs
        if kwargs is None:
            box_sizes = getattr(method, "box_sizes", None)
            kwargs = {"box_size": box_sizes} if box_sizes is not None else {}
        if durability is None:
            durability = DurabilityPolicy(dir=directory)
        service = cls(
            type(method),
            method.to_array(),
            method_kwargs=kwargs,
            durability=durability,
            _initial_version=state.version,
            **service_kwargs,
        )
        service.metrics.inc(
            recovery_replays=state.replayed_groups,
            groups_quarantined=len(state.quarantined),
        )
        if state.quarantined:
            with service._state_lock:
                service._quarantined.extend(state.quarantined)
        service.last_recovery = state
        return service

    # -- the writer ----------------------------------------------------------

    def _writer_loop(self) -> None:
        try:
            while True:
                try:
                    first = self._queue.get(timeout=self._poll_seconds)
                except queue.Empty:
                    with self._state_lock:
                        if (
                            self._closed
                            and self._applied_groups
                            == self._submitted_groups
                        ):
                            return
                    continue
                if self._abandoned:
                    return
                if first is _CLOSE:
                    with self._state_lock:
                        if (
                            self._applied_groups == self._submitted_groups
                        ):
                            return
                    continue
                if isinstance(first, _Rebuild):
                    self._handle_rebuild(first)
                    continue
                groups = [first]
                deferred = None
                while len(groups) < self._max_groups:
                    try:
                        item = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if item is _CLOSE or isinstance(item, _Rebuild):
                        deferred = item
                        break
                    groups.append(item)
                self._apply_groups(groups)
                self._maybe_checkpoint()
                if deferred is not None:
                    if isinstance(deferred, _Rebuild):
                        self._handle_rebuild(deferred)
                    else:
                        # consumed the close sentinel early: re-queue it
                        # behind any groups still waiting
                        self._queue.put(_CLOSE)
        except BaseException as error:  # surface to readers/flushers
            self.metrics.inc(writer_errors=1)
            with self._state_lock:
                self._writer_error = error
                self._state_lock.notify_all()
        finally:
            # every exit path (clean drain, abandon, death) wakes
            # blocked flush()/submit_batch() waiters so they can fail
            # promptly instead of sleeping out their timeouts
            with self._state_lock:
                self._writer_exited = True
                self._state_lock.notify_all()

    @staticmethod
    def _coalesce(
        idx: np.ndarray, deltas: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Merge per-cell deltas in one array pass (one 1-D sort of
        packed cell keys, then a segment sum) and drop cells whose
        deltas cancelled. Out-of-range cells coalesce like any other:
        the apply, not this, rejects a poisoned group."""
        unique, summed = coalesce(idx, deltas)
        live = summed != 0
        return unique[live], summed[live]

    def _apply_groups(self, groups) -> None:
        """One double-buffered write cycle over whole submitted groups.

        Supervised: an ``apply_batch`` failure quarantines the poisoned
        group(s) and rebuilds the buffers instead of killing the writer.
        """
        if self._faults is not None:
            extra = 0.0
            for seq, _, _ in groups:
                # an injected writer crash propagates — that is the point
                extra += self._faults.on_apply_group(seq)
            if extra:
                time.sleep(extra)
        if self._wal is not None:
            # Publish-durability barrier: submitters enqueue before they
            # fsync (group commit), so make the batch durable before any
            # reader can observe it — a crash must never lose a state
            # some read already saw. On a poisoned log the submitter
            # already got the failure; apply the unacked tail
            # best-effort and keep serving.
            try:
                self._wal.sync_upto(groups[-1][0])
            except ReproError:
                pass
        start = time.perf_counter()
        merged_idx = np.concatenate([idx for _, idx, _ in groups])
        merged_deltas = np.concatenate([d for _, _, d in groups])
        submitted = len(merged_idx)
        indices, deltas = self._coalesce(merged_idx, merged_deltas)
        applied = len(indices)
        retired = self._front
        spare = None
        try:
            if applied:
                self._back.apply_batch_array(indices, deltas)
            fresh_method = self._back
        except Exception:
            # the back buffer may be mid-cascade: discard it, rebuild
            # from the last published state, and skip only the groups
            # that actually fail on their own
            self.metrics.inc(writer_errors=1)
            fresh_method = self._rebuild_with_quarantine(groups)
            # the retired buffer cannot replay a quarantined group
            # either; its successor is a copy of the rebuilt state, taken
            # before readers can reach (and charge reads to) the original
            spare = copy.deepcopy(fresh_method)
        fresh = _Snapshot(fresh_method, retired.version + len(groups))
        # Publish the snapshot and the applied-group counter in one
        # critical section so stats()/flush() never observe a version
        # ahead of groups_applied (or vice versa). The cycle's counts
        # land first, so a flush()-then-stats() sees every awaited cycle.
        self.metrics.inc(
            batches_applied=1,
            updates_applied=applied,
            updates_coalesced=submitted - applied,
        )
        with self._state_lock:
            self._front = fresh
            self._applied_groups = groups[-1][0]
        # Wait out readers still pinned to the retired snapshot, then
        # catch it up off-line; it becomes the next cycle's back buffer.
        wait_start = time.perf_counter()
        with retired.cond:
            while retired.active:
                retired.cond.wait()
        swap_wait = time.perf_counter() - wait_start
        if spare is not None:
            self._back = spare
        else:
            if applied:
                retired.method.apply_batch_array(indices, deltas)
            self._back = retired.method
        self.metrics.observe("apply_latency", time.perf_counter() - start)
        self.metrics.observe("swap_wait", swap_wait)
        with self._state_lock:
            self._completed_groups = groups[-1][0]
            self._state_lock.notify_all()

    def _rebuild_with_quarantine(self, groups) -> RangeSumMethod:
        """Re-apply a failed cycle group-by-group on a fresh buffer.

        The last published snapshot is the rollback point: its array is
        rebuilt into a new method instance, each group is applied alone,
        and a group that still fails is quarantined — recorded, counted,
        and skipped — so one poisoned group cannot take the service
        down. Mirrors the replay-side quarantine in
        :func:`repro.serve.wal.recover_state`.
        """
        base = self._front.method.to_array()
        method = self._method_cls(base, **self._method_kwargs)
        self.metrics.inc(rebuilds=1)
        for seq, indices, deltas in groups:
            if not len(indices):
                continue
            try:
                method.apply_batch_array(indices, deltas)
            except Exception as error:
                with self._state_lock:
                    self._quarantined.append((seq, repr(error)))
                self.metrics.inc(groups_quarantined=1)
        return method

    def _handle_rebuild(self, token: _Rebuild) -> None:
        """Rebuild the published snapshot from its array; the back
        buffer becomes a copy of the rebuild."""
        try:
            retired = self._front
            method = self._method_cls(
                retired.method.to_array(), **self._method_kwargs
            )
            # copied before publishing: readers charge the front's ledger
            spare = copy.deepcopy(method)
            fresh = _Snapshot(method, retired.version)
            self.metrics.inc(rebuilds=1)
            with self._state_lock:
                self._front = fresh
            with retired.cond:
                while retired.active:
                    retired.cond.wait()
            self._back = spare
        except BaseException as error:
            token.error = error
            self.metrics.inc(writer_errors=1)
        finally:
            token.event.set()

    def _maybe_checkpoint(self) -> None:
        """Periodic checkpoint from the caught-up back buffer."""
        if self._wal is None:
            return
        every = self._durability.checkpoint_every
        if every <= 0:
            return
        with self._state_lock:
            completed = self._completed_groups
        if completed - self._last_checkpoint_seq < every:
            return
        self._write_checkpoint(self._back, completed)

    def _write_checkpoint(self, method: RangeSumMethod, seq: int) -> None:
        """Best-effort checkpoint + prune; failures degrade, not kill —
        the WAL still holds everything since the last good checkpoint."""
        policy = self._durability
        try:
            wal_mod.write_checkpoint(method, policy.dir, seq)
            self._last_checkpoint_seq = seq
            self.metrics.inc(checkpoints_written=1)
            wal_mod.prune_checkpoints(policy.dir, policy.keep_checkpoints)
            wal_mod.prune_wal(policy.dir, self._wal, policy.keep_checkpoints)
        except Exception:
            self.metrics.inc(writer_errors=1)
