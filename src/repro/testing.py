"""Conformance harness for custom :class:`RangeSumMethod` implementations.

Downstream users adding their own structure (a new blocking scheme, a
compressed variant...) can validate it against the interface contract in
one call::

    from repro.testing import assert_method_correct
    assert_method_correct(MyCube)

The harness drives construction, queries, point updates, set-updates,
batches, reconstruction, and counter discipline against a brute-force
oracle over randomized cubes (several shapes and dtypes), raising
``AssertionError`` with a reproducible seed on the first violation. The
library's own methods are checked with exactly this harness in
``tests/test_conformance.py``.

:func:`assert_method_correct` also exercises the batched query kernels
(``prefix_sum_many`` / ``range_sum_many``) and the array-signature batch
updates (``apply_batch_array``); use
:func:`assert_batch_queries_correct` or
:func:`assert_batch_updates_correct` alone for a focused check that a
custom vectorized kernel matches the looped path in both values and
counter charges.

:class:`VersionOracle` is the one brute-force truth for stacks that
serve snapshot-stamped answers (services, routers, clusters, the socket
tier, ingest targets): it folds each acknowledged update group into the
next version, and :meth:`VersionOracle.check` holds every answer to the
exact sum at the version it is stamped with — or, for an explicit
degraded :class:`~repro.cluster.RangeEstimate`, to an interval that
contains that sum. The test suite, the chaos soak
(``tools/chaos_soak.py``), the cluster workload runner and the N1
benchmark all check through it.
"""

from __future__ import annotations

import threading
from typing import Sequence, Tuple, Type

import numpy as np

from repro.core.base import RangeSumMethod
from repro.workloads.querygen import random_range, random_ranges
from repro.workloads.updategen import random_group

DEFAULT_SHAPES: Tuple[Tuple[int, ...], ...] = (
    (13,),
    (9, 9),
    (10, 7),
    (5, 6, 4),
)


def box_sum(array, low, high):
    """Brute-force sum of the inclusive box ``[low, high]`` of ``array``."""
    return array[
        tuple(slice(int(l), int(h) + 1) for l, h in zip(low, high))
    ].sum()


class VersionOracle:
    """Brute-force truth at every acknowledged version of one cube.

    Version 0 is ``initial``; :meth:`record` folds in one acknowledged
    update group and returns the version it produces, mirroring a
    service whose ``n``-th acked group publishes version ``n``. States
    are materialised lazily, from the nearest folded version below, and
    only the newest :attr:`MAX_STATES` are kept (version 0 always is).
    Writers may record while reader threads check.
    """

    MAX_STATES = 64

    def __init__(self, initial) -> None:
        self._groups: list = []
        self._states = {0: np.array(initial, copy=True)}
        self._lock = threading.Lock()

    @property
    def version(self) -> int:
        """The newest acknowledged version."""
        return len(self._groups)

    def record(self, group) -> int:
        """Fold one acknowledged ``[(cell, delta), ...]`` group; return
        the new version."""
        group = [(tuple(int(c) for c in cell), delta) for cell, delta in group]
        with self._lock:
            self._groups.append(group)
            return len(self._groups)

    def state(self, version) -> np.ndarray:
        """The dense cube at ``version`` (read-only by convention).

        Raises:
            ValueError: ``version`` is not an integer in ``[0, acked]`` —
                a stamp that names a snapshot which never existed.
        """
        with self._lock:
            acked = len(self._groups)
            if (
                isinstance(version, bool)
                or not isinstance(version, (int, np.integer))
                or not 0 <= version <= acked
            ):
                raise ValueError(
                    f"stamp {version!r} names no acknowledged version "
                    f"(0..{acked})"
                )
            version = int(version)
            state = self._states.get(version)
            if state is None:
                base = max(v for v in self._states if v < version)
                state = self._states[base].copy()
                for group in self._groups[base:version]:
                    for cell, delta in group:
                        state[cell] += delta
                self._states[version] = state
                if len(self._states) > self.MAX_STATES:
                    del self._states[min(v for v in self._states if v)]
            return state

    def box_sum(self, low, high, version):
        """The true sum of box ``[low, high]`` at ``version``."""
        return box_sum(self.state(version), low, high)

    def check(self, lows, highs, values, stamp, estimates=None) -> list:
        """Hold each answer to the truth at its stamp; return mismatches.

        ``stamp`` is one version for the whole batch or one per box.
        Answer ``i`` must equal the box sum at its stamp exactly, unless
        ``estimates[i]`` is not ``None``: then it must be marked
        ``estimate=True`` and its ``[low, high]`` interval must contain
        the truth. A stamp outside ``[0, acked]`` is itself a mismatch.
        The result is a list of JSON-friendly dicts, empty when every
        answer holds.
        """
        stamps = (
            [stamp] * len(values) if np.ndim(stamp) == 0 else list(stamp)
        )
        if estimates is None:
            estimates = [None] * len(values)
        if not len(lows) == len(highs) == len(values) == len(stamps) == len(
            estimates
        ):
            return [{"error": "answer count does not match the boxes"}]
        mismatches = []
        for i, (lo, hi, value, at, est) in enumerate(
            zip(lows, highs, values, stamps, estimates)
        ):
            try:
                truth = self.box_sum(lo, hi, at)
            except ValueError as error:
                found = {"error": str(error)}
            else:
                if est is None:
                    ok = value == truth
                else:
                    ok = est.estimate is True and est.low <= truth <= est.high
                if ok:
                    continue
                found = {
                    "stamp": int(at), "value": float(value),
                    "expect": float(truth), "estimate": repr(est),
                }
            box = ([int(c) for c in lo], [int(c) for c in hi])
            mismatches.append({"index": i, "box": box, **found})
        return mismatches

    def check_array(self, actual, stamp) -> list:
        """:meth:`check` every cell of a dense ``actual`` cube at one
        acknowledged stamp: empty when it equals the oracle cell for
        cell."""
        actual = np.asarray(actual)
        shape = self.state(stamp).shape
        if actual.shape != shape:
            return [{"error": f"shape {actual.shape} != oracle {shape}"}]
        cells = np.argwhere(np.ones(shape, dtype=bool))
        return self.check(cells, cells, actual.ravel(), stamp)


def assert_batch_queries_correct(
    method_cls: Type[RangeSumMethod],
    shapes: Sequence[Tuple[int, ...]] = DEFAULT_SHAPES,
    queries: int = 16,
    seed: int = 0,
    check_counters: bool = True,
    **method_kwargs,
) -> None:
    """Validate the batched query kernels of one method class.

    Drives ``prefix_sum_many`` and ``range_sum_many`` against the
    brute-force oracle *and* against the method's own looped path —
    including empty batches, ``Q = 1``, duplicated queries, and targets
    on box/cube boundaries. With ``check_counters`` (default) the
    batched calls must charge exactly the logical cell costs the looped
    calls charge, in total and per structure.

    Raises:
        AssertionError: on the first violation, with shape/seed context.
    """
    for shape in shapes:
        rng = np.random.default_rng(seed)
        array = rng.integers(-20, 20, size=shape)
        context = f"[{method_cls.__name__} shape={shape} seed={seed}]"
        looped = method_cls(array, **method_kwargs)
        batched = method_cls(array, **method_kwargs)
        d = len(shape)

        # empty batches are legal and charge nothing
        empty = np.empty((0, d), dtype=np.intp)
        before = batched.counter.snapshot()
        assert batched.prefix_sum_many(empty).shape == (0,), (
            f"{context} prefix_sum_many([]) must return shape (0,)"
        )
        assert batched.range_sum_many(empty, empty).shape == (0,), (
            f"{context} range_sum_many([], []) must return shape (0,)"
        )
        delta = before.delta(batched.counter)
        assert delta.cells_read == 0 and delta.cells_written == 0, (
            f"{context} empty batches must not charge the counter"
        )

        boxes = np.array(
            list(random_ranges(shape, queries, seed=rng)), dtype=np.intp
        )
        lows, highs = boxes[:, 0], boxes[:, 1]
        # boundary rows: the full cube, a single cell at each extreme,
        # and a duplicated row
        top = np.asarray(shape, dtype=np.intp) - 1
        extremes = np.array(
            [np.zeros(d, dtype=np.intp), top, np.zeros(d, dtype=np.intp)]
        )
        lows = np.vstack([lows, np.zeros((1, d), dtype=np.intp), extremes])
        highs = np.vstack([highs, top[np.newaxis], extremes])
        lows = np.vstack([lows, lows[:1]])  # duplicate of the first query
        highs = np.vstack([highs, highs[:1]])

        loop_before = looped.counter.snapshot()
        expected = [
            looped.range_sum(tuple(lo), tuple(hi))
            for lo, hi in zip(lows, highs)
        ]
        loop_cost = loop_before.delta(looped.counter)
        batch_before = batched.counter.snapshot()
        got = batched.range_sum_many(lows, highs)
        batch_cost = batch_before.delta(batched.counter)
        oracle = [
            box_sum(array, tuple(lo), tuple(hi))
            for lo, hi in zip(lows, highs)
        ]
        assert got.shape == (len(lows),), (
            f"{context} range_sum_many returned shape {got.shape}"
        )
        assert np.allclose(
            np.asarray(got, dtype=np.float64),
            np.asarray(oracle, dtype=np.float64),
        ), f"{context} range_sum_many diverged from the oracle"
        assert np.allclose(
            np.asarray(got, dtype=np.float64),
            np.asarray(expected, dtype=np.float64),
        ), f"{context} range_sum_many diverged from the looped path"
        assert np.isclose(
            float(got[-1]), float(got[0])
        ), f"{context} duplicated query rows answered differently"
        if check_counters:
            assert (
                loop_cost.cells_read == batch_cost.cells_read
                and loop_cost.cells_written == batch_cost.cells_written
            ), (
                f"{context} range_sum_many charged "
                f"{batch_cost.cells_read}r/{batch_cost.cells_written}w, "
                f"looped path charged "
                f"{loop_cost.cells_read}r/{loop_cost.cells_written}w"
            )

        # Q = 1 agrees with the scalar call
        one = batched.range_sum_many(lows[:1], highs[:1])
        assert np.isclose(
            float(one[0]), float(looped.range_sum(lows[0], highs[0]))
        ), f"{context} Q=1 batch disagrees with the scalar range_sum"

        # prefix_sum_many over the high corners (hits box boundaries)
        loop_before = looped.counter.snapshot()
        expected_p = [looped.prefix_sum(tuple(t)) for t in highs]
        loop_cost = loop_before.delta(looped.counter)
        batch_before = batched.counter.snapshot()
        got_p = batched.prefix_sum_many(highs)
        batch_cost = batch_before.delta(batched.counter)
        assert np.allclose(
            np.asarray(got_p, dtype=np.float64),
            np.asarray(expected_p, dtype=np.float64),
        ), f"{context} prefix_sum_many diverged from the looped path"
        if check_counters:
            assert loop_cost.cells_read == batch_cost.cells_read, (
                f"{context} prefix_sum_many charged "
                f"{batch_cost.cells_read} reads, looped path charged "
                f"{loop_cost.cells_read}"
            )

        # batched queries observe updates (no stale caches)
        cell = tuple(int(rng.integers(0, n)) for n in shape)
        looped.apply_delta(cell, 17)
        batched.apply_delta(cell, 17)
        array_after = array.copy()
        array_after[cell] += 17
        got_after = batched.range_sum_many(lows, highs)
        oracle_after = [
            box_sum(array_after, tuple(lo), tuple(hi))
            for lo, hi in zip(lows, highs)
        ]
        assert np.allclose(
            np.asarray(got_after, dtype=np.float64),
            np.asarray(oracle_after, dtype=np.float64),
        ), f"{context} range_sum_many went stale after apply_delta"


def assert_batch_updates_correct(
    method_cls: Type[RangeSumMethod],
    shapes: Sequence[Tuple[int, ...]] = DEFAULT_SHAPES,
    updates: int = 24,
    seed: int = 0,
    check_counters: bool = True,
    **method_kwargs,
) -> None:
    """Validate the array-signature batch updates of one method class.

    The contract: ``apply_batch_array(indices, deltas)`` must be
    *equivalent to the method's own* ``apply_batch`` over the same rows —
    identical resulting values (checked against a scatter-add oracle)
    and, with ``check_counters`` (default), an identical counter ledger
    in totals and per structure. Exercised with duplicate rows, zero
    deltas, and an empty batch (which must be free); finishes with the
    method's own :meth:`~repro.core.base.RangeSumMethod.verify`.

    Raises:
        AssertionError: on the first violation, with shape/seed context.
    """
    for shape in shapes:
        rng = np.random.default_rng(seed)
        array = rng.integers(-20, 20, size=shape)
        context = f"[{method_cls.__name__} shape={shape} seed={seed}]"
        listed = method_cls(array, **method_kwargs)
        arrayed = method_cls(array, **method_kwargs)
        d = len(shape)

        # an empty batch is legal and charges nothing
        before = arrayed.counter.snapshot()
        applied = arrayed.apply_batch_array(
            np.empty((0, d), dtype=np.intp), np.empty(0, dtype=np.int64)
        )
        cost = before.delta(arrayed.counter)
        assert applied == 0, f"{context} empty batch applied {applied} rows"
        assert cost.cells_read == 0 and cost.cells_written == 0, (
            f"{context} empty apply_batch_array must not charge the counter"
        )

        # random rows with duplicates and explicit zero deltas
        idx = np.stack(
            [rng.integers(0, n, size=updates) for n in shape], axis=1
        ).astype(np.intp)
        idx = np.vstack([idx, idx[:3]])  # duplicated cells accumulate
        deltas = rng.integers(-9, 10, size=len(idx)).astype(np.int64)
        deltas[1] = 0  # zero deltas still travel through the kernel
        oracle = array.astype(np.int64)
        np.add.at(oracle, tuple(idx.T), deltas)

        list_before = listed.counter.snapshot()
        listed.apply_batch(
            [
                (tuple(int(c) for c in row), int(dv))
                for row, dv in zip(idx, deltas)
            ]
        )
        list_cost = list_before.delta(listed.counter)
        array_before = arrayed.counter.snapshot()
        applied = arrayed.apply_batch_array(idx, deltas)
        array_cost = array_before.delta(arrayed.counter)
        assert applied == len(idx), (
            f"{context} apply_batch_array reported {applied} of {len(idx)}"
        )
        assert np.array_equal(
            np.asarray(arrayed.to_array(), dtype=np.int64), oracle
        ), f"{context} apply_batch_array diverged from the scatter oracle"
        assert np.array_equal(
            np.asarray(listed.to_array(), dtype=np.int64), oracle
        ), f"{context} apply_batch diverged from the scatter oracle"
        if check_counters:
            assert (
                list_cost.cells_read == array_cost.cells_read
                and list_cost.cells_written == array_cost.cells_written
            ), (
                f"{context} apply_batch_array charged "
                f"{array_cost.cells_read}r/{array_cost.cells_written}w, "
                f"apply_batch charged "
                f"{list_cost.cells_read}r/{list_cost.cells_written}w"
            )
            assert (
                listed.counter.by_structure == arrayed.counter.by_structure
            ), (
                f"{context} per-structure ledgers diverged: "
                f"{listed.counter.by_structure} != "
                f"{arrayed.counter.by_structure}"
            )

        # scalar deltas broadcast across the batch
        scalar = method_cls(array, **method_kwargs)
        scalar.apply_batch_array(idx[:4], 7)
        bumped = array.astype(np.int64)
        np.add.at(bumped, tuple(idx[:4].T), np.full(4, 7, dtype=np.int64))
        assert np.array_equal(
            np.asarray(scalar.to_array(), dtype=np.int64), bumped
        ), f"{context} scalar delta broadcast diverged"

        arrayed.verify(probes=20, seed=seed)


def assert_method_correct(
    method_cls: Type[RangeSumMethod],
    shapes: Sequence[Tuple[int, ...]] = DEFAULT_SHAPES,
    operations: int = 40,
    seed: int = 0,
    check_counters: bool = True,
    **method_kwargs,
) -> None:
    """Validate one method class against the interface contract.

    Args:
        method_cls: the class under test.
        shapes: cube shapes to exercise.
        operations: interleaved query/update steps per shape.
        seed: randomization seed (reported in failures).
        check_counters: also require that queries charge reads and
            updates charge writes to ``method.counter``.
        **method_kwargs: forwarded to every construction.

    Raises:
        AssertionError: on the first contract violation, with enough
            context (shape, seed, operation) to reproduce it.
    """
    for shape in shapes:
        rng = np.random.default_rng(seed)
        array = rng.integers(-20, 20, size=shape)
        context = f"[{method_cls.__name__} shape={shape} seed={seed}]"
        method = method_cls(array, **method_kwargs)

        assert method.shape == tuple(shape), (
            f"{context} shape attribute mismatch: {method.shape}"
        )
        assert method.ndim == len(shape), f"{context} ndim mismatch"
        assert method.total() == array.sum(), (
            f"{context} total() wrong after build"
        )

        oracle = array.copy()
        for step in range(operations):
            step_context = f"{context} step={step}"
            low, high = random_range(rng, shape)
            before = method.counter.snapshot()
            got = method.range_sum(low, high)
            expected = box_sum(oracle, low, high)
            assert np.isclose(float(got), float(expected)), (
                f"{step_context} range_sum({low}, {high}) = {got}, "
                f"expected {expected}"
            )
            if check_counters:
                assert before.delta(method.counter).cells_read > 0, (
                    f"{step_context} query charged no reads"
                )

            cell = tuple(int(rng.integers(0, n)) for n in shape)
            delta = int(rng.integers(-9, 10)) or 1
            before = method.counter.snapshot()
            method.apply_delta(cell, delta)
            oracle[cell] += delta
            if check_counters:
                assert before.delta(method.counter).cells_written > 0, (
                    f"{step_context} update charged no writes"
                )
            assert np.isclose(
                float(method.cell_value(cell)), float(oracle[cell])
            ), f"{step_context} cell_value({cell}) wrong after delta"

        # set-semantics update
        cell = tuple(0 for _ in shape)
        method.update(cell, 123)
        oracle[cell] = 123
        assert method.cell_value(cell) == 123, (
            f"{context} update() did not set the cell"
        )

        # batch application
        batch = []
        for _ in range(10):
            cell = tuple(int(rng.integers(0, n)) for n in shape)
            delta = int(rng.integers(-5, 6))
            batch.append((cell, delta))
            oracle[cell] += delta
        method.apply_batch(batch)

        # reconstruction
        rebuilt = method.to_array()
        assert np.allclose(
            np.asarray(rebuilt, dtype=np.float64),
            np.asarray(oracle, dtype=np.float64),
        ), f"{context} to_array() diverged from the oracle"

        # storage accounting sanity
        assert method.storage_cells() > 0, (
            f"{context} storage_cells() must be positive"
        )

        # built-in verification agrees
        method.verify(probes=20, seed=seed)

    # the batched query kernels obey the same contract
    assert_batch_queries_correct(
        method_cls,
        shapes=shapes,
        seed=seed,
        check_counters=check_counters,
        **method_kwargs,
    )
    # ...and so do the array-signature batch updates
    assert_batch_updates_correct(
        method_cls,
        shapes=shapes,
        seed=seed,
        check_counters=check_counters,
        **method_kwargs,
    )


def assert_recovery_correct(
    method_cls: Type[RangeSumMethod],
    directory,
    shape: Tuple[int, ...] = (10, 8),
    groups: int = 24,
    crash_after: int = None,
    checkpoint_every: int = 5,
    seed: int = 0,
    **method_kwargs,
) -> None:
    """Differential crash-recovery check against a brute-force oracle.

    Runs a durable :class:`~repro.serve.CubeService` over ``groups``
    random update groups, simulates a crash (via
    :meth:`~repro.serve.CubeService.abandon`) after ``crash_after``
    acknowledged groups (default: all of them), recovers from
    ``directory``, and asserts the recovered state is byte-identical to
    a plain array that applied exactly the acknowledged prefix — the
    durability contract: nothing acked is lost, nothing torn shows up.

    ``directory`` must be a fresh directory per call (pass pytest's
    ``tmp_path``); the harness deliberately leaves the crash artifacts
    in place so a failing run can be inspected.
    """
    from repro.serve import CubeService, DurabilityPolicy

    rng = np.random.default_rng(seed)
    base = rng.integers(-20, 80, size=shape).astype(np.int64)
    oracle = VersionOracle(base)
    cutoff = groups if crash_after is None else int(crash_after)

    service = CubeService(
        method_cls,
        base,
        method_kwargs=method_kwargs,
        durability=DurabilityPolicy(
            dir=directory, checkpoint_every=checkpoint_every
        ),
    )
    try:
        for _ in range(min(groups, cutoff)):
            group = random_group(rng, shape, int(rng.integers(1, 6)))
            service.submit_batch(group)
            oracle.record(group)
    finally:
        service.abandon()

    recovered = CubeService.recover(directory, method_cls)
    try:
        acked = oracle.version
        assert recovered.version == acked, (
            f"recovered version {recovered.version}, "
            f"but {acked} groups were acknowledged (seed={seed})"
        )
        mismatches = oracle.check_array(recovered.snapshot_array()[0], acked)
        assert not mismatches, (
            f"recovered state diverged from the acked-prefix oracle "
            f"(seed={seed}, acked={acked}): {mismatches[:3]}"
        )
        assert not recovered.quarantined_groups(), (
            "clean workload must not quarantine anything at replay"
        )
    finally:
        recovered.close()
