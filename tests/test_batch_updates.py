"""Tests for batch updates and the rebuild-vs-incremental ablation."""

import numpy as np
import pytest

from repro.baselines.naive import NaiveCube
from repro.baselines.prefix import PrefixSumCube
from repro.core import indexing
from repro.core.rps import RelativePrefixSumCube
from repro.errors import RangeError
from repro.workloads import updategen
from tests.conftest import METHOD_CLASSES, brute_range_sum, random_range


def apply_to_oracle(oracle, updates):
    for cell, delta in updates:
        oracle[cell] += delta
    return oracle


class TestBatchCorrectness:
    @pytest.mark.parametrize("method_class", METHOD_CLASSES,
                             ids=lambda c: c.name)
    def test_batch_equals_sequential(self, rng, method_class):
        a = rng.integers(0, 20, size=(12, 12))
        updates = list(updategen.random_updates(a.shape, 30, seed=5))
        batched = method_class(a)
        batched.apply_batch(list(updates))
        oracle = apply_to_oracle(a.copy(), updates)
        assert np.array_equal(batched.to_array(), oracle)

    def test_empty_batch(self, rng):
        cube = RelativePrefixSumCube(rng.integers(0, 5, (6, 6)), box_size=3)
        assert cube.apply_batch([]) == 0

    def test_batch_returns_count(self, rng):
        cube = NaiveCube(rng.integers(0, 5, (6, 6)))
        assert cube.apply_batch([((0, 0), 1), ((5, 5), 2)]) == 2

    def test_duplicate_cells_accumulate(self, rng):
        cube = PrefixSumCube(rng.integers(0, 5, (6, 6)))
        base = cube.cell_value((2, 2))
        cube.apply_batch([((2, 2), 3), ((2, 2), 4)])
        assert cube.cell_value((2, 2)) == base + 7


class TestRpsStrategies:
    @pytest.fixture
    def cube_and_updates(self, rng):
        a = rng.integers(0, 20, size=(32, 32))
        updates = list(updategen.random_updates(a.shape, 50, seed=6))
        return a, updates

    def test_incremental_and_rebuild_agree(self, cube_and_updates):
        a, updates = cube_and_updates
        incremental = RelativePrefixSumCube(a, box_size=8)
        rebuilt = RelativePrefixSumCube(a, box_size=8)
        incremental.apply_batch(list(updates), strategy="incremental")
        rebuilt.apply_batch(list(updates), strategy="rebuild")
        assert np.array_equal(incremental.to_array(), rebuilt.to_array())
        for mask in incremental.overlay.masks():
            assert np.array_equal(
                incremental.overlay.values_array(mask),
                rebuilt.overlay.values_array(mask),
            )

    def test_rebuild_cost_independent_of_batch_size(self, cube_and_updates):
        a, updates = cube_and_updates
        costs = []
        for m in (5, 50):
            cube = RelativePrefixSumCube(a, box_size=8)
            before = cube.counter.snapshot()
            cube.apply_batch(list(updates[:m]), strategy="rebuild")
            costs.append(before.delta(cube.counter).cells_written)
        assert costs[0] == costs[1]

    def test_incremental_cost_linear_in_batch_size(self, cube_and_updates):
        a, updates = cube_and_updates
        costs = []
        for m in (10, 40):
            cube = RelativePrefixSumCube(a, box_size=8)
            before = cube.counter.snapshot()
            cube.apply_batch(list(updates[:m]), strategy="incremental")
            costs.append(before.delta(cube.counter).cells_written)
        assert costs[1] > 2 * costs[0]

    def test_auto_picks_incremental_for_tiny_batches(self, cube_and_updates):
        a, updates = cube_and_updates
        cube = RelativePrefixSumCube(a, box_size=8)
        rebuild_cost = cube.storage_cells()
        before = cube.counter.snapshot()
        cube.apply_batch(list(updates[:2]), strategy="auto")
        assert before.delta(cube.counter).cells_written < rebuild_cost

    def test_auto_picks_rebuild_for_huge_batches(self, rng):
        a = rng.integers(0, 20, size=(16, 16))
        cube = RelativePrefixSumCube(a, box_size=4)
        # adversarial updates, each near the worst case
        updates = [((1, 1), 1)] * 300
        before = cube.counter.snapshot()
        cube.apply_batch(updates, strategy="auto")
        written = before.delta(cube.counter).cells_written
        # rebuild cost, not 300 x worst-case cascades
        assert written == cube.storage_cells()
        assert cube.cell_value((1, 1)) == a[1, 1] + 300

    def test_unknown_strategy_rejected(self, rng):
        cube = RelativePrefixSumCube(rng.integers(0, 5, (6, 6)), box_size=3)
        with pytest.raises(RangeError):
            cube.apply_batch([((0, 0), 1)], strategy="magic")

    def test_queries_correct_after_auto_batches(self, rng):
        a = rng.integers(0, 20, size=(20, 20))
        cube = RelativePrefixSumCube(a, box_size=5)
        oracle = a.copy()
        for seed in range(4):
            updates = list(
                updategen.random_updates(a.shape, 25, seed=seed)
            )
            cube.apply_batch(list(updates))
            apply_to_oracle(oracle, updates)
            low, high = random_range(rng, a.shape)
            assert cube.range_sum(low, high) == brute_range_sum(
                oracle, low, high
            )


VECTOR_SHAPES_AND_BOXES = [
    ((23,), 4),             # d=1, partial trailing box
    ((17, 6), (5, 3)),      # d=2, non-square, per-axis boxes
    ((9, 14, 5), 3),        # d=3, odd sizes
    ((5, 3, 6, 4), 2),      # d=4
]


def _update_batch(rng, shape, m):
    """(m+5, d) rows with duplicates and one explicit zero delta."""
    idx = np.stack(
        [rng.integers(0, n, size=m) for n in shape], axis=1
    ).astype(np.intp)
    idx = np.vstack([idx, idx[:5]])  # duplicate cells accumulate
    deltas = rng.integers(-9, 10, size=len(idx)).astype(np.int64)
    deltas[2] = 0  # zero deltas still travel (and charge) like the loop
    return idx, deltas


class TestVectorizedStrategy:
    """The vectorized engine must be indistinguishable from the looped
    incremental path: same values, same structures byte-for-byte, same
    counter ledger (totals and per structure)."""

    @pytest.mark.parametrize(
        "shape,box", VECTOR_SHAPES_AND_BOXES, ids=lambda v: str(v)
    )
    def test_vectorized_matches_incremental_exactly(self, rng, shape, box):
        array = rng.integers(-50, 50, size=shape)
        looped = RelativePrefixSumCube(array, box_size=box)
        vectorized = RelativePrefixSumCube(array, box_size=box)
        idx, deltas = _update_batch(rng, shape, 40)

        loop_before = looped.counter.snapshot()
        looped.apply_batch_array(idx, deltas, strategy="incremental")
        loop_cost = loop_before.delta(looped.counter)
        vec_before = vectorized.counter.snapshot()
        vectorized.apply_batch_array(idx, deltas, strategy="vectorized")
        vec_cost = vec_before.delta(vectorized.counter)

        assert np.array_equal(looped.rp.array(), vectorized.rp.array())
        for mask in looped.overlay.masks():
            assert np.array_equal(
                looped.overlay.values_array(mask),
                vectorized.overlay.values_array(mask),
            ), f"overlay subset {mask:#b} diverged"
        assert loop_cost.cells_written == vec_cost.cells_written
        assert loop_cost.cells_read == vec_cost.cells_read
        assert (
            looped.counter.by_structure == vectorized.counter.by_structure
        )
        vectorized.verify_structures()

    @pytest.mark.parametrize(
        "shape,box", VECTOR_SHAPES_AND_BOXES, ids=lambda v: str(v)
    )
    def test_vectorized_through_list_api(self, rng, shape, box):
        array = rng.integers(-20, 20, size=shape)
        cube = RelativePrefixSumCube(array, box_size=box)
        idx, deltas = _update_batch(rng, shape, 25)
        updates = [
            (tuple(int(c) for c in row), int(dv))
            for row, dv in zip(idx, deltas)
        ]
        cube.apply_batch(updates, strategy="vectorized")
        oracle = array.astype(np.int64)
        np.add.at(oracle, tuple(idx.T), deltas)
        assert np.array_equal(cube.to_array(), oracle)
        cube.verify_structures()

    def test_all_zero_coalesced_deltas_are_a_noop_in_values(self, rng):
        """Deltas that cancel pairwise leave every structure unchanged
        but still charge the cascade cells (the loop would too)."""
        array = rng.integers(0, 30, size=(18, 18))
        cube = RelativePrefixSumCube(array, box_size=4)
        rp_before = cube.rp.array()
        idx = np.array([[3, 5], [3, 5], [10, 2], [10, 2]], dtype=np.intp)
        deltas = np.array([7, -7, 4, -4], dtype=np.int64)
        before = cube.counter.snapshot()
        cube.apply_batch_array(idx, deltas, strategy="vectorized")
        assert before.delta(cube.counter).cells_written > 0
        assert np.array_equal(cube.rp.array(), rp_before)
        assert np.array_equal(cube.to_array(), array)
        cube.verify_structures()

    def test_update_cost_many_matches_scalar_breakdown(self, rng):
        array = rng.integers(0, 9, size=(19, 13))
        cube = RelativePrefixSumCube(array, box_size=(4, 3))
        idx = np.stack(
            [rng.integers(0, n, size=30) for n in array.shape], axis=1
        )
        costs = cube.update_cost_many(idx)
        for row, cost in zip(idx, costs):
            breakdown = cube.update_cost_breakdown(tuple(int(c) for c in row))
            assert int(cost) == breakdown["total"], tuple(row)


class TestAutoStrategySelection:
    """``auto`` = logical cost model (incremental-vs-rebuild semantics)
    nested with the wall-clock model (looped-vs-vectorized execution)."""

    @pytest.fixture
    def cube(self, rng):
        return RelativePrefixSumCube(
            rng.integers(0, 9, size=(128, 128)), box_size=8
        )

    def test_tiny_batches_stay_looped(self, cube, rng):
        idx = np.stack(
            [rng.integers(0, 128, size=5) for _ in range(2)], axis=1
        )
        assert cube.choose_batch_strategy(idx) == "incremental"

    def test_medium_batches_go_vectorized(self, cube):
        # cheap cascades (high coordinates), enough rows that one
        # whole-structure pass beats m interpreter round-trips
        idx = np.full((60, 2), 127, dtype=np.intp)
        assert cube.choose_batch_strategy(idx) == "vectorized"

    def test_huge_expensive_batches_rebuild(self, cube):
        idx = np.ones((500, 2), dtype=np.intp)  # near-worst-case cascades
        assert cube.choose_batch_strategy(idx) == "rebuild"

    @staticmethod
    def _assert_documented_crossover(cube):
        d = cube.ndim
        # the smallest m whose cascades (3 + 2^d - 1 steps each) cost more
        # than one vectorized call: its fixed cost per corner group
        # (3^d - 2^d of them), the overlay arrays and one RP box per row
        threshold = -(-(
            cube.VECTORIZED_GROUP_CELLS * (3**d - 2**d)
            + cube.overlay.allocated_cells()
        ) // (cube.CASCADE_STEP_CELLS * (2 + 2**d) - cube.rp.box_cells()))
        last = np.asarray(cube.shape) - 1
        below = np.tile(last, (threshold - 1, 1)).astype(np.intp)
        at = np.tile(last, (threshold, 1)).astype(np.intp)
        assert cube.choose_batch_strategy(below) == "incremental"
        assert cube.choose_batch_strategy(at) == "vectorized"
        return threshold

    def test_crossover_threshold_is_the_documented_model(self, cube):
        assert self._assert_documented_crossover(cube) == 17

    @pytest.mark.parametrize("shape, box_size, threshold", [
        ((16, 64, 64), None, 52), ((12, 12, 12, 12), 3, 69),
    ])
    def test_crossover_threshold_grows_with_dimension(
        self, rng, shape, box_size, threshold
    ):
        cube = RelativePrefixSumCube(
            rng.integers(0, 9, size=shape), box_size=box_size
        )
        assert self._assert_documented_crossover(cube) == threshold

    def test_boxes_wider_than_a_cascade_stay_looped(self, rng):
        # one stacked box costs more than the cascade it replaces
        cube = RelativePrefixSumCube(
            rng.integers(0, 9, size=(256, 256)), box_size=64
        )
        idx = np.full((500, 2), 255, dtype=np.intp)
        assert cube.choose_batch_strategy(idx) == "incremental"

    @pytest.mark.parametrize("cell, chosen", [
        (1, "rebuild"), (127, "vectorized"),
    ])
    def test_batches_are_checked_once(
        self, cube, monkeypatch, cell, chosen
    ):
        """``auto`` sums the exact cascade costs of a batch this large
        without checking its rows again: one ``normalize_index_batch``
        call per ``apply_batch_array``, with the ledger a plain
        ``choose_batch_strategy`` + strategy call charges."""
        idx = np.full((500, 2), cell, dtype=np.intp)
        assert 500 * cube._worst_update_cells > cube.storage_cells()
        assert cube.choose_batch_strategy(idx) == chosen
        twin = RelativePrefixSumCube(cube.to_array(), box_size=8)
        twin.apply_batch_array(idx, 1, strategy=chosen)
        real = indexing.normalize_index_batch
        calls = []

        def counting(targets, shape):
            calls.append(tuple(shape))
            return real(targets, shape)

        monkeypatch.setattr(indexing, "normalize_index_batch", counting)
        cube.counter.reset()
        cube.apply_batch_array(idx, 1)
        assert calls == [cube.shape]
        assert cube.counter.by_structure == twin.counter.by_structure
        assert np.array_equal(cube.to_array(), twin.to_array())

    def test_auto_array_path_applies_correctly(self, rng):
        array = rng.integers(0, 9, size=(64, 64))
        cube = RelativePrefixSumCube(array, box_size=8)
        idx = np.stack(
            [rng.integers(0, 64, size=200) for _ in range(2)], axis=1
        )
        deltas = rng.integers(-5, 6, size=200).astype(np.int64)
        cube.apply_batch_array(idx, deltas)  # auto
        oracle = array.astype(np.int64)
        np.add.at(oracle, tuple(idx.T), deltas)
        assert np.array_equal(cube.to_array(), oracle)
        cube.verify_structures()

    def test_unknown_strategy_rejected_on_array_path(self, rng):
        cube = RelativePrefixSumCube(rng.integers(0, 5, (6, 6)), box_size=3)
        with pytest.raises(RangeError):
            cube.apply_batch_array(
                np.zeros((1, 2), dtype=np.intp), [1], strategy="magic"
            )
        with pytest.raises(RangeError):  # checked even for empty batches
            cube.apply_batch_array(
                np.empty((0, 2), dtype=np.intp), [], strategy="magic"
            )


class TestPrefixSumBatch:
    def test_one_pass_cost(self, rng):
        """However many updates, the PS batch costs one n^d pass."""
        a = rng.integers(0, 20, size=(32, 32))
        for m in (1, 100):
            cube = PrefixSumCube(a)
            updates = list(updategen.random_updates(a.shape, m, seed=m))
            before = cube.counter.snapshot()
            cube.apply_batch(updates)
            assert before.delta(cube.counter).cells_written == a.size

    def test_batch_beats_sequential_for_daily_loads(self, rng):
        """The daily-batch scenario: folding the batch is far cheaper
        than replaying it update by update."""
        a = rng.integers(0, 20, size=(32, 32))
        updates = list(updategen.random_updates(a.shape, 64, seed=9))
        sequential = PrefixSumCube(a)
        for cell, delta in updates:
            sequential.apply_delta(cell, delta)
        batched = PrefixSumCube(a)
        batched.apply_batch(list(updates))
        assert (
            batched.counter.cells_written
            < sequential.counter.cells_written / 5
        )
        assert np.array_equal(batched.prefix_array(),
                              sequential.prefix_array())
