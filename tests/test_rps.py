"""Unit tests for the relative prefix sum cube (repro.core.rps)."""

import copy
import pickle

import numpy as np
import pytest

from repro import paper
from repro.core.rps import RelativePrefixSumCube, default_box_size
from repro.errors import BoxSizeError, RangeError
from tests.conftest import brute_range_sum, random_range


class TestDefaultBoxSize:
    def test_square_root_rule(self):
        assert default_box_size((256, 256)) == 16
        assert default_box_size((100, 100)) == 10

    def test_mixed_shape_uses_geometric_mean(self):
        assert default_box_size((64, 64, 64)) == 8

    def test_minimum_is_one(self):
        assert default_box_size((2, 2)) >= 1

    def test_used_when_not_specified(self):
        cube = RelativePrefixSumCube(np.ones((64, 64)))
        assert cube.box_size == 8


class TestPrefixSums:
    def test_paper_worked_example(self, paper_cube):
        cube = RelativePrefixSumCube(paper_cube, box_size=3)
        assert cube.prefix_sum(paper.EXAMPLE_QUERY_TARGET) == (
            paper.EXAMPLE_QUERY_RESULT
        )

    def test_every_prefix_matches_oracle(self, paper_cube):
        cube = RelativePrefixSumCube(paper_cube, box_size=3)
        for idx in np.ndindex(9, 9):
            expected = paper_cube[: idx[0] + 1, : idx[1] + 1].sum()
            assert cube.prefix_sum(idx) == expected, idx

    @pytest.mark.parametrize("shape,k", [
        ((16,), 4),
        ((9, 9), 3),
        ((10, 7), 3),
        ((11, 11), 4),
        ((8, 8, 8), 2),
        ((7, 6, 5), 3),
        ((5, 5, 5, 5), 2),
    ])
    def test_prefixes_match_oracle_all_dims(self, rng, shape, k):
        a = rng.integers(0, 10, size=shape)
        cube = RelativePrefixSumCube(a, box_size=k)
        prefix = a.copy()
        for axis in range(a.ndim):
            prefix = np.cumsum(prefix, axis=axis)
        for idx in np.ndindex(*shape):
            assert cube.prefix_sum(idx) == prefix[idx], idx

    def test_prefix_costs_d_plus_2_reads(self, paper_cube):
        cube = RelativePrefixSumCube(paper_cube, box_size=3)
        before = cube.counter.snapshot()
        cube.prefix_sum((7, 5))
        assert before.delta(cube.counter).cells_read == 2 + 2

    def test_boundary_targets(self, rng):
        """Targets lying exactly on box anchors/faces (the subtle case
        the d-dimensional generalization must get right)."""
        a = rng.integers(0, 10, size=(9, 9, 9))
        cube = RelativePrefixSumCube(a, box_size=3)
        prefix = a.cumsum(axis=0).cumsum(axis=1).cumsum(axis=2)
        for t in [
            (0, 0, 0), (3, 3, 3), (3, 5, 7), (6, 3, 1),
            (8, 6, 6), (3, 0, 6), (0, 4, 3),
        ]:
            assert cube.prefix_sum(t) == prefix[t], t


class TestRangeSums:
    def test_random_ranges_match_oracle(self, rng):
        a = rng.integers(0, 50, size=(20, 20))
        cube = RelativePrefixSumCube(a, box_size=4)
        for _ in range(100):
            low, high = random_range(rng, a.shape)
            assert cube.range_sum(low, high) == brute_range_sum(a, low, high)

    def test_full_cube_range(self, paper_cube):
        cube = RelativePrefixSumCube(paper_cube, box_size=3)
        assert cube.range_sum((0, 0), (8, 8)) == paper_cube.sum()
        assert cube.total() == paper_cube.sum()

    def test_single_cell_range(self, paper_cube):
        cube = RelativePrefixSumCube(paper_cube, box_size=3)
        assert cube.range_sum((4, 7), (4, 7)) == paper_cube[4, 7]
        assert cube.cell_value((4, 7)) == paper_cube[4, 7]

    def test_inverted_range_rejected(self, paper_cube):
        cube = RelativePrefixSumCube(paper_cube, box_size=3)
        with pytest.raises(RangeError):
            cube.range_sum((5, 5), (4, 6))


class TestUpdates:
    def test_paper_update_costs(self, paper_cube):
        cube = RelativePrefixSumCube(paper_cube, box_size=3)
        before = cube.counter.snapshot()
        cube.apply_delta(paper.UPDATE_EXAMPLE_CELL, 1)
        written = before.delta(cube.counter).cells_written
        assert written == paper.UPDATE_EXAMPLE_RPS_TOTAL_CELLS

    def test_update_then_query(self, rng):
        a = rng.integers(0, 20, size=(12, 12))
        cube = RelativePrefixSumCube(a, box_size=4)
        a = a.copy()
        for _ in range(50):
            cell = tuple(int(x) for x in rng.integers(0, 12, size=2))
            delta = int(rng.integers(-5, 6))
            a[cell] += delta
            cube.apply_delta(cell, delta)
            low, high = random_range(rng, a.shape)
            assert cube.range_sum(low, high) == brute_range_sum(a, low, high)

    def test_set_update_semantics(self, paper_cube):
        cube = RelativePrefixSumCube(paper_cube, box_size=3)
        cube.update((1, 1), 4)  # the paper's example: 3 -> 4
        assert cube.cell_value((1, 1)) == 4
        assert cube.prefix_sum((8, 8)) == paper_cube.sum() + 1

    def test_noop_set_update_writes_nothing(self, paper_cube):
        cube = RelativePrefixSumCube(paper_cube, box_size=3)
        before = cube.counter.snapshot()
        cube.update((1, 1), int(paper_cube[1, 1]))
        assert before.delta(cube.counter).cells_written == 0

    def test_update_cost_breakdown(self, paper_cube):
        cube = RelativePrefixSumCube(paper_cube, box_size=3)
        breakdown = cube.update_cost_breakdown((1, 1))
        assert breakdown == {"total": 16, "rp": 4, "overlay": 12}

    def test_breakdown_is_pure(self, paper_cube):
        cube = RelativePrefixSumCube(paper_cube, box_size=3)
        before = cube.counter.snapshot()
        cube.update_cost_breakdown((1, 1))
        delta = before.delta(cube.counter)
        assert delta.cells_written == 0
        assert np.array_equal(cube.rp.array(), paper.ARRAY_RP)


class TestToArray:
    def test_roundtrip(self, rng):
        a = rng.integers(-10, 10, size=(10, 7))
        cube = RelativePrefixSumCube(a, box_size=3)
        assert np.array_equal(cube.to_array(), a)

    def test_roundtrip_3d_after_updates(self, rng):
        a = rng.integers(0, 10, size=(6, 6, 6))
        cube = RelativePrefixSumCube(a, box_size=2)
        a = a.copy()
        for _ in range(20):
            cell = tuple(int(x) for x in rng.integers(0, 6, size=3))
            a[cell] += 2
            cube.apply_delta(cell, 2)
        assert np.array_equal(cube.to_array(), a)


class TestValidationAndDtypes:
    def test_bad_box_size(self, paper_cube):
        with pytest.raises(BoxSizeError):
            RelativePrefixSumCube(paper_cube, box_size=0)

    def test_float_cubes(self, rng):
        a = rng.random((9, 9))
        cube = RelativePrefixSumCube(a, box_size=3)
        assert cube.range_sum((1, 1), (7, 7)) == pytest.approx(
            a[1:8, 1:8].sum()
        )
        cube.apply_delta((4, 4), 0.5)
        assert cube.cell_value((4, 4)) == pytest.approx(a[4, 4] + 0.5)

    def test_box_size_larger_than_cube(self, paper_cube):
        # One box covering everything: degenerates to plain prefix sums.
        cube = RelativePrefixSumCube(paper_cube, box_size=100)
        assert cube.range_sum((2, 2), (6, 6)) == paper_cube[2:7, 2:7].sum()

    def test_box_size_one(self, paper_cube):
        # RP degenerates to a copy of A; all weight on the overlay.
        cube = RelativePrefixSumCube(paper_cube, box_size=1)
        assert cube.range_sum((2, 2), (6, 6)) == paper_cube[2:7, 2:7].sum()

    def test_storage_cells(self, paper_cube):
        cube = RelativePrefixSumCube(paper_cube, box_size=3)
        # RP (81) + the paper-exact overlay count: 9 boxes x (3^2 - 2^2)
        assert cube.storage_cells() == 81 + 45

    def test_repr_mentions_box_size(self, paper_cube):
        assert "box_size=3" in repr(
            RelativePrefixSumCube(paper_cube, box_size=3)
        )


COPIES = {
    "deepcopy": copy.deepcopy,
    "pickle": lambda cube: pickle.loads(pickle.dumps(cube)),
}


class TestCopies:
    """A deep copy or an unpickled cube is a whole, independent cube:
    its overlay's subset arrays stay views of its own flat buffer, so a
    looped cascade (which writes through the views) shows in the batched
    read (which gathers from the buffer)."""

    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_looped_updates_reach_the_batched_read(self, how):
        a = np.arange(35, dtype=np.int64).reshape(5, 7)
        cube = RelativePrefixSumCube(a, box_size=3)
        dup = COPIES[how](cube)
        dup.apply_delta((4, 6), 5)
        dup.apply_delta((0, 0), 1)
        whole = int(a.sum()) + 6
        assert dup.range_sum((0, 0), (4, 6)) == whole
        assert dup.range_sum_many([(0, 0)], [(4, 6)]).tolist() == [whole]
        assert cube.range_sum_many([(0, 0)], [(4, 6)]).tolist() == [
            int(a.sum())
        ]

    @pytest.mark.parametrize("how", sorted(COPIES))
    @pytest.mark.parametrize("shape, k", [
        ((11,), 4),
        ((7, 5), 3),
        ((5, 7, 6), (2, 3, 4)),
        ((5, 4, 3, 5), 2),
    ], ids=["1d", "2d", "3d", "4d"])
    def test_copy_answers_like_a_fresh_build(self, rng, how, shape, k):
        a = rng.integers(-20, 20, size=shape).astype(np.int64)
        cube = RelativePrefixSumCube(a, box_size=k)
        dup = COPIES[how](cube)
        truth = a.copy()
        # the far corner sits in the ragged last box on every axis
        corner = tuple(n - 1 for n in shape)
        dup.apply_delta(corner, 7)
        truth[corner] += 7
        for strategy in ("incremental", "vectorized"):
            idx = np.stack([rng.integers(0, n, 6) for n in shape], axis=1)
            deltas = rng.integers(-9, 10, 6)
            dup.apply_batch_array(idx, deltas, strategy=strategy)
            np.add.at(truth, tuple(idx.T), deltas)
        fresh = RelativePrefixSumCube(dup.to_array(), box_size=k)
        assert np.array_equal(dup.to_array(), truth)
        boxes = [random_range(rng, shape) for _ in range(24)]
        lows = [low for low, _ in boxes]
        highs = [high for _, high in boxes]
        want = [brute_range_sum(truth, low, high) for low, high in boxes]
        assert [dup.range_sum(low, high) for low, high in boxes] == want
        assert dup.range_sum_many(lows, highs).tolist() == want
        assert fresh.range_sum_many(lows, highs).tolist() == want
        # the original is untouched
        assert np.array_equal(cube.to_array(), a)
        assert cube.range_sum_many(lows, highs).tolist() == [
            brute_range_sum(a, low, high) for low, high in boxes
        ]
