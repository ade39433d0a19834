"""ShardMap: exact leading-dimension partitioning of cubes and queries."""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ShardMap
from repro.errors import ClusterError, DimensionError, RangeError
from repro.serve import UpdateGroup

from .conftest import brute_range_sum, random_range


class TestConstruction:
    def test_bounds_cover_axis_without_overlap(self):
        shardmap = ShardMap((10, 4), 3)
        assert shardmap.bounds[0][0] == 0
        assert shardmap.bounds[-1][1] == 10
        for (_, stop), (start, _) in zip(
            shardmap.bounds, shardmap.bounds[1:]
        ):
            assert stop == start

    def test_near_equal_slabs(self):
        shardmap = ShardMap((10, 4), 3)
        sizes = [stop - start for start, stop in shardmap.bounds]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_single_shard_owns_everything(self):
        shardmap = ShardMap((7, 3), 1)
        assert shardmap.bounds == ((0, 7),)

    @pytest.mark.parametrize("bad", [0, -1, 11])
    def test_invalid_shard_count_rejected(self, bad):
        with pytest.raises(ClusterError):
            ShardMap((10, 4), bad)

    def test_shard_shape_and_subarray(self, rng):
        array = rng.integers(0, 9, (11, 5))
        shardmap = ShardMap(array.shape, 4)
        for shard in range(4):
            slab = shardmap.subarray(array, shard)
            assert slab.shape == shardmap.shard_shape(shard)
            start, stop = shardmap.slab(shard)
            assert np.array_equal(slab, array[start:stop])

    def test_subarrays_reassemble_the_cube(self, rng):
        array = rng.integers(0, 9, (9, 4, 3))
        shardmap = ShardMap(array.shape, 3)
        stacked = np.concatenate(
            [shardmap.subarray(array, s) for s in range(3)], axis=0
        )
        assert np.array_equal(stacked, array)


class TestRouting:
    def test_shard_of_matches_slabs(self):
        shardmap = ShardMap((10, 4), 3)
        for row in range(10):
            shard = shardmap.shard_of((row, 0))
            start, stop = shardmap.slab(shard)
            assert start <= row < stop

    def test_shard_of_validates_cells(self):
        shardmap = ShardMap((10, 4), 2)
        with pytest.raises(RangeError):
            shardmap.shard_of((10, 0))
        with pytest.raises(RangeError):
            shardmap.shard_of((0, -1))
        with pytest.raises(RangeError):
            shardmap.shard_of((0,))

    def test_split_updates_translates_leading_axis_only(self):
        shardmap = ShardMap((10, 4), 2)
        grouped = shardmap.split_updates([((7, 3), 1.0)])
        assert list(grouped) == [1]
        assert list(grouped[1]) == [((2, 3), 1.0)]

    def test_split_updates_localizes_and_preserves_order(self):
        shardmap = ShardMap((10, 4), 2)
        pairs = [((0, 1), 1.0), ((9, 2), 2.0), ((1, 0), 3.0)]
        group = UpdateGroup.of(pairs, 2)
        for updates in (pairs, group):
            grouped = shardmap.split_updates(updates)
            assert list(grouped) == [0, 1]
            assert list(grouped[0]) == [((0, 1), 1.0), ((1, 0), 3.0)]
            assert list(grouped[1]) == [((4, 2), 2.0)]
            # sub-groups are fresh arrays, never views of the input
            for sub in grouped.values():
                assert isinstance(sub, UpdateGroup)
                assert not np.shares_memory(sub.cells, group.cells)
        assert group.cells.tolist() == [[0, 1], [9, 2], [1, 0]]
        assert shardmap.split_updates([]) == {}


def split_one(shardmap, low, high):
    """One box through ``split_boxes``, as ``(shard, local_low,
    local_high)`` coordinate tuples."""
    return [
        (shard, tuple(local_low[0].tolist()), tuple(local_high[0].tolist()))
        for shard, _, local_low, local_high in shardmap.split_boxes(
            [low], [high]
        )
    ]


class TestSplitBox:
    def test_box_inside_one_shard(self):
        shardmap = ShardMap((10, 4), 2)
        pieces = split_one(shardmap, (6, 0), (8, 3))
        assert pieces == [(1, (1, 0), (3, 3))]

    def test_box_spanning_all_shards(self):
        shardmap = ShardMap((9, 4), 3)
        pieces = split_one(shardmap, (0, 1), (8, 2))
        assert [p[0] for p in pieces] == [0, 1, 2]
        for shard, low, high in pieces:
            size = shardmap.shard_shape(shard)[0]
            assert 0 <= low[0] <= high[0] < size
            assert low[1:] == (1,) and high[1:] == (2,)

    def test_split_validates_ranges(self):
        shardmap = ShardMap((10, 4), 2)
        with pytest.raises(RangeError):
            shardmap.split_boxes([(5, 0)], [(4, 3)])  # inverted
        with pytest.raises(RangeError):
            shardmap.split_boxes([(0, 0)], [(10, 3)])  # out of bounds

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
    def test_partial_sums_reassemble_exactly(self, rng, num_shards):
        array = rng.integers(-50, 50, (15, 6)).astype(np.int64)
        shardmap = ShardMap(array.shape, num_shards)
        slabs = [shardmap.subarray(array, s) for s in range(num_shards)]
        for _ in range(50):
            low, high = random_range(rng, array.shape)
            total = sum(
                brute_range_sum(slabs[shard], slow, shigh)
                for shard, slow, shigh in split_one(shardmap, low, high)
            )
            assert total == brute_range_sum(array, low, high)

    def test_pieces_are_disjoint_and_cover(self, rng):
        shardmap = ShardMap((12, 5), 4)
        for _ in range(30):
            low, high = random_range(rng, (12, 5))
            rows = []
            for shard, slow, shigh in split_one(shardmap, low, high):
                start, _ = shardmap.slab(shard)
                rows.extend(range(start + slow[0], start + shigh[0] + 1))
            assert rows == list(range(low[0], high[0] + 1))


# -- split_boxes against the per-box reference --------------------------------


def reference_split_box(shardmap, low, high):
    """The per-box split loop ``split_boxes`` replaced, kept verbatim
    (validation included) as the reference for the batch split."""
    low = tuple(int(c) for c in low)
    high = tuple(int(c) for c in high)
    if len(low) != shardmap.ndim or len(high) != shardmap.ndim:
        raise RangeError("arity")
    for lo, hi, size in zip(low, high, shardmap.shape):
        if lo > hi or lo < 0 or hi >= size:
            raise RangeError("bounds")
    starts = [start for start, _ in shardmap.bounds]
    first = bisect.bisect_right(starts, low[0]) - 1
    pieces = []
    for shard in range(first, shardmap.num_shards):
        start, stop = shardmap.bounds[shard]
        if start > high[0]:
            break
        lo0 = max(low[0], start) - start
        hi0 = min(high[0], stop - 1) - start
        pieces.append((shard, (lo0,) + low[1:], (hi0,) + high[1:]))
    return pieces


@st.composite
def layouts(draw):
    """A ``ShardMap.from_bounds`` layout, d = 1..4, single-row slabs
    included, with a batch of valid boxes (Q = 0 included)."""
    ndim = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 24))
    shape = (rows,) + tuple(
        draw(st.integers(1, 5)) for _ in range(ndim - 1)
    )
    cuts = draw(st.sets(st.integers(1, rows - 1))) if rows > 1 else set()
    edges = [0] + sorted(cuts) + [rows]
    shardmap = ShardMap.from_bounds(shape, list(zip(edges, edges[1:])))
    # rows on slab edges are drawn often, so boxes end exactly on them
    row = st.one_of(
        st.integers(0, rows - 1),
        st.sampled_from(sorted({e for e in edges[:-1]}
                               | {e - 1 for e in edges[1:]})),
    )

    def box(_):
        low, high = [], []
        for axis, size in enumerate(shape):
            coord = row if axis == 0 else st.integers(0, size - 1)
            a, b = draw(coord), draw(coord)
            low.append(min(a, b))
            high.append(max(a, b))
        return tuple(low), tuple(high)

    boxes = [box(i) for i in range(draw(st.integers(0, 12)))]
    if draw(st.booleans()):
        # a box spanning every shard
        boxes.append(((0,) * ndim, tuple(n - 1 for n in shape)))
    return shardmap, boxes


def check_against_reference(shardmap, boxes):
    lows = [low for low, _ in boxes]
    highs = [high for _, high in boxes]
    d = shardmap.ndim
    pieces = shardmap.split_boxes(
        np.asarray(lows, dtype=np.intp).reshape(-1, d),
        np.asarray(highs, dtype=np.intp).reshape(-1, d),
    )
    assert pieces == sorted(pieces, key=lambda piece: piece[0])
    expected = {}
    for q, (low, high) in enumerate(boxes):
        for shard, slow, shigh in reference_split_box(shardmap, low, high):
            expected.setdefault(shard, []).append((q, slow, shigh))
    assert [piece[0] for piece in pieces] == sorted(expected)
    covered = [[] for _ in boxes]
    for shard, idx, local_lows, local_highs in pieces:
        assert idx.dtype == np.intp
        assert np.all(np.diff(idx) > 0)  # ascending, no repeats
        assert local_lows.shape == local_highs.shape == (len(idx), d)
        got = [
            (q, tuple(lo), tuple(hi))
            for q, lo, hi in zip(
                idx.tolist(), local_lows.tolist(), local_highs.tolist()
            )
        ]
        assert got == expected[shard]
        start, _ = shardmap.slab(shard)
        for q, lo, hi in got:
            covered[q].extend(range(start + lo[0], start + hi[0] + 1))
    for q, (low, high) in enumerate(boxes):
        assert covered[q] == list(range(low[0], high[0] + 1))
    # each box split on its own gives the same pieces
    for low, high in boxes:
        assert split_one(shardmap, low, high) == reference_split_box(
            shardmap, low, high
        )


class TestSplitBoxes:
    @settings(max_examples=200, deadline=None)
    @given(case=layouts())
    def test_matches_the_per_box_reference(self, case):
        check_against_reference(*case)

    def test_empty_batch(self):
        shardmap = ShardMap((6, 3), 2)
        assert shardmap.split_boxes([], []) == []
        assert shardmap.split_boxes(
            np.empty((0, 2), dtype=np.intp), np.empty((0, 2), dtype=np.intp)
        ) == []

    def test_single_row_slabs_and_edges(self):
        shardmap = ShardMap.from_bounds((5, 2), [(0, 1), (1, 2), (2, 5)])
        check_against_reference(shardmap, [
            ((0, 0), (0, 1)), ((1, 0), (1, 1)), ((0, 0), (1, 1)),
            ((1, 1), (2, 1)), ((2, 0), (4, 0)), ((0, 0), (4, 1)),
        ])

    def test_lists_and_integer_arrays_agree(self):
        shardmap = ShardMap((9, 4), 3)
        lows, highs = [(0, 1), (5, 0)], [(8, 2), (6, 3)]
        from_lists = shardmap.split_boxes(lows, highs)
        from_arrays = shardmap.split_boxes(
            np.asarray(lows, dtype=np.int32), np.asarray(highs)
        )
        assert len(from_lists) == len(from_arrays)
        for a, b in zip(from_lists, from_arrays):
            assert a[0] == b[0]
            for x, y in zip(a[1:], b[1:]):
                assert np.array_equal(x, y)

    @pytest.mark.parametrize("low, high", [
        ((5, 0), (4, 3)),          # inverted
        ((0, 0), (10, 3)),         # out of bounds
        ((0, -1), (1, 1)),         # negative
    ])
    def test_a_malformed_box_raises_range_error(self, low, high):
        shardmap = ShardMap((10, 4), 2)
        with pytest.raises(RangeError):
            shardmap.split_boxes([low], [high])
        with pytest.raises(RangeError):
            shardmap.split_boxes([(0, 0), low], [(1, 1), high])

    @pytest.mark.parametrize("low, high", [
        ((0, 0, 0), (1, 1, 1)),    # wrong arity
        ((0,), (1,)),              # wrong arity
        ((0, 0), (1,)),            # low and high disagree
    ])
    def test_a_box_of_the_wrong_arity_raises_dimension_error(
        self, low, high
    ):
        """The core's batch check, not re-wrapped: a bare cluster reads
        with the same errors as every other stack."""
        shardmap = ShardMap((10, 4), 2)
        with pytest.raises(DimensionError):
            shardmap.split_boxes([low], [high])
        with pytest.raises(DimensionError):
            shardmap.split_boxes([low, low], [high, high])

    def test_batches_of_different_lengths_raise_dimension_error(self):
        shardmap = ShardMap((10, 4), 2)
        with pytest.raises(DimensionError):
            shardmap.split_boxes([(0, 0), (1, 1)], [(2, 2)])

    def test_ragged_rows_raise_value_error(self):
        shardmap = ShardMap((10, 4), 2)
        with pytest.raises(ValueError):
            shardmap.split_boxes([(0, 0), (1,)], [(1, 1), (2, 2)])
