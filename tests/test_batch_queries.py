"""Differential tests: batched query kernels vs the looped path.

The vectorized ``prefix_sum_many`` / ``range_sum_many`` kernels must be
bit-identical to looping the scalar calls — in results *and* in the
logical cell costs charged to the counter, per structure — across
dimensions 1..4 and non-square shapes. Randomized with fixed seeds, plus
hypothesis properties for the stacked-corner kernel.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import fenwick
from repro.baselines.fenwick import FenwickCube
from repro.baselines.naive import NaiveCube
from repro.baselines.prefix import PrefixSumCube
from repro.core import indexing
from repro.core.rps import RelativePrefixSumCube
from repro.errors import DimensionError, RangeError

METHODS = [NaiveCube, PrefixSumCube, FenwickCube, RelativePrefixSumCube]

SHAPES = [
    (23,),          # d=1
    (17, 6),        # d=2, non-square
    (9, 14, 5),     # d=3, non-square
    (5, 3, 6, 4),   # d=4, non-square
]


def _random_batch(rng, shape, count):
    lows = np.empty((count, len(shape)), dtype=np.intp)
    highs = np.empty((count, len(shape)), dtype=np.intp)
    for q in range(count):
        for axis, n in enumerate(shape):
            a, b = sorted(int(x) for x in rng.integers(0, n, size=2))
            lows[q, axis] = a
            highs[q, axis] = b
    return lows, highs


def _structure_charges(counter):
    return {
        name: (bucket.get("read", 0), bucket.get("written", 0))
        for name, bucket in counter.by_structure.items()
        if bucket.get("read", 0) or bucket.get("written", 0)
    }


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"d{len(s)}")
@pytest.mark.parametrize("method_cls", METHODS, ids=lambda c: c.name)
@pytest.mark.parametrize("seed", [0, 7])
def test_range_sum_many_matches_looped_exactly(method_cls, shape, seed):
    rng = np.random.default_rng(seed)
    array = rng.integers(-30, 30, size=shape)
    looped = method_cls(array)
    batched = method_cls(array)
    lows, highs = _random_batch(rng, shape, 40)

    loop_before = looped.counter.snapshot()
    expected = np.array(
        [looped.range_sum(tuple(lo), tuple(hi))
         for lo, hi in zip(lows, highs)]
    )
    loop_cost = loop_before.delta(looped.counter)

    batch_before = batched.counter.snapshot()
    got = batched.range_sum_many(lows, highs)
    batch_cost = batch_before.delta(batched.counter)

    # int cubes: the kernels must be exactly equal, not merely close
    assert np.array_equal(expected, got)
    assert loop_cost.cells_read == batch_cost.cells_read
    assert loop_cost.cells_written == batch_cost.cells_written
    assert _structure_charges(looped.counter) == _structure_charges(
        batched.counter
    )


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"d{len(s)}")
@pytest.mark.parametrize("method_cls", METHODS, ids=lambda c: c.name)
def test_prefix_sum_many_matches_looped_exactly(method_cls, shape):
    rng = np.random.default_rng(11)
    array = rng.integers(-30, 30, size=shape)
    looped = method_cls(array)
    batched = method_cls(array)
    targets = np.stack(
        [rng.integers(0, n, size=60) for n in shape], axis=1
    ).astype(np.intp)

    loop_before = looped.counter.snapshot()
    expected = np.array([looped.prefix_sum(tuple(t)) for t in targets])
    loop_cost = loop_before.delta(looped.counter)

    batch_before = batched.counter.snapshot()
    got = batched.prefix_sum_many(targets)
    batch_cost = batch_before.delta(batched.counter)

    assert np.array_equal(expected, got)
    assert loop_cost.cells_read == batch_cost.cells_read
    assert _structure_charges(looped.counter) == _structure_charges(
        batched.counter
    )


@pytest.mark.parametrize("method_cls", METHODS, ids=lambda c: c.name)
def test_batched_queries_track_interleaved_updates(method_cls):
    """Query batches interleaved with updates never serve stale answers
    (exercises the naive method's prefix-cache invalidation)."""
    rng = np.random.default_rng(23)
    shape = (11, 8)
    array = rng.integers(0, 40, size=shape)
    method = method_cls(array)
    oracle = array.copy()
    lows, highs = _random_batch(rng, shape, 12)
    for _ in range(6):
        got = method.range_sum_many(lows, highs)
        expected = np.array(
            [oracle[tuple(slice(l, h + 1) for l, h in zip(lo, hi))].sum()
             for lo, hi in zip(lows, highs)]
        )
        assert np.array_equal(expected, got)
        cell = tuple(int(rng.integers(0, n)) for n in shape)
        delta = int(rng.integers(-9, 10)) or 2
        method.apply_delta(cell, delta)
        oracle[cell] += delta
    # and through the batch-update path too
    batch = []
    for _ in range(5):
        cell = tuple(int(rng.integers(0, n)) for n in shape)
        delta = int(rng.integers(-5, 6))
        batch.append((cell, delta))
        oracle[cell] += delta
    method.apply_batch(batch)
    got = method.range_sum_many(lows, highs)
    expected = np.array(
        [oracle[tuple(slice(l, h + 1) for l, h in zip(lo, hi))].sum()
         for lo, hi in zip(lows, highs)]
    )
    assert np.array_equal(expected, got)


@pytest.mark.parametrize("method_cls", METHODS, ids=lambda c: c.name)
def test_rps_box_sweep_batches(method_cls):
    """Batched kernels agree with the loop across awkward RPS box sizes
    (other methods run once; the parametrization keeps ids uniform)."""
    rng = np.random.default_rng(3)
    shape = (10, 7)
    array = rng.integers(-10, 10, size=shape)
    lows, highs = _random_batch(rng, shape, 20)
    box_sizes = (1, 2, 3, 5, 50) if method_cls is RelativePrefixSumCube else (None,)
    for box in box_sizes:
        kwargs = {} if box is None else {"box_size": box}
        looped = method_cls(array, **kwargs)
        batched = method_cls(array, **kwargs)
        expected = np.array(
            [looped.range_sum(tuple(lo), tuple(hi))
             for lo, hi in zip(lows, highs)]
        )
        got = batched.range_sum_many(lows, highs)
        assert np.array_equal(expected, got), f"box_size={box}"


class TestBatchValidation:
    def test_arity_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            indexing.normalize_index_batch([[1, 2, 3]], (9, 9))

    def test_out_of_bounds_rejected(self):
        with pytest.raises(RangeError):
            indexing.normalize_index_batch([[0, 9]], (9, 9))
        with pytest.raises(RangeError):
            indexing.normalize_index_batch([[-1, 0]], (9, 9))

    def test_inverted_range_rejected(self):
        with pytest.raises(RangeError):
            indexing.normalize_range_batch([[3, 3]], [[2, 5]], (9, 9))

    def test_batch_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            indexing.normalize_range_batch(
                [[0, 0], [1, 1]], [[2, 2]], (9, 9)
            )

    def test_non_integer_batch_rejected(self):
        with pytest.raises(TypeError):
            indexing.normalize_index_batch([[0.5, 1.0]], (9, 9))

    def test_flat_vector_accepted_for_1d(self):
        cube = PrefixSumCube(np.arange(10))
        got = cube.prefix_sum_many(np.array([0, 4, 9]))
        assert np.array_equal(got, np.array([0, 10, 45]))

    def test_empty_batch_returns_empty(self):
        cube = RelativePrefixSumCube(np.arange(16).reshape(4, 4))
        empty = np.empty((0, 2), dtype=np.intp)
        assert cube.prefix_sum_many(empty).shape == (0,)
        assert cube.range_sum_many(empty, empty).shape == (0,)

    def test_misshaped_empty_batch_rejected(self):
        """Empty batches are arity-checked too: a (0, 3) batch against a
        2-d cube used to pass silently through the empty early-out."""
        cube = RelativePrefixSumCube(np.arange(16).reshape(4, 4))
        bad = np.empty((0, 3), dtype=np.intp)
        with pytest.raises(DimensionError):
            cube.prefix_sum_many(bad)
        with pytest.raises(DimensionError):
            cube.range_sum_many(bad, bad)

    def test_flat_empty_batch_still_legal(self):
        cube = RelativePrefixSumCube(np.arange(16).reshape(4, 4))
        assert cube.prefix_sum_many([]).shape == (0,)
        assert cube.prefix_sum_many(np.empty(0, dtype=np.intp)).shape == (0,)


# -- the stacked-corner kernel ---------------------------------------------

#: the methods whose range batches run through ``_corner_range_sum_many``
STACKED = [PrefixSumCube, FenwickCube, RelativePrefixSumCube]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("method_cls", STACKED, ids=lambda c: c.name)
def test_range_sum_many_validates_each_input_once(method_cls, d, monkeypatch):
    """One batch, one validation: lows and highs are normalized once
    each, however many of the 2^d corners the kernel evaluates."""
    shape = (5, 4, 3, 6)[:d]
    array = np.arange(int(np.prod(shape))).reshape(shape)
    cube = method_cls(array)
    lows = np.ones((3, d), dtype=np.intp)  # no empty corner anywhere
    highs = np.tile(np.asarray(shape, dtype=np.intp) - 1, (3, 1))
    real = indexing.normalize_index_batch
    calls = []

    def counting(targets, shape):
        calls.append(len(targets))
        return real(targets, shape)

    monkeypatch.setattr(indexing, "normalize_index_batch", counting)
    got = cube.range_sum_many(lows, highs)
    assert calls == [3, 3]
    inner = array[tuple(slice(1, None) for _ in shape)].sum()
    assert got.tolist() == [inner] * 3


def test_public_row_parts_validate_then_match_the_scalar_reads():
    """``Overlay.prefix_contribution_many`` and ``RelativePrefixArray
    .value_many`` stay validating entry points over the row kernels."""
    rng = np.random.default_rng(4)
    cube = RelativePrefixSumCube(rng.integers(-9, 9, (11, 7)), box_size=3)
    targets = np.stack(
        [rng.integers(0, n, 30) for n in cube.shape], axis=1
    )
    overlay = cube.overlay.prefix_contribution_many(targets)
    rp = cube.rp.value_many(targets)
    assert overlay.tolist() == [
        cube.overlay.prefix_contribution(tuple(t)) for t in targets
    ]
    assert rp.tolist() == [cube.rp.value(tuple(t)) for t in targets]
    with pytest.raises(RangeError):
        cube.overlay.prefix_contribution_many([[11, 0]])
    with pytest.raises(RangeError):
        cube.rp.value_many([[0, -1]])


def _looped_range_sums(cube, boxes):
    return np.array(
        [cube.range_sum(lo, hi) for lo, hi in boxes], dtype=cube.dtype
    )


@st.composite
def stacked_kernel_cases(draw):
    """A cube (int64, int32 or float64; per-axis box sizes that need not
    divide the extents) and a few query batches (Q may be 0), each
    followed by an ``apply_batch_array`` group whose deltas may be
    fractional — promoting an integer cube to float mid-stream.

    Float cells and deltas are multiples of 1/4, so every partial sum is
    exact and any summation order gives the same bits: the looped path
    walks corners and border subsets in a different order than the
    kernel, and this property pins values and ledgers, not rounding.
    """
    d = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, 6)) for _ in range(d))
    box_sizes = tuple(draw(st.integers(1, n + 1)) for n in shape)
    kind = draw(st.sampled_from(["int64", "int32", "float64"]))
    size = int(np.prod(shape))
    cells = np.array(
        draw(st.lists(st.integers(-40, 40), min_size=size, max_size=size))
    ).reshape(shape)
    array = cells / 4 if kind == "float64" else cells.astype(kind)

    def box():
        low = tuple(draw(st.integers(0, n - 1)) for n in shape)
        high = tuple(draw(st.integers(l, n - 1)) for l, n in zip(low, shape))
        return low, high

    def cell():
        return tuple(draw(st.integers(0, n - 1)) for n in shape)

    steps = []
    for _ in range(draw(st.integers(1, 4))):
        boxes = [box() for _ in range(draw(st.integers(0, 6)))]
        updates = [
            (cell(), draw(st.integers(-9, 9)) / draw(st.sampled_from([1, 2])))
            for _ in range(draw(st.integers(0, 3)))
        ]
        steps.append((boxes, updates))
    return array, box_sizes, steps


@pytest.mark.parametrize("method_cls", STACKED, ids=lambda c: c.name)
@settings(max_examples=60, deadline=None)
@given(case=stacked_kernel_cases())
def test_stacked_kernel_matches_looped_range_sum(method_cls, case):
    array, box_sizes, steps = case
    kwargs = (
        {"box_size": box_sizes}
        if method_cls is RelativePrefixSumCube else {}
    )
    looped = method_cls(array, **kwargs)
    batched = method_cls(array, **kwargs)
    d = array.ndim
    for boxes, updates in steps:
        lows = np.array([lo for lo, _ in boxes], dtype=np.intp).reshape(-1, d)
        highs = np.array([hi for _, hi in boxes], dtype=np.intp).reshape(-1, d)
        expected = _looped_range_sums(looped, boxes)
        # Fenwick's prefix kernel and the overlay gather run in row
        # chunks: 5-row chunks make most stacked batches span several,
        # ragged last chunk included
        with mock.patch.object(fenwick, "PREFIX_CHUNK_ROWS", 5), \
                mock.patch("repro.core.overlay.GATHER_CHUNK_ROWS", 5):
            got = batched.range_sum_many(lows, highs)
        assert got.dtype == expected.dtype == batched.dtype
        assert got.tobytes() == expected.tobytes()
        assert _structure_charges(looped.counter) == _structure_charges(
            batched.counter
        )
        if updates:
            indices = [c for c, _ in updates]
            deltas = [v for _, v in updates]
            looped.apply_batch_array(indices, deltas)
            batched.apply_batch_array(indices, deltas)
            assert looped.dtype == batched.dtype


def _compacted_prefix(cube, rows):
    """Prefix sums the way the kernel summed them before the stacked
    gathers: RPS border terms added only to the compacted rows they
    apply to, in ascending subset order, then RP."""
    if not isinstance(cube, RelativePrefixSumCube):
        return cube.prefix_sum_many(rows)
    overlay, full = cube.overlay, (1 << cube.ndim) - 1
    sizes = np.asarray(cube.box_sizes, dtype=np.intp)
    box = rows // sizes
    off = rows != box * sizes
    total = overlay.anchors_array()[tuple(box.T)]
    for sub in range(1, full):
        axes = [axis for axis in range(cube.ndim) if sub >> axis & 1]
        rows_in = off[:, axes].all(axis=1)
        cell = tuple(
            (rows if sub >> axis & 1 else box)[rows_in, axis]
            for axis in range(cube.ndim)
        )
        total[rows_in] += overlay.values_array(full ^ sub)[cell]
    return total + cube.rp.array()[tuple(rows.T)]


def _per_corner_range_sums(cube, lo, hi):
    """The 2^d-corner identity one corner subset at a time, in ascending
    subset order, skipping empty prefixes."""
    out = np.zeros(len(lo), dtype=cube.dtype)
    for mask in range(1 << cube.ndim):
        corners = hi.copy()
        for axis in range(cube.ndim):
            if mask >> axis & 1:
                corners[:, axis] = lo[:, axis] - 1
        live = (corners >= 0).all(axis=1)
        if not live.any():
            continue
        values = _compacted_prefix(cube, corners[live])
        if bin(mask).count("1") % 2:
            out[live] -= values
        else:
            out[live] += values
    return out


@st.composite
def float_cubes_and_boxes(draw):
    d = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 6)) for _ in range(d))
    box_sizes = tuple(draw(st.integers(1, n + 1)) for n in shape)
    size = int(np.prod(shape))
    cells = draw(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=size,
            max_size=size,
        )
    )
    lows, highs = [], []
    for _ in range(draw(st.integers(1, 6))):
        low = [draw(st.integers(0, n - 1)) for n in shape]
        lows.append(low)
        highs.append([draw(st.integers(l, n - 1)) for l, n in zip(low, shape)])
    return (
        np.array(cells, dtype=np.float64).reshape(shape),
        box_sizes,
        np.array(lows, dtype=np.intp),
        np.array(highs, dtype=np.intp),
    )


@pytest.mark.parametrize("method_cls", STACKED, ids=lambda c: c.name)
@settings(max_examples=60, deadline=None)
@given(case=float_cubes_and_boxes())
def test_stacked_kernel_keeps_the_per_corner_float_order(method_cls, case):
    """Arbitrary floats (signed zeros included): the stacked kernel adds
    in the same order as summing one corner subset at a time, and the
    masked border gathers in the same order as compacted ones, so the
    answers are the same bits."""
    array, box_sizes, lows, highs = case
    kwargs = (
        {"box_size": box_sizes}
        if method_cls is RelativePrefixSumCube else {}
    )
    cube = method_cls(array, **kwargs)
    got = cube.range_sum_many(lows, highs)
    assert got.tobytes() == _per_corner_range_sums(cube, lows, highs).tobytes()
    prefixes = cube.prefix_sum_many(highs)
    assert prefixes.tobytes() == _compacted_prefix(cube, highs).tobytes()
