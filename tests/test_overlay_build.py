"""The reduce-first overlay build against the full-cube build it replaced.

``reference_values`` is the previous ``Overlay._build``: for every face
subset ``Z`` it runs an exclusive blocked cumsum over the full cube on
each non-``Z`` axis, a plain cumsum on each ``Z`` axis, and only then
keeps the anchor slices on ``Z``. Its blocked cumsum is the block-by-block
oracle, so the reference shares no code with the build under test.

Every stored array must match it bit for bit, dtype included, on int64,
int32 and integer-valued float64 cubes. On fractional float64 cubes the two
builds add in different orders, so they may differ in the last bits.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.overlay import Overlay

from tests.test_blocked import brute_blocked_cumsum


def _exclusive(array, axis, k):
    """Blocked cumsum minus each block's first element, repeated."""
    inclusive = brute_blocked_cumsum(array, axis, k)
    starts = np.arange(0, array.shape[axis], k)
    full, rem = divmod(array.shape[axis], k)
    reps = [k] * full + ([rem] if rem else [])
    return inclusive - np.repeat(
        np.take(array, starts, axis=axis), reps, axis=axis
    )


def reference_values(array, box_sizes):
    """``{mask: values}`` as the full-cube build computed them."""
    ndim = array.ndim
    values = {}
    for mask in range(1, 1 << ndim):
        work = array
        for axis in range(ndim):
            if not mask & (1 << axis):
                work = _exclusive(work, axis, box_sizes[axis])
        inclusive = work
        for axis in range(ndim):
            if mask & (1 << axis):
                inclusive = np.cumsum(inclusive, axis=axis)
        s1, s2 = inclusive, work
        for axis in range(ndim):
            if mask & (1 << axis):
                starts = np.arange(0, array.shape[axis], box_sizes[axis])
                s1 = np.take(s1, starts, axis=axis)
                s2 = np.take(s2, starts, axis=axis)
        values[mask] = s1 - s2
    return values


@st.composite
def shapes_and_boxes(draw):
    """A d = 1..4 shape and one box side per axis: 1, ragged, or >= n."""
    ndim = draw(st.integers(1, 4))
    side = (9, 7, 5, 4)[ndim - 1]
    shape = tuple(draw(st.integers(1, side)) for _ in range(ndim))
    boxes = tuple(draw(st.integers(1, n + 2)) for n in shape)
    return shape, boxes


def _cube(seed, shape, dtype):
    rng = np.random.default_rng(seed)
    if dtype == "fractional":
        return rng.normal(0.0, 1e3, size=shape)
    return rng.integers(-(2 ** 20), 2 ** 20, size=shape).astype(dtype)


@settings(max_examples=150, deadline=None)
@given(
    shapes_and_boxes(),
    # int32 widens to the dtype np.cumsum gives
    st.sampled_from([np.int64, np.float64, np.int32]),
    st.integers(0, 2 ** 32 - 1),
)
def test_build_is_bit_identical_on_integer_data(geometry, dtype, seed):
    shape, boxes = geometry
    cube = _cube(seed, shape, dtype)
    overlay = Overlay(cube, boxes)
    expected = reference_values(cube, boxes)
    assert sorted(overlay.masks()) == sorted(expected)
    for mask, want in expected.items():
        got = overlay.values_array(mask)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want), mask


@settings(max_examples=60, deadline=None)
@given(shapes_and_boxes(), st.integers(0, 2 ** 32 - 1))
def test_build_matches_on_fractional_floats(geometry, seed):
    shape, boxes = geometry
    cube = _cube(seed, shape, "fractional")
    overlay = Overlay(cube, boxes)
    # relative to the cube's mass: a stored value near zero may be a
    # difference of two large partial sums
    scale = np.abs(cube).sum()
    for mask, want in reference_values(cube, boxes).items():
        got = overlay.values_array(mask)
        assert got.dtype == want.dtype
        assert np.all(np.abs(got - want) <= 1e-9 * scale), mask

