"""Unit tests for blocked cumulative sums (repro.core.blocked)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocked import blocked_cumsum, blocked_prefix_all_axes


def brute_blocked_cumsum(array, axis, block):
    """Oracle: per-block cumsum built block by block."""
    out = np.empty_like(array)
    n = array.shape[axis]
    for start in range(0, n, block):
        stop = min(start + block, n)
        src = [slice(None)] * array.ndim
        src[axis] = slice(start, stop)
        out[tuple(src)] = np.cumsum(array[tuple(src)], axis=axis)
    return out


class TestBlockedCumsum:
    def test_block_one_is_identity(self, rng):
        a = rng.integers(0, 10, size=(6, 6))
        assert np.array_equal(blocked_cumsum(a, 0, 1), a)

    def test_block_covering_axis_is_plain_cumsum(self, rng):
        a = rng.integers(0, 10, size=(6, 6))
        assert np.array_equal(blocked_cumsum(a, 1, 6), np.cumsum(a, axis=1))

    def test_block_larger_than_axis(self, rng):
        a = rng.integers(0, 10, size=(4,))
        assert np.array_equal(blocked_cumsum(a, 0, 99), np.cumsum(a))

    @pytest.mark.parametrize("shape,axis,block", [
        ((9,), 0, 3),
        ((9, 9), 0, 3),
        ((9, 9), 1, 3),
        ((10, 7), 0, 3),       # partial final block
        ((10, 7), 1, 4),
        ((5, 6, 7), 2, 2),
        ((5, 6, 7), 1, 5),
    ])
    def test_matches_bruteforce(self, rng, shape, axis, block):
        a = rng.integers(-5, 10, size=shape)
        got = blocked_cumsum(a, axis, block)
        assert np.array_equal(got, brute_blocked_cumsum(a, axis, block))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(1, 9), min_size=1, max_size=4),
        st.data(),
    )
    def test_matches_bruteforce_on_every_axis(self, shape, data):
        # ragged, evenly blocked, block of 1 and block >= n all occur
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        a = np.random.default_rng(seed).integers(-5, 10, size=shape)
        for axis, n in enumerate(shape):
            block = data.draw(st.integers(1, n + 2))
            got = blocked_cumsum(a, axis, block)
            assert got.dtype == a.dtype
            assert np.array_equal(got, brute_blocked_cumsum(a, axis, block))

    def test_restarts_exactly_at_block_boundary(self):
        a = np.ones(9, dtype=np.int64)
        out = blocked_cumsum(a, 0, 3)
        assert out.tolist() == [1, 2, 3, 1, 2, 3, 1, 2, 3]

    def test_invalid_block_rejected(self):
        with pytest.raises(ValueError):
            blocked_cumsum(np.ones(4), 0, 0)

    def test_input_not_mutated(self, rng):
        a = rng.integers(0, 10, size=(6, 6))
        original = a.copy()
        blocked_cumsum(a, 0, 2)
        assert np.array_equal(a, original)

    def test_float_dtype_preserved(self, rng):
        a = rng.random((6, 6))
        out = blocked_cumsum(a, 0, 3)
        assert out.dtype == a.dtype


class TestBlockedPrefixAllAxes:
    def test_reproduces_paper_rp(self):
        from repro import paper

        got = blocked_prefix_all_axes(paper.ARRAY_A, paper.BOX_SIZE)
        assert np.array_equal(got, paper.ARRAY_RP)

    def test_matches_per_box_definition(self, rng):
        a = rng.integers(0, 10, size=(7, 8))
        k = 3
        out = blocked_prefix_all_axes(a, k)
        for i in range(7):
            for j in range(8):
                ai, aj = (i // k) * k, (j // k) * k
                assert out[i, j] == a[ai : i + 1, aj : j + 1].sum()

    def test_3d(self, rng):
        a = rng.integers(0, 10, size=(5, 6, 4))
        k = 2
        out = blocked_prefix_all_axes(a, k)
        for idx in np.ndindex(*a.shape):
            anchor = tuple((x // k) * k for x in idx)
            region = tuple(slice(a_, x + 1) for a_, x in zip(anchor, idx))
            assert out[idx] == a[region].sum()
