"""Unit tests for the overlay structure (repro.core.overlay)."""

import itertools

import numpy as np
import pytest

from repro import paper
from repro.core.overlay import Overlay, _exclusive_blocked_cumsum
from repro.errors import RangeError
from repro.metrics.counters import AccessCounter


def brute_stored(array, box_size, cell):
    """Oracle for a stored overlay value (DESIGN.md Section 1).

    Z = anchor-aligned coordinates of the cell; the value is
    prod_{j not in Z}(a_j, c_j] x (prod_{j in Z}[0, a_j] - prod_{j in Z}{a_j}).
    """
    k = box_size
    anchor = tuple((c // k) * k for c in cell)
    z = [j for j, c in enumerate(cell) if c % k == 0]
    s1 = tuple(
        slice(0, anchor[j] + 1) if j in z else slice(anchor[j] + 1, cell[j] + 1)
        for j in range(array.ndim)
    )
    s2 = tuple(
        slice(anchor[j], anchor[j] + 1) if j in z
        else slice(anchor[j] + 1, cell[j] + 1)
        for j in range(array.ndim)
    )
    return array[s1].sum() - array[s2].sum()


class TestExclusiveBlockedCumsum:
    def test_zero_at_block_starts(self):
        a = np.arange(1, 10)
        out = _exclusive_blocked_cumsum(a, 0, 3)
        assert out[0] == out[3] == out[6] == 0

    def test_values(self):
        a = np.arange(1, 10)  # 1..9
        out = _exclusive_blocked_cumsum(a, 0, 3)
        assert out.tolist() == [0, 2, 5, 0, 5, 11, 0, 8, 17]


class TestAnchors:
    def test_paper_anchor_values(self, paper_cube):
        overlay = Overlay(paper_cube, paper.BOX_SIZE)
        assert np.array_equal(
            overlay.anchors_array().astype(np.int64), paper.OVERLAY_ANCHORS
        )

    def test_anchor_is_prefix_minus_cell(self, rng):
        a = rng.integers(0, 10, size=(12, 12))
        overlay = Overlay(a, 4)
        for anchor in itertools.product((0, 4, 8), repeat=2):
            expected = (
                a[: anchor[0] + 1, : anchor[1] + 1].sum() - a[anchor]
            )
            assert overlay.anchor_value(anchor) == expected

    def test_anchor_lookup_rejects_non_anchor(self, paper_cube):
        overlay = Overlay(paper_cube, 3)
        with pytest.raises(RangeError):
            overlay.anchor_value((1, 3))

    def test_first_anchor_is_zero(self, rng):
        a = rng.integers(0, 10, size=(8, 8))
        overlay = Overlay(a, 4)
        assert overlay.anchor_value((0, 0)) == 0


class TestBorderValues:
    def test_paper_row_borders(self, paper_cube):
        overlay = Overlay(paper_cube, paper.BOX_SIZE)
        for cell, expected in paper.BORDER_ROW_VALUES.items():
            assert overlay.border_value(cell) == expected, cell

    def test_paper_column_borders(self, paper_cube):
        overlay = Overlay(paper_cube, paper.BOX_SIZE)
        for cell, expected in paper.BORDER_COLUMN_VALUES.items():
            assert overlay.border_value(cell) == expected, cell

    def test_border_cumulative_property_2d(self, paper_cube):
        # X_2 includes X_1 (Figure 8): values grow along the face.
        overlay = Overlay(paper_cube, 3)
        x1 = overlay.border_value((6, 4))
        x2 = overlay.border_value((6, 5))
        col5_above = paper_cube[:6, 5].sum()
        assert x2 == x1 + col5_above

    @pytest.mark.parametrize("shape,k", [
        ((9, 9), 3),
        ((10, 7), 3),
        ((8, 8, 8), 2),
        ((6, 5, 7), 3),
        ((5, 4, 3, 4), 2),
    ])
    def test_all_stored_values_match_bruteforce(self, rng, shape, k):
        a = rng.integers(0, 10, size=shape)
        overlay = Overlay(a, k)
        for cell in itertools.product(*(range(n) for n in shape)):
            z = [j for j, c in enumerate(cell) if c % k == 0]
            if not z:
                continue
            expected = brute_stored(a, k, cell)
            if len(z) == len(shape):
                got = overlay.anchor_value(cell)
            else:
                got = overlay.border_value(cell)
            assert got == expected, (cell, got, expected)

    def test_border_lookup_rejects_interior_cell(self, paper_cube):
        overlay = Overlay(paper_cube, 3)
        with pytest.raises(RangeError):
            overlay.border_value((1, 1))

    def test_border_lookup_rejects_anchor(self, paper_cube):
        overlay = Overlay(paper_cube, 3)
        with pytest.raises(RangeError):
            overlay.border_value((3, 3))


class TestPrefixContribution:
    def test_matches_prefix_minus_rp(self, rng):
        """overlay contribution + RP == full prefix sum, everywhere."""
        for shape, k in [((9, 9), 3), ((10, 7), 3), ((6, 6, 6), 2),
                         ((5, 4, 6), 3)]:
            a = rng.integers(0, 10, size=shape)
            overlay = Overlay(a, k)
            prefix = a.copy()
            for axis in range(a.ndim):
                prefix = np.cumsum(prefix, axis=axis)
            for t in itertools.product(*(range(n) for n in shape)):
                anchor = tuple((x // k) * k for x in t)
                rp = a[tuple(slice(x, y + 1) for x, y in zip(anchor, t))].sum()
                assert overlay.prefix_contribution(t) + rp == prefix[t], t

    def test_read_count_2d_interior(self, paper_cube):
        overlay = Overlay(paper_cube, 3)
        before = overlay.counter.snapshot()
        overlay.prefix_contribution((7, 5))
        # Paper's count for d=2: one anchor + two border values.
        assert before.delta(overlay.counter).cells_read == 3

    def test_read_count_bounded_by_2_to_d(self, rng):
        a = rng.integers(0, 5, size=(8, 8, 8))
        overlay = Overlay(a, 2)
        before = overlay.counter.snapshot()
        overlay.prefix_contribution((7, 7, 7))
        assert before.delta(overlay.counter).cells_read == 2**3 - 1

    def test_anchor_target_reads_one_value(self, paper_cube):
        overlay = Overlay(paper_cube, 3)
        before = overlay.counter.snapshot()
        overlay.prefix_contribution((3, 3))
        assert before.delta(overlay.counter).cells_read == 1


class TestUpdates:
    def test_paper_update_example(self, paper_cube):
        overlay = Overlay(paper_cube, paper.BOX_SIZE)
        touched = overlay.apply_delta(paper.UPDATE_EXAMPLE_CELL, 1)
        assert touched == paper.UPDATE_EXAMPLE_RPS_OVERLAY_CELLS
        for (r, c), value in paper.OVERLAY_CELLS_AFTER_UPDATE.items():
            if r % 3 == 0 and c % 3 == 0:
                assert overlay.anchor_value((r, c)) == value
            else:
                assert overlay.border_value((r, c)) == value

    def test_update_equals_rebuild(self, rng):
        """Incremental delta propagation == rebuilding from scratch."""
        for shape, k in [((9, 9), 3), ((10, 7), 3), ((6, 6, 6), 2)]:
            a = rng.integers(0, 10, size=shape)
            overlay = Overlay(a, k)
            for _ in range(12):
                cell = tuple(int(rng.integers(0, n)) for n in shape)
                delta = int(rng.integers(1, 5))
                a[cell] += delta
                overlay.apply_delta(cell, delta)
            fresh = Overlay(a, k)
            for mask in overlay.masks():
                assert np.array_equal(
                    overlay.values_array(mask), fresh.values_array(mask)
                ), (shape, k, mask)

    def test_update_at_anchor_touches_no_borders(self, paper_cube):
        """Paper Section 4.2: updating a cell directly under an anchor
        only changes other boxes' anchor values."""
        overlay = Overlay(paper_cube, 3)
        counter = overlay.counter
        overlay.apply_delta((0, 0), 1)
        assert counter.structure_written("overlay.border") == 0
        # anchors of all 8 other boxes change; own anchor excluded
        assert counter.structure_written("overlay.anchor") == 8

    def test_update_cost_prediction_matches_actual(self, rng):
        for shape, k in [((9, 9), 3), ((10, 10), 4), ((6, 6, 6), 2)]:
            a = rng.integers(0, 10, size=shape)
            overlay = Overlay(a, k)
            for _ in range(25):
                cell = tuple(int(rng.integers(0, n)) for n in shape)
                predicted = overlay.update_cost(cell)
                before = overlay.counter.snapshot()
                actual = overlay.apply_delta(cell, 1)
                written = before.delta(overlay.counter).cells_written
                assert predicted == actual == written, (shape, k, cell)

    def test_update_in_last_box_corner_touches_nothing(self):
        a = np.ones((9, 9), dtype=np.int64)
        overlay = Overlay(a, 3)
        # Cell (8, 8): nothing after it — no anchors, no borders change.
        assert overlay.apply_delta((8, 8), 5) == 0

    def test_worst_case_update_bounded_by_binomial(self, rng):
        """Worst-case overlay+RP update <= ((n/k) + k)^d (DESIGN.md)."""
        for n, d, k in [(64, 2, 8), (27, 3, 3), (16, 4, 4)]:
            a = rng.integers(0, 5, size=(n,) * d)
            overlay = Overlay(a, k)
            bound = (n // k + k) ** d
            for _ in range(20):
                cell = tuple(int(rng.integers(0, n)) for _ in range(d))
                rp_cells = int(
                    np.prod([k - c % k for c in cell])
                )
                assert overlay.update_cost(cell) + rp_cells <= bound


class TestStorage:
    def test_paper_storage_count_2d(self, paper_cube):
        overlay = Overlay(paper_cube, 3)
        # 9 boxes x (3^2 - 2^2) = 45
        assert overlay.paper_storage_cells() == 9 * 5
        assert overlay.storage_cells() == 9 * 5

    def test_storage_matches_paper_formula_3d(self, rng):
        a = rng.integers(0, 5, size=(8, 8, 8))
        overlay = Overlay(a, 2)
        # 64 boxes x (2^3 - 1^3) = 448
        assert overlay.storage_cells() == overlay.paper_storage_cells() == 448

    def test_storage_shrinks_with_box_size(self, rng):
        a = rng.integers(0, 10, size=(64, 64))
        small = Overlay(a, 4).storage_cells()
        large = Overlay(a, 16).storage_cells()
        assert large < small

    def test_allocated_at_least_used(self, rng):
        a = rng.integers(0, 5, size=(9, 9))
        overlay = Overlay(a, 3)
        assert overlay.allocated_cells() >= overlay.storage_cells()


class TestSharedCounter:
    def test_external_counter_is_charged(self, paper_cube):
        counter = AccessCounter()
        overlay = Overlay(paper_cube, 3, counter=counter)
        overlay.anchor_value((0, 0))
        overlay.border_value((3, 4))
        assert counter.cells_read == 2

