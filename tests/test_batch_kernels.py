"""The touched-box batch kernels against the loop and the dense kernels.

``dense_rp`` and ``dense_overlay`` are the batch kernels the touched-box
ones replaced: each scatters the batch into a zero array the size of the
whole structure and cumsums all of it (the overlay once for the regions
and once more for the anchor exclusions). Their blocked cumsum is the
block-by-block oracle, so they share no kernel code with the library.

On integer data the ``vectorized`` strategy must leave RP and every
overlay array byte-identical to the looped ``incremental`` cascade and
to the dense kernels, and charge the looped ledger structure by
structure.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import indexing
from repro.core.rps import RelativePrefixSumCube

from tests.test_blocked import brute_blocked_cumsum
from tests.test_overlay_build import shapes_and_boxes


def dense_rp(rp, batch, deltas):
    """One full-size scatter, blocked cumsums over the whole of RP."""
    spread = np.zeros(rp.shape, rp.array().dtype)
    np.add.at(spread, tuple(batch.T), deltas)
    for axis, k in enumerate(rp.box_sizes):
        spread = brute_blocked_cumsum(spread, axis, k)
    values = rp._rp
    values += spread


def dense_overlay(overlay, batch, deltas):
    """Per subset ``Z``: scatter each update at its region's low corner
    (box ``ceil(u / k)`` on ``Z``, ``u`` elsewhere) and cumsum the whole
    array; scatter the anchor exclusions (box ``u / k`` on ``Z``) into a
    second array, cumsum it over the non-``Z`` axes and subtract it."""
    ndim = len(overlay.shape)
    sizes = np.asarray(overlay.box_sizes)
    grid = np.asarray(overlay.boxes_shape)
    box = batch // sizes
    aligned = batch == box * sizes
    ceil_box = box + ~aligned
    for mask in overlay.masks():
        in_z = np.array([bool(mask >> axis & 1) for axis in range(ndim)])
        applicable = ~(aligned & ~in_z).any(axis=1)
        exclusion = applicable & (aligned | ~in_z).all(axis=1)
        region = applicable & ((ceil_box < grid) | ~in_z).all(axis=1)
        values = overlay._values[mask]
        spread = np.zeros_like(values)
        corner = np.where(in_z, ceil_box, batch)[region]
        np.add.at(spread, tuple(corner.T), deltas[region])
        for axis in range(ndim):
            if in_z[axis]:
                spread = np.cumsum(spread, axis=axis)
            else:
                spread = brute_blocked_cumsum(
                    spread, axis, overlay.box_sizes[axis]
                )
        values += spread
        spread = np.zeros_like(values)
        corner = np.where(in_z, box, batch)[exclusion]
        np.add.at(spread, tuple(corner.T), deltas[exclusion])
        for axis in range(ndim):
            if not in_z[axis]:
                spread = brute_blocked_cumsum(
                    spread, axis, overlay.box_sizes[axis]
                )
        values -= spread


HUGE = 2 ** 62


def draw_batch(rng, shape, m, kind):
    """A cube and an ``(index, delta)`` batch of one ``kind``.

    Every batch repeats some cells, carries zero deltas and a pair that
    cancels. ``huge`` adds pairs ``2^62 + r, -2^62`` on one cell, whose
    sum a float64 accumulation would lose; ``promote`` adds fractional
    deltas (exact in float64) that widen an integer cube to float64.
    """
    dtype = np.int32 if kind == "int32" else np.int64
    array = rng.integers(-(2 ** 20), 2 ** 20, size=shape).astype(dtype)
    idx = np.stack([rng.integers(0, n, size=m) for n in shape], axis=1)
    deltas = rng.integers(-9, 10, size=m).astype(dtype)
    if m:
        deltas[rng.integers(0, m)] = 0
        idx = np.vstack([idx, idx[: m // 3 + 1], idx[:1]])
        deltas = np.concatenate(
            [deltas, deltas[: m // 3 + 1], -deltas[:1]]
        )
    if kind == "huge" and m:
        pairs = idx[: m // 2 + 1]
        idx = np.vstack([idx, np.repeat(pairs, 2, axis=0)])
        tails = np.empty(2 * len(pairs), dtype=np.int64)
        tails[0::2] = HUGE + rng.integers(-5, 6, size=len(pairs))
        tails[1::2] = -HUGE
        deltas = np.concatenate([deltas, tails])
    if kind == "promote":
        deltas = deltas + rng.integers(0, 4, size=len(deltas)) * 0.25
    return array, idx.reshape(-1, len(shape)).astype(np.intp), deltas


def structure_bytes(cube):
    """Every stored array of an RPS cube, as (dtype, bytes) pairs."""
    arrays = [cube.rp.array()] + [
        cube.overlay.values_array(mask) for mask in cube.overlay.masks()
    ]
    return [(a.dtype.str, a.tobytes()) for a in arrays]


@settings(max_examples=200, deadline=None)
@given(
    shapes_and_boxes(),
    st.sampled_from(["int64", "int32", "huge", "promote"]),
    st.integers(0, 40),
    st.integers(0, 2 ** 32 - 1),
)
def test_touched_box_kernels_match_loop_and_dense(case, kind, m, seed):
    shape, boxes = case
    rng = np.random.default_rng(seed)
    array, idx, deltas = draw_batch(rng, shape, m, kind)
    looped = RelativePrefixSumCube(array, box_size=boxes)
    touched = RelativePrefixSumCube(array, box_size=boxes)
    dense = RelativePrefixSumCube(array, box_size=boxes)

    looped.apply_batch_array(idx, deltas, strategy="incremental")
    touched.apply_batch_array(idx, deltas, strategy="vectorized")
    coerced = dense.coerce_deltas(deltas)
    batch = indexing.normalize_index_batch(idx, shape)
    if len(batch):
        dense_rp(dense.rp, batch, coerced)
        dense_overlay(dense.overlay, batch, coerced)

    expected = structure_bytes(looped)
    assert structure_bytes(touched) == expected
    assert structure_bytes(dense) == expected
    assert touched.counter.by_structure == looped.counter.by_structure
    assert touched.counter.cells_read == looped.counter.cells_read
    oracle = array.astype(looped.dtype)
    np.add.at(oracle, tuple(batch.T), deltas.astype(looped.dtype))
    assert np.array_equal(touched.to_array(), oracle)


@settings(max_examples=100, deadline=None)
@given(shapes_and_boxes(), st.integers(0, 2 ** 32 - 1))
def test_worst_update_bound_covers_every_cell(case, seed):
    """``auto`` skips the exact ledger sum only under a true upper bound
    on one update's cascade, so it never picks differently."""
    shape, boxes = case
    cube = RelativePrefixSumCube(
        np.random.default_rng(seed).integers(0, 9, size=shape),
        box_size=boxes,
    )
    every = np.indices(shape).reshape(len(shape), -1).T
    costs = cube.update_cost_many(every)
    assert costs.max() <= cube._worst_update_cells
    rebuild = cube.storage_cells()
    for m in (1, 2, 5, 17, 60):
        rows = every[np.random.default_rng(seed + m).integers(
            0, len(every), size=m
        )]
        exact = int(cube.update_cost_many(rows).sum()) > rebuild
        assert (cube.choose_batch_strategy(rows) == "rebuild") == exact

