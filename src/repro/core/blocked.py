"""Blocked (box-relative) cumulative sums.

The RP array and the overlay border arrays are both built from cumulative
sums that restart at every overlay-box boundary. This module provides the
single vectorized primitive they share.
"""

from __future__ import annotations

import numpy as np


def blocked_cumsum(
    array: np.ndarray, axis: int, block: int, out: np.ndarray = None
) -> np.ndarray:
    """Cumulative sum along ``axis`` restarting at every ``block`` boundary.

    ``out[..., j, ...] = sum(array[..., j0..j, ...])`` where ``j0`` is the
    largest multiple of ``block`` not exceeding ``j``. The final block may
    be partial; it is handled identically.

    One pass into one output: the whole blocks reshape into
    ``(n // block, block)`` and cumsum over the block sub-axis; a ragged
    last block is cumsummed on its own beside them.

    Args:
        array: input of any shape.
        axis: axis along which to accumulate.
        block: restart period, >= 1.
        out: where to write the result (``array`` itself sums in place);
            a new array when omitted.

    Returns:
        ``out``, or a new array of the same shape and dtype.
    """
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    n = array.shape[axis]
    if block >= n:
        return np.cumsum(array, axis=axis, out=out)
    whole = n - n % block
    lead = (slice(None),) * axis
    head, rest = lead + (slice(0, whole),), lead + (slice(whole, None),)
    split = (
        array.shape[:axis] + (whole // block, block) + array.shape[axis + 1:]
    )
    if out is None:
        out = np.empty(array.shape, np.cumsum(array[:0]).dtype)
    # splitting one axis of a strided view is always a view, so the
    # cumsums write straight into ``out``
    np.cumsum(
        array[head].reshape(split), axis=axis + 1, out=out[head].reshape(split)
    )
    if whole < n:
        np.cumsum(array[rest], axis=axis, out=out[rest])
    return out


def blocked_prefix_all_axes(
    array: np.ndarray, block, out: np.ndarray = None
) -> np.ndarray:
    """Box-relative prefix sums along every axis — the RP array of Section 3.2.

    Equivalent to partitioning the array into ``block``-sided boxes and
    computing an independent inclusive prefix-sum array inside each box.
    ``block`` is a single side length or one per axis. The last pass
    writes into ``out`` when one is given.
    """
    result = np.asarray(array)
    if isinstance(block, int):
        blocks = (block,) * result.ndim
    else:
        blocks = tuple(int(b) for b in block)
    for axis in range(result.ndim):
        last = axis == result.ndim - 1
        result = blocked_cumsum(
            result, axis, blocks[axis], out=out if last else None
        )
    return result
