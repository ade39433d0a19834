"""Coordinate and range geometry for d-dimensional data cubes.

This module owns the index arithmetic shared by every range-sum method:

* normalizing user-supplied cell coordinates and query ranges,
* enumerating the ``2^d`` signed corners used by the inclusion–exclusion
  identity of the prefix-sum family (Figure 3 of the paper),
* overlay box geometry (anchors, covers, face projections) used by the
  relative prefix sum method (Section 3.1).

All coordinates are zero-based. Ranges are **inclusive** on both ends,
matching the paper's formulation ``SUM(A[l_1..h_1, ..., l_d..h_d])``.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.errors import BoxSizeError, DimensionError, RangeError

Coord = Tuple[int, ...]
Range = Tuple[Coord, Coord]


def normalize_index(index: Sequence[int], shape: Sequence[int]) -> Coord:
    """Validate and canonicalize a cell coordinate.

    Accepts any integer sequence (including a bare ``int`` for 1-d cubes)
    and returns a tuple of plain Python ints. Negative indices are not
    supported: data-cube coordinates are ordinal positions along each
    dimension, not Python-style offsets from the end.

    Raises:
        DimensionError: if the arity does not match ``shape``.
        RangeError: if any coordinate falls outside ``[0, n_i)``.
    """
    if isinstance(index, int):
        index = (index,)
    idx = tuple(int(i) for i in index)
    if len(idx) != len(shape):
        raise DimensionError(
            f"expected {len(shape)} coordinates, got {len(idx)}: {idx!r}"
        )
    for axis, (i, n) in enumerate(zip(idx, shape)):
        if not 0 <= i < n:
            raise RangeError(
                f"coordinate {i} out of bounds for axis {axis} with size {n}"
            )
    return idx


def normalize_range(
    low: Sequence[int], high: Sequence[int], shape: Sequence[int]
) -> Range:
    """Validate an inclusive query range ``[low, high]``.

    Returns the pair of canonical coordinate tuples.

    Raises:
        DimensionError: on arity mismatch.
        RangeError: if a bound is out of the cube or ``low > high`` anywhere.
    """
    lo = normalize_index(low, shape)
    hi = normalize_index(high, shape)
    for axis, (l, h) in enumerate(zip(lo, hi)):
        if l > h:
            raise RangeError(
                f"inverted range on axis {axis}: low {l} > high {h}"
            )
    return lo, hi


def normalize_index_batch(targets, shape: Sequence[int]) -> np.ndarray:
    """Validate and canonicalize a ``(Q, d)`` batch of cell coordinates.

    The batch counterpart of :func:`normalize_index`, used by the
    ``*_many`` query kernels. Accepts any array-like of coordinate rows
    (a ``(Q, d)`` integer array, a list of tuples, ...); for 1-d cubes a
    flat length-Q vector is also accepted. ``Q = 0`` is legal and yields
    a ``(0, d)`` result.

    Returns:
        A C-contiguous ``(Q, d)`` ``np.intp`` array of validated
        coordinates.

    Raises:
        DimensionError: if rows do not have one coordinate per dimension.
        TypeError: if the batch is not of integer dtype.
        RangeError: if any coordinate falls outside ``[0, n_i)``.
    """
    d = len(shape)
    arr = np.asarray(targets)
    if arr.size == 0:
        # Arity is validated even for empty batches: a (0, j) batch with
        # j != d is malformed, not merely empty. A flat length-0 vector
        # (e.g. a bare ``[]``) is accepted as "no rows" for any d.
        if arr.ndim > 2 or (arr.ndim == 2 and arr.shape[1] != d):
            raise DimensionError(
                f"expected a (Q, {d}) batch of coordinates, got shape "
                f"{arr.shape}"
            )
        return np.empty((0, d), dtype=np.intp)
    if d == 1 and arr.ndim == 1:
        arr = arr[:, np.newaxis]
    if arr.ndim != 2 or arr.shape[1] != d:
        raise DimensionError(
            f"expected a (Q, {d}) batch of coordinates, got shape "
            f"{arr.shape}"
        )
    if not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(
            f"coordinate batches must be integer-typed, got {arr.dtype}"
        )
    arr = np.ascontiguousarray(arr, dtype=np.intp)
    bounds = np.asarray(shape, dtype=np.intp)
    bad = (arr < 0) | (arr >= bounds)
    if bad.any():
        q, axis = map(int, np.argwhere(bad)[0])
        raise RangeError(
            f"coordinate {int(arr[q, axis])} of batch row {q} out of "
            f"bounds for axis {axis} with size {shape[axis]}"
        )
    return arr


@dataclasses.dataclass(frozen=True, eq=False)
class BoxBatch:
    """Inclusive boxes checked against ``shape``: C-contiguous ``(Q, d)``
    ``np.intp`` arrays with ``0 <= lows <= highs < shape`` row by row.

    Only :func:`normalize_range_batch` builds one from caller input; a
    layer may derive one from a checked batch (a row subset, a clip to a
    shard's slab). ``len()`` is the box count; it unpacks as ``lo, hi``.
    """

    lows: np.ndarray
    highs: np.ndarray
    shape: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.lows)

    def __iter__(self):
        return iter((self.lows, self.highs))

    def take(self, rows: np.ndarray) -> "BoxBatch":
        """The boxes at ``rows``, still checked against ``shape``."""
        lows, highs = self.lows.take(rows, 0), self.highs.take(rows, 0)
        return BoxBatch(lows, highs, self.shape)


def normalize_range_batch(lows, highs, shape: Sequence[int]) -> BoxBatch:
    """Validate a batch of inclusive query ranges ``[lows[q], highs[q]]``.

    The batch counterpart of :func:`normalize_range`. Both inputs follow
    the :func:`normalize_index_batch` conventions and must have the same
    number of rows. A :class:`BoxBatch` passed as ``lows`` (``highs`` is
    then ignored, by convention ``None``) comes back as is when it was
    checked against ``shape``, and is checked again otherwise.

    Returns:
        The validated :class:`BoxBatch`.

    Raises:
        DimensionError: on arity or batch-length mismatch.
        RangeError: if a bound is out of the cube or ``low > high``
            anywhere.
    """
    shape = tuple(shape)
    if type(lows) is BoxBatch:
        if lows.shape == shape:
            return lows
        lows, highs = lows
    lo = normalize_index_batch(lows, shape)
    hi = normalize_index_batch(highs, shape)
    if len(lo) != len(hi):
        raise DimensionError(
            f"lows and highs disagree on batch size: {len(lo)} vs {len(hi)}"
        )
    inverted = lo > hi
    if inverted.any():
        q, axis = map(int, np.argwhere(inverted)[0])
        raise RangeError(
            f"inverted range in batch row {q} on axis {axis}: "
            f"low {int(lo[q, axis])} > high {int(hi[q, axis])}"
        )
    return BoxBatch(lo, hi, shape)


def normalize_update_batch(
    indices, deltas, shape: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate an ``(m, d)`` index batch with its aligned delta vector.

    The update counterpart of :func:`normalize_index_batch`, used by the
    ``apply_batch_array`` kernels. ``deltas`` may be any length-m numeric
    array-like, or a scalar (broadcast to every row).

    Returns:
        ``(indices, deltas)`` — a validated ``(m, d)`` ``np.intp`` array
        and a length-m numeric array.

    Raises:
        DimensionError: on arity mismatch or when the delta vector does
            not align with the index batch.
        TypeError: if either input is not numeric.
        RangeError: if any coordinate falls outside ``[0, n_i)``.
    """
    idx = normalize_index_batch(indices, shape)
    arr = np.asarray(deltas)
    if arr.ndim == 0:
        arr = np.broadcast_to(arr, (len(idx),))
    if arr.ndim != 1 or len(arr) != len(idx):
        raise DimensionError(
            f"expected {len(idx)} deltas aligned with the index batch, "
            f"got shape {arr.shape}"
        )
    if not np.issubdtype(arr.dtype, np.number):
        raise TypeError(f"deltas must be numeric, got {arr.dtype}")
    return idx, arr


def range_volume(low: Coord, high: Coord) -> int:
    """Number of cells inside the inclusive range ``[low, high]``."""
    volume = 1
    for l, h in zip(low, high):
        volume *= h - l + 1
    return volume


def range_to_slices(low: Coord, high: Coord) -> Tuple[slice, ...]:
    """Convert an inclusive range to a tuple of numpy-ready slices."""
    return tuple(slice(l, h + 1) for l, h in zip(low, high))


def prefix_slices(target: Coord) -> Tuple[slice, ...]:
    """Slices selecting the prefix region ``A[0..target]`` (inclusive)."""
    return tuple(slice(0, t + 1) for t in target)


def iter_corners(low: Coord, high: Coord) -> Iterator[Tuple[int, Coord]]:
    """Yield the signed corners of the inclusion–exclusion identity.

    A range sum decomposes into ``2^d`` prefix sums (Figure 3):

        SUM(A[l..h]) = sum over subsets S of dimensions of
                       (-1)^|S| * Pre(c_S)

    where corner ``c_S`` takes ``h_i`` on dimensions outside S and
    ``l_i - 1`` on dimensions in S. Corners with any coordinate equal to
    ``-1`` denote an empty prefix; they are yielded unchanged (with the
    ``-1`` in place) so callers can treat them as zero-valued lookups or
    skip them.

    Yields:
        ``(sign, corner)`` pairs with ``sign`` in ``{+1, -1}``.
    """
    d = len(low)
    for subset in itertools.product((False, True), repeat=d):
        sign = -1 if sum(subset) % 2 else 1
        corner = tuple(
            (low[i] - 1) if subset[i] else high[i] for i in range(d)
        )
        yield sign, corner


def has_empty_axis(corner: Coord) -> bool:
    """True if a corner produced by :func:`iter_corners` denotes an empty prefix."""
    return any(c < 0 for c in corner)


# ---------------------------------------------------------------------------
# Overlay box geometry (Section 3.1)
# ---------------------------------------------------------------------------


def validate_box_size(box_size: int, shape: Sequence[int]) -> int:
    """Check that a uniform overlay box side length is usable for ``shape``.

    The paper requires ``k >= 1``; ``k`` larger than a dimension simply
    yields a single (possibly partial) box along that dimension, which is
    legal. ``k = 1`` degenerates RP to a copy of A and the overlay into a
    full prefix-sum structure; it is allowed but rarely useful.
    """
    k = int(box_size)
    if k < 1:
        raise BoxSizeError(f"box size must be >= 1, got {k}")
    if not shape:
        raise DimensionError("cube shape must have at least one dimension")
    return k


def normalize_box_sizes(box_size, shape: Sequence[int]) -> Tuple[int, ...]:
    """Canonicalize a box-size spec to one side length per dimension.

    The paper fixes a single ``k`` on every dimension "for clarity, and
    without loss of generality"; this library also accepts a per-axis
    tuple (useful when dimension sizes differ widely, or to make one box
    match a disk page exactly).
    """
    if not shape:
        raise DimensionError("cube shape must have at least one dimension")
    if isinstance(box_size, (int, np.integer)):
        return (validate_box_size(box_size, shape),) * len(shape)
    sizes = tuple(int(k) for k in box_size)
    if len(sizes) != len(shape):
        raise BoxSizeError(
            f"need one box size per dimension ({len(shape)}), "
            f"got {len(sizes)}: {sizes}"
        )
    for k in sizes:
        if k < 1:
            raise BoxSizeError(f"box sizes must be >= 1, got {sizes}")
    return sizes


def anchor_of(index: Coord, box_size) -> Coord:
    """Anchor (lowest corner) of the overlay box covering ``index``.

    ``box_size`` may be a single side length or one per dimension.
    """
    sizes = _per_axis(box_size, len(index))
    return tuple((i // k) * k for i, k in zip(index, sizes))


def box_count(shape: Sequence[int], box_size) -> int:
    """Total number of overlay boxes: ``prod(ceil(n_i / k_i))``."""
    sizes = _per_axis(box_size, len(shape))
    count = 1
    for n, k in zip(shape, sizes):
        count *= -(-n // k)
    return count


def iter_anchors(shape: Sequence[int], box_size) -> Iterator[Coord]:
    """Yield every box anchor in row-major order."""
    sizes = _per_axis(box_size, len(shape))
    axes = [range(0, n, k) for n, k in zip(shape, sizes)]
    return itertools.product(*axes)


def box_extent(anchor: Coord, shape: Sequence[int], box_size) -> Range:
    """Inclusive cell range covered by the box anchored at ``anchor``.

    Boxes at the high edge of a dimension whose size is not a multiple of
    the box side are truncated to the cube boundary (partial boxes).
    """
    sizes = _per_axis(box_size, len(shape))
    high = tuple(
        min(a + k - 1, n - 1) for a, k, n in zip(anchor, sizes, shape)
    )
    return anchor, high


def _per_axis(box_size, ndim: int) -> Tuple[int, ...]:
    """Expand a scalar box size to one entry per axis (tuples unchanged)."""
    if isinstance(box_size, (int, np.integer)):
        return (int(box_size),) * ndim
    return tuple(int(k) for k in box_size)


def face_projection(target: Coord, anchor: Coord, axis: int) -> Coord:
    """Project ``target`` onto face ``axis`` of its covering box.

    The projection replaces the target's coordinate on ``axis`` with the
    anchor coordinate; the query identity reads one border value at each
    of the d projections (Section 3.2 / DESIGN.md Section 1).
    """
    projected = list(target)
    projected[axis] = anchor[axis]
    return tuple(projected)


def covers(anchor: Coord, box_size: int, index: Coord) -> bool:
    """True if the box anchored at ``anchor`` covers cell ``index``."""
    return all(a <= i < a + box_size for a, i in zip(anchor, index))


def dominates(lower: Coord, upper: Coord) -> bool:
    """Componentwise ``lower <= upper`` — the cascading-update predicate."""
    return all(l <= u for l, u in zip(lower, upper))
