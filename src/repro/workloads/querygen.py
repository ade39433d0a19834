"""Range-query workload generators.

Streams of inclusive ``(low, high)`` ranges with controllable shape:
uniformly random ranges, fixed-volume ranges, point lookups, hotspot
ranges concentrated in a sub-region, and sliding windows along one axis
(the access pattern of the paper's ROLLING aggregates).
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError

Coord = Tuple[int, ...]
QueryRange = Tuple[Coord, Coord]


def _check_shape(shape: Sequence[int]) -> Tuple[int, ...]:
    shape = tuple(int(n) for n in shape)
    if not shape or any(n < 1 for n in shape):
        raise WorkloadError(f"invalid cube shape {shape}")
    return shape


def random_ranges(
    shape: Sequence[int], count: int, seed=0
) -> Iterator[QueryRange]:
    """Uniformly random inclusive ranges (independent per dimension)."""
    shape = _check_shape(shape)
    rng = np.random.default_rng(seed)
    for _ in range(count):
        low, high = [], []
        for n in shape:
            a, b = sorted(int(x) for x in rng.integers(0, n, size=2))
            low.append(a)
            high.append(b)
        yield tuple(low), tuple(high)


def random_range(rng, shape: Sequence[int]) -> QueryRange:
    """One :func:`random_ranges` box, drawn from generator ``rng`` in place."""
    return next(random_ranges(shape, 1, seed=rng))


def fixed_extent_ranges(
    shape: Sequence[int],
    extent: float,
    count: int,
    seed=0,
) -> Iterator[QueryRange]:
    """Ranges covering a fixed fraction ``extent`` of each dimension.

    ``extent=1.0`` yields full-cube queries (the naive method's worst
    case); small extents model selective drill-downs.
    """
    shape = _check_shape(shape)
    if not 0.0 < extent <= 1.0:
        raise WorkloadError(f"extent must be in (0, 1], got {extent}")
    rng = np.random.default_rng(seed)
    for _ in range(count):
        low, high = [], []
        for n in shape:
            width = max(1, round(extent * n))
            start = int(rng.integers(0, n - width + 1))
            low.append(start)
            high.append(start + width - 1)
        yield tuple(low), tuple(high)


def point_queries(
    shape: Sequence[int], count: int, seed=0
) -> Iterator[QueryRange]:
    """Degenerate single-cell ranges."""
    shape = _check_shape(shape)
    rng = np.random.default_rng(seed)
    for _ in range(count):
        cell = tuple(int(rng.integers(0, n)) for n in shape)
        yield cell, cell


def hotspot_ranges(
    shape: Sequence[int],
    count: int,
    hotspot_fraction: float = 0.2,
    hot_probability: float = 0.8,
    seed=0,
) -> Iterator[QueryRange]:
    """Ranges biased toward one hot sub-region of the cube.

    With probability ``hot_probability`` a query falls entirely inside
    the central region covering ``hotspot_fraction`` of each dimension —
    the skew typical of dashboards querying "the recent quarter".
    """
    shape = _check_shape(shape)
    if not 0.0 < hotspot_fraction <= 1.0:
        raise WorkloadError(
            f"hotspot fraction must be in (0, 1], got {hotspot_fraction}"
        )
    if not 0.0 <= hot_probability <= 1.0:
        raise WorkloadError(
            f"hot probability must be in [0, 1], got {hot_probability}"
        )
    rng = np.random.default_rng(seed)
    for _ in range(count):
        low, high = [], []
        in_hotspot = rng.random() < hot_probability
        for n in shape:
            if in_hotspot:
                width = max(1, round(hotspot_fraction * n))
                base = (n - width) // 2
                a, b = sorted(
                    int(x) for x in rng.integers(base, base + width, size=2)
                )
            else:
                a, b = sorted(int(x) for x in rng.integers(0, n, size=2))
            low.append(a)
            high.append(b)
        yield tuple(low), tuple(high)


def sliding_windows(
    shape: Sequence[int],
    axis: int,
    window: int,
    seed=0,
) -> Iterator[QueryRange]:
    """Every window position along ``axis``, full extent elsewhere.

    The access pattern behind ROLLING SUM / ROLLING AVERAGE.
    """
    shape = _check_shape(shape)
    if not 0 <= axis < len(shape):
        raise WorkloadError(f"axis {axis} out of range for {shape}")
    if not 1 <= window <= shape[axis]:
        raise WorkloadError(
            f"window {window} invalid for axis of size {shape[axis]}"
        )
    for start in range(shape[axis] - window + 1):
        low = [0] * len(shape)
        high = [n - 1 for n in shape]
        low[axis] = start
        high[axis] = start + window - 1
        yield tuple(low), tuple(high)
