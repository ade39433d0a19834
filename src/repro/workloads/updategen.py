"""Update-stream generators.

The paper's motivation is data that changes — "new information may arrive
on a daily basis". These generators produce streams of ``(cell, delta)``
updates: uniformly random cells, skewed (hot-cell) streams, append-style
streams concentrated on the trailing slice of a time dimension, and the
adversarial worst-case cells each method's analysis highlights.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError

Coord = Tuple[int, ...]
Update = Tuple[Coord, int]


def _check_shape(shape: Sequence[int]) -> Tuple[int, ...]:
    shape = tuple(int(n) for n in shape)
    if not shape or any(n < 1 for n in shape):
        raise WorkloadError(f"invalid cube shape {shape}")
    return shape


def random_updates(
    shape: Sequence[int],
    count: int,
    max_delta: int = 10,
    seed=0,
) -> Iterator[Update]:
    """Uniformly random cells with deltas in ``[-max_delta, max_delta]\\{0}``."""
    shape = _check_shape(shape)
    if max_delta < 1:
        raise WorkloadError(f"max_delta must be >= 1, got {max_delta}")
    rng = np.random.default_rng(seed)
    for _ in range(count):
        cell = tuple(int(rng.integers(0, n)) for n in shape)
        delta = 0
        while delta == 0:
            delta = int(rng.integers(-max_delta, max_delta + 1))
        yield cell, delta


def random_group(rng, shape: Sequence[int], cells: int) -> List[Update]:
    """One update group of ``cells`` uniformly random ``(cell, delta)``
    pairs, each delta a non-zero integer in ``[-9, 9]`` as a float.

    Draws from ``rng`` in place, cell coordinates then delta per pair, so
    callers that interleave groups with other draws stay reproducible.
    """
    return [
        (
            tuple(int(rng.integers(0, n)) for n in shape),
            float(rng.integers(-9, 10) or 1),
        )
        for _ in range(cells)
    ]


def skewed_updates(
    shape: Sequence[int],
    count: int,
    hot_cells: int = 8,
    hot_probability: float = 0.9,
    max_delta: int = 10,
    seed=0,
) -> Iterator[Update]:
    """Most updates hit a small fixed set of hot cells.

    Models counters for popular products: a handful of cube cells absorb
    nearly all traffic.
    """
    shape = _check_shape(shape)
    if hot_cells < 1:
        raise WorkloadError(f"need at least one hot cell, got {hot_cells}")
    rng = np.random.default_rng(seed)
    hot = [
        tuple(int(rng.integers(0, n)) for n in shape)
        for _ in range(hot_cells)
    ]
    for _ in range(count):
        if rng.random() < hot_probability:
            cell = hot[int(rng.integers(0, hot_cells))]
        else:
            cell = tuple(int(rng.integers(0, n)) for n in shape)
        delta = 0
        while delta == 0:
            delta = int(rng.integers(-max_delta, max_delta + 1))
        yield cell, delta


def append_updates(
    shape: Sequence[int],
    count: int,
    time_axis: int = -1,
    recent_fraction: float = 0.1,
    max_delta: int = 10,
    seed=0,
) -> Iterator[Update]:
    """Updates land only in the most recent slice of one time dimension.

    The daily-sales pattern of the paper's introduction: today's facts
    touch today's coordinates. Note this is close to the *best* case for
    the plain prefix sum method (high coordinates cascade little) — the
    harness includes it precisely to show where PS is not terrible.
    """
    shape = _check_shape(shape)
    axis = time_axis % len(shape)
    if not 0.0 < recent_fraction <= 1.0:
        raise WorkloadError(
            f"recent fraction must be in (0, 1], got {recent_fraction}"
        )
    rng = np.random.default_rng(seed)
    n_t = shape[axis]
    first_recent = max(0, n_t - max(1, round(recent_fraction * n_t)))
    for _ in range(count):
        cell = list(int(rng.integers(0, n)) for n in shape)
        cell[axis] = int(rng.integers(first_recent, n_t))
        delta = int(rng.integers(1, max_delta + 1))  # appends only add
        yield tuple(cell), delta


def worst_case_cell(shape: Sequence[int], method: str) -> Coord:
    """The adversarial update position for a method's analysis.

    * ``prefix_sum``: cell 0 — every P cell dominates it (Figure 4's
      "when cell A[0,0] is updated ... every cell ... updated").
    * ``rps``: cell (1, 1, ..., 1) — maximizes all three terms of the
      update formula without degenerate anchor-alignment discounts.
    * ``naive`` / ``fenwick``: position barely matters; cell 0 returned.
    """
    shape = _check_shape(shape)
    if method == "rps":
        return tuple(min(1, n - 1) for n in shape)
    return tuple(0 for _ in shape)
