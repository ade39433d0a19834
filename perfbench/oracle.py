"""Seeded inputs and the per-version oracle every answer is checked by.

Cube cells and deltas are integer-valued float64, so every box sum is an
exact integer below 2**53 whatever order the program adds in: answers
are compared for equality, not within a tolerance.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

#: one update group: (cells (n, d) intp, deltas (n,) float64)
Group = Tuple[np.ndarray, np.ndarray]


def random_boxes(rng: np.random.Generator, shape: Sequence[int], count: int
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """``count`` uniform boxes: per axis, two uniform corners sorted."""
    a = np.stack([rng.integers(0, n, size=count) for n in shape], axis=1)
    b = np.stack([rng.integers(0, n, size=count) for n in shape], axis=1)
    return np.minimum(a, b), np.maximum(a, b)


def box_pages(rng: np.random.Generator, shape: Sequence[int], pages: int,
              boxes: int) -> Tuple[np.ndarray, np.ndarray]:
    """``pages`` pages of ``boxes`` uniform boxes each, as
    ``(pages, boxes, d)`` low and high arrays.

    Made a slice at a time, so generating them leaves no transient peak
    in resident memory above the arrays themselves.
    """
    lows = np.empty((pages, boxes, len(shape)), dtype=np.int64)
    highs = np.empty_like(lows)
    step = max(1, 4096 // boxes)
    for first in range(0, pages, step):
        n = min(step, pages - first)
        lo, hi = random_boxes(rng, shape, n * boxes)
        lows[first:first + n] = lo.reshape(n, boxes, len(shape))
        highs[first:first + n] = hi.reshape(n, boxes, len(shape))
    return lows, highs


def random_group(rng: np.random.Generator, shape: Sequence[int], cells: int
                 ) -> Group:
    """``cells`` single-cell deltas, each a non-zero integer in [-9, 9]."""
    coords = np.stack(
        [rng.integers(0, n, size=cells) for n in shape], axis=1
    ).astype(np.intp)
    deltas = rng.integers(1, 10, size=cells) * rng.choice([-1, 1], cells)
    return coords, deltas.astype(np.float64)


def as_pairs(group: Group):
    """A group as the ``[(cell tuple, delta), ...]`` pairs the API takes."""
    cells, deltas = group
    return [
        (tuple(int(c) for c in cell), float(d))
        for cell, d in zip(cells, deltas)
    ]


def group_of(pairs) -> Group:
    """The inverse of :func:`as_pairs`."""
    pairs = list(pairs)
    cells = np.asarray([tuple(c) for c, _ in pairs], dtype=np.intp)
    deltas = np.asarray([float(d) for _, d in pairs], dtype=np.float64)
    return cells, deltas


def prefix_table(state: np.ndarray) -> np.ndarray:
    """Zero-padded inclusive prefix sums: ``P[i+1, j+1] = sum(A[:i+1, :j+1])``."""
    table = np.zeros(tuple(n + 1 for n in state.shape), dtype=np.float64)
    inner = state.astype(np.float64)
    for axis in range(state.ndim):
        inner = np.cumsum(inner, axis=axis)
    table[tuple(slice(1, None) for _ in state.shape)] = inner
    return table


def box_sums(table: np.ndarray, lows: np.ndarray, highs: np.ndarray
             ) -> np.ndarray:
    """Inclusive box sums from a :func:`prefix_table`, by 2^d corners."""
    lows = np.asarray(lows, dtype=np.intp)
    highs = np.asarray(highs, dtype=np.intp)
    d = lows.shape[1]
    out = np.zeros(len(lows), dtype=np.float64)
    for mask in range(1 << d):
        index = tuple(
            highs[:, k] + 1 if mask >> k & 1 else lows[:, k]
            for k in range(d)
        )
        sign = 1.0 if (d - bin(mask).count("1")) % 2 == 0 else -1.0
        out += sign * table[index]
    return out


def answers_at(
    initial: np.ndarray,
    groups: Dict[int, Group],
    versions: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
) -> np.ndarray:
    """Exact box sums, box ``i`` at version ``versions[i]``.

    Version ``v`` is the initial cube plus groups ``1..v`` — the
    service's own meaning of its snapshot version. A version the groups
    cannot justify (a gap, or beyond the last group) yields NaN, which
    never equals an answer. Empty boxes (``low > high`` on some axis)
    sum to 0.
    """
    versions = np.asarray(versions, dtype=np.int64)
    expected = np.full(len(versions), np.nan)
    empty = (np.asarray(lows) > np.asarray(highs)).any(axis=1)
    expected[empty] = 0.0
    order = np.argsort(versions, kind="stable")
    state = np.array(initial, dtype=np.float64, copy=True)
    applied = 0
    i = 0
    while i < len(order):
        version = int(versions[order[i]])
        j = i
        while j < len(order) and versions[order[j]] == version:
            j += 1
        chosen = order[i:j]
        i = j
        while applied < version and applied + 1 in groups:
            applied += 1
            cells, deltas = groups[applied]
            np.add.at(state, tuple(cells.T), deltas)
        if applied != version:
            continue
        live = chosen[~empty[chosen]]
        if len(live):
            expected[live] = box_sums(
                prefix_table(state), lows[live], highs[live]
            )
    return expected


def replay(initial: np.ndarray, groups: Dict[int, Group]) -> np.ndarray:
    """The cube after every group in ``groups``, in sequence order."""
    state = np.array(initial, dtype=np.float64, copy=True)
    for seq in sorted(groups):
        cells, deltas = groups[seq]
        np.add.at(state, tuple(cells.T), deltas)
    return state
