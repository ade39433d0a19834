"""One atomic update group as an array pair, and its per-cell coalesce.

Every write path — the ingest pipeline, the rolling window's slab
zeroing, a plain ``submit_batch`` of ``(index, delta)`` pairs — ends in
the same shape: an ``(n, d)`` ``intp`` cell matrix plus ``n`` deltas,
which is what the WAL logs and ``apply_batch_array`` consumes.
:class:`UpdateGroup` carries that pair from where it is built to the WAL
append without a tuple per cell, and still iterates as pairs for callers
that want them.

:func:`coalesce` merges duplicate cells with one 1-D sort: each row is
mapped to an ``int64`` key whose numeric order is the rows' lexicographic
order, then ``np.unique`` + ``np.bincount`` sum the deltas per key. Cells
come out in the order a row-wise ``np.unique`` gives, and float64 sums
accumulate in input order, as ``np.add.at`` does — so the result is
bit-for-bit that of the row-wise unique, at the cost of a 1-D one.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

#: keys stay below this, so no key arithmetic overflows int64
_KEY_LIMIT = 1 << 62


class UpdateGroup:
    """One atomic group: ``cells`` ``(n, d)`` intp plus ``deltas`` ``(n,)``.

    Iterating yields ``(tuple of ints, delta)`` pairs, lazily and afresh
    on every call, so code written against pair lists reads a group
    unchanged. A submitted group is kept by reference until it is
    applied: do not mutate its arrays afterwards.
    """

    __slots__ = ("cells", "deltas")

    def __init__(self, cells: np.ndarray, deltas: np.ndarray) -> None:
        self.cells = cells
        self.deltas = deltas

    @classmethod
    def of(
        cls, updates: Iterable[Tuple[Sequence[int], object]], ndim: int
    ) -> "UpdateGroup":
        """``updates`` as a group: a group passes through, pairs are
        converted once (deltas keep the dtype ``np.asarray`` infers).
        Non-integer cells raise ``TypeError``, as on reads, never
        truncated; ragged pairs raise ``ValueError`` naming the first
        cell whose arity is not ``ndim``."""
        group = updates
        if not isinstance(group, UpdateGroup):
            pairs = list(updates)
            if not pairs:
                return cls(
                    np.empty((0, ndim), dtype=np.intp),
                    np.empty(0, dtype=np.int64),
                )
            try:
                cells = np.asarray([index for index, _ in pairs])
            except ValueError:  # ragged rows
                for index, _ in pairs:
                    if len(index) != ndim:
                        raise ValueError(
                            f"cell {tuple(index)} has {len(index)} "
                            f"coordinates, cube has {ndim}"
                        ) from None
                raise
            group = cls(cells, np.asarray([delta for _, delta in pairs]))
        if group.cells.dtype.kind not in "iu" or group.cells.ndim != 2:
            raise TypeError(
                f"cells must be an (n, d) batch of integer coordinates, "
                f"got {group.cells.dtype} of shape {group.cells.shape}"
            )
        if group.cells.dtype != np.intp:
            group = cls(group.cells.astype(np.intp), group.deltas)
        return group

    def __len__(self) -> int:
        return len(self.deltas)

    def __iter__(self) -> Iterator[Tuple[Tuple[int, ...], object]]:
        return zip(map(tuple, self.cells.tolist()), self.deltas.tolist())


def _lexicographic_keys(cells: np.ndarray) -> np.ndarray:
    """One ``int64`` key per row whose numeric order is the rows'
    lexicographic order (equal rows, equal keys).

    Columns are offset by their minimum and packed by their span; when
    the packed span would overflow, the key so far — then, if still
    needed, the column itself — is first replaced by its dense rank.
    Negative and out-of-range cells are keyed like any other, so a
    poisoned group still coalesces and fails later, in the apply.
    """
    n, _ = cells.shape
    keys = np.zeros(n, dtype=np.int64)
    extent = 1
    for column in cells.T:
        column = column.astype(np.int64, copy=False)
        low = int(column.min())
        span = int(column.max()) - low + 1
        if extent * span >= _KEY_LIMIT:
            keys = _dense_rank(keys)
            extent = int(keys.max()) + 1
        if extent * span >= _KEY_LIMIT:
            column, low = _dense_rank(column), 0
            span = int(column.max()) + 1
        keys = keys * span + (column - low)
        extent *= span
    return keys


def _dense_rank(values: np.ndarray) -> np.ndarray:
    _, rank = np.unique(values, return_inverse=True)
    return rank.reshape(-1).astype(np.int64, copy=False)


def coalesce(
    cells: np.ndarray, deltas: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One delta per distinct cell, cells in lexicographic order.

    Float64 deltas are summed by ``np.bincount`` (in input order, as
    ``np.add.at`` would); other dtypes keep their own exact
    ``np.add.at`` sum. Cells whose deltas cancel are kept — dropping
    them is the caller's choice.
    """
    if not len(cells):
        return cells, deltas
    keys, inverse = np.unique(_lexicographic_keys(cells), return_inverse=True)
    inverse = inverse.reshape(-1)
    # every row writes its own cell to its key's slot: duplicates agree
    unique = np.empty((len(keys), cells.shape[1]), dtype=cells.dtype)
    unique[inverse] = cells
    if deltas.dtype == np.float64:
        sums = np.bincount(inverse, weights=deltas, minlength=len(keys))
    else:
        sums = np.zeros(len(keys), dtype=deltas.dtype)
        np.add.at(sums, inverse, deltas)
    return unique, sums
