"""Common interface for all range-sum methods.

The paper compares three methods over the same model (Section 2): the naive
array scan, the prefix sum method of Ho et al., and the relative prefix sum
method. All of them — plus this library's extensions (Fenwick cube, paged
RPS) — implement :class:`RangeSumMethod`, so workloads, benchmarks, and the
OLAP engine can treat them interchangeably.

The contract, mirroring the paper's model:

* the cube is a dense d-dimensional array of an invertible measure,
* ``range_sum(low, high)`` returns the inclusive range sum,
* ``update(index, value)`` **sets** a cell to a new value (the paper's
  "given any new value for a cell"); ``apply_delta`` adds to it,
* every logical cell access is charged to ``self.counter``.
"""

from __future__ import annotations

import abc
import functools
from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.core import indexing
from repro.errors import DimensionError, RangeError
from repro.metrics.counters import AccessCounter

DEFAULT_DTYPE = np.int64


@functools.lru_cache(maxsize=None)
def _corner_table(d: int) -> Tuple[np.ndarray, Tuple[bool, ...]]:
    """Corner geometry of the ``2^d``-corner identity, per dimension.

    Returns ``(low_axes, odd)``: ``low_axes[axis, mask, 0]`` is true when
    corner ``mask`` takes ``low - 1`` on ``axis`` (bit ``axis`` of
    ``mask`` set), and ``odd[mask]`` is true when that corner enters the
    sum negatively (an odd number of low axes).
    """
    masks = np.arange(1 << d)
    low_axes = ((masks >> np.arange(d)[:, None]) & 1).astype(bool)
    odd = tuple(bool(n % 2) for n in low_axes.sum(axis=0))
    low_axes = low_axes[:, :, None]
    low_axes.setflags(write=False)
    return low_axes, odd


class RangeSumMethod(abc.ABC):
    """Abstract base class for dense range-sum structures over a data cube.

    Subclasses receive the source array ``A`` at construction, build their
    internal structures, and must keep them consistent under point updates.

    Attributes:
        shape: cube shape ``(n_1, ..., n_d)``.
        ndim: number of dimensions ``d``.
        counter: the :class:`AccessCounter` charged by all operations.
    """

    #: short machine-readable identifier used by benchmarks and the CLI
    name: str = "abstract"

    def __init__(self, array: np.ndarray) -> None:
        source = np.asarray(array)
        if source.ndim < 1:
            raise DimensionError("cube must have at least one dimension")
        if source.size == 0:
            raise DimensionError("cube must not be empty")
        if not np.issubdtype(source.dtype, np.number):
            raise TypeError(f"cube dtype must be numeric, got {source.dtype}")
        self._dtype = np.dtype(
            source.dtype
            if np.issubdtype(source.dtype, np.floating)
            else DEFAULT_DTYPE
        )
        self.shape: Tuple[int, ...] = source.shape
        self.ndim: int = source.ndim
        self.counter = AccessCounter()
        self._build(source.astype(self._dtype))

    # -- construction -------------------------------------------------------

    @abc.abstractmethod
    def _build(self, array: np.ndarray) -> None:
        """Build internal structures from the dense source array."""

    @property
    def dtype(self) -> np.dtype:
        """The cube's current storage dtype.

        Integer-seeded cubes report the integer accumulation dtype they
        sum in; a :meth:`coerce_deltas` promotion (a fractional delta on
        an integer cube) widens this in place.
        """
        return self._dtype

    # -- queries ------------------------------------------------------------

    @abc.abstractmethod
    def prefix_sum(self, target: Sequence[int]):
        """Return ``SUM(A[0..target])`` inclusive.

        Implementations must charge their reads to ``self.counter``.
        """

    def range_sum(self, low: Sequence[int], high: Sequence[int]):
        """Inclusive range sum via the 2^d-corner identity (Figure 3).

        Subclasses with a cheaper native path (e.g. the naive method's
        direct scan) override this.
        """
        lo, hi = indexing.normalize_range(low, high, self.shape)
        total = self._zero()
        for sign, corner in indexing.iter_corners(lo, hi):
            if indexing.has_empty_axis(corner):
                continue
            total += sign * self.prefix_sum(corner)
        return total

    def cell_value(self, index: Sequence[int]):
        """Current value of a single cell (a degenerate range sum)."""
        idx = indexing.normalize_index(index, self.shape)
        return self.range_sum(idx, idx)

    # -- batched queries -----------------------------------------------------

    def prefix_sum_many(self, targets) -> np.ndarray:
        """Batched :meth:`prefix_sum` over a ``(Q, d)`` array of targets.

        Returns a length-Q vector of prefix sums. Validates the batch
        once and hands it to :meth:`_prefix_rows`, the hook vectorized
        subclasses override.
        """
        return self._prefix_rows(
            indexing.normalize_index_batch(targets, self.shape)
        )

    def _prefix_rows(self, rows: np.ndarray) -> np.ndarray:
        """Prefix sums of an already-validated ``(N, d)`` ``intp`` batch.

        The base implementation loops :meth:`prefix_sum`; vectorized
        subclasses override it with gather kernels that must return
        identical values **and** charge identical logical cell costs to
        ``self.counter`` (the counters measure the paper's cost model,
        not numpy memory traffic, so the batched and looped paths are
        indistinguishable in the ledger). Callers own validation: this
        hook never re-checks its rows.
        """
        results = [self.prefix_sum(tuple(int(c) for c in row)) for row in rows]
        if not results:
            return np.empty(0, dtype=self._dtype)
        return np.asarray(results)

    def range_sum_many(self, lows, highs) -> np.ndarray:
        """Batched :meth:`range_sum` over ``(Q, d)`` low/high corner arrays
        (or a :class:`~repro.core.indexing.BoxBatch` and ``None``):
        validates once and hands the boxes to :meth:`_range_rows`."""
        lo, hi = indexing.normalize_range_batch(lows, highs, self.shape)
        return self._range_rows(lo, hi)

    def _range_rows(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Range sums of an already-validated box batch. Loops
        :meth:`range_sum`, which keeps each method's native query path
        and counter charges; vectorized subclasses whose ``range_sum`` is
        the generic corner identity set ``_range_rows`` to
        :meth:`_corner_range_sum_many`."""
        results = [
            self.range_sum(tuple(int(c) for c in l), tuple(int(c) for c in h))
            for l, h in zip(lo, hi)
        ]
        if not results:
            return np.empty(0, dtype=self._dtype)
        return np.asarray(results)

    def _corner_range_sum_many(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        """Stacked inclusion–exclusion over pre-validated corner batches.

        Builds all ``2^d`` corners of every box (Figure 3) as one
        ``(2^d * Q, d)`` row batch — corner ``mask`` takes ``lo - 1`` on
        the axes whose bit is set, ``hi`` elsewhere — drops the empty
        prefixes (a ``-1`` coordinate), and evaluates every remaining
        corner with a single :meth:`_prefix_rows` call. Exactly the set
        of corners the looped path evaluates is gathered, so any subclass
        whose ``_prefix_rows`` charges faithfully gets a faithful
        ``range_sum_many`` for free.

        The signed prefixes are folded into the result one corner subset
        at a time in ascending ``mask`` order, starting from zero, so a
        floating-point cube sums in the same order as evaluating the
        subsets one by one would.
        """
        q_count, d = lo.shape
        out = np.zeros(q_count, dtype=self._dtype)
        if q_count == 0:
            return out
        low_axes, odd = _corner_table(d)
        # axis-major (d, 2^d, Q): every elementwise pass runs along Q
        cols = np.where(low_axes, (lo - 1).T[:, None, :], hi.T[:, None, :])
        live = (cols >= 0).all(axis=0)
        keep = np.flatnonzero(live)
        prefixes = np.zeros((1 << d, q_count), dtype=self._dtype)
        prefixes[live] = self._prefix_rows(
            cols.reshape(d, -1).take(keep, axis=1).T
        )
        for mask in range(1 << d):
            if odd[mask]:
                out -= prefixes[mask]
            else:
                out += prefixes[mask]
        return out

    def total(self):
        """Sum of the entire cube."""
        top = tuple(n - 1 for n in self.shape)
        return self.prefix_sum(top)

    # -- updates ------------------------------------------------------------

    def update(self, index: Sequence[int], value) -> None:
        """Set cell ``index`` to ``value`` (the paper's update model)."""
        idx = indexing.normalize_index(index, self.shape)
        delta = value - self.cell_value(idx)
        if delta:
            self.apply_delta(idx, delta)

    def coerce_deltas(self, deltas) -> np.ndarray:
        """Fit update deltas into the cube's dtype without losing value.

        Integer cubes sum exactly, so they stay integer as long as the
        deltas allow it: an integral-valued float delta (the serving
        layer's WAL hands every delta back as float64) is cast down
        losslessly. A genuinely fractional delta cannot be represented —
        rather than truncating it or failing mid-apply (an acked group
        must never be lost to a dtype mismatch), the cube promotes
        itself to the combined floating dtype first and applies the
        delta at full value.

        Returns the deltas as an array in the (possibly widened) cube
        dtype; raises :class:`TypeError` for non-numeric input.
        """
        arr = np.asarray(deltas)
        if not np.issubdtype(arr.dtype, np.number):
            raise TypeError(f"deltas must be numeric, got {arr.dtype}")
        if np.can_cast(arr.dtype, self._dtype, casting="same_kind"):
            return arr.astype(self._dtype, copy=False)
        cast = arr.astype(self._dtype)
        if np.array_equal(cast, arr):
            return cast
        self._promote(np.result_type(self._dtype, arr.dtype))
        return arr.astype(self._dtype, copy=False)

    def _promote(self, dtype) -> None:
        """Rebuild every structure under a wider dtype (one O(n^d) pass)."""
        promoted = np.dtype(dtype)
        if promoted == self._dtype:
            return
        array = np.asarray(self.to_array()).astype(promoted)
        self._dtype = promoted
        self._build(array)

    def apply_delta(self, index: Sequence[int], delta) -> None:
        """Add ``delta`` to cell ``index``, keeping structures consistent.

        The delta is first fitted into the cube's dtype (see
        :meth:`coerce_deltas`), then handed to the method's cascade.
        """
        self._apply_delta(index, self.coerce_deltas(delta)[()])

    @abc.abstractmethod
    def _apply_delta(self, index: Sequence[int], delta) -> None:
        """Method-specific cascade for one already-coerced delta.

        Implementations must charge their writes to ``self.counter``.
        """

    def apply_batch(self, updates: Iterable[Tuple[Sequence[int], object]]) -> int:
        """Apply many ``(index, delta)`` updates; returns how many.

        The default simply loops :meth:`apply_delta`. Methods with a
        cheaper bulk path override this — e.g. the prefix-sum cube folds
        the whole batch into one O(n^d) pass, and the RPS cube switches
        between per-update cascades and a full rebuild at the measured
        crossover (the paper's daily-batch scenario).
        """
        count = 0
        for index, delta in updates:
            self.apply_delta(index, delta)
            count += 1
        return count

    def apply_batch_array(self, indices, deltas) -> int:
        """Apply an ``(m, d)`` index batch with aligned ``(m,)`` deltas.

        The array-native counterpart of :meth:`apply_batch`, fed directly
        by the serving layer's coalescer: validates once, fits the deltas
        into the cube's dtype and hands a non-empty batch to
        :meth:`_apply_rows`. Returns the number of updates applied.
        """
        idx, deltas = indexing.normalize_update_batch(
            indices, deltas, self.shape
        )
        if len(idx) == 0:
            return 0
        self._apply_rows(idx, self.coerce_deltas(deltas))
        return len(idx)

    def _apply_rows(self, idx: np.ndarray, deltas: np.ndarray) -> None:
        """Apply validated rows with deltas in the cube's dtype. Loops
        the method's cascade (the values and ledger of looping
        :meth:`apply_delta`); bulk paths override it."""
        for row, delta in zip(idx.tolist(), deltas):
            self._apply_delta(tuple(row), delta)

    # -- introspection ------------------------------------------------------

    @abc.abstractmethod
    def storage_cells(self) -> int:
        """Number of cells materialized by this method's structures."""

    def to_array(self) -> np.ndarray:
        """Reconstruct the current dense source array (for testing/debug).

        O(n^d) — intended for verification, not production queries.
        """
        out = np.empty(self.shape, dtype=self._dtype)
        for idx in np.ndindex(*self.shape):
            out[idx] = self.cell_value(idx)
        return out

    def verify(self, probes: int = 64, seed: int = 0) -> None:
        """Self-check: random range sums against the reconstructed array.

        Intended as an integrity check after bulk operations or a load
        from persistence. Integer cubes are compared exactly in their
        native dtype — float64 holds only 53 mantissa bits, so an
        ``isclose`` comparison would wave through corruptions in cubes
        with values beyond 2^53. Floating cubes keep the tolerance-based
        comparison (their own arithmetic reorders legitimately).

        Raises :class:`~repro.errors.RangeError` on the first mismatch;
        O(n^d) for the reconstruction plus ``probes`` range queries.
        """
        from repro.workloads.querygen import random_ranges

        reference = np.asarray(self.to_array())
        floating = np.issubdtype(reference.dtype, np.floating)
        for low, high in random_ranges(self.shape, probes, seed=seed):
            region = reference[
                tuple(slice(l, h + 1) for l, h in zip(low, high))
            ]
            got = self.range_sum(low, high)
            if floating:
                expected = float(region.sum())
                mismatch = not np.isclose(float(got), expected)
            else:
                expected = int(region.sum())
                mismatch = int(got) != expected
            if mismatch:
                raise RangeError(
                    f"{type(self).__name__} failed verification at "
                    f"range {low}..{high}: "
                    f"got {got}, expected {expected}"
                )

    def _zero(self):
        """Additive identity in the cube's dtype."""
        return self._dtype.type(0)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.shape})"
