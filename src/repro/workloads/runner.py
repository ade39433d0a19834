"""Mixed query/update workload execution with cost accounting.

The paper's overall-complexity argument assumes "queries and updates are
equally likely" and multiplies their costs. :class:`WorkloadRunner`
executes interleaved query/update streams against any method, verifies
results against an oracle when asked, and reports the per-operation cell
costs the product argument is built from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.base import RangeSumMethod
from repro.errors import ClusterUnavailableError, WorkloadError
from repro.workloads.querygen import QueryRange
from repro.workloads.updategen import Update


_DONE = object()


def _interleave(queries, updates) -> List[Tuple[str, object]]:
    """``q, u, q, u, ...`` ops, then whichever stream is left over."""
    ops = []
    for query, update in zip_longest(queries, updates, fillvalue=_DONE):
        if query is not _DONE:
            ops.append(("q", query))
        if update is not _DONE:
            ops.append(("u", update))
    return ops


@dataclass
class WorkloadResult:
    """Aggregated outcome of one workload run against one method.

    Cell counts are the paper's cost unit; wall-clock seconds are the
    modern sanity check of the same claims.
    """

    method: str
    queries: int = 0
    updates: int = 0
    query_cells_read: int = 0
    update_cells_written: int = 0
    query_seconds: float = 0.0
    update_seconds: float = 0.0
    mismatches: int = 0
    unavailable: int = 0  # cluster runs only: ops lost to unavailability
    answers: List = field(default_factory=list)
    query_latencies: List[float] = field(default_factory=list)
    update_latencies: List[float] = field(default_factory=list)

    @property
    def cells_per_query(self) -> float:
        """Mean cells read per query."""
        return self.query_cells_read / self.queries if self.queries else 0.0

    @property
    def cells_per_update(self) -> float:
        """Mean cells written per update."""
        return (
            self.update_cells_written / self.updates if self.updates else 0.0
        )

    @property
    def cost_product(self) -> float:
        """Mean query cost x mean update cost — the paper's figure of merit."""
        return self.cells_per_query * self.cells_per_update

    def latency_percentiles(self, kind: str = "query") -> Dict[str, float]:
        """p50/p95/p99/max per-operation latency, in seconds.

        ``kind`` is ``"query"`` or ``"update"``; empty streams yield an
        all-zero summary.
        """
        samples = (
            self.query_latencies if kind == "query"
            else self.update_latencies
        )
        if not samples:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
        return {
            "p50": float(np.percentile(samples, 50)),
            "p95": float(np.percentile(samples, 95)),
            "p99": float(np.percentile(samples, 99)),
            "max": float(max(samples)),
        }


class WorkloadRunner:
    """Drives query/update streams through a method and tallies costs.

    Args:
        method: the structure under test.
        oracle: optional initial dense cube; when provided, a
            :class:`~repro.testing.VersionOracle` records every update
            and every query answer must equal its newest version
            exactly — mismatches are counted (they indicate a bug, and
            tests assert zero).
    """

    def __init__(
        self,
        method: RangeSumMethod,
        oracle: Optional[np.ndarray] = None,
    ) -> None:
        from repro.testing import VersionOracle

        self.method = method
        if oracle is not None and np.shape(oracle) != method.shape:
            raise WorkloadError(
                f"oracle shape {np.shape(oracle)} != method shape "
                f"{method.shape}"
            )
        self.oracle = None if oracle is None else VersionOracle(oracle)

    def run(
        self,
        queries: Iterable[QueryRange] = (),
        updates: Iterable[Update] = (),
        interleave: bool = True,
        keep_answers: bool = False,
    ) -> WorkloadResult:
        """Execute the streams and return aggregated costs.

        With ``interleave=True`` (the default, matching the paper's
        equally-likely assumption) operations alternate query, update,
        query, update...; otherwise all queries run first.
        """
        result = WorkloadResult(method=self.method.name)
        if interleave:
            ops = _interleave(queries, updates)
        else:
            ops = [("q", q) for q in queries] + [("u", u) for u in updates]
        for kind, op in ops:
            if kind == "q":
                self._run_query(op, result, keep_answers)
            else:
                self._run_update(op, result)
        return result

    def _run_query(
        self, query: QueryRange, result: WorkloadResult, keep: bool
    ) -> None:
        low, high = query
        before = self.method.counter.snapshot()
        start = time.perf_counter()
        answer = self.method.range_sum(low, high)
        elapsed = time.perf_counter() - start
        result.query_seconds += elapsed
        result.query_latencies.append(elapsed)
        delta = before.delta(self.method.counter)
        result.query_cells_read += delta.cells_read
        result.queries += 1
        if keep:
            result.answers.append(answer)
        if self.oracle is not None:
            result.mismatches += len(
                self.oracle.check([low], [high], [answer], self.oracle.version)
            )

    def _run_update(self, update: Update, result: WorkloadResult) -> None:
        cell, delta = update
        before = self.method.counter.snapshot()
        start = time.perf_counter()
        self.method.apply_delta(cell, delta)
        elapsed = time.perf_counter() - start
        result.update_seconds += elapsed
        result.update_latencies.append(elapsed)
        diff = before.delta(self.method.counter)
        result.update_cells_written += diff.cells_written
        result.updates += 1
        if self.oracle is not None:
            self.oracle.record([(cell, delta)])


class ClusterWorkloadRunner:
    """Drives interleaved traffic through a :class:`CubeCluster`.

    The cluster analogue of :class:`WorkloadRunner`: queries and update
    groups alternate, a :class:`~repro.testing.VersionOracle` records
    *exactly* the acknowledged updates (on a
    :class:`~repro.errors.ClusterUnavailableError` the error's ``acked``
    receipt decides, per shard, which cells it folds in), and every
    answered query must equal the oracle's newest version exactly —
    under chaos, a dropped answer is acceptable, a wrong one never is.

    Args:
        cluster: the :class:`~repro.cluster.CubeCluster` under test.
        oracle: the initial dense cube the oracle starts from; must
            match the cluster's cube shape.
        deadline_s: optional per-operation deadline budget.
    """

    def __init__(
        self,
        cluster,
        oracle: np.ndarray,
        *,
        deadline_s: Optional[float] = None,
    ) -> None:
        from repro.testing import VersionOracle

        self.cluster = cluster
        oracle = np.asarray(oracle)
        if oracle.shape != cluster.shape:
            raise WorkloadError(
                f"oracle shape {oracle.shape} != cluster shape "
                f"{cluster.shape}"
            )
        self.oracle = VersionOracle(oracle)
        self.deadline_s = deadline_s

    def _deadline(self):
        from repro.deadline import Deadline

        if self.deadline_s is None:
            return None
        return Deadline.after(self.deadline_s)

    def run(
        self,
        queries: Iterable[QueryRange] = (),
        update_groups: Iterable[List[Update]] = (),
        *,
        flush_before_query: bool = True,
    ) -> WorkloadResult:
        """Alternate queries and update groups; verify every answer.

        With ``flush_before_query`` (default) each query waits for every
        shard to apply what it acked, so answers are comparable to the
        oracle exactly even though shards apply asynchronously. Queries
        or updates lost to unavailability (a partitioned shard, an
        expired deadline) are *not* mismatches — they are recorded in
        the result's ``unavailable`` count and the oracle absorbs only
        what was acked.
        """
        result = WorkloadResult(method="cluster")
        for kind, op in _interleave(queries, map(list, update_groups)):
            if kind == "q":
                self._run_query(op, result, flush_before_query)
            else:
                self._run_group(op, result)
        return result

    def _run_query(
        self, query: QueryRange, result: WorkloadResult, flush: bool
    ) -> None:
        low, high = query
        start = time.perf_counter()
        try:
            if flush:
                self.cluster.flush()
            answer = self.cluster.range_sum(
                low, high, deadline=self._deadline()
            )
        except ClusterUnavailableError:
            result.unavailable += 1
            return
        elapsed = time.perf_counter() - start
        result.query_seconds += elapsed
        result.query_latencies.append(elapsed)
        result.queries += 1
        result.mismatches += len(
            self.oracle.check([low], [high], [answer], self.oracle.version)
        )

    def _run_group(self, group: List[Update], result: WorkloadResult) -> None:
        start = time.perf_counter()
        try:
            self.cluster.submit_batch(group, deadline=self._deadline())
            acked_shards = None  # everything acked
        except ClusterUnavailableError as error:
            result.unavailable += 1
            acked_shards = set(error.acked)
        elapsed = time.perf_counter() - start
        result.update_seconds += elapsed
        result.update_latencies.append(elapsed)
        result.updates += 1
        shardmap = self.cluster.shardmap
        acked = [
            (cell, delta)
            for cell, delta in group
            if acked_shards is None or shardmap.shard_of(cell) in acked_shards
        ]
        if acked:
            self.oracle.record(acked)
