"""Unit tests for the mixed workload runner (repro.workloads.runner)."""

import numpy as np
import pytest

from repro.baselines.naive import NaiveCube
from repro.baselines.prefix import PrefixSumCube
from repro.core.rps import RelativePrefixSumCube
from repro.errors import WorkloadError
from repro.workloads import querygen, updategen
from repro.workloads.runner import WorkloadRunner


@pytest.fixture
def cube(rng):
    return rng.integers(0, 20, size=(16, 16))


class TestExecution:
    def test_counts(self, cube):
        runner = WorkloadRunner(RelativePrefixSumCube(cube, box_size=4))
        result = runner.run(
            queries=querygen.random_ranges(cube.shape, 10, seed=1),
            updates=updategen.random_updates(cube.shape, 7, seed=2),
        )
        assert result.queries == 10
        assert result.updates == 7
        assert result.query_cells_read > 0
        assert result.update_cells_written > 0

    def test_oracle_verification_zero_mismatches(self, cube):
        runner = WorkloadRunner(
            RelativePrefixSumCube(cube, box_size=4), oracle=cube
        )
        result = runner.run(
            queries=querygen.random_ranges(cube.shape, 30, seed=3),
            updates=updategen.random_updates(cube.shape, 30, seed=4),
        )
        assert result.mismatches == 0

    def test_oracle_catches_broken_method(self, cube):
        """A deliberately mismatched oracle must register mismatches."""
        wrong_oracle = cube + 1
        runner = WorkloadRunner(NaiveCube(cube), oracle=wrong_oracle)
        result = runner.run(
            queries=querygen.random_ranges(cube.shape, 10, seed=5)
        )
        assert result.mismatches > 0

    def test_oracle_check_is_exact(self):
        """One unit off on a 1.2M total is a mismatch, not a rounding
        difference: the oracle compares with ``==``."""

        class OneHigh(NaiveCube):
            def range_sum(self, low, high):
                return super().range_sum(low, high) + 1

        cube = np.full((64, 64), 300)
        runner = WorkloadRunner(OneHigh(cube), oracle=cube)
        result = runner.run(queries=[((0, 0), (63, 63)), ((0, 0), (0, 0))])
        assert result.mismatches == 2

    def test_oracle_shape_mismatch(self, cube):
        with pytest.raises(WorkloadError):
            WorkloadRunner(NaiveCube(cube), oracle=np.zeros((3, 3)))

    def test_keep_answers(self, cube):
        runner = WorkloadRunner(NaiveCube(cube))
        result = runner.run(
            queries=[((0, 0), (15, 15))], keep_answers=True
        )
        assert result.answers == [cube.sum()]

    def test_sequential_mode(self, cube):
        runner = WorkloadRunner(NaiveCube(cube), oracle=cube)
        result = runner.run(
            queries=querygen.random_ranges(cube.shape, 5, seed=6),
            updates=updategen.random_updates(cube.shape, 5, seed=7),
            interleave=False,
        )
        assert result.mismatches == 0
        assert result.queries == result.updates == 5


class TestDerivedMetrics:
    def test_per_op_averages(self, cube):
        runner = WorkloadRunner(NaiveCube(cube))
        result = runner.run(queries=[((0, 0), (15, 15))] * 4)
        assert result.cells_per_query == 256
        assert result.cells_per_update == 0

    def test_cost_product_reflects_paper_tradeoff(self, rng):
        """Same workload on a realistically sized cube: the RPS product
        beats the prefix-sum product (at 16x16 the constants still hide
        the asymptotics, so use 64x64)."""
        big = rng.integers(0, 20, size=(64, 64))
        queries = list(querygen.random_ranges(big.shape, 20, seed=8))
        updates = list(updategen.random_updates(big.shape, 20, seed=9))
        products = {}
        for cls in (PrefixSumCube, RelativePrefixSumCube):
            runner = WorkloadRunner(cls(big))
            result = runner.run(queries=list(queries), updates=list(updates))
            products[cls.name] = result.cost_product
        assert products["rps"] < products["prefix_sum"]

    def test_empty_run(self, cube):
        result = WorkloadRunner(NaiveCube(cube)).run()
        assert result.queries == result.updates == 0
        assert result.cost_product == 0


class TestLatencyPercentiles:
    def test_percentiles_reported(self, cube):
        runner = WorkloadRunner(NaiveCube(cube))
        result = runner.run(
            queries=querygen.random_ranges(cube.shape, 20, seed=10),
            updates=updategen.random_updates(cube.shape, 20, seed=11),
        )
        for kind in ("query", "update"):
            stats = result.latency_percentiles(kind)
            assert set(stats) == {"p50", "p95", "p99", "max"}
            assert 0 < stats["p50"] <= stats["p95"] <= stats["max"]

    def test_empty_stream_percentiles_zero(self, cube):
        result = WorkloadRunner(NaiveCube(cube)).run()
        assert result.latency_percentiles("query")["max"] == 0.0
        assert result.latency_percentiles("update")["p99"] == 0.0

    def test_latency_sample_counts(self, cube):
        runner = WorkloadRunner(NaiveCube(cube))
        result = runner.run(
            queries=querygen.random_ranges(cube.shape, 7, seed=12)
        )
        assert len(result.query_latencies) == 7
        assert len(result.update_latencies) == 0
