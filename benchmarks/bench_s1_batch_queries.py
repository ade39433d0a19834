"""S1 — batched query throughput: looped vs vectorized kernels.

The paper's O(1) query bound is per-query *cell* cost; the per-call
Python path pays interpreter overhead on top, which dominates real
throughput. This benchmark measures the wall-clock speedup of
``range_sum_many`` over looping ``range_sum`` across batch sizes
Q = 1e2..1e5 on a 1024x1024 cube, for every method — and asserts that
the two paths return identical answers and charge identical counter
totals, so the speedup is free in the paper's cost model.

It also reports, without a gate, the per-call cost of each method's
``range_sum_many`` at serving-sized batches (Q = 4, 64, 256: a
dashboard page, not a bulk scan) under ``serving_batches`` — the size
where per-call overhead rather than per-box gathers decides latency.

Writes ``results/S1.json`` next to the E*/A* CSVs. Run standalone
(``python benchmarks/bench_s1_batch_queries.py``) or via pytest.
"""

import json
import pathlib
import time

import numpy as np

from repro.baselines.fenwick import FenwickCube
from repro.baselines.naive import NaiveCube
from repro.baselines.prefix import PrefixSumCube
from repro.core.rps import RelativePrefixSumCube
from repro.workloads import datagen, querygen

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"

SHAPE = (1024, 1024)
BATCH_SIZES = (100, 1_000, 10_000, 100_000)

#: Serving-sized batches timed per call (report-only, no threshold).
SERVING_BATCH_SIZES = (4, 64, 256)

#: Calls per timed serving sample, and samples per (method, Q); the
#: reported per-call time is the fastest sample's mean.
SERVING_CALLS = 50
SERVING_SAMPLES = 5

#: Largest Q each method's *looped* path is asked to run (the naive scan
#: and the Fenwick per-query np.ix_ path get slow enough to be pointless
#: beyond these; their vectorized kernels still run the full sweep).
LOOPED_CAP = {
    "naive": 1_000,
    "fenwick": 10_000,
    "prefix_sum": 100_000,
    "rps": 100_000,
}

METHODS = {
    "naive": NaiveCube,
    "prefix_sum": PrefixSumCube,
    "fenwick": FenwickCube,
    "rps": RelativePrefixSumCube,
}


def _time(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def run_s1(shape=SHAPE, batch_sizes=BATCH_SIZES, seed=21):
    """Measure both paths for every method; returns the report dict."""
    cube = datagen.uniform_cube(shape, seed=seed)
    all_queries = list(
        querygen.random_ranges(shape, max(batch_sizes), seed=seed)
    )
    lows_all = np.array([q[0] for q in all_queries], dtype=np.intp)
    highs_all = np.array([q[1] for q in all_queries], dtype=np.intp)
    rows = []
    for name, cls in METHODS.items():
        method = cls(cube)
        for q_count in batch_sizes:
            lows, highs = lows_all[:q_count], highs_all[:q_count]
            queries = all_queries[:q_count]
            run_looped = q_count <= LOOPED_CAP[name]
            row = {"method": name, "Q": q_count}
            if run_looped:
                before = method.counter.snapshot()
                looped_values, looped_seconds = _time(
                    lambda: np.array(
                        [method.range_sum(lo, hi) for lo, hi in queries]
                    )
                )
                looped_cost = before.delta(method.counter)
                row["looped_s"] = looped_seconds
            before = method.counter.snapshot()
            vec_values, vec_seconds = _time(
                lambda: method.range_sum_many(lows, highs)
            )
            vec_cost = before.delta(method.counter)
            row["vectorized_s"] = vec_seconds
            row["queries_per_s"] = q_count / vec_seconds
            row["cells_read_vectorized"] = vec_cost.cells_read
            if run_looped:
                row["speedup"] = looped_seconds / vec_seconds
                row["cells_read_looped"] = looped_cost.cells_read
                row["values_equal"] = bool(
                    np.array_equal(looped_values, vec_values)
                )
                row["counters_equal"] = (
                    looped_cost.cells_read == vec_cost.cells_read
                )
                assert row["values_equal"], (name, q_count)
                assert row["counters_equal"], (name, q_count)
            rows.append(row)
    return {
        "experiment": "S1",
        "title": "Batched query throughput: looped vs vectorized kernels",
        "shape": list(shape),
        "seed": seed,
        "rows": rows,
        "serving_batches": serving_batches(cube, lows_all, highs_all),
    }


def serving_batches(cube, lows_all, highs_all):
    """Per-call ``range_sum_many`` microseconds at serving batch sizes,
    one row per (method, Q); report-only."""
    rows = []
    for name, cls in METHODS.items():
        method = cls(cube)
        for q_count in SERVING_BATCH_SIZES:
            lows, highs = lows_all[:q_count], highs_all[:q_count]
            samples = []
            for _ in range(SERVING_SAMPLES):
                start = time.perf_counter()
                for _ in range(SERVING_CALLS):
                    method.range_sum_many(lows, highs)
                samples.append(
                    (time.perf_counter() - start) / SERVING_CALLS
                )
            rows.append({
                "method": name,
                "Q": q_count,
                "us_per_call": min(samples) * 1e6,
            })
    return rows


def write_report(report, path=None):
    path = path or (RESULTS / "S1.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def test_s1_vectorized_speedup_and_counter_parity():
    """Acceptance gate: >= 5x at Q=10,000 on 1024x1024 for RPS and the
    prefix-sum method, identical values and counter totals throughout."""
    report = run_s1()
    write_report(report)
    by_key = {(r["method"], r["Q"]): r for r in report["rows"]}
    for name in ("rps", "prefix_sum"):
        row = by_key[(name, 10_000)]
        assert row["values_equal"] and row["counters_equal"], row
        assert row["speedup"] >= 5.0, (
            f"{name}: vectorized path only {row['speedup']:.1f}x faster"
        )


def main():
    report = run_s1()
    path = write_report(report)
    print(f"wrote {path}")
    for row in report["rows"]:
        speedup = row.get("speedup")
        speedup_txt = f"{speedup:8.1f}x" if speedup else "       --"
        print(
            f"  {row['method']:>10}  Q={row['Q']:>6}  "
            f"vec={row['vectorized_s']*1e3:8.2f} ms  speedup={speedup_txt}"
        )
    print("  serving batches (per call):")
    for row in report["serving_batches"]:
        print(
            f"  {row['method']:>10}  Q={row['Q']:>6}  "
            f"{row['us_per_call']:10.1f} us"
        )


if __name__ == "__main__":
    main()
