"""C1 — cluster serving: sharded fan-out overhead and hedged tail rescue.

The cluster layer buys redundancy (replicas, failover, scrubbing) with
an executor hop per shard read. This benchmark prices that hop and
verifies the tail-latency machinery actually works:

* **fan-out overhead**: the same batched range-sum workload runs against
  a bare :class:`~repro.serve.CubeService` and against clusters of
  1 and 2 shards (replication factor 2). The single-shard cluster vs
  bare-service ratio is the pure cluster tax — routing, the thread-pool
  hop, and metrics. The acceptance gate only guards against pathological
  regressions (an accidental flush or resync per query would blow it).
* **hedged tail rescue**: a seeded fault plan injects a 250 ms latency
  spike into the primary's read path on scheduled ordinals. With an
  aggressive :class:`~repro.cluster.HedgePolicy` the spiked reads must
  be *rescued* by the replica arm — completing well under the injected
  spike — and every answer must stay exact.

Writes ``results/C1.json`` next to R1/S1/S2/U1. Run standalone
(``python benchmarks/bench_c1_cluster.py``) or via pytest.
"""

import json
import pathlib
import tempfile
import time

import numpy as np

from repro.cluster import CubeCluster, HedgePolicy
from repro.core.rps import RelativePrefixSumCube
from repro.faults import FaultPlan
from repro.serve import CubeService
from repro.workloads import datagen, random_ranges

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"

SHAPE = (128, 128)
BOX_SIZE = 16
QUERIES = 64          # boxes per batched call
ROUNDS = 12           # batched calls per timed run
REPEATS = 3

#: The single-shard cluster may cost at most this factor over the bare
#: service on the same workload (regression guard, not a target).
MAX_FANOUT_OVERHEAD = 50.0

#: Injected primary read spike and the ceiling a hedged read must beat.
SPIKE_S = 0.25
RESCUE_CEILING_S = 0.125  # floor of the jittered spike: a rescued read
                          # must come back before the spike possibly could


def _boxes(shape, count, seed):
    boxes = np.array(list(random_ranges(shape, count, seed=seed)), np.intp)
    return boxes[:, 0], boxes[:, 1]


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def _time_service(cube, lows, highs):
    service = CubeService(
        RelativePrefixSumCube, cube, method_kwargs={"box_size": BOX_SIZE}
    )
    try:
        start = time.perf_counter()
        for _ in range(ROUNDS):
            values = service.range_sum_many(lows, highs)
        elapsed = time.perf_counter() - start
    finally:
        service.close()
    return elapsed, values


def _time_cluster(cube, lows, highs, num_shards):
    with tempfile.TemporaryDirectory(prefix=f"c1-{num_shards}s-") as tmp:
        cluster = CubeCluster(
            RelativePrefixSumCube,
            cube,
            data_dir=tmp,
            num_shards=num_shards,
            replication_factor=2,
            method_kwargs={"box_size": BOX_SIZE},
        )
        try:
            start = time.perf_counter()
            for _ in range(ROUNDS):
                values = cluster.range_sum_many(lows, highs)
            elapsed = time.perf_counter() - start
        finally:
            cluster.close()
    return elapsed, values


def _hedge_rescue(cube, seed):
    """Spike the primary's read path; return per-read walls + metrics."""
    spiked_ordinals = (2, 4, 6)
    plan = FaultPlan(
        seed=seed,
        read_latency_at=spiked_ordinals,
        read_latency_nodes=["s0.n0"],
        read_latency_seconds=SPIKE_S,
    )
    lows, highs = _boxes(cube.shape, 8, seed)
    walls = []
    with tempfile.TemporaryDirectory(prefix="c1-hedge-") as tmp:
        cluster = CubeCluster(
            RelativePrefixSumCube,
            cube,
            data_dir=tmp,
            num_shards=1,
            replication_factor=2,
            method_kwargs={"box_size": BOX_SIZE},
            fault_plan=plan,
            hedge=HedgePolicy(initial_delay_s=0.02, min_samples=10_000),
        )
        try:
            expected = None
            for _ in range(8):
                start = time.perf_counter()
                values = cluster.range_sum_many(lows, highs)
                walls.append(time.perf_counter() - start)
                if expected is None:
                    expected = values
                assert np.array_equal(values, expected)
            metrics = cluster.stats()["metrics"]
        finally:
            cluster.close()
    return walls, len(spiked_ordinals), metrics


def run_c1(shape=SHAPE, seed=17):
    cube = datagen.uniform_cube(shape, seed=seed)
    lows, highs = _boxes(shape, QUERIES, seed)

    oracle = None
    rows = []
    configs = (
        ("service", lambda: _time_service(cube, lows, highs)),
        ("cluster_1shard", lambda: _time_cluster(cube, lows, highs, 1)),
        ("cluster_2shard", lambda: _time_cluster(cube, lows, highs, 2)),
    )
    for name, run in configs:
        times = []
        for _ in range(REPEATS):
            elapsed, values = run()
            times.append(elapsed)
            if oracle is None:
                oracle = np.asarray(values)
            assert np.array_equal(np.asarray(values), oracle)
        elapsed = _median(times)
        rows.append(
            {
                "config": name,
                "rounds": ROUNDS,
                "queries_per_round": QUERIES,
                "elapsed_s": elapsed,
                "queries_per_s": ROUNDS * QUERIES / elapsed,
            }
        )
    baseline = rows[0]
    for row in rows:
        row["overhead_vs_service"] = (
            row["elapsed_s"] / baseline["elapsed_s"]
        )

    walls, spiked, hedge_metrics = _hedge_rescue(cube, seed)
    hedge = {
        "spike_s": SPIKE_S,
        "spiked_reads": spiked,
        "rescue_ceiling_s": RESCUE_CEILING_S,
        "max_read_wall_s": max(walls),
        "hedged_reads": hedge_metrics["hedged_reads"],
        "hedge_wins": hedge_metrics["hedge_wins"],
    }
    return {
        "experiment": "C1",
        "title": "Cluster serving: fan-out overhead and hedged tail rescue",
        "shape": list(shape),
        "box_size": BOX_SIZE,
        "seed": seed,
        "repeats": REPEATS,
        "max_fanout_overhead_gate": MAX_FANOUT_OVERHEAD,
        "rows": rows,
        "hedge": hedge,
    }


def write_report(report, path=None):
    path = path or (RESULTS / "C1.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def test_c1_cluster_overhead_and_hedge_rescue():
    """Acceptance gates: the single-shard cluster stays within the
    regression guard over the bare service, and every spiked read is
    hedged onto the replica and completes before the injected spike
    possibly could."""
    report = run_c1()
    write_report(report)
    by_config = {row["config"]: row for row in report["rows"]}
    assert (
        by_config["cluster_1shard"]["overhead_vs_service"]
        <= MAX_FANOUT_OVERHEAD
    ), by_config["cluster_1shard"]
    hedge = report["hedge"]
    assert hedge["hedged_reads"] >= hedge["spiked_reads"]
    assert hedge["hedge_wins"] >= hedge["spiked_reads"]
    assert hedge["max_read_wall_s"] < hedge["rescue_ceiling_s"], hedge


def main():
    report = run_c1()
    path = write_report(report)
    print(f"wrote {path}")
    for row in report["rows"]:
        print(
            f"  {row['config']:>15}  "
            f"elapsed={row['elapsed_s']*1e3:8.2f} ms  "
            f"({row['overhead_vs_service']:5.2f}x)  "
            f"{row['queries_per_s']:10.0f} queries/s"
        )
    hedge = report["hedge"]
    print(
        f"  hedge: {hedge['hedge_wins']}/{hedge['hedged_reads']} wins, "
        f"max wall {hedge['max_read_wall_s']*1e3:.1f} ms vs "
        f"{hedge['spike_s']*1e3:.0f} ms spike"
    )


if __name__ == "__main__":
    main()
