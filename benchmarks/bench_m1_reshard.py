"""M1 — elastic resharding: serving through a live split and merge.

The reshard coordinator's pitch is that a shard split is an *online*
operation: the seed/tail-replay/dual-write machinery runs off the read
path, the epoch flip holds the topology lock only long enough to swap
the shard map, and readers retry once across the flip instead of
failing. This benchmark prices that pitch with a concurrent write
stream on:

* **availability** — reader threads issue exact batched range sums
  continuously before, during, and after a live split and a live merge.
  Every read issued during a migration must be answered (exactly, at
  its own snapshot); one ``ClusterUnavailableError`` fails the gate.
* **read p99** — the in-migration p99 may degrade only by a bounded
  factor over the pre-migration baseline p99 (the flip's lock hold and
  the dual-write window's mirroring are the only added costs a reader
  or writer can observe).
* **zero acked loss** — the write stream keeps acking through both
  migrations; after quiesce the full cube must equal an oracle that
  absorbed exactly the acked groups.

Each migration phase boundary sleeps ``PHASE_DWELL_S`` (the hook runs
outside every lock) so the in-migration window is wide enough to hold a
statistically meaningful read sample on any CI machine; serving is live
for the whole dwell, so this only *adds* reads the gates must pass.

Writes ``results/M1.json`` next to C1/N1. Run standalone
(``python benchmarks/bench_m1_reshard.py``) or via pytest.
"""

import json
import pathlib
import tempfile
import threading
import time

import numpy as np

from repro.cluster import CubeCluster
from repro.core.rps import RelativePrefixSumCube
from repro.testing import VersionOracle
from repro.workloads import datagen, random_group, random_ranges

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"

SHAPE = (96, 64)
BOX_SIZE = 16
READERS = 3
QUERIES_PER_CALL = 4
BASELINE_S = 0.6      # pre-migration read window
PHASE_DWELL_S = 0.04  # per-phase-boundary dwell (7 phases per migration)

#: gates: every in-migration read answered, p99 within this factor of
#: the baseline p99 (generous — CI boxes are noisy — but an accidental
#: read-path lock across seeding or dual-write would blow it by orders
#: of magnitude), and a sane floor so a fast machine cannot fail on
#: microsecond jitter alone
MIN_MIGRATION_READS = 30
P99_DEGRADATION_GATE = 25.0
P99_FLOOR_S = 0.050


def _percentile(values, q):
    if not values:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class _Recorder:
    """Timestamped read walls + failures, windowed per phase."""

    def __init__(self):
        self.lock = threading.Lock()
        self.samples = []   # (t_completed, wall_s)
        self.failures = []  # (t, repr(error))

    def ok(self, wall):
        with self.lock:
            self.samples.append((time.monotonic(), wall))

    def fail(self, error):
        with self.lock:
            self.failures.append((time.monotonic(), repr(error)))

    def window(self, start, stop):
        with self.lock:
            walls = [w for t, w in self.samples if start <= t < stop]
            failed = [f for f in self.failures if start <= f[0] < stop]
        return walls, failed


def _window_row(name, walls, failed):
    issued = len(walls) + len(failed)
    return {
        "window": name,
        "reads": issued,
        "answered": len(walls),
        "unavailable": len(failed),
        "availability": (len(walls) / issued) if issued else 1.0,
        "p50_ms": _percentile(walls, 50) * 1e3,
        "p99_ms": _percentile(walls, 99) * 1e3,
        "max_ms": (max(walls) * 1e3) if walls else float("nan"),
    }


def run_m1(shape=SHAPE, seed=23):
    cube = datagen.uniform_cube(shape, seed=seed)
    oracle = VersionOracle(np.asarray(cube, dtype=np.float64))
    oracle_lock = threading.Lock()
    lows, highs = zip(*random_ranges(shape, QUERIES_PER_CALL, seed=seed))
    recorder = _Recorder()
    stop = threading.Event()
    writes_acked = [0]

    with tempfile.TemporaryDirectory(prefix="m1-reshard-") as tmp:
        cluster = CubeCluster(
            RelativePrefixSumCube,
            cube,
            data_dir=tmp,
            num_shards=2,
            replication_factor=2,
            method_kwargs={"box_size": BOX_SIZE},
        )

        def reader():
            while not stop.is_set():
                start = time.perf_counter()
                try:
                    cluster.range_sum_many(lows, highs)
                except Exception as error:  # noqa: BLE001 - gate fodder
                    recorder.fail(error)
                else:
                    recorder.ok(time.perf_counter() - start)

        def writer():
            wrng = np.random.default_rng(seed + 1)
            while not stop.is_set():
                group = random_group(wrng, shape, 3)
                with oracle_lock:
                    try:
                        cluster.submit_batch(group)
                    except Exception:  # noqa: BLE001 - must not happen
                        stop.set()
                        raise
                    oracle.record(group)
                    writes_acked[0] += 1
                time.sleep(0.002)

        threads = [threading.Thread(target=reader) for _ in range(READERS)]
        threads.append(threading.Thread(target=writer))
        migrations = []
        try:
            for thread in threads:
                thread.start()
            time.sleep(BASELINE_S)
            baseline_end = time.monotonic()

            def dwell(phase):
                time.sleep(PHASE_DWELL_S)

            for kind in ("split", "merge"):
                writes_before = writes_acked[0]
                t0 = time.monotonic()
                if kind == "split":
                    summary = cluster.split_shard(0, phase_hook=dwell)
                else:
                    summary = cluster.merge_shards(0, phase_hook=dwell)
                t1 = time.monotonic()
                migrations.append({
                    "kind": kind,
                    "old_epoch": summary["old_epoch"],
                    "new_epoch": summary["new_epoch"],
                    "num_shards": summary["num_shards"],
                    "duration_s": t1 - t0,
                    "window": (t0, t1),
                    "writes_acked_during": (
                        writes_acked[0] - writes_before
                    ),
                })
                time.sleep(0.2)  # post-flip settle between migrations
            tail_end = time.monotonic()
            time.sleep(0.3)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)

        # quiesced exactness: the cluster absorbed exactly the acked
        # stream through both migrations
        cluster.flush()
        full_low = tuple(0 for _ in shape)
        full_high = tuple(n - 1 for n in shape)
        full = cluster.range_sum(full_low, full_high)
        exact_after = not oracle.check(
            [full_low], [full_high], [full], oracle.version
        )
        final_epoch = cluster.epoch
        cluster.close()

    rows = [
        _window_row(
            "baseline",
            *recorder.window(0.0, baseline_end),
        )
    ]
    migration_walls, migration_failed = [], []
    for migration in migrations:
        t0, t1 = migration.pop("window")
        walls, failed = recorder.window(t0, t1)
        migration_walls.extend(walls)
        migration_failed.extend(failed)
        rows.append(_window_row(f"during_{migration['kind']}", walls, failed))
    rows.append(_window_row("during_any_migration",
                            migration_walls, migration_failed))
    rows.append(
        _window_row("after", *recorder.window(tail_end, float("inf")))
    )

    baseline_p99 = rows[0]["p99_ms"] / 1e3
    during = rows[-2]
    return {
        "experiment": "M1",
        "title": "Elastic resharding: serving through a live split/merge",
        "shape": list(shape),
        "box_size": BOX_SIZE,
        "seed": seed,
        "readers": READERS,
        "queries_per_call": QUERIES_PER_CALL,
        "phase_dwell_s": PHASE_DWELL_S,
        "gates": {
            "min_migration_reads": MIN_MIGRATION_READS,
            "p99_degradation_max": P99_DEGRADATION_GATE,
            "p99_floor_s": P99_FLOOR_S,
            "availability_required": 1.0,
        },
        "p99_ceiling_s": max(
            P99_FLOOR_S, P99_DEGRADATION_GATE * baseline_p99
        ),
        "migrations": migrations,
        "final_epoch": final_epoch,
        "writes_acked_total": writes_acked[0],
        "exact_after_quiesce": exact_after,
        "rows": rows,
        "during_any_migration": during,
    }


def write_report(report, path=None):
    path = path or (RESULTS / "M1.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def test_m1_live_split_availability_and_p99():
    """Acceptance gates: the cluster keeps serving for the full
    duration of a live split (and merge) with the write stream on —
    every in-migration read answered, in-migration p99 within the
    degradation gate, both epochs flipped, zero acked loss."""
    report = run_m1()
    write_report(report)
    during = report["during_any_migration"]
    assert during["reads"] >= MIN_MIGRATION_READS, during
    assert during["unavailable"] == 0, during
    assert during["availability"] == 1.0, during
    assert during["p99_ms"] / 1e3 <= report["p99_ceiling_s"], (
        during, report["p99_ceiling_s"],
    )
    kinds = [m["kind"] for m in report["migrations"]]
    assert kinds == ["split", "merge"]
    for migration in report["migrations"]:
        assert migration["new_epoch"] > migration["old_epoch"]
        assert migration["writes_acked_during"] >= 1, migration
    assert report["exact_after_quiesce"], (
        "acked writes lost across the migrations"
    )


def main():
    report = run_m1()
    path = write_report(report)
    print(f"wrote {path}")
    for row in report["rows"]:
        print(
            f"  {row['window']:>22}  reads={row['reads']:5d}  "
            f"avail={row['availability']:6.4f}  "
            f"p50={row['p50_ms']:7.2f} ms  p99={row['p99_ms']:7.2f} ms"
        )
    for migration in report["migrations"]:
        print(
            f"  {migration['kind']:>22}  epoch "
            f"{migration['old_epoch']}->{migration['new_epoch']}  "
            f"{migration['duration_s']*1e3:.0f} ms  "
            f"{migration['writes_acked_during']} writes acked during"
        )
    print(
        f"  exact after quiesce: {report['exact_after_quiesce']}  "
        f"(epoch {report['final_epoch']}, "
        f"{report['writes_acked_total']} groups acked)"
    )


if __name__ == "__main__":
    main()
