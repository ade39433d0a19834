"""R1 — durability overhead: WAL-on vs WAL-off submit throughput.

Durability's price is paid at the ack: with a
:class:`~repro.serve.wal.DurabilityPolicy`, every ``submit_batch`` call
encodes the group, CRC-checks it into the WAL, and (by default) fsyncs
before returning. This benchmark drives the U1-style uniform random
update workload through a :class:`~repro.serve.CubeService` three ways —
no durability, WAL with fsync-per-group (the strict "acked means
durable" reading), and WAL without fsync — and measures each twice:

* **serialized**: submit one group, ``flush()``, repeat. One thread
  runs at a time, so the timing is deterministic and the WAL-on /
  WAL-off difference is exactly the durability work. This is what the
  acceptance gate uses.
* **pipelined**: submit every group back to back, then flush once.
  Reported for inspection only — the ack loop races the writer thread
  for the GIL (every fsync releases it into a numpy-busy writer), so
  its timing swings several-fold between runs with identical code.

The acceptance gate holds the strict configuration to **<= 2x** the
WAL-off serialized throughput at the paper-workload group size (1,000
updates per group): durability must stay in the same cost class as the
serving path it protects, not dominate it.

Two report-only fields time standing a WAL-backed service up at the
same shape (no gate): ``open_ms``, the median of :data:`OPENS`
constructions (one build, one copy for the back buffer, one seed
checkpoint), and ``checkpoint_ms``, the median of as many
``write_checkpoint`` + ``load_method`` round trips.

Writes ``results/R1.json`` next to S1/S2/U1. Run standalone
(``python benchmarks/bench_r1_wal_overhead.py``) or via pytest.
"""

import json
import pathlib
import tempfile
import time

import numpy as np

from repro.core.rps import RelativePrefixSumCube
from repro.persistence import load_method
from repro.serve import CubeService, DurabilityPolicy
from repro.serve.wal import checkpoint_path, write_checkpoint
from repro.workloads import datagen

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"

SHAPE = (256, 256)
BOX_SIZE = 16
GROUPS = 48
UPDATES_PER_GROUP = 1_000

#: Repeats per configuration; the reported time is the median run.
REPEATS = 3

#: Samples behind each of ``open_ms`` and ``checkpoint_ms``.
OPENS = 9

#: Strict-durability serialized throughput must stay within this factor
#: of the WAL-off path (the R1 acceptance gate).
MAX_OVERHEAD = 2.0


def _workload(shape, groups, per_group, seed):
    """U1-style uniform random cell deltas, pre-built off the clock."""
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(groups):
        idx = np.stack(
            [rng.integers(0, n, size=per_group) for n in shape], axis=1
        )
        deltas = rng.integers(-9, 10, size=per_group)
        batches.append(
            [
                (tuple(int(c) for c in cell), int(delta))
                for cell, delta in zip(idx, deltas)
            ]
        )
    return batches


def _service(cube, durability):
    return CubeService(
        RelativePrefixSumCube,
        cube,
        method_kwargs={"box_size": BOX_SIZE},
        durability=durability,
    )


def _run_serialized(cube, batches, durability):
    """Submit-then-flush per group: deterministic round-trip seconds."""
    service = _service(cube, durability)
    try:
        start = time.perf_counter()
        for group in batches:
            service.submit_batch(group)
            service.flush()
        elapsed = time.perf_counter() - start
        stats = service.stats()
    finally:
        service.close()
    return elapsed, stats


def _run_pipelined(cube, batches, durability):
    """Submit everything, flush once: (submit_seconds, e2e_seconds)."""
    service = _service(cube, durability)
    try:
        start = time.perf_counter()
        for group in batches:
            service.submit_batch(group)
        submit_seconds = time.perf_counter() - start
        service.flush()
        e2e_seconds = time.perf_counter() - start
    finally:
        service.close()
    return submit_seconds, e2e_seconds


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def _open_ms(cube):
    """Median ms to construct a WAL-backed (fsync) service."""
    samples = []
    for _ in range(OPENS):
        with tempfile.TemporaryDirectory(prefix="r1-open-") as tmp:
            start = time.perf_counter()
            service = _service(cube, DurabilityPolicy(dir=tmp))
            samples.append(time.perf_counter() - start)
            service.close()
    return _median(samples) * 1e3


def _checkpoint_ms(cube):
    """Median ms of one checkpoint write plus one load of it."""
    method = RelativePrefixSumCube(cube, box_size=BOX_SIZE)
    samples = []
    with tempfile.TemporaryDirectory(prefix="r1-ckpt-") as tmp:
        for seq in range(OPENS):
            start = time.perf_counter()
            write_checkpoint(method, tmp, seq)
            load_method(checkpoint_path(tmp, seq))
            samples.append(time.perf_counter() - start)
    return _median(samples) * 1e3


def run_r1(shape=SHAPE, groups=GROUPS, per_group=UPDATES_PER_GROUP, seed=31):
    """Measure the three durability configurations; returns the report."""
    cube = datagen.uniform_cube(shape, seed=seed)
    batches = _workload(shape, groups, per_group, seed)
    configs = (
        ("wal_off", lambda d: None),
        ("wal_fsync", lambda d: DurabilityPolicy(dir=d, checkpoint_every=0)),
        (
            "wal_nofsync",
            lambda d: DurabilityPolicy(dir=d, checkpoint_every=0, fsync=False),
        ),
    )
    rows = []
    for name, make_policy in configs:
        serialized, pipelined, stats = [], [], None
        for _ in range(REPEATS):
            with tempfile.TemporaryDirectory(prefix=f"r1-{name}-") as tmp:
                elapsed, stats = _run_serialized(
                    cube, batches, make_policy(pathlib.Path(tmp))
                )
                serialized.append(elapsed)
            with tempfile.TemporaryDirectory(prefix=f"r1-{name}-") as tmp:
                pipelined.append(
                    _run_pipelined(
                        cube, batches, make_policy(pathlib.Path(tmp))
                    )
                )
        serialized_s = _median(serialized)
        submit_s = _median([run[0] for run in pipelined])
        e2e_s = _median([run[1] for run in pipelined])
        rows.append(
            {
                "config": name,
                "groups": groups,
                "updates_per_group": per_group,
                "serialized_s": serialized_s,
                "serialized_groups_per_s": groups / serialized_s,
                "pipelined_submit_s": submit_s,
                "pipelined_e2e_s": e2e_s,
                "pipelined_acks_per_s": groups / submit_s,
                "wal_appends": stats["wal_appends"],
                "wal_fsyncs": stats["wal_fsyncs"],
                "wal_bytes": stats["wal_bytes"],
            }
        )
    baseline = rows[0]
    for row in rows:
        row["serialized_overhead_vs_wal_off"] = (
            row["serialized_s"] / baseline["serialized_s"]
        )
    return {
        "experiment": "R1",
        "title": "Durability overhead: WAL-on vs WAL-off submit throughput",
        "shape": list(shape),
        "box_size": BOX_SIZE,
        "seed": seed,
        "repeats": REPEATS,
        "max_overhead_gate": MAX_OVERHEAD,
        "open_ms": _open_ms(cube),
        "checkpoint_ms": _checkpoint_ms(cube),
        "rows": rows,
    }


def write_report(report, path=None):
    path = path or (RESULTS / "R1.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def test_r1_wal_overhead_within_gate():
    """Acceptance gate: fsync-per-group durability costs <= 2x the
    WAL-off serialized throughput on the U1 workload, and the WAL
    actually logged (and synced) every acknowledged group."""
    report = run_r1()
    write_report(report)
    by_config = {row["config"]: row for row in report["rows"]}
    strict = by_config["wal_fsync"]
    assert strict["wal_appends"] == GROUPS
    assert strict["wal_fsyncs"] == GROUPS
    assert by_config["wal_off"]["wal_appends"] == 0
    assert by_config["wal_nofsync"]["wal_fsyncs"] == 0
    assert strict["serialized_overhead_vs_wal_off"] <= MAX_OVERHEAD, (
        f"strict durability costs "
        f"{strict['serialized_overhead_vs_wal_off']:.2f}x the WAL-off "
        f"serialized path (gate: {MAX_OVERHEAD}x)"
    )


def main():
    report = run_r1()
    path = write_report(report)
    print(f"wrote {path}")
    print(
        f"  open={report['open_ms']:.2f} ms  "
        f"checkpoint write+load={report['checkpoint_ms']:.2f} ms"
    )
    for row in report["rows"]:
        print(
            f"  {row['config']:>11}  "
            f"serialized={row['serialized_s']*1e3:8.2f} ms "
            f"({row['serialized_overhead_vs_wal_off']:4.2f}x)  "
            f"pipelined submit={row['pipelined_submit_s']*1e3:8.2f} ms  "
            f"fsyncs={row['wal_fsyncs']}"
        )


if __name__ == "__main__":
    main()
