"""I1 — streaming ingestion: firehose throughput and zero-loss resume.

Two properties of :class:`~repro.ingest.IngestPipeline` are gated:

* **Throughput.** A clean run streams a uniform synthetic fact stream
  (with a sprinkle of poison rows) through encode -> coalesce -> submit
  into a WAL-backed :class:`~repro.serve.CubeService`. The sustained
  end-to-end rate — wall clock from first chunk to final fsync, rows
  counted whether applied or quarantined — must hold ``MIN_ROWS_PER_S``.
  The floor is set ~4x below the median observed rate on the reference
  container, so it trips on complexity regressions (per-row python in
  the group path, lost coalescing, fsync-per-row), not machine noise.
* **Zero-loss resume.** The same stream is run again with an injected
  coordinator crash mid-stream followed by a power loss of the service
  (``abandon``); the resumed pipeline must finish with the cube
  **bit-for-bit equal** to the clean run's, every poison row in the
  dead-letter file exactly once, and the checkpoint at the final
  offset. Resume cost is reported as the fraction of rows re-read.

Writes ``results/I1.json`` next to R1/S1/U1. Run standalone
(``python benchmarks/bench_i1_ingest.py``) or via pytest.
"""

import json
import pathlib
import tempfile
import time

import numpy as np

from repro.core.rps import RelativePrefixSumCube
from repro.cube.encoders import IntegerEncoder
from repro.cube.schema import CubeSchema, Dimension
from repro.faults import FaultPlan, InjectedFault
from repro.ingest import (
    IngestPipeline,
    MemorySource,
    ServiceTarget,
    read_dead_letters,
)
from repro.serve import CubeService, DurabilityPolicy
from repro.testing import VersionOracle

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"

SIZE = 64
ROWS = 120_000
POISON_EVERY = 5_000
GROUP_ROWS = 8_192
CHUNK_ROWS = 4_096
REPEATS = 3

#: Acceptance floor on the clean-run end-to-end ingest rate.
MIN_ROWS_PER_S = 10_000

#: The resumed crash run replays at most this fraction of the stream
#: (the fenced checkpoint bounds re-reads to the uncommitted suffix).
MAX_REREAD_FRACTION = 0.75


def _schema():
    return CubeSchema(
        [
            Dimension("x", IntegerEncoder(0, SIZE - 1)),
            Dimension("y", IntegerEncoder(0, SIZE - 1)),
        ],
        "sales",
    )


def _records(seed):
    """The fact stream, pre-built off the clock; poison every Nth row."""
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, SIZE, size=ROWS)
    ys = rng.integers(0, SIZE, size=ROWS)
    sales = rng.integers(1, 100, size=ROWS).astype(float)
    records = [
        {"x": int(x), "y": int(y), "sales": float(s)}
        for x, y, s in zip(xs, ys, sales)
    ]
    poison = list(range(POISON_EVERY, len(records), POISON_EVERY))
    for offset in poison:
        records[offset] = {"x": 10 * SIZE, "y": 0, "sales": 1.0}
    return records, poison


def _oracle(records):
    """Every non-poison row, in order, as one acked group."""
    oracle = VersionOracle(np.zeros((SIZE, SIZE)))
    oracle.record(
        ((r["x"], r["y"]), r["sales"]) for r in records if r["x"] < SIZE
    )
    return oracle


def _pipeline(records, svc, workdir, fault_plan=None):
    return IngestPipeline(
        MemorySource(records, chunk_rows=CHUNK_ROWS),
        _schema(),
        ServiceTarget(svc),
        checkpoint_path=workdir / "ck.json",
        deadletter_path=workdir / "dead.log",
        # pinned: adaptation would otherwise grow groups and make the
        # crash ordinal / reread fraction depend on queue-depth timing
        group_rows=GROUP_ROWS,
        min_group_rows=GROUP_ROWS,
        max_group_rows=GROUP_ROWS,
        fault_plan=fault_plan,
    )


def _run_clean(records, workdir):
    state = workdir / "svc"
    svc = CubeService(
        RelativePrefixSumCube, np.zeros((SIZE, SIZE)),
        durability=DurabilityPolicy(dir=state),
    )
    try:
        start = time.perf_counter()
        with _pipeline(records, svc, workdir) as pipe:
            report = pipe.run()
        svc.flush()
        elapsed = time.perf_counter() - start
        array, _ = svc.snapshot_array()
    finally:
        svc.close()
    return elapsed, report, array


def _run_crash_resume(records, workdir, crash_after_groups):
    """Crash at the Nth submit, power-lose the service, resume."""
    state = workdir / "svc"
    svc = CubeService(
        RelativePrefixSumCube, np.zeros((SIZE, SIZE)),
        durability=DurabilityPolicy(dir=state),
    )
    plan = FaultPlan(ingest_crash_at={"submit": crash_after_groups})
    try:
        with _pipeline(records, svc, workdir, plan) as pipe:
            pipe.run()
        raise AssertionError("the injected crash never fired")
    except InjectedFault:
        pass
    svc.abandon()

    recovered = CubeService.recover(state, RelativePrefixSumCube)
    try:
        start = time.perf_counter()
        with _pipeline(records, recovered, workdir) as pipe:
            report = pipe.run()
        recovered.flush()
        elapsed = time.perf_counter() - start
        array, _ = recovered.snapshot_array()
    finally:
        recovered.close()
    dead = read_dead_letters(workdir / "dead.log")
    return elapsed, report, array, sorted(e["offset"] for e in dead)


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def run_i1(seed=47):
    records, poison = _records(seed)
    oracle = _oracle(records)

    clean_times, clean_report, clean_array = [], None, None
    for _ in range(REPEATS):
        with tempfile.TemporaryDirectory(prefix="i1-clean-") as tmp:
            elapsed, clean_report, clean_array = _run_clean(
                records, pathlib.Path(tmp)
            )
            clean_times.append(elapsed)
    clean_s = _median(clean_times)
    assert not oracle.check_array(clean_array, 1), "clean run diverged"

    crash_after = max(2, (ROWS // GROUP_ROWS) // 2)
    with tempfile.TemporaryDirectory(prefix="i1-crash-") as tmp:
        resume_s, resume_report, crash_array, dead_offsets = (
            _run_crash_resume(records, pathlib.Path(tmp), crash_after)
        )

    # rows_read on the resumed run counts exactly the replayed suffix
    reread_fraction = resume_report["rows_read"] / len(records)

    return {
        "experiment": "I1",
        "title": "Streaming ingestion throughput and zero-loss resume",
        "shape": [SIZE, SIZE],
        "rows": len(records),
        "poison_rows": len(poison),
        "group_rows": GROUP_ROWS,
        "chunk_rows": CHUNK_ROWS,
        "seed": seed,
        "repeats": REPEATS,
        "min_rows_per_s_gate": MIN_ROWS_PER_S,
        "max_reread_fraction_gate": MAX_REREAD_FRACTION,
        "clean": {
            "seconds": clean_s,
            "rows_per_s": len(records) / clean_s,
            "groups_submitted": clean_report["groups_submitted"],
            "cells_submitted": clean_report["cells_submitted"],
            "rows_quarantined": clean_report["rows_quarantined"],
        },
        "crash_resume": {
            "crash_after_groups": crash_after,
            "resume_seconds": resume_s,
            "rows_reread": resume_report["rows_read"],
            "reread_fraction": reread_fraction,
            "fence_skips": resume_report["fence_skips"],
            "resumes": resume_report["resumes"],
            "bit_for_bit": not oracle.check_array(crash_array, 1),
            "dead_letters": len(dead_offsets),
            "dead_letters_exactly_once": dead_offsets == poison,
            "final_offset": resume_report["offset"],
        },
    }


def write_report(report, path=None):
    path = path or (RESULTS / "I1.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def test_i1_ingest_gate():
    """Acceptance gate: the firehose sustains the throughput floor, and
    a crash + power loss mid-stream resumes to the identical cube with
    exactly-once dead letters and a bounded replay suffix."""
    report = run_i1()
    write_report(report)
    clean = report["clean"]
    resume = report["crash_resume"]
    assert clean["rows_per_s"] >= MIN_ROWS_PER_S, (
        f"ingest rate {clean['rows_per_s']:.0f} rows/s is below the "
        f"{MIN_ROWS_PER_S} floor"
    )
    assert resume["bit_for_bit"], "resumed cube diverged from the oracle"
    assert resume["dead_letters_exactly_once"], (
        "dead-letter file is not exactly-once after the resume"
    )
    assert resume["final_offset"] == report["rows"]
    assert resume["reread_fraction"] <= MAX_REREAD_FRACTION, (
        f"resume replayed {resume['reread_fraction']:.0%} of the stream "
        f"(gate: {MAX_REREAD_FRACTION:.0%})"
    )


def main():
    report = run_i1()
    path = write_report(report)
    print(f"wrote {path}")
    clean = report["clean"]
    resume = report["crash_resume"]
    print(
        f"  clean: {clean['rows_per_s']:>10.0f} rows/s "
        f"({clean['seconds']*1e3:.0f} ms, "
        f"{clean['groups_submitted']} groups, "
        f"{clean['rows_quarantined']} quarantined)"
    )
    print(
        f"  crash+resume: bit_for_bit={resume['bit_for_bit']} "
        f"exactly_once={resume['dead_letters_exactly_once']} "
        f"reread={resume['reread_fraction']:.0%} "
        f"fence_skips={resume['fence_skips']}"
    )


if __name__ == "__main__":
    main()
