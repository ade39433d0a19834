"""U1 — batch-update throughput: looped vs vectorized vs rebuild.

The paper's update cost is logical cells per cascade; the looped
incremental path pays a Python interpreter round-trip per update on top.
The vectorized engine replays a whole batch as scatter/cumsum passes
over the touched RP boxes and the overlay arrays, with *identical*
semantics: same resulting RP and overlay arrays byte-for-byte, same
counter ledger (totals and per structure). This benchmark measures the
wall-clock crossover between the three ``apply_batch`` strategies
across batch sizes m = 1e2..1e5 on a 1024x1024 cube, asserting the
equivalence as it goes, and records which strategy ``auto`` would pick
at each m. A report-only ``small_batches`` sweep times every strategy
per call at the group sizes serving writers send (m = 4..64 on a
cluster shard, a dashboard cube and a 3-D ingest window), where
``auto`` chooses between the looped cascade and the vectorized kernel.

Writes ``results/U1.json`` next to S1/S2. Run standalone
(``python benchmarks/bench_u1_batch_updates.py``) or via pytest.
"""

import json
import pathlib
import time

import numpy as np

from repro.core.rps import RelativePrefixSumCube
from repro.workloads import datagen

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"

SHAPE = (1024, 1024)
BOX_SIZE = 32  # the paper's optimal k = sqrt(n)
BATCH_SIZES = (100, 1_000, 10_000, 100_000)

#: Largest m the looped incremental path is asked to run (beyond this it
#: is minutes of interpreter round-trips; the vectorized and rebuild
#: paths still run the full sweep).
LOOPED_CAP = 10_000

#: The small-batch sweep (report only): one cluster shard of a 512x512
#: cube split in two, a 256x256 dashboard cube and a 16x64x64 ingest
#: window (``auto``'s model has a term for the dimension), each at its
#: default box size, at the group sizes serving writers send.
SMALL_SHAPES = ((256, 512), (256, 256), (16, 64, 64))
SMALL_BATCH_SIZES = (4, 16, 32, 64)
SMALL_STRATEGIES = ("auto", "incremental", "vectorized")
SMALL_CALLS = 60


def _time(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _structures_identical(a, b):
    """Byte-identical RP and overlay arrays between two RPS cubes."""
    if not np.array_equal(a.rp.array(), b.rp.array()):
        return False
    return all(
        np.array_equal(a.overlay.values_array(mask), b.overlay.values_array(mask))
        for mask in a.overlay.masks()
    )


def run_u1(shape=SHAPE, box_size=BOX_SIZE, batch_sizes=BATCH_SIZES,
           looped_cap=LOOPED_CAP, seed=29):
    """Measure the three strategies at every batch size; returns the report."""
    cube = datagen.uniform_cube(shape, seed=seed)
    rng = np.random.default_rng(seed)
    top = max(batch_sizes)
    idx_all = np.stack(
        [rng.integers(0, n, size=top) for n in shape], axis=1
    ).astype(np.intp)
    deltas_all = rng.integers(-9, 10, size=top).astype(np.int64)
    rows = []
    for m in batch_sizes:
        idx, deltas = idx_all[:m], deltas_all[:m]
        row = {"m": m}

        vectorized = RelativePrefixSumCube(cube, box_size=box_size)
        row["auto_strategy"] = vectorized.choose_batch_strategy(idx)
        before = vectorized.counter.snapshot()
        _, vec_seconds = _time(
            lambda: vectorized.apply_batch_array(
                idx, deltas, strategy="vectorized"
            )
        )
        vec_cost = before.delta(vectorized.counter)
        row["vectorized_s"] = vec_seconds
        row["updates_per_s"] = m / vec_seconds
        row["cells_written_vectorized"] = vec_cost.cells_written

        rebuilt = RelativePrefixSumCube(cube, box_size=box_size)
        _, rebuild_seconds = _time(
            lambda: rebuilt.apply_batch_array(idx, deltas, strategy="rebuild")
        )
        row["rebuild_s"] = rebuild_seconds
        row["values_equal_rebuild"] = bool(
            np.array_equal(vectorized.to_array(), rebuilt.to_array())
        )
        assert row["values_equal_rebuild"], m

        if m <= looped_cap:
            looped = RelativePrefixSumCube(cube, box_size=box_size)
            before = looped.counter.snapshot()
            _, looped_seconds = _time(
                lambda: looped.apply_batch_array(
                    idx, deltas, strategy="incremental"
                )
            )
            looped_cost = before.delta(looped.counter)
            row["looped_s"] = looped_seconds
            row["speedup_vs_looped"] = looped_seconds / vec_seconds
            row["cells_written_looped"] = looped_cost.cells_written
            row["structures_identical"] = _structures_identical(
                looped, vectorized
            )
            row["ledger_equal"] = (
                looped_cost.cells_written == vec_cost.cells_written
                and looped_cost.cells_read == vec_cost.cells_read
                and looped.counter.by_structure
                == vectorized.counter.by_structure
            )
            assert row["structures_identical"], m
            assert row["ledger_equal"], m
        rows.append(row)
    return {
        "experiment": "U1",
        "title": "Batch-update throughput: looped vs vectorized vs rebuild",
        "shape": list(shape),
        "box_size": box_size,
        "seed": seed,
        "rows": rows,
        "small_batches": run_small_batches(seed=seed),
    }


def run_small_batches(shapes=SMALL_SHAPES, batch_sizes=SMALL_BATCH_SIZES,
                      calls=SMALL_CALLS, seed=29):
    """Per-call microseconds of each strategy on small batches.

    Every call applies a fresh batch to one long-lived cube, as a
    serving writer does; the strategies take turns call by call so a
    noisy host slows them alike. Deltas are float64, as the WAL hands
    them back. Reports the median and minimum per strategy, and the
    strategy ``auto`` picks for the first batch.
    """
    rows = []
    for shape in shapes:
        rng = np.random.default_rng(seed)
        cube = RelativePrefixSumCube(datagen.uniform_cube(shape, seed=seed))
        for m in batch_sizes:
            times = {strategy: [] for strategy in SMALL_STRATEGIES}
            for call in range(calls):
                idx = np.stack(
                    [rng.integers(0, n, size=m) for n in shape], axis=1
                ).astype(np.intp)
                deltas = rng.integers(-9, 10, size=m).astype(np.float64)
                if call == 0:
                    picked = cube.choose_batch_strategy(idx)
                turn = call % len(SMALL_STRATEGIES)
                order = SMALL_STRATEGIES[turn:] + SMALL_STRATEGIES[:turn]
                for strategy in order:
                    _, seconds = _time(
                        lambda: cube.apply_batch_array(
                            idx, deltas, strategy=strategy
                        )
                    )
                    times[strategy].append(seconds * 1e6)
            row = {"shape": list(shape), "box_size": cube.box_size, "m": m,
                   "auto_strategy": picked}
            for strategy, samples in times.items():
                row[f"{strategy}_us"] = float(np.median(samples))
                row[f"{strategy}_min_us"] = float(np.min(samples))
            rows.append(row)
    return rows


def write_report(report, path=None):
    path = path or (RESULTS / "U1.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def test_u1_vectorized_speedup_and_exact_parity():
    """Acceptance gate: the vectorized engine beats the looped path at
    m=1,000, is >= 5x faster at m=10,000 on 1024x1024, and is
    indistinguishable from it — byte-identical structures, identical
    counter ledgers — wherever both run."""
    report = run_u1()
    write_report(report)
    by_m = {r["m"]: r for r in report["rows"]}
    assert by_m[1_000]["vectorized_s"] < by_m[1_000]["looped_s"], (
        "vectorized must already win at m=1,000"
    )
    gate = by_m[10_000]
    assert gate["structures_identical"] and gate["ledger_equal"], gate
    assert gate["speedup_vs_looped"] >= 5.0, (
        f"vectorized path only {gate['speedup_vs_looped']:.1f}x faster "
        f"at m=10,000"
    )
    # the deep self-check on the structures the gate batch produced
    cube = datagen.uniform_cube(SHAPE, seed=report["seed"])
    method = RelativePrefixSumCube(cube, box_size=BOX_SIZE)
    rng = np.random.default_rng(report["seed"])
    idx = np.stack(
        [rng.integers(0, n, size=10_000) for n in SHAPE], axis=1
    ).astype(np.intp)
    deltas = rng.integers(-9, 10, size=10_000).astype(np.int64)
    method.apply_batch_array(idx, deltas, strategy="vectorized")
    method.verify_structures()


def main():
    report = run_u1()
    path = write_report(report)
    print(f"wrote {path}")
    for row in report["rows"]:
        speedup = row.get("speedup_vs_looped")
        speedup_txt = f"{speedup:8.1f}x" if speedup else "       --"
        print(
            f"  m={row['m']:>6}  vec={row['vectorized_s']*1e3:8.2f} ms  "
            f"rebuild={row['rebuild_s']*1e3:8.2f} ms  "
            f"speedup={speedup_txt}  auto={row['auto_strategy']}"
        )
    print("  small batches (median us per call):")
    for row in report["small_batches"]:
        print(
            f"  {'x'.join(map(str, row['shape'])):>8} m={row['m']:>3}  "
            f"auto={row['auto_us']:7.0f}  "
            f"incremental={row['incremental_us']:7.0f}  "
            f"vectorized={row['vectorized_us']:7.0f}  "
            f"auto picks {row['auto_strategy']}"
        )


if __name__ == "__main__":
    main()
