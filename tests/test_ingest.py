"""repro.ingest units: sources, dead letters, checkpoints, targets,
rolling serve, measure validation, and the pipeline's quarantine and
backpressure behavior. Crash recovery is exercised separately in
``test_ingest_crash_matrix.py``."""

import csv
import json
import os

import numpy as np
import pytest

from repro import RelativePrefixSumCube
from repro.cluster.degraded import RangeEstimate
from repro.cube.encoders import IntegerEncoder
from repro.cube.fact_table import FactTable, validate_measure
from repro.cube.schema import CubeSchema, Dimension
from repro.errors import (
    DeadLetterCorruptionError,
    FenceError,
    IngestError,
    RangeError,
    SchemaError,
    ServiceOverloadedError,
)
from repro.ingest import (
    CheckpointStore,
    ColumnarSource,
    CSVSource,
    DeadLetterFile,
    IngestPipeline,
    MemorySource,
    RollingCubeService,
    RollingServiceTarget,
    ServiceTarget,
    read_dead_letters,
)
from repro.ingest.deadletter import _encode_entry
from repro.serve import CubeService


def make_schema(size=8):
    return CubeSchema(
        [
            Dimension("x", IntegerEncoder(0, size - 1)),
            Dimension("y", IntegerEncoder(0, size - 1)),
        ],
        "sales",
    )


def make_records(rng, n, size=8):
    return [
        {
            "x": int(rng.integers(0, size)),
            "y": int(rng.integers(0, size)),
            "sales": float(rng.integers(1, 10)),
        }
        for _ in range(n)
    ]


def oracle_of(records, size=8):
    cube = np.zeros((size, size))
    for r in records:
        cube[r["x"], r["y"]] += r["sales"]
    return cube


class TestSources:
    def test_memory_source_chunks_cover_offsets(self):
        records = [{"i": i} for i in range(10)]
        source = MemorySource(records, chunk_rows=3)
        chunks = list(source.chunks(0))
        assert [off for off, _ in chunks] == [0, 3, 6, 9]
        assert [len(rows) for _, rows in chunks] == [3, 3, 3, 1]
        flat = [r for _, rows in chunks for r in rows]
        assert flat == records

    def test_memory_source_resumes_mid_stream(self):
        records = [{"i": i} for i in range(10)]
        source = MemorySource(records, chunk_rows=4)
        chunks = list(source.chunks(5))
        assert chunks[0][0] == 5
        assert [r["i"] for _, rows in chunks for r in rows] == list(range(5, 10))

    def test_columnar_source_yields_scalars(self):
        source = ColumnarSource(
            {"x": np.arange(5), "sales": np.linspace(0, 1, 5)}, chunk_rows=2
        )
        rows = [r for _, rows in source.chunks(0) for r in rows]
        assert len(rows) == 5
        assert isinstance(rows[3]["x"], int)
        assert isinstance(rows[3]["sales"], float)

    def test_columnar_source_rejects_ragged_columns(self):
        with pytest.raises(IngestError):
            ColumnarSource({"a": np.arange(3), "b": np.arange(4)})

    def test_csv_source_resume_and_converter_failure(self, tmp_path):
        path = tmp_path / "rows.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "sales"])
            writer.writerow(["1", "2.5"])
            writer.writerow(["oops", "3.0"])
            writer.writerow(["2", "4.0"])
        source = CSVSource(
            path, chunk_rows=2,
            converters={"x": int, "sales": float},
        )
        rows = [r for _, rows in source.chunks(0) for r in rows]
        assert rows[0] == {"x": 1, "sales": 2.5}
        # the failed conversion keeps the raw string so the pipeline
        # can quarantine the row with the real encoding error
        assert rows[1]["x"] == "oops"
        resumed = [r for _, rows in source.chunks(2) for r in rows]
        assert resumed == [{"x": 2, "sales": 4.0}]


class TestDeadLetterFile:
    def test_roundtrip_and_counters(self, tmp_path):
        path = tmp_path / "dead.log"
        with DeadLetterFile(path) as dlq:
            dlq.append(3, "schema", "bad x", {"x": 99})
            dlq.append(7, "encoding", "bad y", {"y": -1})
            dlq.sync()
            assert dlq.counters() == {"schema": 1, "encoding": 1}
            assert dlq.total == 2
        entries = read_dead_letters(path)
        assert [(e["offset"], e["reason"]) for e in entries] == [
            (3, "schema"), (7, "encoding"),
        ]
        assert entries[0]["record"] == {"x": 99}

    def test_sync_without_new_entries_does_not_fsync(
        self, tmp_path, monkeypatch
    ):
        """Once the file is open, a stream with one early poison row
        must not pay an fsync per group for the rest of the run: only a
        sync with appends since the last one reaches the disk."""
        import repro.ingest.deadletter as deadletter

        calls = []
        real_fsync = deadletter.os.fsync
        monkeypatch.setattr(
            deadletter.os, "fsync",
            lambda fd: (calls.append(fd), real_fsync(fd))[1],
        )
        with DeadLetterFile(tmp_path / "dead.log") as dlq:
            dlq.append(3, "schema", "bad x", {"x": 99})
            dlq.sync()
            assert len(calls) == 1
            dlq.sync()
            dlq.sync()
            assert len(calls) == 1
            dlq.append(4, "schema", "bad x", {"x": 98})
            dlq.sync()
            assert len(calls) == 2
        assert len(calls) == 2  # close syncs nothing new either
        assert [e["offset"] for e in read_dead_letters(
            tmp_path / "dead.log"
        )] == [3, 4]

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "dead.log"
        with DeadLetterFile(path) as dlq:
            dlq.append(1, "schema", "a", None)
            dlq.sync()
        with open(path, "ab") as fh:
            fh.write(b"deadbeef\t{\"torn")
        assert [e["offset"] for e in read_dead_letters(path)] == [1]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "dead.log"
        entry = lambda i: {"offset": i, "reason": "schema",
                           "error": "x", "record": None}
        bad = bytearray(_encode_entry(entry(2)))
        bad[0:8] = b"00000000"
        with open(path, "wb") as fh:
            fh.write(_encode_entry(entry(1)) + bytes(bad)
                     + _encode_entry(entry(3)))
        with pytest.raises(DeadLetterCorruptionError):
            read_dead_letters(path)

    def test_clean_stream_creates_no_file(self, tmp_path):
        """The append handle opens lazily: a run that quarantines
        nothing must not leave an empty quarantine file behind."""
        path = tmp_path / "dead.log"
        with DeadLetterFile(path) as dl:
            assert dl.total == 0
            dl.sync()
            assert dl.truncate_from(0) == 0
        assert not os.path.exists(path)

    def test_truncate_from_drops_replayed_entries(self, tmp_path):
        path = tmp_path / "dead.log"
        with DeadLetterFile(path) as dlq:
            for offset in (2, 5, 9):
                dlq.append(offset, "schema", "x", None)
            dlq.sync()
            assert dlq.truncate_from(5) == 2
            dlq.append(5, "encoding", "y", None)
            dlq.sync()
            assert dlq.counters() == {"schema": 1, "encoding": 1}
        assert [(e["offset"], e["reason"]) for e in read_dead_letters(path)] \
            == [(2, "schema"), (5, "encoding")]


class TestCheckpointStore:
    def test_missing_file_loads_none(self, tmp_path):
        assert CheckpointStore(tmp_path / "ck.json").load() is None

    def test_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.json")
        state = {"offset": 42, "pending": None, "target_state": {}}
        store.save(state)
        assert store.load() == state

    def test_corruption_refuses_to_guess(self, tmp_path):
        path = tmp_path / "ck.json"
        store = CheckpointStore(path)
        store.save({"offset": 42, "pending": None})
        raw = json.loads(path.read_text())
        raw["state"]["offset"] = 41
        path.write_text(json.dumps(raw))
        with pytest.raises(IngestError):
            store.load()


class TestValidateMeasure:
    def test_rejects_bools_and_non_numbers(self):
        with pytest.raises(SchemaError):
            validate_measure(True)
        with pytest.raises(SchemaError):
            validate_measure("12")

    def test_rejects_non_finite(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(SchemaError):
                validate_measure(bad)

    def test_lossless_cast_passes_int_dtype(self):
        assert validate_measure(7, np.dtype(np.int64)) == 7.0
        assert validate_measure(7.0, np.dtype(np.int64)) == 7.0

    def test_promotion_gate(self):
        # fractional on an integer cube needs a dtype promotion: legal
        # by default (the engine's backend rebuilds itself) but refused
        # when the caller cannot afford the O(n^d) rebuild
        assert validate_measure(2.5, np.dtype(np.int64)) == 2.5
        with pytest.raises(SchemaError):
            validate_measure(2.5, np.dtype(np.int64), allow_promotion=False)

    def test_fact_table_audit_reports_offsets(self):
        schema = make_schema()
        table = FactTable(
            [
                {"x": 1, "y": 1, "sales": 5},
                {"x": 1, "y": 1, "sales": float("nan")},
                {"x": 99, "y": 1, "sales": 5},
            ]
        )
        bad = table.validate(schema)
        assert [i for i, _ in bad] == [1, 2]

    def test_engine_ingest_rejects_nan_at_ingest_time(self):
        from repro.cube.engine import DataCubeEngine

        engine = DataCubeEngine(make_schema(4))
        with pytest.raises(SchemaError):
            engine.ingest({"x": 1, "y": 1, "sales": float("nan")})
        # fractional-on-int still promotes (PR 8 semantics preserved)
        engine.ingest({"x": 1, "y": 1, "sales": 2.5})
        assert engine.sum() == 2.5


class TestRollingCubeService:
    def make(self, window=4, size=4):
        svc = CubeService(
            RelativePrefixSumCube, np.zeros((window, size))
        )
        return svc, RollingCubeService(svc)

    def test_window_sum_matches_oracle(self, rng):
        svc, roller = self.make()
        with svc:
            oracle = {}
            for _ in range(60):
                slot = int(rng.integers(0, 4))
                cell = int(rng.integers(0, 4))
                amount = float(rng.integers(1, 5))
                roller.record(slot, (cell,), amount)
                oracle[(slot, cell)] = oracle.get((slot, cell), 0.0) + amount
            roller.flush()
            total = roller.window_sum(0, 3)
            assert total == pytest.approx(sum(oracle.values()))

    def test_advance_retires_oldest_slab(self):
        svc, roller = self.make(window=3)
        with svc:
            roller.record(0, (0,), 5.0)
            roller.record(1, (1,), 7.0)
            roller.record(2, (2,), 9.0)
            roller.advance()  # slot 0 expires; its slice now serves slot 3
            roller.flush()
            assert roller.oldest_slot == 1
            assert roller.window_sum(1, 3) == pytest.approx(16.0)
            with pytest.raises(RangeError):
                roller.window_sum(0, 0)

    def test_reads_during_roll_are_exact_or_estimate(self):
        svc, roller = self.make(window=3)
        with svc:
            roller.record(0, (0,), 5.0)
            roller.flush()
            # slot 3 reuses slot 0's physical slice: its zeroing group
            # is pending until the service applies it
            roller.advance(3)
            answer = roller.window_sum(3, 3, allow_estimate=True)
            if isinstance(answer, RangeEstimate):
                assert answer.low <= 0.0 <= answer.high
            else:
                assert answer == pytest.approx(0.0)
            # the default path flushes: always exact
            assert roller.window_sum(3, 3) == pytest.approx(0.0)

    def test_advance_is_idempotent_when_slab_empty(self):
        svc, roller = self.make(window=3)
        with svc:
            roller.advance()
            version = svc.version
            roller.newest_slot -= 1
            roller.advance()  # replay: already-zero slice, no group
            svc.flush()
            assert svc.version == version

    def test_target_rejects_expired_slots(self):
        svc, roller = self.make(window=3)
        with svc:
            target = RollingServiceTarget(roller)
            roller.advance(3)
            ok, reason = target.admit((0, 0))
            assert not ok and reason == "expired_slot"
            assert target.admit((3, 0)) == (True, "")
            assert target.state() == {"newest_slot": 3}


class FlakyTarget(ServiceTarget):
    """Overloads the first ``fail`` submits, then behaves."""

    def __init__(self, service, fail):
        super().__init__(service)
        self.fail = fail
        self.attempts = 0

    def submit(self, pairs, *, timeout=None):
        self.attempts += 1
        if self.attempts <= self.fail:
            raise ServiceOverloadedError("synthetic overload")
        return super().submit(pairs, timeout=timeout)


class TestPipeline:
    def run_pipeline(self, tmp_path, records, target_of=None, **kwargs):
        schema = make_schema()
        with CubeService(RelativePrefixSumCube, np.zeros((8, 8))) as svc:
            target = (target_of or ServiceTarget)(svc)
            kwargs.setdefault("group_rows", 64)
            with IngestPipeline(
                MemorySource(records, chunk_rows=32), schema, target,
                checkpoint_path=tmp_path / "ck.json",
                deadletter_path=tmp_path / "dead.log",
                **kwargs,
            ) as pipe:
                report = pipe.run()
            svc.flush()
            array, _ = svc.snapshot_array()
        return report, array, target

    def test_clean_stream_is_exact(self, tmp_path, rng):
        records = make_records(rng, 300)
        report, array, _ = self.run_pipeline(tmp_path, records)
        assert np.array_equal(array, oracle_of(records))
        assert report["rows_applied"] == 300
        assert report["deadletter_total"] == 0
        assert not os.path.exists(tmp_path / "dead.log")

    def test_quarantine_reasons(self, tmp_path, rng):
        records = make_records(rng, 100)
        records.insert(10, {"x": 99, "y": 0, "sales": 1.0})
        records.insert(20, {"x": 0, "sales": 1.0})
        records.insert(30, {"x": 0, "y": 0, "sales": float("inf")})
        records.insert(40, {"x": 0, "y": 0, "sales": "a lot"})
        report, array, _ = self.run_pipeline(tmp_path, records)
        expected = oracle_of(
            [r for i, r in enumerate(records) if i not in (10, 20, 30, 40)]
        )
        assert np.array_equal(array, expected)
        reasons = report["quarantine_reasons"]
        assert reasons["encoding"] == 1
        assert reasons["schema"] == 3
        dead = read_dead_letters(tmp_path / "dead.log")
        assert sorted(e["offset"] for e in dead) == [10, 20, 30, 40]

    def test_unparseable_dimension_value_quarantines(self, tmp_path, rng):
        """A dimension value the encoder cannot even parse (the CSV
        reality: 'notanint' in an integer column) quarantines as an
        encoding failure instead of killing the run."""
        records = make_records(rng, 60)
        records.insert(7, {"x": "notanint", "y": 0, "sales": 1.0})
        report, array, _ = self.run_pipeline(tmp_path, records)
        assert report["quarantine_reasons"] == {"encoding": 1}
        expected = oracle_of([r for i, r in enumerate(records) if i != 7])
        assert np.array_equal(array, expected)

    def test_measure_dtype_gate_quarantines_fractions(self, tmp_path, rng):
        records = make_records(rng, 50)
        records.insert(5, {"x": 0, "y": 0, "sales": 2.5})
        report, array, _ = self.run_pipeline(
            tmp_path, records, measure_dtype=np.int64
        )
        assert report["quarantine_reasons"] == {"measure_dtype": 1}
        expected = oracle_of([r for i, r in enumerate(records) if i != 5])
        assert np.array_equal(array, expected)

    def test_overload_shrinks_groups_and_retries(self, tmp_path, rng):
        records = make_records(rng, 200)
        report, array, target = self.run_pipeline(
            tmp_path, records,
            target_of=lambda svc: FlakyTarget(svc, fail=2),
            group_rows=64, min_group_rows=8, backoff_seconds=0.001,
        )
        assert np.array_equal(array, oracle_of(records))
        assert report["overload_backoffs"] == 2
        # two halvings from 64, then queue-drained growth doubles per
        # committed group — the point is it adapted, not the end value
        assert report["group_rows"] >= 8

    def test_overload_exhaustion_raises(self, tmp_path, rng):
        records = make_records(rng, 100)
        with pytest.raises(ServiceOverloadedError):
            self.run_pipeline(
                tmp_path, records,
                target_of=lambda svc: FlakyTarget(svc, fail=100),
                max_submit_retries=2, backoff_seconds=0.0,
            )

    def test_coalesce_merges_cell_deltas(self, tmp_path):
        records = [{"x": 1, "y": 1, "sales": 2.0} for _ in range(50)]
        report, array, _ = self.run_pipeline(tmp_path, records)
        assert array[1, 1] == 100.0
        assert report["cells_submitted"] == report["groups_submitted"]

    def test_empty_source_checkpoints_offset_zero(self, tmp_path):
        report, _, _ = self.run_pipeline(tmp_path, [])
        assert report["offset"] == 0
        store = CheckpointStore(tmp_path / "ck.json")
        assert store.load()["offset"] == 0

    def test_fence_error_on_foreign_writer(self, tmp_path, rng):
        """A second writer advancing the sequence domain voids the
        fence; the pipeline must fail loud, not double-apply."""
        records = make_records(rng, 100)
        schema = make_schema()

        class RacingTarget(ServiceTarget):
            def submit(self, pairs, *, timeout=None):
                # a foreign writer sneaks a group in before ours
                self.service.submit_batch([((0, 0), 0.5)], timeout=timeout)
                return super().submit(pairs, timeout=timeout)

        with CubeService(RelativePrefixSumCube, np.zeros((8, 8))) as svc:
            with IngestPipeline(
                MemorySource(records, chunk_rows=32), schema,
                RacingTarget(svc),
                checkpoint_path=tmp_path / "ck.json",
                deadletter_path=tmp_path / "dead.log",
                group_rows=64,
            ) as pipe:
                with pytest.raises(FenceError):
                    pipe.run()


class OverloadFirstZeroing:
    """Service proxy: overloads the first slab-zeroing (all-negative)
    group, then behaves — the roll-path overload image."""

    def __init__(self, service):
        self._service = service
        self.tripped = False

    def __getattr__(self, name):
        return getattr(self._service, name)

    def submit_batch(self, updates, **kwargs):
        updates = list(updates)
        if not self.tripped and updates and all(
            delta < 0 for _, delta in updates
        ):
            self.tripped = True
            raise ServiceOverloadedError("synthetic overload during roll")
        return self._service.submit_batch(updates, **kwargs)


class TestRollingPipelineEdges:
    """The pre-submit roll under backpressure and mid-group expiry."""

    def slot_schema(self):
        return CubeSchema(
            [Dimension("x", IntegerEncoder(0, 7))], "sales"
        )

    def day_records(self, rng, day, n):
        return [
            {
                "day": day,
                "x": int(rng.integers(0, 8)),
                "sales": float(rng.integers(1, 10)),
            }
            for _ in range(n)
        ]

    def run_rolling(self, tmp_path, records, wrap=None, **kwargs):
        svc = CubeService(RelativePrefixSumCube, np.zeros((2, 8)))
        with svc:
            roller = RollingCubeService(wrap(svc) if wrap else svc)
            kwargs.setdefault("group_rows", 64)
            with IngestPipeline(
                MemorySource(records, chunk_rows=32), self.slot_schema(),
                RollingServiceTarget(roller),
                checkpoint_path=tmp_path / "ck.json",
                deadletter_path=tmp_path / "dead.log",
                time_column="day",
                queue_depth_low=-1, queue_depth_high=10 ** 9,
                backoff_seconds=0.001,
                **kwargs,
            ) as pipe:
                report = pipe.run()
            svc.flush()
            array, _ = svc.snapshot_array()
        return report, array, roller

    def test_roll_overload_backs_off_and_rezeroes(self, tmp_path, rng):
        """An overloaded slab-zeroing submit during ``prepare`` must
        back off and retry (not kill the run), and the retried advance
        must re-zero the slab it stopped in front of."""
        records = (
            self.day_records(rng, 0, 64) + self.day_records(rng, 2, 64)
        )
        report, array, roller = self.run_rolling(
            tmp_path, records, wrap=OverloadFirstZeroing
        )
        expected = np.zeros((2, 8))
        for r in records[64:]:  # day 2 lands on physical slot 0
            expected[0, r["x"]] += r["sales"]
        assert np.array_equal(array, expected)
        assert report["overload_backoffs"] >= 1
        assert report["deadletter_total"] == 0
        assert roller.newest_slot == 2

    def test_roll_expired_rows_keep_their_records(self, tmp_path, rng):
        """A row expired by its own group's roll dead-letters with the
        original source record, not a placeholder — the entry must stay
        replayable."""
        day0 = self.day_records(rng, 0, 32)
        day2 = self.day_records(rng, 2, 32)
        report, array, _ = self.run_rolling(tmp_path, day0 + day2)
        expected = np.zeros((2, 8))
        for r in day2:
            expected[0, r["x"]] += r["sales"]
        assert np.array_equal(array, expected)
        assert report["quarantine_reasons"] == {"expired_slot": 32}
        dead = read_dead_letters(tmp_path / "dead.log")
        assert sorted(e["offset"] for e in dead) == list(range(32))
        assert [e["record"] for e in dead] == day0
