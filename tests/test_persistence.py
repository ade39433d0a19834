"""Tests for saving/loading cubes, schemas, and engines (repro.persistence)."""

import zipfile

import numpy as np
import pytest

from repro import persistence
from repro.baselines.naive import NaiveCube
from repro.baselines.prefix import PrefixSumCube
from repro.core.rps import RelativePrefixSumCube
from repro.cube.encoders import (
    BinningEncoder,
    CategoricalEncoder,
    DateEncoder,
    IdentityEncoder,
    IntegerEncoder,
    encoder_from_spec,
)
from repro.cube.engine import DataCubeEngine
from repro.cube.schema import CubeSchema, Dimension
from repro.errors import EncodingError, StorageError
from repro.serve import CubeService, DurabilityPolicy
from repro.serve import wal as wal_mod
from tests.conftest import METHOD_CLASSES, random_range


class TestMethodRoundtrip:
    @pytest.mark.parametrize("method_class", METHOD_CLASSES,
                             ids=lambda c: c.name)
    def test_roundtrip_preserves_answers(self, rng, tmp_path, method_class):
        a = rng.integers(0, 30, size=(12, 12))
        original = method_class(a)
        original.apply_delta((3, 3), 7)
        path = tmp_path / "cube.npz"
        persistence.save_method(original, path)
        loaded = persistence.load_method(path)
        assert type(loaded) is method_class
        for _ in range(20):
            low, high = random_range(rng, a.shape)
            assert loaded.range_sum(low, high) == original.range_sum(
                low, high
            )

    def test_rps_box_sizes_preserved(self, rng, tmp_path):
        a = rng.integers(0, 10, size=(12, 20))
        original = RelativePrefixSumCube(a, box_size=(3, 5))
        path = tmp_path / "rps.npz"
        persistence.save_method(original, path)
        loaded = persistence.load_method(path)
        assert loaded.box_sizes == (3, 5)

    def test_float_dtype_preserved(self, rng, tmp_path):
        a = rng.random((6, 6))
        path = tmp_path / "f.npz"
        persistence.save_method(NaiveCube(a), path)
        loaded = persistence.load_method(path)
        assert loaded.total() == pytest.approx(a.sum())

    def test_unregistered_method_rejected(self, rng, tmp_path):
        from repro.storage.paged_rps import PagedRPSCube

        cube = PagedRPSCube(rng.integers(0, 5, (8, 8)), box_size=4)
        with pytest.raises(StorageError):
            persistence.save_method(cube, tmp_path / "x.npz")


class TestEncoderSpecs:
    @pytest.mark.parametrize("encoder", [
        IntegerEncoder(18, 80),
        CategoricalEncoder(["n", "s", "e", "w"]),
        BinningEncoder([0, 10, 20, 50]),
        DateEncoder("2026-01-01", 365),
        IdentityEncoder(9),
    ], ids=["integer", "categorical", "binning", "date", "identity"])
    def test_spec_roundtrip(self, encoder):
        rebuilt = encoder_from_spec(encoder.spec())
        assert type(rebuilt) is type(encoder)
        assert rebuilt.size == encoder.size
        for index in (0, encoder.size - 1):
            assert rebuilt.decode(index) == encoder.decode(index)

    def test_specs_are_json_safe(self):
        import json

        for encoder in (IntegerEncoder(0, 5), DateEncoder("2026-01-01", 7)):
            assert json.loads(json.dumps(encoder.spec())) == encoder.spec()

    def test_unknown_spec(self):
        with pytest.raises(EncodingError):
            encoder_from_spec({"type": "hologram"})


class TestSchemaRoundtrip:
    @pytest.fixture
    def schema(self):
        return CubeSchema(
            [
                Dimension("age", IntegerEncoder(18, 80)),
                Dimension("day", DateEncoder("2026-01-01", 90)),
                Dimension("region", CategoricalEncoder(["n", "s"])),
            ],
            measure="sales",
        )

    def test_dict_roundtrip(self, schema):
        rebuilt = persistence.schema_from_dict(
            persistence.schema_to_dict(schema)
        )
        assert rebuilt.shape == schema.shape
        assert rebuilt.measure == schema.measure
        assert [d.name for d in rebuilt.dimensions] == ["age", "day", "region"]

    def test_file_roundtrip(self, schema, tmp_path):
        path = tmp_path / "schema.json"
        persistence.save_schema(schema, path)
        rebuilt = persistence.load_schema(path)
        assert rebuilt.encode_selection({"age": (37, 52)}) == (
            schema.encode_selection({"age": (37, 52)})
        )


class TestEngineRoundtrip:
    def test_roundtrip_preserves_aggregates(self, tmp_path):
        schema = CubeSchema(
            [
                Dimension("age", IntegerEncoder(18, 40)),
                Dimension("day", DateEncoder("2026-01-01", 30)),
            ],
            measure="sales",
        )
        engine = DataCubeEngine(schema)
        engine.ingest({"age": 20, "day": "2026-01-05", "sales": 10.0})
        engine.ingest({"age": 20, "day": "2026-01-05", "sales": 30.0})
        engine.ingest({"age": 35, "day": "2026-01-20", "sales": 5.0})
        path = tmp_path / "engine.npz"
        persistence.save_engine(engine, path)
        loaded = persistence.load_engine(path)
        selection = {"age": (18, 25)}
        assert loaded.sum(selection) == engine.sum(selection)
        assert loaded.count(selection) == engine.count(selection)
        assert loaded.average(selection) == pytest.approx(
            engine.average(selection)
        )

    def test_loaded_engine_keeps_ingesting(self, tmp_path):
        schema = CubeSchema(
            [Dimension("x", IdentityEncoder(8))], measure="m"
        )
        engine = DataCubeEngine(schema, [{"x": 1, "m": 4.0}])
        path = tmp_path / "engine.npz"
        persistence.save_engine(engine, path)
        loaded = persistence.load_engine(path)
        loaded.ingest({"x": 2, "m": 6.0})
        assert loaded.sum() == pytest.approx(10.0)

    def test_backend_override(self, tmp_path):
        schema = CubeSchema(
            [Dimension("x", IdentityEncoder(8))], measure="m"
        )
        engine = DataCubeEngine(schema, [{"x": 0, "m": 1.0}])
        path = tmp_path / "engine.npz"
        persistence.save_engine(engine, path)
        loaded = persistence.load_engine(path, method=PrefixSumCube)
        assert isinstance(loaded.backend, PrefixSumCube)
        assert loaded.sum() == pytest.approx(1.0)


class TestAtomicityAndVerification:
    """save_* are atomic (temp + rename) and digest-protected; load_*
    refuse truncated or tampered files instead of returning garbage."""

    def _saved(self, tmp_path):
        method = RelativePrefixSumCube(
            np.arange(36, dtype=np.int64).reshape(6, 6)
        )
        return persistence.save_method(method, tmp_path / "cube")

    def test_save_embeds_digest(self, tmp_path):
        path = self._saved(tmp_path)
        with np.load(path) as data:
            assert persistence.DIGEST_KEY in data.files

    def test_no_temp_files_left_behind(self, tmp_path):
        self._saved(tmp_path)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_truncated_file_raises_naming_path(self, tmp_path):
        path = tmp_path / "cube.npz"
        self._saved(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(StorageError, match="cube.npz"):
            persistence.load_method(path)

    def test_tampered_contents_fail_the_digest(self, tmp_path):
        """A byte flip that keeps the zip structure intact must still be
        caught — that is what the embedded sha256 is for."""
        path = tmp_path / "cube.npz"
        method = NaiveCube(np.arange(16, dtype=np.int64).reshape(4, 4))
        persistence.save_method(method, path)
        # rewrite the archive with one array entry perturbed but the
        # recorded digest untouched
        with np.load(path) as data:
            payload = {key: data[key] for key in data.files}
        payload["array"] = payload["array"].copy()
        payload["array"][0, 0] += 1
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **payload)
        with pytest.raises(StorageError, match="digest mismatch"):
            persistence.load_method(path)

    def test_bitflip_never_yields_wrong_structure(self, tmp_path):
        """Any single byte flip either raises StorageError — whatever
        layer notices first (zip directory, zlib stream, digest; raw
        zlib.error / NotImplementedError used to leak through) — or hit
        inert zip metadata and the structure loads byte-identical. It
        must never load *different* data."""
        path = tmp_path / "cube.npz"
        self._saved(tmp_path)
        pristine = persistence.load_method(path).to_array()
        blob = path.read_bytes()
        for offset in range(40, len(blob), max(1, len(blob) // 64)):
            damaged = bytearray(blob)
            damaged[offset] ^= 0xFF
            path.write_bytes(bytes(damaged))
            try:
                loaded = persistence.load_method(path)
            except StorageError:
                continue
            assert np.array_equal(loaded.to_array(), pristine), offset

    def test_missing_file_raises_storage_error(self, tmp_path):
        with pytest.raises(StorageError, match="missing"):
            persistence.load_method(tmp_path / "never-written.npz")

    def test_legacy_file_without_digest_still_loads(self, tmp_path):
        """Pre-digest files have no sha256 entry; they load leniently."""
        array = np.arange(9, dtype=np.int64).reshape(3, 3)
        path = tmp_path / "legacy.npz"
        with open(path, "wb") as handle:
            np.savez_compressed(
                handle, method=np.array("naive"), array=array
            )
        loaded = persistence.load_method(path)
        assert np.array_equal(loaded.to_array(), array)

    def test_engine_files_verified_too(self, tmp_path):
        schema = CubeSchema(
            [Dimension("x", IdentityEncoder(4))], measure="m"
        )
        engine = DataCubeEngine(schema, [{"x": 1, "m": 2.0}])
        path = tmp_path / "engine.npz"
        persistence.save_engine(engine, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-20])
        with pytest.raises(StorageError, match="engine.npz"):
            persistence.load_engine(path)


class TestStoredCheckpointFormat:
    """Files are written stored (uncompressed): each entry is under the
    zip CRC and the embedded digest, and files an earlier version wrote
    compressed still load."""

    def test_every_entry_is_stored_and_digest_verified(self, tmp_path):
        method = RelativePrefixSumCube(
            np.arange(12 * 20, dtype=np.int64).reshape(12, 20),
            box_size=(3, 5),
        )
        path = persistence.save_method(method, tmp_path / "cube")
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
            assert archive.testzip() is None  # every CRC checks out
        assert sorted(info.filename for info in infos) == [
            "array.npy", "box_sizes.npy", "method.npy",
            persistence.DIGEST_KEY + ".npy",
        ]
        assert all(
            info.compress_type == zipfile.ZIP_STORED for info in infos
        )
        payload = persistence.verified_load(path)
        assert persistence.DIGEST_KEY not in payload  # checked and popped
        assert np.array_equal(payload["array"], method.to_array())

    def test_compressed_checkpoint_recovers_with_wal_replay(self, tmp_path):
        """A seed checkpoint in the earlier format (``savez_compressed``
        plus the sha256 entry) loads, and the WAL replays on top."""
        rng = np.random.default_rng(3)
        truth = rng.integers(-9, 10, (16, 12)).astype(np.int64)
        svc = CubeService(
            RelativePrefixSumCube,
            truth,
            method_kwargs={"box_size": 4},
            durability=DurabilityPolicy(dir=tmp_path, checkpoint_every=0),
        )
        for _ in range(5):
            cells = [
                ((int(rng.integers(16)), int(rng.integers(12))),
                 int(rng.integers(-50, 50)))
                for _ in range(7)
            ]
            svc.submit_batch(cells)
            for cell, delta in cells:
                truth[cell] += delta
        svc.flush()
        svc.abandon()  # no final checkpoint: only ckpt-0 plus the WAL
        [(seq, path)] = wal_mod.list_checkpoints(tmp_path)
        assert seq == 0
        payload = persistence.verified_load(path)
        payload[persistence.DIGEST_KEY] = np.array(
            persistence._payload_digest(payload)
        )
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **payload)
        with zipfile.ZipFile(path) as archive:
            assert {
                info.compress_type for info in archive.infolist()
            } == {zipfile.ZIP_DEFLATED}
        recovered = CubeService.recover(tmp_path)
        try:
            state = recovered.last_recovery
            assert state.checkpoint_seq == 0
            assert state.replayed_groups == 5
            assert state.skipped_checkpoints == ()
            assert recovered.version == 5
            assert np.array_equal(recovered.snapshot_array()[0], truth)
            assert recovered.range_sum((0, 0), (15, 11)) == truth.sum()
        finally:
            recovered.close()
