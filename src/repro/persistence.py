"""Saving and loading cubes, schemas, and engines.

A production OLAP structure outlives the process that built it. This
module persists:

* any :class:`~repro.core.base.RangeSumMethod` — as the dense source
  array plus construction parameters (`.npz`); loading rebuilds the
  structure with the same vectorized O(n^d) pass a fresh build would use,
  which keeps the format trivially forward-compatible with internal
  layout changes,
* a :class:`~repro.cube.schema.CubeSchema` — as JSON via the encoders'
  :meth:`~repro.cube.encoders.DimensionEncoder.spec` dictionaries,
* a :class:`~repro.cube.engine.DataCubeEngine` — schema JSON plus the
  measure and count cubes in one `.npz`.

Every `.npz` is written *stored* (uncompressed, ``np.savez``): zlib
costs tens of times the write itself (46 ms against 1.3 ms for a
256x512 float64 cube of random values, which it shrinks by only 6%), and
every service open, checkpoint, failover and resync paid it. A file
holds the arrays' raw bytes (1 MiB for that cube) under the zip CRC and
the embedded SHA-256. Files written compressed by earlier versions load
unchanged: the zip reader handles both.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Type

import numpy as np

from repro.baselines.fenwick import FenwickCube
from repro.baselines.naive import NaiveCube
from repro.baselines.prefix import PrefixSumCube
from repro.core.base import RangeSumMethod
from repro.core.rps import RelativePrefixSumCube
from repro.cube.encoders import encoder_from_spec
from repro.cube.engine import DataCubeEngine
from repro.cube.schema import CubeSchema, Dimension
from repro.errors import StorageError

#: Methods the loader can reconstruct, by their ``name`` attribute.
METHOD_REGISTRY: Dict[str, Type[RangeSumMethod]] = {
    NaiveCube.name: NaiveCube,
    PrefixSumCube.name: PrefixSumCube,
    FenwickCube.name: FenwickCube,
    RelativePrefixSumCube.name: RelativePrefixSumCube,
}


#: npz entry holding the embedded content digest.
DIGEST_KEY = "sha256"


def _payload_digest(payload: Dict[str, np.ndarray]) -> str:
    """SHA-256 over a canonical serialization of every array entry.

    Covers names, dtypes, shapes, and raw bytes — any bit that survives
    a save/load roundtrip is under the digest, so a loader that verifies
    it can never hand back a silently wrong structure.
    """
    digest = hashlib.sha256()
    for key in sorted(payload):
        array = np.ascontiguousarray(payload[key])
        digest.update(key.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(repr(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def _npz_path(path) -> str:
    """The final on-disk name (``np.savez`` appends ``.npz`` itself)."""
    path = os.fspath(path)
    return path if path.endswith(".npz") else path + ".npz"


def atomic_savez(path, payload: Dict[str, np.ndarray]) -> str:
    """Write a stored (uncompressed) ``.npz`` crash-safely: temp file,
    fsync, ``os.replace``.

    The payload gains a ``sha256`` entry digesting every other entry;
    :func:`verified_load` checks it on the way back in. A crash at any
    point leaves either the previous file or the new one — never a
    half-written hybrid — because the rename is the commit point. The
    entries are not compressed (see the module docstring): the file is
    as large as the arrays, and writing it costs about a memory copy.

    Returns the final path written.
    """
    final = _npz_path(path)
    payload = dict(payload)
    payload[DIGEST_KEY] = np.array(_payload_digest(payload))
    directory = os.path.dirname(final) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(final) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, final)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return final


def verified_load(path) -> Dict[str, np.ndarray]:
    """Load an ``.npz``, verifying its embedded digest.

    A truncated, unreadable, or tampered file raises
    :class:`~repro.errors.StorageError` naming the path — never returns
    a structurally plausible but wrong payload. Files written before
    digests existed (no ``sha256`` entry) load without verification.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            payload = {key: data[key] for key in data.files}
    except Exception as err:
        # corrupted zip bytes surface as almost any exception class
        # (BadZipFile, zlib.error, struct.error, NotImplementedError for
        # a flipped flag bit, ...) — the caller gets one contract
        raise StorageError(
            f"cannot load {os.fspath(path)!r}: file is missing, truncated, "
            f"or corrupt ({err})"
        ) from err
    if DIGEST_KEY in payload:
        recorded = str(payload.pop(DIGEST_KEY))
        actual = _payload_digest(payload)
        if recorded != actual:
            raise StorageError(
                f"digest mismatch loading {os.fspath(path)!r}: recorded "
                f"sha256 {recorded[:12]}..., contents hash to "
                f"{actual[:12]}... — the file is corrupt"
            )
    return payload


def save_method(method: RangeSumMethod, path) -> str:
    """Persist a range-sum structure to an ``.npz`` file.

    The write is atomic (temp file + rename) and digest-protected; see
    :func:`atomic_savez`. Returns the path written.
    """
    if method.name not in METHOD_REGISTRY:
        raise StorageError(
            f"cannot persist method {method.name!r}; registered: "
            f"{sorted(METHOD_REGISTRY)}"
        )
    payload = {
        "method": np.array(method.name),
        "array": method.to_array(),
    }
    box_sizes = getattr(method, "box_sizes", None)
    if box_sizes is not None:
        payload["box_sizes"] = np.array(box_sizes, dtype=np.int64)
    return atomic_savez(path, payload)


def load_method(path) -> RangeSumMethod:
    """Load a structure saved by :func:`save_method`.

    Raises :class:`~repro.errors.StorageError` naming the path if the
    file is truncated or its digest does not match its contents.
    """
    data = verified_load(path)
    if "method" not in data or "array" not in data:
        raise StorageError(
            f"{os.fspath(path)!r} is not a saved method "
            f"(entries: {sorted(data)})"
        )
    name = str(data["method"])
    array = data["array"]
    box_sizes = (
        tuple(int(k) for k in data["box_sizes"])
        if "box_sizes" in data
        else None
    )
    try:
        cls = METHOD_REGISTRY[name]
    except KeyError:
        raise StorageError(f"unknown persisted method {name!r}") from None
    if box_sizes is not None:
        return cls(array, box_size=box_sizes)
    return cls(array)


# ---------------------------------------------------------------------------
# Schemas and engines
# ---------------------------------------------------------------------------


def schema_to_dict(schema: CubeSchema) -> dict:
    """JSON-serializable description of a cube schema."""
    return {
        "measure": schema.measure,
        "dimensions": [
            {"name": dim.name, "encoder": dim.encoder.spec()}
            for dim in schema.dimensions
        ],
    }


def schema_from_dict(payload: dict) -> CubeSchema:
    """Rebuild a schema from :func:`schema_to_dict` output."""
    dimensions = [
        Dimension(entry["name"], encoder_from_spec(entry["encoder"]))
        for entry in payload["dimensions"]
    ]
    return CubeSchema(dimensions, measure=payload["measure"])


def save_schema(schema: CubeSchema, path) -> None:
    """Write a schema as JSON."""
    Path(path).write_text(json.dumps(schema_to_dict(schema), indent=2))


def load_schema(path) -> CubeSchema:
    """Read a schema written by :func:`save_schema`."""
    return schema_from_dict(json.loads(Path(path).read_text()))


def save_engine(engine: DataCubeEngine, path) -> str:
    """Persist an engine: schema JSON plus measure/count cubes, one file.

    Atomic and digest-protected like :func:`save_method`; returns the
    path written.
    """
    return atomic_savez(
        path,
        {
            "schema": np.array(json.dumps(schema_to_dict(engine.schema))),
            "values": engine.backend.to_array(),
            "counts": engine.count_backend.to_array(),
        },
    )


def load_engine(path, method=None, **method_kwargs) -> DataCubeEngine:
    """Load an engine saved by :func:`save_engine`.

    Args:
        path: the ``.npz`` file.
        method: optional backend override (defaults to the RPS cube, as
            at construction time).
        **method_kwargs: forwarded to the backend constructor.
    """
    data = verified_load(path)
    try:
        schema = schema_from_dict(json.loads(str(data["schema"])))
        values = data["values"]
        counts = data["counts"]
    except KeyError as err:
        raise StorageError(
            f"{os.fspath(path)!r} is not a saved engine (missing {err})"
        ) from None
    engine = DataCubeEngine.__new__(DataCubeEngine)
    engine.schema = schema
    from repro.aggregates.operators import AggregateCube

    engine._aggregates = AggregateCube(
        values, counts, method=method, **method_kwargs
    )
    return engine
