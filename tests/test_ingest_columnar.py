"""The columnar ingest path against a per-record model of the pipeline.

The model encodes every row with ``CubeSchema.encode_record`` (after the
pipeline's own time-column rule), applies the window admission rule row
by row — before the group's roll and after it — and coalesces each group
with a dict, emitted in sorted cell order. Its groups, dead letters,
final checkpoint and final cube must equal what ``IngestPipeline``
produces over ``ServiceTarget`` and ``RollingServiceTarget``, bit for
bit, on records that mix every quarantine reason with rows the columnar
checks hand to the per-record path but that still encode (a ``"3"``, a
``bool``, a numpy scalar, a float day).
"""

import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import NaiveCube
from repro.cube.encoders import IntegerEncoder
from repro.cube.fact_table import validate_measure
from repro.cube.schema import CubeSchema, Dimension
from repro.errors import EncodingError, SchemaError
from repro.ingest import (
    CheckpointStore,
    IngestPipeline,
    MemorySource,
    RollingCubeService,
    RollingServiceTarget,
    ServiceTarget,
)
from repro.ingest.deadletter import _encode_entry
from repro.serve import CubeService, UpdateGroup

SIZE = 5
WINDOW = 4
MISSING = object()


class Recorder:
    """Service proxy keeping every submitted group as the arrays the
    service logs (cells, deltas and the deltas' dtype)."""

    def __init__(self, service):
        self._service = service
        self.groups = []

    def submit_batch(self, updates, **kwargs):
        seq = self._service.submit_batch(updates, **kwargs)
        group = UpdateGroup.of(updates, len(self._service.shape))
        self.groups.append((group.cells.copy(), group.deltas.copy()))
        return seq

    def __getattr__(self, name):
        return getattr(self._service, name)


# -- the per-record model ----------------------------------------------------


class _Reject(Exception):
    def __init__(self, reason, error):
        super().__init__(reason)
        self.reason = reason
        self.error = error


def model_encode(record, schema, time_column, measure_dtype):
    """One row the way the pipeline's contract defines it."""
    slot = None
    if time_column is not None:
        if time_column not in record:
            raise _Reject(
                "bad_time", f"record missing time column {time_column!r}"
            )
        raw = record[time_column]
        try:
            slot = int(raw)
        except (TypeError, ValueError):
            raise _Reject(
                "bad_time",
                f"time column {time_column!r}={raw!r} is not an integer "
                f"slot",
            ) from None
        if slot < 0:
            raise _Reject("bad_time", f"negative time slot {slot}")
        if slot > np.iinfo(np.intp).max:
            raise _Reject(
                "bad_time",
                f"time slot {slot} exceeds the largest index "
                f"{np.iinfo(np.intp).max}",
            )
    try:
        coords, measure = schema.encode_record(record)
    except SchemaError as error:
        raise _Reject("schema", error) from None
    except EncodingError as error:
        raise _Reject("encoding", error) from None
    if measure_dtype is not None:
        try:
            validate_measure(measure, measure_dtype, allow_promotion=False)
        except SchemaError as error:
            raise _Reject("measure_dtype", str(error)) from None
    if slot is not None:
        coords = (slot,) + coords
    return coords, float(measure)


def as_logged(pairs, ndim):
    """A pair list as the service logs it: intp cells, inferred dtype."""
    if not pairs:
        return np.empty((0, ndim), dtype=np.intp), np.empty(0, np.int64)
    return (
        np.asarray([cell for cell, _ in pairs], dtype=np.intp),
        np.asarray([delta for _, delta in pairs]),
    )


def model_run(records, schema, *, rolling, measure_dtype, chunk_rows,
              group_rows):
    """(groups, dead-letter entries, final checkpoint, final cube)."""
    time_column = "day" if rolling else None
    shape = (WINDOW, SIZE) if rolling else (SIZE, SIZE)
    cube = np.zeros(shape)
    newest = 0
    groups, dead = [], []

    def oldest():
        return max(0, newest - WINDOW + 1)

    def commit(rows):
        nonlocal newest
        if rows:
            if rolling:
                # the roll stops below the group's first run of at
                # least WINDOW slots none of its rows occupy, counted
                # up from the newest slot or the group's lowest row
                anchor = max(
                    newest, min(coords[0] for _, coords, _, _ in rows)
                )
                slots = sorted(
                    {max(coords[0], anchor) for _, coords, _, _ in rows}
                )
                top = slots[-1]
                for low, high in zip(slots, slots[1:]):
                    if high - low > WINDOW:
                        top = low
                        break
                if top > newest:
                    before = cube.copy()
                    last_dirty = min(top, newest + WINDOW)
                    for opening in range(newest + 1, last_dirty + 1):
                        physical = opening % WINDOW
                        slab = before[physical]
                        nonzero = np.nonzero(slab)
                        pairs = [
                            ((physical,) + tuple(int(c) for c in cell),
                             -value)
                            for cell, value in zip(
                                np.column_stack(nonzero), slab[nonzero]
                            )
                        ]
                        if pairs:
                            groups.append(as_logged(pairs, len(shape)))
                            cube[physical] = 0.0
                    newest = top
            kept = []
            for offset, coords, delta, record in rows:
                if rolling and coords[0] > top:
                    dead.append((
                        offset, "bad_time",
                        f"cell {coords} refused by the group's roll",
                        record,
                    ))
                elif rolling and coords[0] < oldest():
                    dead.append((
                        offset, "expired_slot",
                        f"cell {coords} expired during the group's roll",
                        record,
                    ))
                else:
                    kept.append((coords, delta))
            sums = {}
            for coords, delta in kept:
                sums[coords] = sums.get(coords, 0.0) + delta
            pairs = []
            for coords in sorted(sums):
                cell = (
                    (coords[0] % WINDOW,) + coords[1:] if rolling
                    else coords
                )
                pairs.append((cell, sums[coords]))
                cube[cell] += sums[coords]
            if pairs:
                groups.append(as_logged(pairs, len(shape)))

    rows, buffered = [], 0
    for lo in range(0, len(records), chunk_rows):
        for offset in range(lo, min(lo + chunk_rows, len(records))):
            record = records[offset]
            try:
                coords, delta = model_encode(
                    record, schema, time_column, measure_dtype
                )
            except _Reject as reject:
                dead.append((offset, reject.reason, reject.error, record))
                continue
            if rolling and coords[0] < oldest():
                dead.append((
                    offset, "expired_slot",
                    f"cell {coords} not admissible", record,
                ))
                continue
            rows.append((offset, coords, delta, record))
        buffered += min(chunk_rows, len(records) - lo)
        if buffered >= group_rows:
            commit(rows)
            rows, buffered = [], 0
    if buffered:
        commit(rows)
    checkpoint = {
        "offset": len(records),
        "target_state": {"newest_slot": newest} if rolling else {},
        "pending": None,
    }
    return groups, dead, checkpoint, cube


def pipeline_run(records, schema, *, rolling, measure_dtype, chunk_rows,
                 group_rows, directory):
    shape = (WINDOW, SIZE) if rolling else (SIZE, SIZE)
    with CubeService(NaiveCube, np.zeros(shape)) as service:
        recorder = Recorder(service)
        target = (
            RollingServiceTarget(RollingCubeService(recorder)) if rolling
            else ServiceTarget(recorder)
        )
        checkpoint = os.path.join(directory, "ck.json")
        deadletters = os.path.join(directory, "dead.log")
        with IngestPipeline(
            MemorySource(records, chunk_rows=chunk_rows), schema, target,
            checkpoint_path=checkpoint, deadletter_path=deadletters,
            time_column="day" if rolling else None,
            measure_dtype=measure_dtype,
            group_rows=group_rows, min_group_rows=group_rows,
            max_group_rows=group_rows,
            queue_depth_low=-1, queue_depth_high=10 ** 9,
        ) as pipe:
            pipe.run()
        service.flush()
        cube, _ = service.snapshot_array()
    dead = b""
    if os.path.exists(deadletters):
        with open(deadletters, "rb") as handle:
            dead = handle.read()
    return recorder.groups, dead, CheckpointStore(checkpoint).load(), cube


# -- records -----------------------------------------------------------------

#: dimension values: in-domain ints mostly, then everything the
#: columnar checks hand to the per-record path
dim_values = st.one_of(
    st.integers(0, SIZE - 1),
    st.integers(0, SIZE - 1),
    st.integers(0, SIZE - 1),
    st.sampled_from([
        -1, SIZE, 10 * SIZE, 2 ** 70,                   # encoding
        "3", " 2", "zz", "", None, True, False,          # strings, bools
        np.int64(2), 2.0, 3.7, float("nan"),             # scalars, floats
        MISSING,                                         # schema
    ]),
)
measures = st.one_of(
    st.integers(-20, 20),
    st.integers(-40, 40).map(lambda v: v / 4),
    st.sampled_from([
        2 ** 60, 2 ** 60 + 1, 2 ** 63 + 12345, 0.0, -0.0,
        np.float64(1.5), np.int64(3),
        True, False, float("nan"), float("inf"), "7", None, MISSING,
    ]),
)
day_steps = st.one_of(
    st.integers(0, 1), st.integers(0, 1), st.integers(-6, 3),
)
day_oddities = st.sampled_from([
    None, "x", "2", -1, -3, True, 3.0, np.int64(1), MISSING,
    2 ** 70, "9" * 25,                                   # beyond intp
    10 ** 6,                                             # far future
])


@st.composite
def record_lists(draw, rolling):
    records, day = [], 0
    for _ in range(draw(st.integers(0, 80))):
        record = {}
        if rolling:
            day = max(0, day + draw(day_steps))
            value = day if draw(st.integers(0, 9)) else draw(day_oddities)
            if value is not MISSING:
                record["day"] = value
        for name in ("x",) if rolling else ("x", "y"):
            value = draw(dim_values)
            if value is not MISSING:
                record[name] = value
        value = draw(measures)
        if value is not MISSING:
            record["sales"] = value
        records.append(record)
    return records


def schema_for(rolling):
    names = ("x",) if rolling else ("x", "y")
    return CubeSchema(
        [Dimension(name, IntegerEncoder(0, SIZE - 1)) for name in names],
        "sales",
    )


def check_equal(records, rolling, measure_dtype, chunk_rows, group_rows):
    schema = schema_for(rolling)
    kwargs = dict(
        rolling=rolling, measure_dtype=measure_dtype,
        chunk_rows=chunk_rows, group_rows=group_rows,
    )
    groups, dead, checkpoint, cube = model_run(records, schema, **kwargs)
    with tempfile.TemporaryDirectory() as directory:
        got_groups, got_dead, got_checkpoint, got_cube = pipeline_run(
            records, schema, directory=directory, **kwargs
        )
    assert len(got_groups) == len(groups)
    for (cells, deltas), (got_cells, got_deltas) in zip(groups, got_groups):
        assert got_cells.dtype == cells.dtype
        assert np.array_equal(got_cells, cells)
        assert got_deltas.dtype == deltas.dtype
        assert got_deltas.tobytes() == deltas.tobytes()
    expected_dead = b"".join(
        _encode_entry({
            "offset": offset, "reason": reason, "error": str(error),
            "record": record,
        })
        for offset, reason, error, record in dead
    )
    assert got_dead == expected_dead
    assert got_checkpoint == checkpoint
    assert got_cube.tobytes() == cube.tobytes()


_SETTINGS = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_SETTINGS
@given(
    records=record_lists(rolling=False),
    measure_dtype=st.sampled_from([None, np.int64, np.float64]),
    chunk_rows=st.integers(1, 24),
    group_rows=st.integers(1, 48),
)
def test_service_target_matches_the_per_record_model(
    records, measure_dtype, chunk_rows, group_rows
):
    check_equal(records, False, measure_dtype, chunk_rows, group_rows)


@_SETTINGS
@given(
    records=record_lists(rolling=True),
    measure_dtype=st.sampled_from([None, np.int64]),
    chunk_rows=st.integers(1, 24),
    group_rows=st.integers(1, 48),
)
def test_rolling_target_matches_the_per_record_model(
    records, measure_dtype, chunk_rows, group_rows
):
    check_equal(records, True, measure_dtype, chunk_rows, group_rows)


def test_every_quarantine_reason_is_exercised():
    """One fixed stream hits every reason the suite is meant to cover,
    expiry before and during a group's roll included."""
    records = [
        {"day": 0, "x": 1, "sales": 1.0},
        {"day": 0, "x": 9, "sales": 1.0},        # encoding
        {"day": 0, "sales": 1.0},                # schema
        {"day": 0, "x": 1, "sales": True},       # schema (bool)
        {"day": 0, "x": 1, "sales": 2.5},        # measure_dtype
        {"day": -1, "x": 1, "sales": 1.0},       # bad_time
        {"day": 0, "x": "3", "sales": 1},        # fallback, encodes
        {"day": 4, "x": 2, "sales": 1.0},        # rolls day 0 out
        {"day": 0, "x": 2, "sales": 1.0},        # expired_slot
        {"day": 4, "x": 3, "sales": 1.0},
        {"day": 10 ** 6, "x": 3, "sales": 1.0},  # bad_time: past the roll
    ]
    _, dead, _, _ = model_run(
        records, schema_for(True), rolling=True, measure_dtype=np.int64,
        chunk_rows=8, group_rows=8,
    )
    reasons = [reason for _, reason, _, _ in dead]
    assert sorted(set(reasons)) == [
        "bad_time", "encoding", "expired_slot", "measure_dtype", "schema",
    ]
    errors = [str(error) for _, _, error, _ in dead]
    assert any("during the group's roll" in e for e in errors)
    assert any("refused by the group's roll" in e for e in errors)
    assert any("not admissible" in e for e in errors)
    check_equal(records, True, np.int64, 8, 8)
    check_equal(records, True, np.int64, 3, 2)


def test_a_day_beyond_the_index_dtype_dead_letters_as_bad_time():
    """A time value no cell index can hold is quarantined as
    ``bad_time``, and the rows after it still land."""
    records = [
        {"day": 0, "x": 1, "sales": 1.0},
        {"day": 2 ** 70, "x": 1, "sales": 1.0},
        {"day": "9" * 25, "x": 2, "sales": 1.0},
        {"day": 1, "x": 3, "sales": 1.0},
    ]
    with tempfile.TemporaryDirectory() as directory:
        _, dead, checkpoint, cube = pipeline_run(
            records, schema_for(True), rolling=True, measure_dtype=None,
            chunk_rows=4, group_rows=4, directory=directory,
        )
    assert checkpoint["offset"] == len(records)
    assert dead.count(b"bad_time") == 2
    assert cube.sum() == 2.0
    check_equal(records, True, None, 4, 4)
    check_equal(records, True, None, 1, 1)


def test_a_far_future_day_does_not_expire_its_group():
    """Days 0, 1 and 1000000 in one group on a 4-slot window: the roll
    stops below the run of empty slots, so days 0 and 1 land and only
    the far-future row dead-letters, as ``bad_time``. An unbounded roll
    used to zero the whole window for it and expire the other two."""
    records = [
        {"day": 0, "x": 1, "sales": 1.0},
        {"day": 1, "x": 2, "sales": 2.0},
        {"day": 10 ** 6, "x": 3, "sales": 4.0},
    ]
    with tempfile.TemporaryDirectory() as directory:
        _, dead, checkpoint, cube = pipeline_run(
            records, schema_for(True), rolling=True, measure_dtype=None,
            chunk_rows=3, group_rows=3, directory=directory,
        )
    expected = np.zeros((WINDOW, SIZE))
    expected[0, 1], expected[1, 2] = 1.0, 2.0
    assert np.array_equal(cube, expected)
    assert checkpoint["target_state"] == {"newest_slot": 1}
    assert dead.count(b"bad_time") == 1 and b"1000000" in dead
    check_equal(records, True, None, 3, 3)
    check_equal(records, True, None, 1, 1)


def test_a_late_live_row_does_not_hold_the_roll_back():
    """The run of empty slots is counted up from the window's newest
    slot, not from the group's lowest row: with slots 7..10 live, a
    group of days 7 and 12 rolls to 12 and expires only day 7. Counted
    from day 7, the gap of 5 slots would refuse day 12 as ``bad_time``
    although it is only 2 slots past the window."""
    records = [
        {"day": 9, "x": 1, "sales": 1.0},
        {"day": 10, "x": 2, "sales": 2.0},
        {"day": 7, "x": 3, "sales": 4.0},
        {"day": 12, "x": 4, "sales": 8.0},
    ]
    with tempfile.TemporaryDirectory() as directory:
        _, dead, checkpoint, cube = pipeline_run(
            records, schema_for(True), rolling=True, measure_dtype=None,
            chunk_rows=2, group_rows=2, directory=directory,
        )
    expected = np.zeros((WINDOW, SIZE))
    expected[9 % WINDOW, 1], expected[10 % WINDOW, 2] = 1.0, 2.0
    expected[12 % WINDOW, 4] = 8.0
    assert np.array_equal(cube, expected)
    assert checkpoint["target_state"] == {"newest_slot": 12}
    assert b"bad_time" not in dead and dead.count(b"expired_slot") == 1
    check_equal(records, True, None, 2, 2)
    check_equal(records, True, None, 1, 1)
