"""Exact integer answers through every stack a user deploys.

RPS over an int64 cube answers exactly past 2^53, where float64 can no
longer hold every integer. Each layer stacked on top of the service —
cluster, router, socket tier — must hand those answers on unchanged, in
the same dtype. The cross-layer property reads the same int64 cube
through service, router→service, cluster, router→cluster and
net→router→cluster and requires identical values and dtypes.
"""

import asyncio
import contextlib
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    CubeClient,
    CubeServer,
    CubeService,
    QueryRouter,
    RelativePrefixSumCube,
)
from repro.cluster import CubeCluster
from repro.core import indexing
from repro.errors import ClusterError, DimensionError, RangeError

BIG = 2 ** 60


def big_cube():
    """8x8 int64 holding 2^60 and 1: the total is 2^60 + 1, which
    float64 rounds to 2^60."""
    cube = np.zeros((8, 8), dtype=np.int64)
    cube[0, 0] = BIG
    cube[7, 7] = 1
    return cube


def make_cluster(cube, directory, num_shards=2):
    return CubeCluster(
        RelativePrefixSumCube, cube, data_dir=directory,
        num_shards=num_shards, replication_factor=1, fsync=False,
    )


def net_read(server, lows, highs):
    async def scenario():
        host, port = server.address
        async with await CubeClient.connect(host, port) as client:
            return await client.range_sum_many(lows, highs)

    values, _ = asyncio.run(scenario())
    return values


def net_stream(server, lows, highs, chunk):
    async def scenario():
        host, port = server.address
        parts = []
        async with await CubeClient.connect(host, port) as client:
            async for _, values, _ in client.stream_range_sums(
                lows, highs, chunk=chunk
            ):
                parts.append(values)
        return parts

    return asyncio.run(scenario())


# -- one layer at a time ------------------------------------------------------


def test_cluster_keeps_int64_sums_exact(tmp_path):
    lows, highs = [(0, 0), (4, 0), (0, 0)], [(7, 7), (7, 7), (3, 7)]
    with make_cluster(big_cube(), tmp_path) as cluster:
        for batch in ((lows, highs), (np.array(lows), np.array(highs))):
            values = cluster.range_sum_many(*batch)
            assert values.dtype == np.int64
            assert values.tolist() == [BIG + 1, 1, BIG]
        assert cluster.total() == BIG + 1
        values, estimates = cluster.range_sum_many(
            lows, highs, allow_estimate=True
        )
        assert values.dtype == np.int64 and estimates == [None] * 3
        # a batch that contacts no shard has no dtype to keep
        assert cluster.range_sum_many([], []).dtype == np.float64


def test_net_client_decodes_values_in_their_dtype():
    lows, highs = [(0, 0), (4, 0)], [(7, 7), (7, 7)]
    with CubeService(RelativePrefixSumCube, big_cube()) as service:
        with QueryRouter(service) as router, CubeServer(
            router, port=0
        ) as server:
            values = net_read(server, lows, highs)
            assert values.dtype == np.int64
            assert values.tolist() == [BIG + 1, 1]
            parts = net_stream(server, lows * 3, highs * 3, chunk=4)
            assert [part.dtype for part in parts] == [np.int64] * 2
            assert np.concatenate(parts).tolist() == [BIG + 1, 1] * 3
            assert net_read(server, [], []).dtype == np.float64
    with CubeService(RelativePrefixSumCube, np.ones((4, 4))) as service:
        with CubeServer(service, port=0) as server:
            values = net_read(server, [(0, 0)], [(3, 3)])
            assert values.dtype == np.float64 and values.tolist() == [16.0]


def test_net_single_box_read_keeps_int64_exact():
    async def scenario(server):
        async with await CubeClient.connect(*server.address) as client:
            return await client.range_sum((0, 0), (7, 7))

    with CubeService(RelativePrefixSumCube, big_cube()) as service:
        with CubeServer(service, port=0) as server:
            value, _ = asyncio.run(scenario(server))
    assert value.dtype == np.int64 and value == BIG + 1


def test_net_submit_keeps_int64_deltas_exact():
    async def scenario(server):
        async with await CubeClient.connect(*server.address) as client:
            await client.submit_batch(
                [((3, 3), BIG + 1), ((5, 2), np.int64(-(BIG + 3)))]
            )
            await client.flush()
            cells = [(3, 3), (5, 2)]
            return await client.range_sum_many(cells, cells)

    zeros = np.zeros((8, 8), dtype=np.int64)
    with CubeService(RelativePrefixSumCube, zeros) as service:
        with CubeServer(service, port=0) as server:
            values, _ = asyncio.run(scenario(server))
    assert values.dtype == np.int64
    assert values.tolist() == [BIG + 1, -(BIG + 3)]


# -- every stack at once ------------------------------------------------------


@contextlib.contextmanager
def stacks(cube, directory):
    """``{name: read(lows, highs) -> values}`` over one cube."""
    with contextlib.ExitStack() as stack:
        service = stack.enter_context(
            CubeService(RelativePrefixSumCube, cube)
        )
        service_router = stack.enter_context(QueryRouter(service))
        cluster = stack.enter_context(make_cluster(cube, directory))
        cluster_router = stack.enter_context(QueryRouter(cluster))
        server = stack.enter_context(CubeServer(cluster_router, port=0))
        yield {
            "service": service.range_sum_many,
            "router->service": service_router.range_sum_many,
            "cluster": cluster.range_sum_many,
            "router->cluster": cluster_router.range_sum_many,
            "net->router->cluster": (
                lambda lows, highs: net_read(server, lows, highs)
            ),
        }


@st.composite
def cubes_and_boxes(draw):
    rows = draw(st.integers(2, 6))
    cols = draw(st.integers(1, 4))
    # |cell| <= 2^56 keeps any sum of <= 24 cells inside int64
    values = st.one_of(
        st.integers(-4, 4),
        st.integers(-(2 ** 56), 2 ** 56),
        st.sampled_from([2 ** 55 + 1, -(2 ** 54) - 3, 2 ** 56 - 1]),
    )
    cube = np.array(
        draw(st.lists(values, min_size=rows * cols, max_size=rows * cols)),
        dtype=np.int64,
    ).reshape(rows, cols)
    # at least one cell float64 cannot hold exactly
    cube.flat[draw(st.integers(0, rows * cols - 1))] = 2 ** 55 + 1
    boxes = []
    for _ in range(draw(st.integers(1, 6))):
        low, high = [], []
        for size in (rows, cols):
            a, b = draw(st.integers(0, size - 1)), draw(
                st.integers(0, size - 1)
            )
            low.append(min(a, b))
            high.append(max(a, b))
        boxes.append((tuple(low), tuple(high)))
    boxes.append(((0, 0), (rows - 1, cols - 1)))
    return cube, boxes


@settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=cubes_and_boxes())
def test_every_stack_answers_int64_cubes_identically(case):
    cube, boxes = case
    lows = [low for low, _ in boxes]
    highs = [high for _, high in boxes]
    truth = [
        int(cube[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1].sum())
        for lo, hi in boxes
    ]
    with tempfile.TemporaryDirectory() as directory:
        with stacks(cube, directory) as readers:
            wrong = {}
            for name, read in readers.items():
                values = np.asarray(read(lows, highs))
                if values.dtype != np.int64 or values.tolist() != truth:
                    wrong[name] = (str(values.dtype), values.tolist())
    assert not wrong, f"expected int64 {truth}, got {wrong}"


# -- write coordinates are integers, as read coordinates are -----------------


def test_float_cell_coordinates_are_rejected_not_truncated(tmp_path):
    """A float write coordinate raises ``TypeError`` as a float read
    coordinate does — on a service, a cluster, its shard map and the
    net client — instead of being truncated onto another cell (``3.7``
    used to write row 3)."""
    groups = [[((3.7, 1), 5)], [((1, 1), 2), ((3.0, 1), 5)]]

    async def client_calls(server, group):
        async with await CubeClient.connect(*server.address) as client:
            with pytest.raises(TypeError, match="integer"):
                await client.submit_batch(group)
            with pytest.raises(TypeError, match="integer"):
                await client.range_sum_many([(3.7, 1)], [(3.7, 1)])

    zeros = np.zeros((8, 8), dtype=np.int64)
    with CubeService(RelativePrefixSumCube, zeros) as service, \
            make_cluster(zeros, tmp_path) as cluster, \
            CubeServer(service, port=0) as server:
        for group in groups:
            for backend in (service, cluster):
                with pytest.raises(TypeError, match="integer"):
                    backend.submit_batch(group)
            asyncio.run(client_calls(server, group))
        for backend in (service, cluster):
            backend.flush()
            assert backend.total() == 0
        assert cluster.shardmap.shard_of((3, 1)) == 0
        with pytest.raises(TypeError, match="integer"):
            cluster.shardmap.shard_of((3.7, 1))


# -- malformed boxes: one error per stack, and one check per read -------------

#: malformed ``(lows, highs)`` batches on an 8x8 cube
MALFORMED = {
    "arity": ([(0, 0, 0)], [(1, 1, 1)]),
    "length_mismatch": ([(0, 0), (1, 1)], [(1, 1)]),
    "inverted": ([(3, 0)], [(1, 1)]),
    "out_of_bounds": ([(0, 0)], [(8, 1)]),
    "negative": ([(-1, 0)], [(1, 1)]),
    "float": ([(0.5, 0)], [(1, 1)]),
    "ragged": ([(0, 0), (1,)], [(1, 1), (2, 2)]),
}

#: the error each stack raises; a bare cluster wraps three of them
#: (its shard map reports arity and ragged rows as ``RangeError``, and
#: it compares the two batch lengths itself)
RAISES = {
    "arity": DimensionError,
    "length_mismatch": DimensionError,
    "inverted": RangeError,
    "out_of_bounds": RangeError,
    "negative": RangeError,
    "float": TypeError,
    "ragged": ValueError,
}
CLUSTER_RAISES = {
    "arity": RangeError,
    "length_mismatch": ClusterError,
    "ragged": RangeError,
}

MATRIX_STACKS = (
    "cube", "service", "router->service", "cluster", "router->cluster",
)
COUNTED_STACKS = MATRIX_STACKS[1:] + ("net->router->cluster",)


@pytest.fixture(scope="module")
def readers(tmp_path_factory):
    """Every stack of :func:`stacks` plus a bare cube, over one 8x8
    cube, built once for the module."""
    cube = np.arange(64, dtype=np.int64).reshape(8, 8)
    with stacks(cube, tmp_path_factory.mktemp("cluster")) as built:
        built["cube"] = RelativePrefixSumCube(cube).range_sum_many
        yield cube, built


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("name", MATRIX_STACKS)
def test_malformed_boxes_raise_the_same_error_per_stack(
    readers, name, case
):
    _, built = readers
    lows, highs = MALFORMED[case]
    expected = RAISES[case]
    if name == "cluster":
        expected = CLUSTER_RAISES.get(case, expected)
    with pytest.raises(Exception) as caught:
        built[name](lows, highs)
    assert caught.type is expected, (
        f"{name} raised {caught.type.__name__} for {case}, "
        f"expected {expected.__name__}"
    )


@pytest.mark.parametrize("name", MATRIX_STACKS)
def test_empty_batch_answers_empty_per_stack(readers, name):
    _, built = readers
    assert np.asarray(built[name]([], [])).tolist() == []


@pytest.mark.parametrize("name", COUNTED_STACKS)
def test_each_read_checks_its_boxes_once(readers, name, monkeypatch):
    """A read that misses every cache checks its lows and highs once
    (two ``normalize_index_batch`` calls), however many layers and
    shards it crosses: each layer below hands the checked batch on."""
    cube, built = readers
    real = indexing.normalize_index_batch
    calls = []

    def counting(targets, shape):
        calls.append(tuple(shape))
        return real(targets, shape)

    monkeypatch.setattr(indexing, "normalize_index_batch", counting)
    for read in range(3):
        # boxes no other read asks for (the net stack shares its
        # router), each spanning both shards, so no router tier can
        # answer them from its cache
        fresh = 3 * COUNTED_STACKS.index(name) + read
        lows = [(0, fresh % 8), (1, fresh // 8)]
        highs = [(7, 7), (6, 5)]
        calls.clear()
        values = np.asarray(built[name](lows, highs))
        assert values.tolist() == [
            int(cube[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1].sum())
            for lo, hi in zip(lows, highs)
        ]
        assert calls == [cube.shape, cube.shape], (
            f"{name} read {read} checked its boxes {len(calls) // 2} "
            f"times: {calls}"
        )


def test_a_batch_checked_against_another_shape_is_checked_again():
    """A ``BoxBatch`` is trusted only by a cube of the shape it was
    checked against; elsewhere it is checked like raw boxes."""
    lows, highs = [[0, 0], [40, 40]], [[3, 3], [50, 50]]
    batch = indexing.normalize_range_batch(lows, highs, (64, 64))
    assert len(batch) == 2
    lo, hi = batch
    assert lo.tolist() == lows and hi.tolist() == highs
    assert indexing.normalize_range_batch(batch, None, (64, 64)) is batch
    small = np.ones((32, 32), dtype=np.int64)
    with CubeService(RelativePrefixSumCube, small) as service:
        with pytest.raises(RangeError) as raw:
            service.range_sum_many(lows, highs)
        with pytest.raises(RangeError) as checked:
            service.range_sum_many(batch, None)
        assert str(checked.value) == str(raw.value)
        inside = indexing.normalize_range_batch(
            lows[:1], highs[:1], (64, 64)
        )
        assert service.range_sum_many(inside, None).tolist() == [16]
