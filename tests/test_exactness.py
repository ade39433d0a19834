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
