"""The network serving tier: protocol, auth, server, client.

The failure-edge tests are the point of this file: every documented
wire error — malformed frames, oversized payloads, auth failures, quota
exhaustion, admission-control overload, deadline expiry, mid-request
server close — must come back as its typed exception on the client (or
a typed error frame on a raw socket) and must never take the server's
event loop down: after each rejection the same server answers a fresh
healthy request.

No pytest-asyncio in the container: async scenarios run via
``asyncio.run`` inside sync tests, against a server on its own
background event-loop thread (the same facade the tools use).
"""

import asyncio
import contextlib
import json
import socket
import struct

import numpy as np
import pytest

from repro import (
    CubeClient,
    CubeCluster,
    CubeServer,
    CubeService,
    Deadline,
    FaultPlan,
    QueryRouter,
    RelativePrefixSumCube,
)
from repro.errors import (
    AuthError,
    DeadlineExceededError,
    NetError,
    NodeUnavailableError,
    PayloadTooLargeError,
    ProtocolError,
    QuotaExceededError,
    RemoteError,
    ServiceOverloadedError,
)
from repro.net import Authenticator, Tenant
from repro.net.auth import TokenBucket
from repro.net.protocol import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    encode_frame,
    error_code_for,
    error_payload,
    raise_wire_error,
    read_frame,
)


def run(coro):
    return asyncio.run(coro)


@contextlib.contextmanager
def serving(service_or_router, **server_kwargs):
    """A CubeServer for ``service_or_router`` on a background thread."""
    server = CubeServer(service_or_router, port=0, **server_kwargs)
    with server:
        yield server


@contextlib.contextmanager
def small_service(**service_kwargs):
    cube = np.arange(48.0).reshape(6, 8)
    with CubeService(RelativePrefixSumCube, cube) as svc:
        yield svc, cube


def raw_exchange(server, payload_bytes, *, recv_frames=1):
    """Push raw bytes at the server, read back ``recv_frames`` frames
    (decoded), tolerating early connection close."""
    with socket.create_connection(server.address, timeout=5.0) as sock:
        sock.sendall(payload_bytes)
        frames = []
        buffered = b""
        sock.settimeout(5.0)
        try:
            while len(frames) < recv_frames:
                while len(buffered) < HEADER_BYTES:
                    piece = sock.recv(65536)
                    if not piece:
                        return frames
                    buffered += piece
                (length,) = struct.unpack("!I", buffered[:HEADER_BYTES])
                while len(buffered) < HEADER_BYTES + length:
                    piece = sock.recv(65536)
                    if not piece:
                        return frames
                    buffered += piece
                body = buffered[HEADER_BYTES:HEADER_BYTES + length]
                buffered = buffered[HEADER_BYTES + length:]
                frames.append(json.loads(body))
        except socket.timeout:
            pass
        return frames


def request_bytes(op, params=None, *, request_id=1, token=None, **extra):
    payload = {"id": request_id, "op": op, "params": params or {}}
    if token is not None:
        payload["token"] = token
    payload.update(extra)
    return encode_frame(payload)


# -- protocol unit tests -----------------------------------------------------


class TestProtocol:
    def test_frame_roundtrip(self):
        payload = {"id": 3, "op": "ping", "params": {"x": [1, 2, 3]}}
        frame = encode_frame(payload)

        async def decode():
            reader = asyncio.StreamReader()
            reader.feed_data(frame)
            reader.feed_eof()
            return await read_frame(reader)

        assert run(decode()) == payload

    def test_encode_rejects_oversized(self):
        with pytest.raises(PayloadTooLargeError):
            encode_frame({"blob": "x" * MAX_FRAME_BYTES})

    def test_read_rejects_oversized_before_buffering(self):
        async def decode():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack("!I", MAX_FRAME_BYTES + 1))
            # no body on purpose: the limit check must fire on the
            # prefix alone
            return await read_frame(reader)

        with pytest.raises(PayloadTooLargeError):
            run(decode())

    @pytest.mark.parametrize(
        "garbage",
        [
            struct.pack("!I", 0),                       # zero length
            struct.pack("!I", 10) + b"not-json!!",      # invalid JSON
            struct.pack("!I", 4) + b"[1]",              # truncated body
            b"\x00\x00",                                 # truncated header
            struct.pack("!I", 2) + b"[]",               # non-object JSON
        ],
    )
    def test_read_rejects_malformed(self, garbage):
        async def decode():
            reader = asyncio.StreamReader()
            reader.feed_data(garbage)
            reader.feed_eof()
            return await read_frame(reader)

        with pytest.raises(ProtocolError):
            run(decode())

    def test_clean_eof_is_none(self):
        async def decode():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            return await read_frame(reader)

        assert run(decode()) is None

    def test_error_mapping_is_typed_both_ways(self):
        cases = [
            (AuthError("no"), "auth_failed", AuthError),
            (
                QuotaExceededError("slow down", retry_after_s=0.25),
                "quota_exceeded",
                QuotaExceededError,
            ),
            (ServiceOverloadedError("full"), "overloaded",
             ServiceOverloadedError),
            (DeadlineExceededError("late"), "deadline_exceeded",
             DeadlineExceededError),
            (PayloadTooLargeError("big"), "payload_too_large",
             PayloadTooLargeError),
            (ProtocolError("bad"), "bad_request", ProtocolError),
            (ValueError("bad param"), "bad_request", ProtocolError),
            (NodeUnavailableError("down"), "unavailable",
             NodeUnavailableError),
            (RuntimeError("boom"), "internal", RemoteError),
        ]
        for error, code, client_cls in cases:
            payload = error_payload(error)
            assert payload["code"] == code, error
            with pytest.raises(client_cls):
                raise_wire_error(payload)

    def test_retry_after_survives_the_wire(self):
        payload = error_payload(
            QuotaExceededError("slow down", retry_after_s=0.75)
        )
        assert payload["retry_after_s"] == 0.75
        with pytest.raises(QuotaExceededError) as info:
            raise_wire_error(payload)
        assert info.value.retry_after_s == 0.75

    def test_unknown_code_degrades_to_remote_error(self):
        with pytest.raises(RemoteError):
            raise_wire_error({"code": "from_the_future", "message": "?"})

    def test_error_code_for_respects_subclass_order(self):
        # PayloadTooLargeError subclasses ProtocolError but must map to
        # its own code
        assert error_code_for(PayloadTooLargeError("x")) == (
            "payload_too_large"
        )


# -- auth / quota unit tests -------------------------------------------------


class TestAuthQuota:
    def test_token_bucket_refills_on_fake_clock(self):
        now = [0.0]
        bucket = TokenBucket(10.0, 5.0, clock=lambda: now[0])
        for _ in range(5):
            assert bucket.try_acquire() == 0.0
        retry = bucket.try_acquire()
        assert retry == pytest.approx(0.1)
        now[0] += 0.1
        assert bucket.try_acquire() == 0.0
        # refill never exceeds burst
        now[0] += 100.0
        assert bucket.available == pytest.approx(5.0)

    def test_authenticator_resolves_and_rejects(self):
        auth = Authenticator([Tenant("a", "tok-a"), Tenant("b", "tok-b")])
        assert auth.authenticate("tok-b").name == "b"
        with pytest.raises(AuthError):
            auth.authenticate("tok-c")
        with pytest.raises(AuthError):
            auth.authenticate(None)

    def test_admit_charges_and_refuses_with_retry_after(self):
        now = [0.0]
        tenant = Tenant("t", "tok", rate_per_s=10.0, burst=2.0,
                        clock=lambda: now[0])
        auth = Authenticator([tenant])
        auth.admit(tenant)
        auth.admit(tenant)
        with pytest.raises(QuotaExceededError) as info:
            auth.admit(tenant)
        assert info.value.retry_after_s == pytest.approx(0.1)

    def test_parse_specs(self):
        auth = Authenticator.parse(["dash=s3cret:200:50", "batch=tok2"])
        tenant = auth.authenticate("s3cret")
        assert tenant.name == "dash"
        assert tenant.bucket.rate_per_s == 200.0
        assert tenant.bucket.burst == 50.0
        for bad in ["noequals", "=tok", "name=", "a=b:1:2:3"]:
            with pytest.raises(ValueError):
                Authenticator.parse([bad])

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError):
            Authenticator([Tenant("a", "tok"), Tenant("b", "tok")])


# -- server round trips ------------------------------------------------------


class TestServerHappyPath:
    def test_query_submit_flush_roundtrip(self):
        with small_service() as (svc, cube):
            with serving(svc) as server:
                async def scenario():
                    host, port = server.address
                    async with await CubeClient.connect(host, port) as c:
                        info = await c.ping()
                        assert info["shape"] == [6, 8]
                        values, version = await c.range_sum_many(
                            [[0, 0], [1, 2]], [[2, 3], [5, 7]]
                        )
                        assert np.allclose(
                            values,
                            [cube[:3, :4].sum(), cube[1:, 2:].sum()],
                        )
                        seq = await c.submit_batch(
                            [((0, 0), 5.0), ((5, 7), -2.0)]
                        )
                        assert seq == 1
                        flushed = await c.flush()
                        assert flushed >= 1
                        value, stamp = await c.range_sum((0, 0), (5, 7))
                        assert value == cube.sum() + 3.0
                        assert stamp == flushed
                        assert await c.version() == flushed

                run(scenario())

    def test_submit_to_a_cluster_returns_per_shard_seqs(self, tmp_path):
        """A cluster acks ``{shard: seq}``; the wire carries that map back
        and the group lands exactly once."""
        cube = np.arange(48, dtype=np.int64).reshape(6, 8)
        with CubeCluster(
            RelativePrefixSumCube, cube, num_shards=2,
            replication_factor=2, data_dir=tmp_path,
        ) as cluster:
            with serving(cluster) as server:
                async def scenario():
                    host, port = server.address
                    async with await CubeClient.connect(host, port) as c:
                        acks = await c.submit_batch(
                            [((0, 0), 5.0), ((5, 7), -2.0)]
                        )
                        assert acks == {0: 1, 1: 1}
                        acks = await c.submit_batch([((5, 7), 4.0)])
                        assert acks == {1: 2}
                        await c.flush()
                        value, _ = await c.range_sum((0, 0), (5, 7))
                        assert value == cube.sum() + 7

                run(scenario())
            assert cluster.range_sum((0, 0), (0, 0)) == cube[0, 0] + 5
            assert cluster.range_sum((5, 7), (5, 7)) == cube[5, 7] + 2

    def test_streaming_chunks_are_exact_and_stamped(self):
        with small_service() as (svc, cube):
            with serving(svc) as server:
                async def scenario():
                    host, port = server.address
                    async with await CubeClient.connect(host, port) as c:
                        lows = [[0, 0]] * 10
                        highs = [[i % 6, 7] for i in range(10)]
                        got = np.empty(10)
                        chunks = 0
                        async for offset, values, version in (
                            c.stream_range_sums(lows, highs, chunk=4)
                        ):
                            got[offset:offset + len(values)] = values
                            chunks += 1
                            assert version == 0
                        assert chunks == 3
                        expect = [
                            cube[: (i % 6) + 1, :].sum() for i in range(10)
                        ]
                        assert np.allclose(got, expect)

                run(scenario())

    def test_router_backend_serves_and_caches(self):
        with small_service() as (svc, cube):
            with QueryRouter(svc) as router:
                with serving(router) as server:
                    async def scenario():
                        host, port = server.address
                        async with await CubeClient.connect(
                            host, port
                        ) as c:
                            for _ in range(3):
                                values, _ = await c.range_sum_many(
                                    [[0, 0]], [[5, 7]]
                                )
                                assert values[0] == cube.sum()
                            stats = await c.stats()
                            router_stats = stats["backend"]["router"]
                            served_cached = (
                                router_stats["cache_hits"]
                                + router_stats["batch_hits"]
                            )
                            assert served_cached >= 1
                            assert stats["net"]["requests"] >= 3

                    run(scenario())

    def test_stats_expose_net_counters(self):
        with small_service() as (svc, _):
            with serving(svc) as server:
                async def scenario():
                    host, port = server.address
                    async with await CubeClient.connect(host, port) as c:
                        await c.ping()
                        stats = await c.stats()
                        net = stats["net"]
                        assert net["connections_opened"] >= 1
                        assert net["requests_by_op"]["ping"] == 1
                        assert net["bytes_in"] > 0
                        assert net["bytes_out"] > 0

                run(scenario())


# -- failure edges -----------------------------------------------------------


class TestFailureEdges:
    def test_malformed_frame_gets_error_then_close(self):
        with small_service() as (svc, _):
            with serving(svc) as server:
                garbage = struct.pack("!I", 12) + b"this aint js"
                frames = raw_exchange(server, garbage)
                assert len(frames) == 1
                assert frames[0]["ok"] is False
                assert frames[0]["error"]["code"] == "bad_request"
                self._assert_still_serving(server)

    def test_oversized_length_prefix_rejected(self):
        with small_service() as (svc, _):
            with serving(
                svc, max_frame_bytes=4096
            ) as server:
                huge = struct.pack("!I", 1 << 30)
                frames = raw_exchange(server, huge)
                assert len(frames) == 1
                assert frames[0]["error"]["code"] == "payload_too_large"
                self._assert_still_serving(server)

    def test_unknown_op_and_bad_params_keep_connection_alive(self):
        with small_service() as (svc, _):
            with serving(svc) as server:
                bad_op = request_bytes("explode", request_id=1)
                bad_params = request_bytes(
                    "range_sum_many", {"lows": [[0, 0]]}, request_id=2
                )
                good = request_bytes(
                    "range_sum_many",
                    {"lows": [[0, 0]], "highs": [[1, 1]]},
                    request_id=3,
                )
                frames = raw_exchange(
                    server, bad_op + bad_params + good, recv_frames=3
                )
                assert [f["id"] for f in frames] == [1, 2, 3]
                assert frames[0]["error"]["code"] == "bad_request"
                assert "unknown op" in frames[0]["error"]["message"]
                assert frames[1]["error"]["code"] == "bad_request"
                assert frames[2]["ok"] is True

    def test_float_update_coordinate_is_bad_request_like_a_read(self):
        """A float coordinate in a submit frame gets the ``bad_request``
        a float read coordinate gets, and writes nothing — it used to
        be truncated onto the cell below."""
        with small_service() as (svc, cube):
            with serving(svc) as server:
                frames = raw_exchange(server, b"".join([
                    request_bytes(
                        "submit_batch",
                        {"updates": [[[3.7, 1], 5.0]]}, request_id=1,
                    ),
                    request_bytes(
                        "submit_batch",
                        {"updates": [[[1, 1], 2.0], [[3.0, 1], 5.0]]},
                        request_id=2,
                    ),
                    request_bytes(
                        "range_sum_many",
                        {"lows": [[3.7, 1]], "highs": [[3.7, 1]]},
                        request_id=3,
                    ),
                ]), recv_frames=3)
                assert [f["error"]["code"] for f in frames] == [
                    "bad_request"
                ] * 3
                assert all("integer" in f["error"]["message"] for f in frames)
                svc.flush()
                assert svc.total() == cube.sum()

    def test_out_of_bounds_query_is_bad_request_not_crash(self):
        with small_service() as (svc, _):
            with serving(svc) as server:
                async def scenario():
                    host, port = server.address
                    async with await CubeClient.connect(host, port) as c:
                        with pytest.raises(ProtocolError):
                            await c.range_sum_many([[0, 0]], [[99, 99]])
                        # the same connection still works
                        values, _ = await c.range_sum_many(
                            [[0, 0]], [[1, 1]]
                        )
                        assert len(values) == 1

                run(scenario())

    def test_auth_required_and_wrong_token_rejected(self):
        auth = Authenticator([Tenant("t", "s3cret")])
        with small_service() as (svc, _):
            with serving(svc, authenticator=auth) as server:
                async def scenario():
                    host, port = server.address
                    async with await CubeClient.connect(host, port) as c:
                        with pytest.raises(AuthError):
                            await c.ping()
                    async with await CubeClient.connect(
                        host, port, token="wrong"
                    ) as c:
                        with pytest.raises(AuthError):
                            await c.ping()
                    async with await CubeClient.connect(
                        host, port, token="s3cret"
                    ) as c:
                        assert (await c.ping())["tenant"] == "t"

                run(scenario())

    def test_quota_exhaustion_maps_with_retry_after(self):
        auth = Authenticator(
            [Tenant("t", "tok", rate_per_s=5.0, burst=2.0)]
        )
        with small_service() as (svc, _):
            with serving(svc, authenticator=auth) as server:
                async def scenario():
                    host, port = server.address
                    async with await CubeClient.connect(
                        host, port, token="tok"
                    ) as c:
                        await c.ping()
                        await c.ping()
                        with pytest.raises(QuotaExceededError) as info:
                            await c.ping()
                        assert info.value.retry_after_s > 0.0
                        # the bucket refills: wait out the hint, retry
                        await asyncio.sleep(
                            info.value.retry_after_s + 0.05
                        )
                        await c.ping()

                run(scenario())

    def test_overload_rejects_instead_of_buffering(self):
        # one slow flush holds the single inflight slot; a second
        # connection must be refused immediately with retry-after
        plan = FaultPlan(seed=0, latency_at=(1,), latency_seconds=1.0)
        cube = np.ones((4, 4))
        with CubeService(
            RelativePrefixSumCube, cube, fault_plan=plan
        ) as svc:
            with serving(
                svc, max_inflight=1, overload_retry_s=0.02
            ) as server:
                async def scenario():
                    host, port = server.address
                    slow = await CubeClient.connect(host, port)
                    fast = await CubeClient.connect(host, port)
                    try:
                        await slow.submit_batch([((0, 0), 1.0)])
                        flush_task = asyncio.ensure_future(
                            slow.flush(timeout=10.0)
                        )
                        await asyncio.sleep(0.15)  # flush now inflight
                        with pytest.raises(ServiceOverloadedError) as info:
                            await fast.ping()
                        assert info.value.retry_after_s == (
                            pytest.approx(0.02)
                        )
                        assert await flush_task >= 1
                        # slot freed: the same fast client is admitted
                        await fast.ping()
                    finally:
                        await slow.close()
                        await fast.close()

                run(scenario())
                assert server.metrics.snapshot()["overload_rejects"] == 1

    def test_deadline_exceeded_maps_to_typed_error(self):
        with small_service() as (svc, _):
            with serving(svc) as server:
                # server side: a zero budget on the wire comes back as
                # the documented code, and the connection stays usable
                dead = request_bytes(
                    "range_sum_many",
                    {"lows": [[0, 0]], "highs": [[1, 1]]},
                    request_id=1,
                    deadline_ms=0.0,
                )
                live = request_bytes(
                    "range_sum_many",
                    {"lows": [[0, 0]], "highs": [[1, 1]]},
                    request_id=2,
                )
                frames = raw_exchange(server, dead + live, recv_frames=2)
                assert frames[0]["error"]["code"] == "deadline_exceeded"
                assert frames[1]["ok"] is True

                async def scenario():
                    host, port = server.address
                    async with await CubeClient.connect(host, port) as c:
                        # client side: a spent budget fails before the
                        # wire and must not poison the connection
                        with pytest.raises(DeadlineExceededError):
                            await c.range_sum_many(
                                [[0, 0]], [[1, 1]],
                                deadline=Deadline.after(0.0),
                            )
                        values, _ = await c.range_sum_many(
                            [[0, 0]], [[1, 1]], timeout=5.0
                        )
                        assert len(values) == 1

                run(scenario())

    def test_mid_request_server_close_raises_net_error(self):
        plan = FaultPlan(seed=0, latency_at=(1,), latency_seconds=1.5)
        cube = np.ones((4, 4))
        with CubeService(
            RelativePrefixSumCube, cube, fault_plan=plan
        ) as svc:
            server = CubeServer(svc, port=0)
            server.start_background()
            try:
                async def scenario():
                    host, port = server.address
                    client = await CubeClient.connect(host, port)
                    await client.submit_batch([((1, 1), 2.0)])
                    flush_task = asyncio.ensure_future(
                        client.flush(timeout=10.0)
                    )
                    await asyncio.sleep(0.15)
                    # hard-stop the server while the flush is in flight
                    await asyncio.get_running_loop().run_in_executor(
                        None, server.stop_background
                    )
                    with pytest.raises(NetError):
                        await flush_task
                    await client.close()

                run(scenario())
            finally:
                server.stop_background()

    def test_server_survives_backend_close(self):
        with small_service() as (svc, _):
            with serving(svc) as server:
                async def scenario():
                    host, port = server.address
                    async with await CubeClient.connect(host, port) as c:
                        await c.ping()
                        svc.close()
                        with pytest.raises(NodeUnavailableError):
                            await c.submit_batch([((0, 0), 1.0)])
                        # the event loop is alive: new connections are
                        # accepted and answered (with the typed error)
                        async with await CubeClient.connect(
                            host, port
                        ) as c2:
                            with pytest.raises(NodeUnavailableError):
                                await c2.submit_batch([((0, 0), 1.0)])

                run(scenario())

    def _assert_still_serving(self, server):
        frames = raw_exchange(server, request_bytes("ping"))
        assert frames and frames[0]["ok"] is True
