"""The socket serving tier, end to end, from the client's chair.

A remote dashboard talks to a :class:`~repro.net.CubeServer` over a
length-prefixed JSON protocol. This example stands a server up
in-process (backed by a :class:`~repro.serve.CubeService`) and walks
the whole client surface:

* batched range-sum pages, each answer stamped with the snapshot
  version it was computed from and checked against a brute-force
  oracle *at that version*;
* remote writes (``submit_batch`` + ``flush``) with the version bump
  observable from the read side;
* streaming reads for large pages — chunked, each chunk individually
  stamped;
* several concurrent client connections sharing the server;
* the admission machinery a remote caller actually meets: a wrong
  token raises :class:`~repro.errors.AuthError`, an exhausted tenant
  quota raises :class:`~repro.errors.QuotaExceededError` with a
  ``retry_after_s`` hint that honoring makes the retry succeed, and a
  spent :class:`~repro.deadline.Deadline` raises
  :class:`~repro.errors.DeadlineExceededError` — with the connection
  still serving afterwards in every case.

Run:  python examples/net_client.py
"""

import asyncio

import numpy as np

from repro.core.rps import RelativePrefixSumCube
from repro.deadline import Deadline
from repro.errors import (
    AuthError,
    DeadlineExceededError,
    QuotaExceededError,
)
from repro.net import Authenticator, CubeClient, CubeServer, Tenant
from repro.serve import CubeService

SHAPE = (128, 96)
PAGE_BOXES = 16
STREAM_BOXES = 700
STREAM_CHUNK = 128
READERS = 4


def make_page(rng, boxes):
    lows, highs = [], []
    for _ in range(boxes):
        lo, hi = [], []
        for n in SHAPE:
            a, b = sorted(int(x) for x in rng.integers(0, n, size=2))
            lo.append(a)
            hi.append(b)
        lows.append(lo)
        highs.append(hi)
    return lows, highs


def oracle_check(state, lows, highs, values):
    for lo, hi, value in zip(lows, highs, values):
        sl = tuple(slice(a, b + 1) for a, b in zip(lo, hi))
        assert value == state[sl].sum(), "server returned a wrong sum!"


async def dashboard(host, port, states, write_lock, rng):
    """One reader connection: pages, writes, and a streamed page."""
    async with await CubeClient.connect(
        host, port, token="s3cret"
    ) as client:
        hello = await client.ping()
        assert tuple(hello["shape"]) == SHAPE

        # a dashboard page — the stamp names the exact oracle state
        page = make_page(rng, PAGE_BOXES)
        values, stamp = await client.range_sum_many(*page)
        oracle_check(states[int(stamp)], *page, values)

        # a write lands remotely. Several connections write
        # concurrently, so the oracle append and the submit happen
        # under one lock: submission order *is* version order. The
        # state is appended *before* the submit, because another
        # connection's reply stamped with the new version can be
        # handled before this submit's ack arrives.
        cell = tuple(int(rng.integers(0, n)) for n in SHAPE)
        delta = float(rng.integers(1, 50))
        async with write_lock:
            state = states[-1].copy()
            state[cell] += delta
            states.append(state)
            try:
                await client.submit_batch([(cell, delta)])
            except BaseException:
                states.pop()
                raise
        await client.flush(timeout=30.0)

        values, stamp = await client.range_sum_many(*page)
        oracle_check(states[int(stamp)], *page, values)

        # a page too big to want in one frame: stream it, chunk by
        # chunk, every chunk stamped with its own snapshot
        big = make_page(rng, STREAM_BOXES)
        got = np.empty(STREAM_BOXES)
        chunks = 0
        async for offset, chunk_values, stamp in client.stream_range_sums(
            *big, chunk=STREAM_CHUNK
        ):
            got[offset:offset + len(chunk_values)] = chunk_values
            lo = [big[0][i] for i in range(offset, offset + len(chunk_values))]
            hi = [big[1][i] for i in range(offset, offset + len(chunk_values))]
            oracle_check(states[int(stamp)], lo, hi, chunk_values)
            chunks += 1
        assert chunks == -(-STREAM_BOXES // STREAM_CHUNK)
        return chunks


async def misbehave(host, port):
    """Every refusal is typed, hinted, and survivable."""
    # wrong token: refused, connection still usable for a retry
    async with await CubeClient.connect(
        host, port, token="wrong-token"
    ) as client:
        try:
            await client.ping()
            raise AssertionError("bad token was accepted?")
        except AuthError:
            pass

    # a starved tenant: the token bucket refuses with a retry hint,
    # and honoring the hint makes the retry succeed
    async with await CubeClient.connect(
        host, port, token="guest-token"
    ) as client:
        refusals = 0
        for _ in range(8):
            try:
                await client.ping()
            except QuotaExceededError as error:
                refusals += 1
                assert error.retry_after_s > 0.0
                await asyncio.sleep(error.retry_after_s)
                await client.ping()  # hint honored: admitted again
                break
        assert refusals > 0, "guest quota never exhausted?"

        # a spent deadline fails locally — cheaply, without ever
        # desyncing the connection — and the next call still works
        try:
            await client.range_sum(
                (0, 0), (9, 9), deadline=Deadline.after(0.0)
            )
            raise AssertionError("spent deadline was accepted?")
        except DeadlineExceededError:
            pass
        await asyncio.sleep(1.0)  # let the guest bucket refill
        assert (await client.ping())["tenant"] == "guest"
        return refusals


async def drive(host, port, states, seed):
    write_lock = asyncio.Lock()
    readers = [
        dashboard(
            host, port, states, write_lock,
            np.random.default_rng([seed, i]),
        )
        for i in range(READERS)
    ]
    chunks = await asyncio.gather(*readers)
    refusals = await misbehave(host, port)
    return sum(chunks), refusals


def main():
    rng = np.random.default_rng(11)
    cube = rng.integers(0, 100, SHAPE).astype(np.float64)
    states = [cube.copy()]  # brute-force oracle, one state per version

    service = CubeService(RelativePrefixSumCube, cube)
    auth = Authenticator([
        Tenant("dash", "s3cret", rate_per_s=5000.0, burst=2000.0),
        Tenant("guest", "guest-token", rate_per_s=2.0, burst=3.0),
    ])
    try:
        with CubeServer(service, port=0, authenticator=auth) as server:
            host, port = server.address
            print(f"serving a {SHAPE} cube on {host}:{port}")
            chunks, refusals = asyncio.run(
                drive(host, port, states, seed=11)
            )
            net = server.metrics.snapshot()
            print(f"  readers                : {READERS} concurrent")
            print(f"  requests served        : {net['requests']}")
            print(f"  stream chunks          : {chunks}")
            print(f"  quota refusals (typed) : {refusals}")
            print(f"  auth refusals          : {net['auth_rejects']}")
            print(f"  versions published     : {len(states) - 1} writes, "
                  f"every answer exact at its own stamp")
            assert net["errors_by_code"].get("internal", 0) == 0
    finally:
        service.close()
    print("net client example OK")


if __name__ == "__main__":
    main()
