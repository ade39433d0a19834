"""The asyncio client for :class:`~repro.net.server.CubeServer`.

:class:`CubeClient` speaks the same length-prefixed JSON protocol and
gives back the *typed* errors the server started with: a quota refusal
arrives as :class:`~repro.errors.QuotaExceededError` with its
``retry_after_s`` intact, an expired budget as
:class:`~repro.errors.DeadlineExceededError`, a crashed backend as
:class:`~repro.errors.NodeUnavailableError` — so retry policy written
against the in-process API works unchanged against the socket.

One client is one connection with one outstanding request at a time
(an ``asyncio.Lock`` serializes callers); open several clients for
concurrency — that is what the load generator and the N1 benchmark do.

Deadlines travel as budgets: pass a :class:`~repro.deadline.Deadline`
(or a plain ``timeout``) and the *remaining* budget rides the request
as ``deadline_ms``, then also bounds the local wait for the response —
one budget, both sides of the wire.
"""

from __future__ import annotations

import asyncio
import numbers
import operator
from typing import Any, AsyncIterator, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.degraded import RangeEstimate
from repro.deadline import Deadline
from repro.errors import NetError, ProtocolError
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    encode_frame,
    raise_wire_error,
    read_frame,
)


class CubeClient:
    """One connection to a :class:`~repro.net.server.CubeServer`.

    Build with :meth:`connect`; use as an async context manager or call
    :meth:`close`::

        async with await CubeClient.connect(host, port, token="s3cret") as c:
            values, version = await c.range_sum_many(lows, highs)
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        token: Optional[str] = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._token = token
        self._max_frame_bytes = int(max_frame_bytes)
        self._lock = asyncio.Lock()
        self._next_id = 0
        self._closed = False

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        token: Optional[str] = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        connect_timeout: float = 10.0,
    ) -> "CubeClient":
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout=connect_timeout
        )
        return cls(
            reader, writer, token=token, max_frame_bytes=max_frame_bytes
        )

    # -- plumbing ------------------------------------------------------------

    def _request_payload(
        self,
        op: str,
        params: Dict[str, Any],
        deadline: Optional[Deadline],
    ) -> Dict[str, Any]:
        self._next_id += 1
        payload: Dict[str, Any] = {
            "id": self._next_id, "op": op, "params": params,
        }
        if self._token is not None:
            payload["token"] = self._token
        if deadline is not None:
            payload["deadline_ms"] = deadline.remaining() * 1000.0
        return payload

    async def _read_reply(self, deadline: Optional[Deadline]):
        wait = None if deadline is None else deadline.bound(None)
        try:
            if wait is None:
                reply = await read_frame(
                    self._reader, max_frame_bytes=self._max_frame_bytes
                )
            else:
                reply = await asyncio.wait_for(
                    read_frame(
                        self._reader,
                        max_frame_bytes=self._max_frame_bytes,
                    ),
                    timeout=wait,
                )
        except asyncio.TimeoutError:
            # the connection is now desynced (the reply may still come)
            await self.close()
            if deadline is not None:
                deadline.check("awaiting reply")
            raise NetError("timed out awaiting reply") from None
        if reply is None:
            self._closed = True
            raise NetError("server closed the connection mid-request")
        if not reply.get("ok", False):
            raise_wire_error(reply.get("error", {}))
        return reply

    async def call(
        self,
        op: str,
        params: Optional[Dict[str, Any]] = None,
        *,
        deadline: Optional[Deadline] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """One request/response round trip; returns the ``result``
        object. ``timeout`` (seconds) is shorthand for a fresh
        :class:`Deadline`."""
        if deadline is None and timeout is not None:
            deadline = Deadline.after(float(timeout))
        if self._closed:
            raise NetError("client is closed")
        if deadline is not None:
            # an already-spent budget fails here, cheaply — sending it
            # would only desync the connection waiting for a reply the
            # budget does not cover
            deadline.check(f"request {op!r}")
        payload = self._request_payload(op, params or {}, deadline)
        async with self._lock:
            self._writer.write(
                encode_frame(payload, max_frame_bytes=self._max_frame_bytes)
            )
            await self._writer.drain()
            reply = await self._read_reply(deadline)
        result = reply.get("result")
        if not isinstance(result, dict):
            raise ProtocolError("reply carries no result object")
        return result

    # -- typed API -----------------------------------------------------------

    async def ping(self, **kw) -> Dict[str, Any]:
        return await self.call("ping", **kw)

    async def version(self, **kw):
        return (await self.call("version", **kw))["version"]

    async def stats(self, **kw) -> Dict[str, Any]:
        return await self.call("stats", **kw)

    async def range_sum_many(
        self, lows, highs, *, allow_estimate: bool = False, **kw
    ):
        """Batched range sums; returns ``(values, version)``.

        With ``allow_estimate=True`` the server may answer queries over
        unreachable or mid-migration shards from bounded aggregates
        instead of failing; the return becomes
        ``(values, estimates, version)`` where ``estimates[i]`` is a
        typed :class:`~repro.cluster.degraded.RangeEstimate` (explicit
        ``estimate=True`` marker, guaranteed ``[low, high]`` interval,
        confidence, degraded shards, epoch) for degraded slots and
        ``None`` for exact ones.
        """
        params: Dict[str, Any] = {
            "lows": _coords(lows), "highs": _coords(highs),
        }
        if allow_estimate:
            params["allow_estimate"] = True
        result = await self.call("range_sum_many", params, **kw)
        # the dtype np.asarray infers: JSON carries an int64 cube's sums
        # as exact ints (int64 here), a float cube's as floats, and an
        # empty list decodes as float64
        values = np.asarray(result["values"])
        if allow_estimate:
            estimates = [
                None if e is None else RangeEstimate.from_wire(e)
                for e in result.get("estimates", [None] * len(values))
            ]
            return values, estimates, result["version"]
        return values, result["version"]

    async def range_sum(
        self, low: Sequence[int], high: Sequence[int], **kw
    ) -> Tuple[Any, Any]:
        """One range sum; returns ``(value, version)``, the value a numpy
        scalar in the dtype :meth:`range_sum_many` decodes."""
        result = await self.call(
            "range_sum", {"low": _coord(low), "high": _coord(high)}, **kw
        )
        return np.asarray(result["value"])[()], result["version"]

    async def submit_batch(
        self,
        updates,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> Union[int, Dict[int, int]]:
        """Queue one atomic update group; returns the backend's ack: its
        sequence number from a service, ``{shard: seq}`` from a cluster.
        ``timeout`` here is the *server-side* queue-admission timeout
        (matching :meth:`CubeService.submit_batch`), independent of the
        request deadline."""
        wire_updates = [
            [_coord(index), _delta(delta)] for index, delta in updates
        ]
        params: Dict[str, Any] = {"updates": wire_updates}
        if timeout is not None:
            params["timeout"] = float(timeout)
        result = await self.call("submit_batch", params, deadline=deadline)
        seq = result["seq"]
        if isinstance(seq, dict):
            return {int(shard): int(s) for shard, s in seq.items()}
        return int(seq)

    async def submit_delta(
        self, index, delta, **kw
    ) -> Union[int, Dict[int, int]]:
        return await self.submit_batch([(index, delta)], **kw)

    async def flush(
        self,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ):
        params: Dict[str, Any] = {}
        if timeout is not None:
            params["timeout"] = float(timeout)
        result = await self.call("flush", params, deadline=deadline)
        return result["version"]

    async def stream_range_sums(
        self,
        lows,
        highs,
        *,
        chunk: Optional[int] = None,
        deadline: Optional[Deadline] = None,
        timeout: Optional[float] = None,
    ) -> AsyncIterator[Tuple[int, np.ndarray, Any]]:
        """Async generator over ``(offset, values, version)`` chunks.

        Each chunk is exact against one server-side snapshot; chunks of
        one stream may carry different versions if writes land between
        them (the stamp tells you exactly which)."""
        if deadline is None and timeout is not None:
            deadline = Deadline.after(float(timeout))
        if self._closed:
            raise NetError("client is closed")
        params = {"lows": _coords(lows), "highs": _coords(highs)}
        if chunk is not None:
            params["chunk"] = int(chunk)
        payload = self._request_payload("range_sum_stream", params, deadline)
        async with self._lock:
            self._writer.write(
                encode_frame(payload, max_frame_bytes=self._max_frame_bytes)
            )
            await self._writer.drain()
            while True:
                reply = await self._read_reply(deadline)
                if not reply.get("stream", False):
                    raise ProtocolError(
                        "expected a stream chunk, got a plain reply"
                    )
                result = reply.get("result")
                if not isinstance(result, dict):
                    raise ProtocolError("stream chunk carries no result")
                yield (
                    int(result["offset"]),
                    np.asarray(result["values"]),  # as in range_sum_many
                    result["version"],
                )
                if reply.get("final", False):
                    return

    # -- lifecycle -----------------------------------------------------------

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    @property
    def closed(self) -> bool:
        return self._closed

    async def __aenter__(self) -> "CubeClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()


def _coord(index) -> list:
    return [operator.index(c) for c in index]  # a float: TypeError


def _coords(batch) -> list:
    return [_coord(index) for index in batch]


def _delta(delta):
    """An update delta as JSON carries it exactly: integers stay ints."""
    if isinstance(delta, numbers.Integral):
        return int(delta)
    return float(delta)


async def query_once(
    host: str,
    port: int,
    lows,
    highs,
    *,
    token: Optional[str] = None,
    timeout: float = 10.0,
) -> Tuple[np.ndarray, Any]:
    """One-shot convenience: connect, query, close."""
    async with await CubeClient.connect(
        host, port, token=token, connect_timeout=timeout
    ) as client:
        return await client.range_sum_many(lows, highs, timeout=timeout)


__all__ = ["CubeClient", "query_once"]
