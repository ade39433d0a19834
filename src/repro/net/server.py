"""The asyncio serving tier: sockets in front of the cube stack.

:class:`CubeServer` listens on a TCP port, speaks the length-prefixed
JSON protocol of :mod:`repro.net.protocol`, and fronts any of the three
query surfaces the library already has — a
:class:`~repro.serve.CubeService`, a
:class:`~repro.cluster.CubeCluster`, or a
:class:`~repro.routing.QueryRouter` — without those layers knowing a
socket exists. All three speak one backend protocol, so the server
calls them directly, with no adapter in between.

Design rules, in order of importance:

* **The event loop never blocks and never dies.** Every backend call
  (reads included — a flush can take milliseconds) runs on a thread
  pool via ``run_in_executor``; every exception a handler raises is
  mapped to a typed wire error and answered, not propagated into the
  loop.
* **Backpressure is rejection, not buffering.** Admission control is a
  hard cap on in-flight backend calls: request number ``max_inflight+1``
  is refused *immediately* with ``overloaded`` + ``retry_after_s``,
  mirroring how :meth:`CubeService.submit_batch
  <repro.serve.service.CubeService.submit_batch>` refuses with
  :class:`~repro.errors.ServiceOverloadedError` when its bounded queue
  is full — which also passes through verbatim. The server holds no
  queue of its own, so memory stays bounded no matter how many clients
  pile on.
* **The client's budget is the deadline.** A request's ``deadline_ms``
  becomes a :class:`~repro.deadline.Deadline` that is checked before
  dispatch and threaded into the backend, so a query the client has
  already given up on is not half-executed server-side.

Connections are handled sequentially per socket (one request, one
response — matching the client), concurrently across sockets.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.deadline import Deadline
from repro.errors import ProtocolError, ServiceOverloadedError
from repro.metrics.net import NetMetrics
from repro.net.auth import Authenticator, Tenant
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    encode_frame,
    error_payload,
    read_frame,
)

#: queries per chunk frame on the streaming endpoint
DEFAULT_STREAM_CHUNK = 256


def _stamp_json(stamp):
    """Coerce a backend stamp (int, numpy int, version tuple, or list
    of per-query stamps) into JSON-representable types."""
    if isinstance(stamp, (int, float, str)) or stamp is None:
        return stamp
    if isinstance(stamp, np.integer):
        return int(stamp)
    if isinstance(stamp, (tuple, list)):
        return [_stamp_json(s) for s in stamp]
    return str(stamp)


def _ack_json(ack):
    """A write ack as JSON: a service's int sequence number, or a
    cluster's ``{shard: seq}`` map (keys become strings on the wire)."""
    if isinstance(ack, dict):
        return {str(int(shard)): int(seq) for shard, seq in ack.items()}
    return int(ack)


def _epoch_of(stamp) -> Optional[int]:
    """The shard-map epoch carried by a cluster stamp, if any.

    Cluster stamps are ``(epoch, *versions)`` tuples; single-service
    stamps are plain ints and carry no epoch.
    """
    if isinstance(stamp, (tuple, list)) and stamp:
        first = stamp[0]
        if isinstance(first, (int, np.integer)):
            return int(first)
        if isinstance(first, (tuple, list)) and first and isinstance(
            first[0], (int, np.integer)
        ):
            # per-query stamp list: all entries share one live epoch
            return int(first[0])
    return None


def _require(params: Dict[str, Any], key: str):
    if key not in params:
        raise ProtocolError(f"missing required param {key!r}")
    return params[key]


def _parse_updates(raw) -> list:
    if not isinstance(raw, list):
        raise ProtocolError("updates must be a list of [index, delta] pairs")
    updates = []
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ProtocolError(
                "each update must be an [index, delta] pair"
            )
        index, delta = entry
        if not isinstance(index, (list, tuple)):
            raise ProtocolError("update index must be a coordinate list")
        updates.append((index, delta))  # a float coordinate: TypeError
    return updates


class CubeServer:
    """Serve a cube backend over TCP.

    Args:
        backend: anything that speaks the backend protocol (see
            :mod:`repro.routing.router`) — a
            :class:`~repro.serve.CubeService`, a
            :class:`~repro.cluster.CubeCluster`, or a
            :class:`~repro.routing.QueryRouter` stacked on either, as in
            ``CubeServer(QueryRouter(cluster))``. The server holds it
            as is and reads ``self.backend`` on every request.
        host/port: bind address; port 0 picks a free port (read
            :attr:`port` after :meth:`start`).
        authenticator: per-tenant token auth and quotas; ``None`` runs
            the server open (no token required, no quota).
        max_inflight: hard cap on concurrently executing backend calls;
            beyond it requests are refused with ``overloaded``.
        max_frame_bytes: per-frame size limit, both directions.
        overload_retry_s: ``retry_after_s`` hint sent with admission
            rejections.
        stream_chunk: queries per chunk on ``range_sum_stream``.
        executor_workers: thread-pool width for backend calls.
        metrics: a shared :class:`~repro.metrics.net.NetMetrics`.
    """

    def __init__(
        self,
        backend,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        authenticator: Optional[Authenticator] = None,
        max_inflight: int = 64,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        overload_retry_s: float = 0.05,
        stream_chunk: int = DEFAULT_STREAM_CHUNK,
        executor_workers: int = 8,
        metrics: Optional[NetMetrics] = None,
    ) -> None:
        self.backend = backend
        self._host = host
        self._port = int(port)
        self.authenticator = authenticator
        self.max_inflight = int(max_inflight)
        self.max_frame_bytes = int(max_frame_bytes)
        self.overload_retry_s = float(overload_retry_s)
        self.stream_chunk = max(1, int(stream_chunk))
        self.metrics = metrics if metrics is not None else NetMetrics()
        self._executor = ThreadPoolExecutor(
            max_workers=int(executor_workers),
            thread_name_prefix="cube-server",
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._inflight = 0  # event-loop thread only
        self._closing = False
        # background-thread facade state
        self._thread: Optional[threading.Thread] = None
        self._thread_loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread_ready = threading.Event()
        self._thread_error: Optional[BaseException] = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        return self._port

    @property
    def address(self) -> Tuple[str, int]:
        return (self._host, self._port)

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._closing = False
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        sock = self._server.sockets[0]
        self._host, self._port = sock.getsockname()[:2]
        return (self._host, self._port)

    async def stop(self) -> None:
        """Stop accepting, close every live connection, drain the pool."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._executor.shutdown(wait=True)

    # Sync facade: run the whole server on a private daemon thread so
    # threaded tests, benchmarks, and the chaos soak can stand one up
    # without owning an event loop themselves.

    def start_background(self) -> Tuple[str, int]:
        """Start the server on its own event-loop thread; returns the
        bound ``(host, port)``."""
        if self._thread is not None:
            raise RuntimeError("server already running in background")
        self._thread_ready.clear()
        self._thread_error = None

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._thread_loop = loop
            try:
                loop.run_until_complete(self.start())
            except BaseException as error:  # noqa: BLE001 - reported to caller
                self._thread_error = error
                self._thread_ready.set()
                loop.close()
                return
            self._thread_ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(
            target=run, name="cube-server-loop", daemon=True
        )
        self._thread.start()
        self._thread_ready.wait(timeout=10.0)
        if self._thread_error is not None:
            error = self._thread_error
            self._thread.join(timeout=5.0)
            self._thread = None
            self._thread_loop = None
            raise error
        return (self._host, self._port)

    def stop_background(self) -> None:
        """Stop a :meth:`start_background` server and join its thread."""
        loop, thread = self._thread_loop, self._thread
        if loop is None or thread is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.stop(), loop)
        try:
            future.result(timeout=10.0)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10.0)
            self._thread = None
            self._thread_loop = None

    def __enter__(self) -> "CubeServer":
        self.start_background()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop_background()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        self.metrics.inc(connections_opened=1)
        try:
            await self._serve_connection(reader, writer)
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            self._connections.discard(task)
            self.metrics.inc(connections_closed=1)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_connection(self, reader, writer) -> None:
        while not self._closing:
            try:
                request = await read_frame(
                    reader,
                    max_frame_bytes=self.max_frame_bytes,
                    on_bytes=lambda n: self.metrics.record_bytes(inbound=n),
                )
            except ProtocolError as error:
                # framing is unrecoverable (an oversized prefix leaves
                # the body unread): answer once, then hang up
                payload = error_payload(error)
                await self._send(
                    writer, {"id": None, "ok": False, "error": payload}
                )
                self.metrics.inc_key("errors_by_code", payload["code"])
                return
            if request is None:
                return  # clean EOF
            await self._handle_request(writer, request)

    async def _send(self, writer, payload: Dict[str, Any]) -> None:
        frame = encode_frame(payload, max_frame_bytes=self.max_frame_bytes)
        self.metrics.record_bytes(outbound=len(frame))
        writer.write(frame)
        await writer.drain()

    async def _handle_request(self, writer, request: Dict[str, Any]) -> None:
        start = time.perf_counter()
        request_id = request.get("id")
        op = request.get("op")
        try:
            if not isinstance(op, str) or not op:
                raise ProtocolError("request must name a string 'op'")
            params = request.get("params", {})
            if not isinstance(params, dict):
                raise ProtocolError("'params' must be a JSON object")
            tenant = self._admit(request)
            deadline = self._deadline_of(request)
            handler = self._HANDLERS.get(op)
            if handler is None:
                raise ProtocolError(
                    f"unknown op {op!r} "
                    f"(have {', '.join(sorted(self._HANDLERS))})"
                )
            self._enter_inflight()
            try:
                await handler(self, writer, request_id, params, deadline,
                              tenant)
            finally:
                self._exit_inflight()
        except Exception as error:  # noqa: BLE001 - mapped to wire error
            payload = error_payload(error)
            self.metrics.inc_key("errors_by_code", payload["code"])
            try:
                await self._send(
                    writer,
                    {"id": request_id, "ok": False, "error": payload},
                )
            except (ConnectionError, OSError):
                pass
        finally:
            self.metrics.record_request(
                op if isinstance(op, str) else "?",
                time.perf_counter() - start,
            )

    # -- admission, auth, deadline -------------------------------------------

    def _admit(self, request: Dict[str, Any]) -> Optional[Tenant]:
        """Auth + quota + admission control, cheapest-first; raises the
        appropriate typed error on refusal."""
        if self._inflight >= self.max_inflight:
            error = ServiceOverloadedError(
                f"server at max_inflight={self.max_inflight}; "
                f"retry after {self.overload_retry_s:.3f}s"
            )
            error.retry_after_s = self.overload_retry_s
            raise error
        tenant = None
        if self.authenticator is not None:
            tenant = self.authenticator.authenticate(request.get("token"))
            self.authenticator.admit(tenant)
        return tenant

    def _enter_inflight(self) -> None:
        self._inflight += 1
        self.metrics.inflight_enter()

    def _exit_inflight(self) -> None:
        self._inflight -= 1
        self.metrics.inflight_exit()

    @staticmethod
    def _deadline_of(request: Dict[str, Any]) -> Optional[Deadline]:
        budget_ms = request.get("deadline_ms")
        if budget_ms is None:
            return None
        budget_ms = float(budget_ms)
        if budget_ms < 0.0:
            raise ProtocolError(
                f"deadline_ms must be >= 0, got {budget_ms}"
            )
        deadline = Deadline.after(budget_ms / 1000.0)
        deadline.check("request")
        return deadline

    async def _call_backend(self, fn, *args, **kwargs):
        loop = asyncio.get_running_loop()
        if kwargs:
            call = lambda: fn(*args, **kwargs)  # noqa: E731
        else:
            call = lambda: fn(*args)  # noqa: E731
        return await loop.run_in_executor(self._executor, call)

    # -- op handlers ---------------------------------------------------------

    async def _op_ping(self, writer, request_id, params, deadline, tenant):
        await self._send(writer, {
            "id": request_id, "ok": True,
            "result": {
                "protocol": PROTOCOL_VERSION,
                "shape": list(self.backend.shape),
                "version": _stamp_json(self.backend.current_stamp()),
                "tenant": tenant.name if tenant is not None else None,
            },
        })

    async def _op_version(self, writer, request_id, params, deadline, tenant):
        stamp = await self._call_backend(self.backend.current_stamp)
        await self._send(writer, {
            "id": request_id, "ok": True,
            "result": {"version": _stamp_json(stamp)},
        })

    async def _op_stats(self, writer, request_id, params, deadline, tenant):
        stats = await self._call_backend(self.backend.stats)
        await self._send(writer, {
            "id": request_id, "ok": True,
            "result": {"backend": stats, "net": self.metrics.snapshot()},
        })

    async def _op_range_sum_many(
        self, writer, request_id, params, deadline, tenant
    ):
        lows = _require(params, "lows")
        highs = _require(params, "highs")
        allow_estimate = bool(params.get("allow_estimate", False))
        if deadline is not None:
            deadline.check("range_sum_many")
        estimated_query = (
            getattr(self.backend, "query_many_estimated", None)
            if allow_estimate
            else None
        )
        estimates = None
        if estimated_query is not None:
            values, estimates, stamp = await self._call_backend(
                estimated_query, lows, highs, deadline
            )
            if not any(e is not None for e in estimates):
                estimates = None
        else:
            # allow_estimate against a single-service backend degrades
            # to the exact path: there is nothing to estimate from
            values, stamp = await self._call_backend(
                self.backend.query_many, lows, highs, deadline
            )
        result: Dict[str, Any] = {
            "values": np.asarray(values).tolist(),
            "version": _stamp_json(stamp),
            "epoch": _epoch_of(stamp),
        }
        if allow_estimate:
            result["degraded"] = estimates is not None
            result["estimates"] = (
                [
                    None if e is None else e.to_wire()
                    for e in estimates
                ]
                if estimates is not None
                else [None] * len(np.asarray(values))
            )
        await self._send(writer, {
            "id": request_id, "ok": True, "result": result,
        })

    async def _op_range_sum(
        self, writer, request_id, params, deadline, tenant
    ):
        low = _require(params, "low")
        high = _require(params, "high")
        values, stamp = await self._call_backend(
            self.backend.query_many, [low], [high], deadline
        )
        await self._send(writer, {
            "id": request_id, "ok": True,
            "result": {
                # the Python scalar of the cube's dtype: JSON carries
                # an int64 sum as an exact int, as range_sum_many does
                "value": np.asarray(values)[0].item(),
                "version": _stamp_json(stamp),
                "epoch": _epoch_of(stamp),
            },
        })

    async def _op_range_sum_stream(
        self, writer, request_id, params, deadline, tenant
    ):
        """Chunked batched reads: each chunk is answered from one
        backend snapshot and carries its own version stamp, so a huge
        page never materializes one giant response frame."""
        lows = _require(params, "lows")
        highs = _require(params, "highs")
        if not isinstance(lows, list) or not isinstance(highs, list):
            raise ProtocolError("lows/highs must be lists of coordinates")
        if len(lows) != len(highs):
            raise ProtocolError(
                f"lows/highs length mismatch ({len(lows)} vs {len(highs)})"
            )
        chunk = int(params.get("chunk", self.stream_chunk))
        if chunk <= 0:
            raise ProtocolError(f"chunk must be > 0, got {chunk}")
        total = len(lows)
        sent = 0
        for offset in range(0, max(total, 1), chunk):
            if deadline is not None:
                deadline.check("range_sum_stream")
            piece_lows = lows[offset:offset + chunk]
            piece_highs = highs[offset:offset + chunk]
            if piece_lows:
                values, stamp = await self._call_backend(
                    self.backend.query_many, piece_lows, piece_highs,
                    deadline,
                )
                values = np.asarray(values).tolist()
            else:
                values, stamp = [], self.backend.current_stamp()
            sent += len(values)
            final = sent >= total
            self.metrics.inc(stream_chunks=1)
            await self._send(writer, {
                "id": request_id, "ok": True, "stream": True,
                "chunk": offset // chunk, "final": final,
                "result": {
                    "offset": offset,
                    "values": values,
                    "version": _stamp_json(stamp),
                    "epoch": _epoch_of(stamp),
                },
            })
            if final:
                break

    async def _op_submit_batch(
        self, writer, request_id, params, deadline, tenant
    ):
        updates = _parse_updates(_require(params, "updates"))
        timeout = params.get("timeout")
        timeout = None if timeout is None else float(timeout)
        seq = await self._call_backend(
            lambda: self.backend.submit_batch(
                updates, timeout=timeout, deadline=deadline
            )
        )
        await self._send(writer, {
            "id": request_id, "ok": True, "result": {"seq": _ack_json(seq)},
        })

    async def _op_flush(self, writer, request_id, params, deadline, tenant):
        timeout = params.get("timeout")
        timeout = None if timeout is None else float(timeout)
        if deadline is not None:
            timeout = deadline.bound(timeout)
        version = await self._call_backend(
            lambda: self.backend.flush(timeout=timeout)
        )
        await self._send(writer, {
            "id": request_id, "ok": True,
            "result": {"version": _stamp_json(version)},
        })

    _HANDLERS = {
        "ping": _op_ping,
        "version": _op_version,
        "stats": _op_stats,
        "range_sum_many": _op_range_sum_many,
        "range_sum": _op_range_sum,
        "range_sum_stream": _op_range_sum_stream,
        "submit_batch": _op_submit_batch,
        "flush": _op_flush,
    }

    def __repr__(self) -> str:
        state = "listening" if self._server is not None else "stopped"
        return f"CubeServer({self._host}:{self._port}, {state})"
