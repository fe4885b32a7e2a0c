"""An asyncio network front-end over :class:`~repro.service.QueryService`.

:class:`ReproServer` listens on one TCP port and speaks two protocols,
sniffed from the first line of each connection:

* **JSONL** (the native protocol, see :mod:`repro.server.protocol`) — a
  long-lived session per connection, pinned at accept time to the graph
  version of that moment.  Every query the connection submits runs at the
  pinned version (``refresh`` re-pins on request), so a client observes a
  consistent database even while writers commit — snapshot isolation
  stretched across the wire.
* **HTTP/1.1** (a convenience face for curl and health checks) — stateless
  one-shot requests: ``GET /health``, ``GET /stats``, ``POST /query``.

Execution paths
---------------

Queries take one of two routes, chosen by the client's ``stream`` flag:

* default — :meth:`QueryService.try_submit` with the connection's pinned
  snapshot: the query gets the service's result cache, budgets and worker
  pool (threads or processes), and the whole result comes
  back as one page.  ``try_submit`` is the admission-control entry point:
  a full submission queue is a typed 429-shaped rejection, never a blocked
  event loop.
* ``stream: true`` — a server-side :class:`~repro.engine.results.ResultCursor`
  paged out in ``fetch_size`` JSONL frames.  Nothing is materialized ahead
  of the client: an unbounded walk over a cyclic graph streams forever and
  costs the server one suspended generator.  TCP back-pressure (an unread
  socket) suspends the producing coroutine at ``drain()``, so a slow client
  throttles its own query rather than ballooning server memory.

The loop itself only parses frames and writes bytes.  A service query
parks no thread while it waits: its ticket's done-callback settles a loop
future through ``call_soon_threadsafe``, and the answer goes out as one
``write`` of its ``page`` and ``done`` frames.  The page's row array is
memoized on the service outcome (:class:`~repro.service.service.WireRows`),
so a result-cache hit re-sends stored bytes instead of re-encoding rows.
The blocking calls that remain (``cursor.fetchmany()``, ``prepare``) run in
the event loop's default executor.

Lifecycle
---------

The server runs its own event loop in a dedicated thread: ``start()``
returns once the socket is bound (``port=0`` picks an ephemeral port,
published as :attr:`ReproServer.port`), ``stop()`` drains in-flight queries
before tearing connections down.  During the drain window new queries are
refused with a typed 503-shaped ``shutdown`` frame.

A client disconnect mid-stream (reset, timeout, crash) surfaces as a write
error on the next page; the connection handler's teardown closes the
server-side cursor, releasing its suspended generator stack.  With
``track_cursors=True`` the server records every cursor it opens so tests
can assert none leak (:meth:`ReproServer.open_cursors`).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import asdict
from typing import Any, Mapping

from repro.errors import (
    BudgetExceeded,
    PathAlgebraError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.server.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    budget_frame_fields,
    decode_frame,
    encode_frame,
    encode_rows,
    error_frame,
    page_frame,
    row_from_path,
)
from repro.service.latency import LatencyHistogram
from repro.service.service import QueryOutcome, QueryTicket

__all__ = ["ReproServer"]

#: Frames larger than this are a protocol violation, not a memory bomb.
_MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Bytes asked of the socket per read event.  asyncio's selector transport
#: allocates a fresh buffer of its ``max_size`` (256 KiB) for every ``recv``,
#: and glibc serves a block that size with an mmap/munmap pair — ~10 µs and
#: two page faults per read — unless the process happens to have freed a
#: larger block before (its mmap threshold is dynamic), so a server's
#: round-trip time depended on what had run in the process earlier.  Requests
#: are short lines; 64 KiB stays under the threshold in every process, and a
#: longer frame simply takes more reads.
_RECV_BYTES = 64 * 1024

_HTTP_METHODS = (b"GET ", b"POST ", b"HEAD ", b"PUT ", b"DELETE ", b"OPTIONS ")

_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


async def _outcome_of(ticket: QueryTicket) -> QueryOutcome:
    """Await a service ticket on the running loop without parking a thread.

    The ticket's callback runs on the service worker that resolves it and
    hands the outcome to the loop.  A future cancelled meanwhile (the
    connection went away) or a closed loop (the server stopped) makes the
    hand-over a no-op, so nothing raises into the worker.
    """
    loop = asyncio.get_running_loop()
    future = loop.create_future()

    def settle(outcome: QueryOutcome) -> None:
        if not future.done():
            future.set_result(outcome)

    def hand_over(outcome: QueryOutcome) -> None:
        try:
            loop.call_soon_threadsafe(settle, outcome)
        except RuntimeError:  # the loop is closed; nobody is waiting
            pass

    ticket.add_done_callback(hand_over)
    return await future


class _Connection:
    """Per-connection state: the pinned session plus prepared statements."""

    __slots__ = ("session", "statements", "peer")

    def __init__(self, session, peer: str) -> None:
        self.session = session
        self.statements: dict[str, tuple[str, int | None]] = {}
        self.peer = peer


class ReproServer:
    """Serve a :class:`~repro.api.Database` over TCP (JSONL + HTTP/1.1).

    Args:
        database: The database to serve; its :meth:`~repro.api.Database.service`
            executes non-streaming queries (created lazily with the
            database's configured workers/execution mode).
        host: Interface to bind; loopback by default.
        port: TCP port; ``0`` picks an ephemeral one (read
            :attr:`port` after :meth:`start`).
        fetch_size: Rows per streaming page frame.
        max_inflight: Server-level admission cap on concurrently executing
            queries (streaming and service-backed alike); ``None`` leaves
            admission to the service's bounded submission queue alone.
        track_cursors: Record every server-side cursor for leak assertions
            in tests (:meth:`open_cursors`).
    """

    def __init__(
        self,
        database,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        fetch_size: int = 64,
        max_inflight: int | None = None,
        track_cursors: bool = False,
    ) -> None:
        if fetch_size < 1:
            raise ValueError(f"fetch_size must be >= 1, got {fetch_size}")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.database = database
        self.host = host
        self.port = port
        self.fetch_size = fetch_size
        self.max_inflight = max_inflight
        self.track_cursors = track_cursors
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._thread: threading.Thread | None = None
        self._stop_event: asyncio.Event | None = None
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._startup_error: BaseException | None = None
        self._connection_tasks: set[asyncio.Task] = set()
        self._draining = False
        self._inflight = 0
        self._idle = None  # asyncio.Event created on the loop; set when inflight == 0
        self._tracked_cursors: list = []
        self._stats_lock = threading.Lock()
        self._connections_total = 0
        self._active_connections = 0
        self._queries = 0
        self._streamed_pages = 0
        self._rows_sent = 0
        self._rejected = 0
        self._errors = 0
        self._wire_latency = LatencyHistogram()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReproServer":
        """Bind the socket and start serving in a background thread.

        Returns once the port is bound (and :attr:`port` is final) or
        raises the bind error.
        """
        if self._thread is not None:
            raise ServiceError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-server", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join()
            self._thread = None
            self._startup_error = None
            raise error
        return self

    def stop(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop serving; with ``drain`` wait for in-flight queries first.

        During the drain window newly submitted queries are refused with a
        typed ``shutdown`` frame; queries already executing (including
        suspended streams) get up to ``timeout`` seconds to finish before
        their connections are torn down.  Idempotent.
        """
        if self._thread is None or self._loop is None:
            return
        loop = self._loop
        if drain:
            self._draining = True
            done = threading.Event()

            def watch_idle() -> None:
                if self._inflight == 0:
                    done.set()
                else:
                    task = loop.create_task(self._wait_idle())
                    task.add_done_callback(lambda _: done.set())

            loop.call_soon_threadsafe(watch_idle)
            done.wait(timeout)
        loop.call_soon_threadsafe(self._request_stop)
        self._stopped.wait(timeout + 5.0)
        self._thread.join(timeout + 5.0)
        self._thread = None

    async def _wait_idle(self) -> None:
        assert self._idle is not None
        await self._idle.wait()

    def _request_stop(self) -> None:
        if self._stop_event is not None and not self._stop_event.is_set():
            self._stop_event.set()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` pair (final after :meth:`start`)."""
        return (self.host, self.port)

    # ------------------------------------------------------------------
    # Event loop thread
    # ------------------------------------------------------------------
    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            try:
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
            finally:
                loop.close()
                self._loop = None
                self._stopped.set()
                # In case startup failed before _started was set.
                self._started.set()

    async def _main(self) -> None:
        self._stop_event = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        try:
            self._server = await asyncio.start_server(
                self._on_connection,
                self.host,
                self.port,
                limit=_MAX_FRAME_BYTES,
            )
        except OSError as error:
            self._startup_error = error
            self._started.set()
            return
        sockets = self._server.sockets or ()
        if sockets:
            self.host, self.port = sockets[0].getsockname()[:2]
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            for task in list(self._connection_tasks):
                task.cancel()
            if self._connection_tasks:
                await asyncio.gather(*self._connection_tasks, return_exceptions=True)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if hasattr(writer.transport, "max_size"):  # the selector transport's recv size
            writer.transport.max_size = _RECV_BYTES
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
            task.add_done_callback(self._connection_tasks.discard)
        with self._stats_lock:
            self._connections_total += 1
            self._active_connections += 1
        try:
            try:
                first = await reader.readline()
            except (ConnectionError, asyncio.IncompleteReadError):
                return
            if not first:
                return
            if first.startswith(_HTTP_METHODS):
                await self._handle_http(first, reader, writer)
            else:
                await self._handle_jsonl(first, reader, writer)
        except (ConnectionError, asyncio.CancelledError, asyncio.IncompleteReadError):
            pass
        finally:
            with self._stats_lock:
                self._active_connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    # ------------------------------------------------------------------
    # JSONL protocol
    # ------------------------------------------------------------------
    async def _handle_jsonl(
        self, first: bytes, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        connection = _Connection(
            self.database.session(), peer=f"{peer[0]}:{peer[1]}" if peer else "?"
        )
        try:
            line = first
            while line:
                if not line.strip():
                    line = await reader.readline()
                    continue
                try:
                    frame = decode_frame(line)
                except ProtocolError as error:
                    await self._send(writer, error_frame(None, "protocol", str(error)))
                    return
                if not await self._dispatch(connection, frame, writer):
                    return
                line = await reader.readline()
        finally:
            connection.session.close()

    async def _dispatch(
        self, connection: _Connection, frame: dict, writer: asyncio.StreamWriter
    ) -> bool:
        """Handle one client frame; returns False to close the connection."""
        op = frame.get("op")
        request_id = frame.get("id")
        try:
            if op == "hello":
                await self._send(
                    writer,
                    {
                        "type": "hello",
                        "id": request_id,
                        "protocol": PROTOCOL_VERSION,
                        "version": connection.session.version,
                    },
                )
            elif op == "query":
                await self._run_query(
                    connection,
                    writer,
                    request_id,
                    text=frame.get("text"),
                    params=frame.get("params"),
                    options=frame,
                )
            elif op == "prepare":
                await self._op_prepare(connection, writer, frame)
            elif op == "execute":
                name = frame.get("name")
                statement = connection.statements.get(name)
                if statement is None:
                    await self._send(
                        writer,
                        error_frame(
                            request_id, "query", f"unknown prepared statement {name!r}"
                        ),
                    )
                    return True
                text, max_length = statement
                options = dict(frame)
                if max_length is not None and "max_length" not in options:
                    options["max_length"] = max_length
                await self._run_query(
                    connection,
                    writer,
                    request_id,
                    text=text,
                    params=frame.get("params"),
                    options=options,
                )
            elif op == "refresh":
                connection.session.close()
                connection.session = self.database.session()
                await self._send(
                    writer,
                    {
                        "type": "refreshed",
                        "id": request_id,
                        "version": connection.session.version,
                    },
                )
            elif op == "stats":
                await self._send(
                    writer,
                    {"type": "stats", "id": request_id, "statistics": self.statistics()},
                )
            elif op == "close":
                await self._send(writer, {"type": "bye", "id": request_id})
                return False
            else:
                await self._send(
                    writer, error_frame(request_id, "protocol", f"unknown op {op!r}")
                )
        except (ConnectionError, asyncio.CancelledError):
            raise
        except ServiceError as error:
            await self._send(writer, error_frame(request_id, "query", str(error)))
        return True

    async def _op_prepare(
        self, connection: _Connection, writer: asyncio.StreamWriter, frame: dict
    ) -> None:
        request_id = frame.get("id")
        name = frame.get("name")
        text = frame.get("text")
        if not isinstance(name, str) or not isinstance(text, str):
            await self._send(
                writer,
                error_frame(request_id, "protocol", "prepare needs 'name' and 'text'"),
            )
            return
        max_length = frame.get("max_length")
        loop = asyncio.get_running_loop()
        try:
            # Validate (and warm the shared plan cache) off the event loop.
            plan = await loop.run_in_executor(
                None,
                lambda: self.database.engine.prepare(
                    text, max_length=max_length, graph=connection.session.snapshot
                ),
            )
        except PathAlgebraError as error:
            await self._send(writer, error_frame(request_id, "query", str(error)))
            return
        connection.statements[name] = (text, max_length)
        await self._send(
            writer,
            {
                "type": "prepared",
                "id": request_id,
                "name": name,
                "parameters": sorted(plan.parameters),
            },
        )

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    async def _run_query(
        self,
        connection: _Connection,
        writer: asyncio.StreamWriter,
        request_id: Any,
        *,
        text: Any,
        params: Any,
        options: Mapping[str, Any],
    ) -> None:
        if not isinstance(text, str):
            await self._send(
                writer, error_frame(request_id, "protocol", "query needs 'text'")
            )
            return
        if params is not None and not isinstance(params, dict):
            await self._send(
                writer, error_frame(request_id, "protocol", "'params' must be an object")
            )
            return
        if self._draining:
            await self._send(
                writer,
                error_frame(request_id, "shutdown", "server is draining; retry elsewhere"),
            )
            return
        if self.max_inflight is not None and self._inflight >= self.max_inflight:
            with self._stats_lock:
                self._rejected += 1
            await self._send(
                writer,
                error_frame(
                    request_id,
                    "overloaded",
                    "server is at capacity; query rejected",
                    pending=self._inflight,
                    capacity=self.max_inflight,
                ),
            )
            return
        started = time.monotonic()
        self._inflight += 1
        assert self._idle is not None
        self._idle.clear()
        try:
            if options.get("stream"):
                await self._run_streaming(connection, writer, request_id, text, params, options)
            else:
                await self._run_service(connection, writer, request_id, text, params, options)
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()
            with self._stats_lock:
                self._queries += 1
                self._wire_latency.observe(time.monotonic() - started)

    async def _run_service(
        self,
        connection: _Connection,
        writer: asyncio.StreamWriter,
        request_id: Any,
        text: str,
        params: dict | None,
        options: Mapping[str, Any],
    ) -> None:
        service = self.database.service()
        try:
            ticket = service.try_submit(
                text,
                max_length=options.get("max_length"),
                executor=options.get("executor"),
                limit=options.get("limit"),
                deadline=options.get("deadline"),
                max_visited=options.get("max_visited"),
                params=params,
                snapshot=connection.session.snapshot,
            )
        except ServiceOverloadedError as error:
            with self._stats_lock:
                self._rejected += 1
            await self._send(
                writer,
                error_frame(
                    request_id,
                    "overloaded",
                    str(error),
                    pending=error.pending,
                    capacity=error.capacity,
                ),
            )
            return
        outcome = await _outcome_of(ticket)
        if outcome.timed_out:
            with self._stats_lock:
                self._errors += 1
            await self._send(
                writer,
                error_frame(
                    request_id,
                    "budget",
                    outcome.error or f"query budget exhausted ({outcome.budget_reason})",
                    **budget_frame_fields(
                        outcome.budget_reason or "deadline",
                        outcome.paths_visited,
                        outcome.depth_reached,
                        outcome.stopped_at,
                    ),
                ),
            )
            return
        if outcome.error is not None:
            with self._stats_lock:
                self._errors += 1
            await self._send(writer, error_frame(request_id, "query", outcome.error))
            return
        memo = outcome.wire_rows
        if memo.data is None:
            memo.data = encode_rows(outcome.paths.sorted())
        count = len(outcome.paths)
        with self._stats_lock:
            self._rows_sent += count
        done = {
            "type": "done",
            "id": request_id,
            "count": count,
            "version": outcome.version,
            "executor": outcome.executor,
            "elapsed_seconds": outcome.elapsed_seconds,
            "queued_seconds": outcome.queued_seconds,
            "plan_cache_hit": outcome.plan_cache_hit,
            "result_cache_hit": outcome.result_cache_hit,
        }
        writer.write(page_frame(request_id, memo.data) + encode_frame(done))
        await writer.drain()

    async def _run_streaming(
        self,
        connection: _Connection,
        writer: asyncio.StreamWriter,
        request_id: Any,
        text: str,
        params: dict | None,
        options: Mapping[str, Any],
    ) -> None:
        loop = asyncio.get_running_loop()
        fetch_size = int(options.get("fetch_size") or self.fetch_size)
        kwargs: dict[str, Any] = {}
        for knob in ("executor", "limit", "max_length", "max_visited", "max_results"):
            if options.get(knob) is not None:
                kwargs[knob] = options[knob]
        if options.get("deadline") is not None:
            kwargs["timeout"] = options["deadline"]
        try:
            cursor = connection.session.execute(text, params, **kwargs)
        except PathAlgebraError as error:
            with self._stats_lock:
                self._errors += 1
            await self._send(writer, error_frame(request_id, "query", str(error)))
            return
        if self.track_cursors:
            self._tracked_cursors.append(cursor)
        count = 0
        try:
            while True:
                try:
                    paths = await loop.run_in_executor(None, cursor.fetchmany, fetch_size)
                except BudgetExceeded as error:
                    with self._stats_lock:
                        self._errors += 1
                    await self._send(
                        writer,
                        error_frame(
                            request_id,
                            "budget",
                            str(error),
                            **budget_frame_fields(
                                error.reason,
                                error.paths_visited,
                                error.depth_reached,
                                error.stopped_at,
                            ),
                        ),
                    )
                    return
                except PathAlgebraError as error:
                    with self._stats_lock:
                        self._errors += 1
                    await self._send(writer, error_frame(request_id, "query", str(error)))
                    return
                if not paths:
                    break
                count += len(paths)
                with self._stats_lock:
                    self._streamed_pages += 1
                    self._rows_sent += len(paths)
                # drain() is where TCP back-pressure suspends this stream —
                # and where a client disconnect surfaces as ConnectionError.
                writer.write(page_frame(request_id, encode_rows(paths)))
                await writer.drain()
            await self._send(
                writer,
                {
                    "type": "done",
                    "id": request_id,
                    "count": count,
                    "version": connection.session.version,
                    "streamed": True,
                },
            )
        finally:
            # Runs on every exit — clean end, client disconnect, drain
            # cancellation — so the suspended generator stack is always
            # released.  Safe against an executor thread still inside
            # fetchmany: ResultCursor.close() is thread-safe and idempotent.
            cursor.close()

    # ------------------------------------------------------------------
    # HTTP/1.1 face
    # ------------------------------------------------------------------
    async def _handle_http(
        self, first: bytes, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            method, target, _ = first.decode("latin-1").split(" ", 2)
        except ValueError:
            await self._send_http(writer, 400, {"error": "malformed request line"})
            return
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", 0) or 0)
        if length:
            if length > _MAX_FRAME_BYTES:
                await self._send_http(writer, 413, {"error": "request body too large"})
                return
            body = await reader.readexactly(length)

        if method == "GET" and target == "/health":
            await self._send_http(
                writer,
                200,
                {"status": "ok", "version": self.database.graph.version},
            )
        elif method == "GET" and target == "/stats":
            await self._send_http(writer, 200, self.statistics())
        elif method == "POST" and target == "/query":
            await self._http_query(writer, body)
        elif target in ("/health", "/stats", "/query"):
            await self._send_http(
                writer, 405, {"error": f"method {method} not allowed on {target}"}
            )
        else:
            await self._send_http(writer, 404, {"error": f"no such endpoint {target}"})

    async def _http_query(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        try:
            request = decode_frame(body or b"{}")
        except ProtocolError as error:
            await self._send_http(writer, 400, {"error": str(error)})
            return
        if self._draining:
            await self._send_http(writer, 503, {"error": "server is draining"})
            return
        if self.max_inflight is not None and self._inflight >= self.max_inflight:
            with self._stats_lock:
                self._rejected += 1
            await self._send_http(
                writer,
                429,
                {
                    "error": "server is at capacity; query rejected",
                    "pending": self._inflight,
                    "capacity": self.max_inflight,
                },
            )
            return
        text = request.get("text")
        if not isinstance(text, str):
            await self._send_http(writer, 400, {"error": "body needs 'text'"})
            return
        started = time.monotonic()
        self._inflight += 1
        assert self._idle is not None
        self._idle.clear()
        try:
            service = self.database.service()
            try:
                ticket = service.try_submit(
                    text,
                    max_length=request.get("max_length"),
                    executor=request.get("executor"),
                    limit=request.get("limit"),
                    deadline=request.get("deadline"),
                    max_visited=request.get("max_visited"),
                    params=request.get("params"),
                )
            except ServiceOverloadedError as error:
                with self._stats_lock:
                    self._rejected += 1
                await self._send_http(
                    writer,
                    429,
                    {"error": str(error), "pending": error.pending, "capacity": error.capacity},
                )
                return
            outcome = await _outcome_of(ticket)
            if outcome.timed_out:
                with self._stats_lock:
                    self._errors += 1
                await self._send_http(
                    writer,
                    408,
                    {
                        "error": outcome.error
                        or f"query budget exhausted ({outcome.budget_reason})",
                        **budget_frame_fields(
                            outcome.budget_reason or "deadline",
                            outcome.paths_visited,
                            outcome.depth_reached,
                            outcome.stopped_at,
                        ),
                    },
                )
                return
            if outcome.error is not None:
                with self._stats_lock:
                    self._errors += 1
                await self._send_http(writer, 400, {"error": outcome.error})
                return
            rows = [row_from_path(path) for path in outcome.paths.sorted()]
            with self._stats_lock:
                self._rows_sent += len(rows)
            await self._send_http(
                writer,
                200,
                {
                    "rows": rows,
                    "count": len(rows),
                    "version": outcome.version,
                    "executor": outcome.executor,
                    "elapsed_seconds": outcome.elapsed_seconds,
                },
            )
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()
            with self._stats_lock:
                self._queries += 1
                self._wire_latency.observe(time.monotonic() - started)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    @staticmethod
    async def _send(writer: asyncio.StreamWriter, frame: Mapping[str, Any]) -> None:
        writer.write(encode_frame(frame))
        await writer.drain()

    @staticmethod
    async def _send_http(
        writer: asyncio.StreamWriter, status: int, payload: Mapping[str, Any]
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = _HTTP_REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def statistics(self) -> dict:
        """Point-in-time server counters, wire latency, and service stats."""
        with self._stats_lock:
            stats = {
                "host": self.host,
                "port": self.port,
                "connections_total": self._connections_total,
                "active_connections": self._active_connections,
                "inflight": self._inflight,
                "queries": self._queries,
                "streamed_pages": self._streamed_pages,
                "rows_sent": self._rows_sent,
                "rejected": self._rejected,
                "errors": self._errors,
                "draining": self._draining,
                "latency": {"wire_seconds": self._wire_latency.summary()},
            }
        if self.database._service is not None:
            stats["service"] = asdict(self.database.service().statistics())
        return stats

    def open_cursors(self) -> list:
        """Tracked server-side cursors still open (``track_cursors=True`` only).

        The leak oracle for the disconnect tests: after a client drops
        mid-stream and the connection handler unwinds, this list must drain
        to empty — a non-empty result is a leaked suspended generator.
        """
        self._tracked_cursors = [c for c in self._tracked_cursors if not c.closed]
        return list(self._tracked_cursors)
