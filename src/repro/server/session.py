"""One connected client: framing loop, batched writes, backpressure policy.

A :class:`Session` owns exactly one TCP connection.  Requests are read
and handled *sequentially* (a client that wants parallelism opens more
connections), so a session never interleaves two of its own requests;
different sessions interleave only at ``await`` points, and all
database work is synchronous — the event loop serializes every commit.

All outbound frames — responses and changefeed events alike — are
appended, already encoded, to one pending list per session, and one
flush per loop iteration hands the joined bytes to the transport: the
frames a commit produces for a connection leave in a single write.
That list is the server's backpressure boundary: when a client stops
reading, the kernel socket buffer fills, the transport's own buffer
passes its high-water mark, flushing stops until it drains, the pending
list grows, and the frame that would take it past ``outbox_frames``
triggers the slow-consumer policy — the session is *disconnected*,
never awaited, so one stalled subscriber cannot wedge the commit path
fanning out to everyone else.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Any

from repro.server import protocol
from repro.server.protocol import ProtocolError


class Session:
    """State and I/O loops for one connection (server side)."""

    def __init__(self, server, reader, writer, session_id: int) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        self.session_id = session_id
        self._loop = asyncio.get_running_loop()
        #: Encoded frames not yet handed to the transport; at most
        #: ``outbox_frames`` of them (the slow-consumer bound).
        self._pending: list[bytes] = []
        self._flush_scheduled = False
        #: Transport writes made so far: one per flush, whatever it held.
        self.writes = 0
        #: Exists only while the transport is above its high-water mark.
        self._drain_waiter: asyncio.Task | None = None
        self._high_water = writer.transport.get_write_buffer_limits()[1]
        #: subscription id → view name (ids are per-session).
        self.subscriptions: dict[int, str] = {}
        self._next_subscription_id = 1
        #: Event frames staged by a ``subscribe`` handler, sent right
        #: after its response so the response frame always precedes them.
        self.pending_events: list[bytes] = []
        self.closing = False
        self.close_reason: str | None = None
        self._aborted = False
        self._idle = asyncio.Event()
        self._idle.set()
        self.task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Read → handle → respond until EOF, error, or shutdown."""
        try:
            await self._read_loop()
        except asyncio.CancelledError:
            pass
        except ProtocolError as exc:
            # Framing violations are fatal: report once, then hang up
            # (the stream can no longer be trusted to re-synchronize).
            self.send_frame(
                protocol.encode_frame(protocol.response_error(None, exc.code, str(exc)))
            )
            self.close_reason = self.close_reason or exc.code
        except (ConnectionError, OSError):
            self.close_reason = self.close_reason or "io_error"
        finally:
            await self._shutdown()

    async def _read_loop(self) -> None:
        config = self.server.config
        while not self.closing:
            doc = await protocol.read_frame_async(self.reader, config.max_frame_bytes)
            if doc is None or self.closing:
                break
            self._idle.clear()
            try:
                await self._handle(doc)
            finally:
                self._idle.set()

    async def _handle(self, doc: dict[str, Any]) -> None:
        config = self.server.config
        try:
            async with asyncio.timeout(config.request_timeout):
                response = await self.server.dispatch(self, doc)
        except TimeoutError:
            self.pending_events.clear()
            response = protocol.response_error(
                doc.get("id"),
                protocol.E_TIMEOUT,
                f"request exceeded the {config.request_timeout}s limit",
            )
        self.send_frame(protocol.encode_frame(response))
        # Subscription catch-up: staged after the response so a resumed
        # subscriber always sees its confirmation before any event.
        events, self.pending_events = self.pending_events, []
        for event in events:
            if not self.send_frame(event):
                break

    # ------------------------------------------------------------------
    # Outbound frames and the slow-consumer policy
    # ------------------------------------------------------------------
    def send_frame(self, frame: bytes) -> bool:
        """Queue one encoded frame; False when the session is done for.

        Never blocks and never writes: the frame joins the pending list
        and everything queued during this loop iteration reaches the
        transport in one write.  A full list means the peer has stopped
        reading faster than the server produces: the session is aborted
        on the spot (slow-consumer policy) rather than awaited.
        """
        if self.closing:
            return False
        if len(self._pending) >= self.server.config.outbox_frames:
            self.server.recorder.incr("server_slow_consumer_disconnects")
            self.abort("slow_consumer")
            return False
        self._pending.append(frame)
        if not self._flush_scheduled and self._drain_waiter is None:
            self._flush_scheduled = True
            self._loop.call_soon(self._flush)
        return True

    def _flush(self) -> None:
        """Hand every pending frame to the transport in one write."""
        self._flush_scheduled = False
        if not self._pending or self._drain_waiter is not None:
            return
        data = b"".join(self._pending)
        self._pending.clear()
        # Counted first: whoever has read the bytes reads settled counts.
        self.writes += 1
        self.server.recorder.incr("server_bytes_written", len(data))
        self.writer.write(data)
        if self.writer.transport.get_write_buffer_size() > self._high_water:
            self._drain_waiter = self._loop.create_task(self._flush_when_drained())

    async def _flush_when_drained(self) -> None:
        try:
            await self.writer.drain()
        except (ConnectionError, OSError):
            self.closing = True
            self.close_reason = self.close_reason or "io_error"
            return
        finally:
            self._drain_waiter = None
        self._flush()

    def abort(self, reason: str) -> None:
        """Drop the connection immediately, pending frames included."""
        if self.closing:
            return
        self.closing = True
        self._aborted = True
        self.close_reason = reason
        self._pending.clear()
        if self._drain_waiter is not None:
            self._drain_waiter.cancel()
        transport = self.writer.transport
        if transport is not None:
            transport.abort()
        # Wake the read loop if it is parked in read_frame_async.
        if self.task is not None:
            self.task.cancel()

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def new_subscription(self, view_name: str) -> int:
        """Register a changefeed subscription; returns its id."""
        subscription_id = self._next_subscription_id
        self._next_subscription_id += 1
        self.subscriptions[subscription_id] = view_name
        return subscription_id

    def drop_subscription(self, subscription_id: int) -> str | None:
        """Forget one subscription; returns its view name (None if absent)."""
        return self.subscriptions.pop(subscription_id, None)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    async def drain_close(self, timeout: float) -> None:
        """Graceful-shutdown path: finish in-flight work, then close.

        Waits (bounded) for the request being handled to complete —
        this is what "drains in-flight transactions" means: a commit
        that has started gets to finish and its response gets queued —
        then stops the read loop; :meth:`run`'s cleanup flushes the
        pending frames so queued responses still reach the client.
        """
        self.closing = True
        with contextlib.suppress(TimeoutError):
            async with asyncio.timeout(timeout):
                await self._idle.wait()
        if self.task is not None:
            self.task.cancel()

    async def _shutdown(self) -> None:
        self.closing = True
        if not self._aborted:
            # Frames queued but not yet written — a response from this
            # very loop iteration, or everything behind a transport that
            # is still draining — reach the peer before the close.
            with contextlib.suppress(TimeoutError, asyncio.CancelledError):
                async with asyncio.timeout(self.server.config.drain_timeout):
                    while self._pending or self._drain_waiter is not None:
                        if self._drain_waiter is None:
                            self._flush()
                        else:
                            await self._drain_waiter
        with contextlib.suppress(ConnectionError, OSError, asyncio.CancelledError):
            self.writer.close()
            await self.writer.wait_closed()
        self.server.release_session(self)

    def __repr__(self) -> str:
        return (
            f"<Session {self.session_id} "
            f"{len(self.subscriptions)} subscriptions"
            f"{' closing' if self.closing else ''}>"
        )


class LocalSession:
    """An in-process session over an injectable transport — no sockets.

    Opened with :meth:`ViewServer.open_local_session`, this presents the
    exact session surface :meth:`ViewServer.dispatch` and the changefeed
    fan-out rely on (``subscriptions``, ``pending_events``,
    ``send_frame``…), but every outbound frame — response and event
    alike — leaves through one caller-supplied ``transport(frame) ->
    bool`` callable instead of a TCP writer.  The deterministic
    simulation harness plugs a fault-injecting in-memory channel in
    here; an embedder could just as well plug a queue.

    The backpressure contract carries over unchanged: a transport that
    returns ``False`` means the frame did not fit (the peer has stopped
    draining), and the session is disconnected on the spot — the same
    slow-consumer policy a socket-backed :class:`Session` applies when
    its pending list fills.

    Requests are handled *synchronously*: ``dispatch`` is an ``async
    def`` for the socket path's timeout plumbing, but every handler
    body is synchronous, so :meth:`handle` drives the coroutine to
    completion without an event loop.
    """

    def __init__(self, server, session_id: int, transport) -> None:
        self.server = server
        self.session_id = session_id
        self._transport = transport
        self.subscriptions: dict[int, str] = {}
        self._next_subscription_id = 1
        self.pending_events: list[bytes] = []
        self.closing = False
        self.close_reason: str | None = None
        self.task = None

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def handle(self, doc: dict[str, Any]) -> bool:
        """Dispatch one request document; False once the session is closed.

        The response frame is pushed through the transport, followed by
        any events the handler staged (subscription catch-up), exactly
        in the order the socket path would write them.
        """
        if self.closing:
            return False
        coro = self.server.dispatch(self, doc)
        try:
            coro.send(None)
        except StopIteration as stop:
            response = stop.value
        else:  # pragma: no cover - dispatch handlers are synchronous
            coro.close()
            raise RuntimeError(
                "ViewServer.dispatch suspended; LocalSession requires "
                "synchronous request handlers"
            )
        self.send_frame(protocol.encode_frame(response))
        events, self.pending_events = self.pending_events, []
        for event in events:
            if not self.send_frame(event):
                break
        return not self.closing

    # ------------------------------------------------------------------
    # Outbound frames and the slow-consumer policy
    # ------------------------------------------------------------------
    def send_frame(self, frame: bytes) -> bool:
        """Push one encoded frame through the transport; False when it refuses."""
        if self.closing:
            return False
        if not self._transport(frame):
            self.server.recorder.incr("server_slow_consumer_disconnects")
            self.close("slow_consumer")
            return False
        return True

    # ------------------------------------------------------------------
    # Subscriptions (identical bookkeeping to Session)
    # ------------------------------------------------------------------
    def new_subscription(self, view_name: str) -> int:
        """Register a changefeed subscription; returns its id."""
        subscription_id = self._next_subscription_id
        self._next_subscription_id += 1
        self.subscriptions[subscription_id] = view_name
        return subscription_id

    def drop_subscription(self, subscription_id: int) -> str | None:
        """Forget one subscription; returns its view name (None if absent)."""
        return self.subscriptions.pop(subscription_id, None)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self, reason: str | None = None) -> None:
        """Release the session; safe to call more than once."""
        if self.closing:
            return
        self.closing = True
        self.close_reason = reason
        self.server.release_session(self)

    def __repr__(self) -> str:
        return (
            f"<LocalSession {self.session_id} "
            f"{len(self.subscriptions)} subscriptions"
            f"{' closing' if self.closing else ''}>"
        )
