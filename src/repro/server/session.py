"""One connected client: the request path, batched writes, backpressure.

A :class:`Session` is the ``asyncio.Protocol`` of exactly one TCP
connection; it runs no task of its own.  ``data_received`` appends the
bytes to one buffer and takes every complete frame off its front
(:func:`~repro.server.protocol.split_frames`); each request is handled
right there, in order and to completion — ``ViewServer.dispatch`` is an
``async def`` whose handlers never await, so the session drives its
coroutine in one step.  A session therefore never interleaves two of
its own requests, and all database work runs inside the loop callback
that completed a request's frame: the event loop serializes every
commit.  :meth:`Endpoint.handle` is that request path — dispatch, the
response, then the catch-up events a ``subscribe`` staged — and
:class:`LocalSession`, the in-process session the simulator drives,
runs the same method.

All outbound frames — responses and changefeed events alike — are
appended, already encoded, to one pending list per session, and one
flush per loop iteration (a ``call_soon`` callback) hands the joined
bytes to the transport: the frames a commit produces for a connection
leave in a single write, and a commit's events leave before its
acknowledgement.  That list is the server's backpressure boundary: when
a client stops reading, the kernel socket buffer fills, the transport's
own buffer passes its high-water mark and calls :meth:`pause_writing`,
flushing stops until :meth:`resume_writing`, the pending list grows,
and the frame that would take it past ``outbox_frames`` triggers the
slow-consumer policy — the session is *disconnected*, never awaited, so
one stalled subscriber cannot wedge the commit path fanning out to
everyone else.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.server import protocol
from repro.server.protocol import ProtocolError


class Endpoint:
    """What every session kind shares: the request path and the
    subscription bookkeeping.  Subclasses supply ``send_frame(frame) ->
    bool``, False once the session is closing."""

    def __init__(self, server, session_id: int) -> None:
        self.server = server
        self.session_id = session_id
        #: subscription id → view name (ids are per-session).
        self.subscriptions: dict[int, str] = {}
        self._next_subscription_id = 1
        #: Event frames staged by a ``subscribe`` handler, sent right
        #: after its response so the response frame always precedes them.
        self.pending_events: list[bytes] = []
        self.closing = False
        self.close_reason: str | None = None

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------
    def handle(self, doc: dict[str, Any]) -> bool:
        """Answer one request document; False once the session is closed.

        The response frame is sent first, then any events the handler
        staged (subscription catch-up), so a resumed subscriber always
        sees its confirmation before any event.
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
                "ViewServer.dispatch suspended; sessions require "
                "synchronous request handlers"
            )
        self.send_frame(protocol.encode_frame(response))
        events, self.pending_events = self.pending_events, []
        for event in events:
            if not self.send_frame(event):
                break
        return not self.closing

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

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.session_id} "
            f"{len(self.subscriptions)} subscriptions"
            f"{' closing' if self.closing else ''}>"
        )


class Session(Endpoint, asyncio.Protocol):
    """The server side of one TCP connection."""

    def __init__(self, server, session_id: int) -> None:
        super().__init__(server, session_id)
        self._loop = asyncio.get_running_loop()
        self.transport: asyncio.Transport | None = None
        #: Received bytes not yet split into frames.
        self._buffer = bytearray()
        #: Encoded frames not yet handed to the transport; at most
        #: ``outbox_frames`` of them (the slow-consumer bound).
        self._pending: list[bytes] = []
        self._flush_scheduled = False
        #: Set while the transport is above its high-water mark.
        self._paused = False
        #: Transport writes made so far: one per flush, whatever it held.
        self.writes = 0
        #: Resolved by :meth:`connection_lost`, once the session is released.
        self.closed: asyncio.Future[None] = self._loop.create_future()

    # ------------------------------------------------------------------
    # Inbound: the protocol callbacks
    # ------------------------------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        if self.closing:  # the server began shutting down in between
            transport.close()

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        try:
            for payload in protocol.split_frames(
                self._buffer, self.server.config.max_frame_bytes
            ):
                if not self.handle(protocol.decode_payload(payload)):
                    break
        except ProtocolError as exc:
            self._hang_up(exc)

    def eof_received(self) -> bool:
        try:
            protocol.check_stream_end(self._buffer)
        except ProtocolError as exc:
            self._hang_up(exc)
        else:
            self.close()
        return True

    def connection_lost(self, exc: Exception | None) -> None:
        if exc is not None:
            self.close_reason = self.close_reason or "io_error"
        self.closing = True
        self._pending.clear()
        self.server.release_session(self)
        self.closed.set_result(None)

    def _hang_up(self, exc: ProtocolError) -> None:
        # Framing violations are fatal: report once, then hang up (the
        # stream can no longer be trusted to re-synchronize).
        self.send_frame(
            protocol.encode_frame(protocol.response_error(None, exc.code, str(exc)))
        )
        self.close_reason = self.close_reason or exc.code
        self.close()

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
        if not self._flush_scheduled and not self._paused:
            self._flush_scheduled = True
            self._loop.call_soon(self._flush)
        return True

    def _flush(self) -> None:
        """Hand every pending frame to the transport in one write."""
        self._flush_scheduled = False
        if self._pending and not self._paused:
            self._write_pending()

    def _write_pending(self) -> None:
        data = b"".join(self._pending)
        self._pending.clear()
        # Counted first: whoever has read the bytes reads settled counts.
        self.writes += 1
        self.server.recorder.incr("server_bytes_written", len(data))
        self.transport.write(data)

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        if self._pending and not self._flush_scheduled:
            self._flush_scheduled = True
            self._loop.call_soon(self._flush)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self, reason: str | None = None) -> None:
        """Graceful close: hand every pending frame to the transport,
        which writes them out before it closes the connection.

        :attr:`closed` resolves once it has; safe to call more than once.
        """
        if self.closing:
            return
        self.closing = True
        self.close_reason = self.close_reason or reason
        if self.transport is not None:
            if self._pending:
                self._write_pending()
            self.transport.close()

    def abort(self, reason: str) -> None:
        """Drop the connection immediately, pending frames included."""
        self.closing = True
        self.close_reason = self.close_reason or reason
        self._pending.clear()
        self.transport.abort()


class LocalSession(Endpoint):
    """An in-process session over an injectable transport — no sockets.

    Opened with :meth:`ViewServer.open_local_session`, this runs the
    request path and subscription bookkeeping of :class:`Session`
    (both are :class:`Endpoint` code), but every outbound frame —
    response and event alike — leaves through one caller-supplied
    ``transport(frame) -> bool`` callable instead of a TCP transport.
    The deterministic simulation harness plugs a fault-injecting
    in-memory channel in here; an embedder could just as well plug a
    queue.

    The backpressure contract carries over unchanged: a transport that
    returns ``False`` means the frame did not fit (the peer has stopped
    draining), and the session is disconnected on the spot — the same
    slow-consumer policy a socket-backed :class:`Session` applies when
    its pending list fills.
    """

    def __init__(self, server, session_id: int, transport) -> None:
        super().__init__(server, session_id)
        self._transport = transport

    def send_frame(self, frame: bytes) -> bool:
        """Push one encoded frame through the transport; False when it refuses."""
        if self.closing:
            return False
        if not self._transport(frame):
            self.server.recorder.incr("server_slow_consumer_disconnects")
            self.close("slow_consumer")
            return False
        return True

    def close(self, reason: str | None = None) -> None:
        """Release the session; safe to call more than once."""
        if self.closing:
            return
        self.closing = True
        self.close_reason = reason
        self.server.release_session(self)


class Refusal(asyncio.Protocol):
    """Admission control's answer to a connection: one error frame, then
    the transport closes once it has written it."""

    def __init__(self, error: ProtocolError) -> None:
        self._frame = protocol.encode_frame(
            protocol.response_error(None, error.code, str(error))
        )

    def connection_made(self, transport) -> None:
        transport.write(self._frame)
        transport.close()
