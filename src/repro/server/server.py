"""The asyncio view-server: reads, writes and live changefeeds over TCP.

:class:`ViewServer` puts a network front-end on one database + maintainer
pair, turning the paper's economics into a service: writes pay the
maintenance cost once, inside the commit, and every ``query`` after that
is answered from stored view contents alone — the server never
re-evaluates a view to serve a read.

Request handling is single-writer by construction: all database work is
synchronous and runs on the event loop, so commits from different
sessions serialize exactly as in-process callers' do, and the
maintainer's commit hooks fire inside the committing request.  Those
hooks are also the changefeed: the server subscribes to every view and
fans each applied view delta out to the sessions subscribed to it —
dumped to JSON once, whatever the number of subscribers, and queued on
bounded per-session pending lists, so one stalled reader is
disconnected (the slow-consumer policy) rather than allowed to wedge
the commit path.

The wire protocol lives in :mod:`repro.server.protocol`; the per
-connection loops in :mod:`repro.server.session`; the blocking client in
:mod:`repro.server.client`; ``docs/server.md`` is the normative
protocol description.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.algebra.conditions import Condition
from repro.algebra.relation import Relation
from repro.core.maintainer import ViewMaintainer
from repro.engine.database import Database
from repro.engine.persistence import delta_to_document
from repro.errors import (
    ConditionError,
    ReproError,
    UnknownRelationError,
    UnknownViewError,
)
from repro.instrumentation import CostRecorder, recording
from repro.scheduler import RefreshScheduler, StalenessSLA, TickClock
from repro.server import protocol
from repro.server.protocol import ProtocolError
from repro.server.session import LocalSession, Session

if TYPE_CHECKING:  # pragma: no cover
    from repro.replication.durability import DurabilityManager


class ServerConfig:
    """Tunables for one :class:`ViewServer` (all have serving defaults).

    ``port=0`` binds an ephemeral port (the bound one is published on
    :attr:`ViewServer.port` after start — the test-friendly default).
    ``outbox_frames`` bounds the frames a session holds that its
    transport has not taken yet; a frame that does not fit disconnects
    the session (see ``docs/server.md`` for the full backpressure
    policy).  ``changefeed_history`` is how many past view deltas are
    retained per view for resumable subscriptions.
    """

    __slots__ = (
        "host",
        "port",
        "max_sessions",
        "max_frame_bytes",
        "outbox_frames",
        "request_timeout",
        "drain_timeout",
        "changefeed_history",
        "staleness_slas",
        "scheduler_batch_limit",
    )

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_sessions: int = 64,
        max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
        outbox_frames: int = 256,
        request_timeout: float = 30.0,
        drain_timeout: float = 5.0,
        changefeed_history: int = 1024,
        staleness_slas: "Mapping[str, StalenessSLA] | None" = None,
        scheduler_batch_limit: int = 4,
    ) -> None:
        self.host = host
        self.port = port
        self.max_sessions = max_sessions
        self.max_frame_bytes = max_frame_bytes
        self.outbox_frames = outbox_frames
        self.request_timeout = request_timeout
        self.drain_timeout = drain_timeout
        self.changefeed_history = changefeed_history
        #: view name → :class:`~repro.scheduler.sla.StalenessSLA` for
        #: deferred views the server should refresh on its own; the
        #: server's virtual clock advances once per committed txn.
        self.staleness_slas = dict(staleness_slas or {})
        self.scheduler_batch_limit = scheduler_batch_limit

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"<ServerConfig {inner}>"


class Changefeed:
    """One view's retained delta history (the resumable-offset window).

    Fed by the maintainer's subscriber hook (or, in a cluster, by the
    coordinator's merge), consumed by ``subscribe`` requests carrying a
    ``from`` position.  :meth:`append` is where a view delta is
    serialised — once, into the event head
    (:func:`~repro.server.protocol.event_head`) the ring retains and
    every listener (a server's fan-out) receives.  :attr:`floor` is the
    highest sequence *not* retained: a subscriber may resume from any
    position ``>= floor`` and miss nothing; anything older is out of
    range.
    """

    __slots__ = ("view_name", "tail", "events", "floor", "listeners")

    def __init__(self, view_name: str, base_sequence: int, capacity: int) -> None:
        self.view_name = view_name
        #: The bytes closing every event frame of this view.
        self.tail = protocol.event_tail(view_name)
        #: Retained ``(sequence, event_head)`` pairs, oldest first.
        self.events: deque[tuple[int, bytes]] = deque(maxlen=capacity)
        #: Highest sequence that is no longer replayable.
        self.floor = base_sequence
        #: Called with ``(feed, event_head)`` on every append.
        self.listeners: list[Callable[[Changefeed, bytes], None]] = []

    def append(self, sequence: int, delta_doc: dict[str, Any]) -> None:
        """Encode and retain one applied view delta, evicting the oldest
        if full, and hand the encoded event to the listeners."""
        head = protocol.event_head(sequence, delta_doc)
        if self.events.maxlen is not None and len(self.events) == self.events.maxlen:
            self.floor = self.events[0][0]
        self.events.append((sequence, head))
        for listener in self.listeners:
            listener(self, head)

    def since(self, after: int) -> list[tuple[int, bytes]]:
        """Retained ``(sequence, event_head)`` pairs with ``sequence > after``.

        Raises :class:`~repro.server.protocol.ProtocolError`
        (``offset_out_of_range``) when ``after`` precedes the window.
        """
        if after < self.floor:
            raise ProtocolError(
                protocol.E_OFFSET_OUT_OF_RANGE,
                f"view {self.view_name!r} retains deltas after sequence "
                f"{self.floor}; cannot resume from {after}",
            )
        return [(seq, head) for seq, head in self.events if seq > after]


class ViewServer:
    """Serves one database + maintainer over the wire protocol.

    Parameters
    ----------
    database, maintainer:
        The served pair.  Define relations and views *before* starting
        the server (the wire protocol deliberately has no DDL: view
        definitions are code, exactly as for followers and recovery).
    config:
        A :class:`ServerConfig`; defaults throughout when omitted.
    durability:
        An attached :class:`~repro.replication.durability.DurabilityManager`,
        if the served database is durable — only used to report the WAL
        position in ``stats``; commits reach the WAL through the
        manager's own hook regardless.
    """

    def __init__(
        self,
        database: Database,
        maintainer: ViewMaintainer,
        config: ServerConfig | None = None,
        durability: "DurabilityManager | None" = None,
    ) -> None:
        self.database = database
        self.maintainer = maintainer
        self.config = config if config is not None else ServerConfig()
        self.durability = durability
        #: Always-on counters (``server_*`` plus whatever the engine
        #: charges while handling requests); served by the ``stats`` op.
        self.recorder = CostRecorder()
        self.port: int | None = None
        self._sessions: dict[int, Session | LocalSession] = {}
        self._next_session_id = 1
        self._feeds: dict[str, Changefeed] = {}
        #: view name → ``(session, subscription_id)`` fan-out targets.
        self._subscribers: dict[str, list[tuple[Session | LocalSession, int]]] = {}
        self._asyncio_server: asyncio.AbstractServer | None = None
        self._draining = False
        self._stopped: asyncio.Event | None = None
        #: Virtual time: one tick per committed transaction.  The
        #: scheduler refreshes SLA-bound deferred views inside the
        #: committing request, so subscribers see the resulting view
        #: deltas through the ordinary changefeed fan-out.
        self.clock = TickClock()
        self.scheduler = RefreshScheduler(
            maintainer,
            clock=self.clock,
            batch_limit=self.config.scheduler_batch_limit,
        )
        for name, sla in sorted(self.config.staleness_slas.items()):
            self.scheduler.declare_sla(name, sla)
        for name in maintainer.view_names():
            self._attach_feed(name)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections (returns once bound)."""
        self._stopped = asyncio.Event()
        self._asyncio_server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = self._asyncio_server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Start (if needed) and run until :meth:`shutdown` completes."""
        if self._asyncio_server is None:
            await self.start()
        await self.wait_closed()

    async def wait_closed(self) -> None:
        """Block until a shutdown has fully drained and stopped."""
        assert self._stopped is not None, "server was never started"
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Graceful shutdown: stop accepting, drain in-flight work.

        New connections and new requests are refused with
        ``shutting_down``; requests already being handled get
        ``drain_timeout`` seconds to finish and their responses are
        flushed before the connections close.
        """
        if self._draining:
            await self.wait_closed()
            return
        self._draining = True
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
        sessions = list(self._sessions.values())
        if sessions:
            await asyncio.gather(
                *(s.drain_close(self.config.drain_timeout) for s in sessions),
                return_exceptions=True,
            )
            tasks = [s.task for s in sessions if s.task is not None]
            if tasks:
                done, pending = await asyncio.wait(
                    tasks, timeout=self.config.drain_timeout
                )
                for task in pending:
                    task.cancel()
        if self._stopped is not None:
            self._stopped.set()

    # ------------------------------------------------------------------
    # Connection admission
    # ------------------------------------------------------------------
    async def _on_connection(self, reader, writer) -> None:
        if self._draining:
            await self._reject(
                writer, protocol.E_SHUTTING_DOWN, "server is shutting down"
            )
            return
        if len(self._sessions) >= self.config.max_sessions:
            self.recorder.incr("server_sessions_rejected")
            await self._reject(
                writer,
                protocol.E_TOO_MANY_SESSIONS,
                f"server is at its {self.config.max_sessions}-session limit",
            )
            return
        session_id = self._next_session_id
        self._next_session_id += 1
        session = Session(self, reader, writer, session_id)
        session.task = asyncio.current_task()
        self._sessions[session_id] = session
        self.recorder.incr("server_sessions_opened")
        await session.run()

    async def _reject(self, writer, code: str, message: str) -> None:
        # Suppressed errors mean the peer vanished mid-rejection.
        with contextlib.suppress(ConnectionError, OSError):
            writer.write(protocol.encode_frame(protocol.response_error(None, code, message)))
            await writer.drain()
            writer.close()
            await writer.wait_closed()

    def open_local_session(self, transport) -> LocalSession:
        """Admit one in-process client over an injectable transport.

        Counts against (and is refused by) the same admission limits a
        TCP connection faces: a draining server raises ``shutting_down``
        and a full session table raises ``too_many_sessions`` — both as
        :class:`~repro.server.protocol.ProtocolError`, since there is no
        socket to write a rejection frame to.  ``transport(frame) ->
        bool`` receives every outbound frame; see
        :class:`~repro.server.session.LocalSession` for the contract.
        """
        if self._draining:
            raise ProtocolError(
                protocol.E_SHUTTING_DOWN, "server is shutting down"
            )
        if len(self._sessions) >= self.config.max_sessions:
            self.recorder.incr("server_sessions_rejected")
            raise ProtocolError(
                protocol.E_TOO_MANY_SESSIONS,
                f"server is at its {self.config.max_sessions}-session limit",
            )
        session_id = self._next_session_id
        self._next_session_id += 1
        session = LocalSession(self, session_id, transport)
        self._sessions[session_id] = session
        self.recorder.incr("server_sessions_opened")
        return session

    def release_session(self, session: "Session | LocalSession") -> None:
        """Forget a finished session and all of its subscriptions."""
        self._sessions.pop(session.session_id, None)
        for subscription_id, view_name in session.subscriptions.items():
            self._drop_subscriber(view_name, session, subscription_id)
        self.recorder.incr("server_sessions_closed")

    def _drop_subscriber(
        self, view_name: str, session: "Session | LocalSession", subscription_id: int
    ) -> None:
        targets = self._subscribers.get(view_name)
        if not targets:
            return
        entry = (session, subscription_id)
        if entry in targets:
            targets.remove(entry)

    # ------------------------------------------------------------------
    # The changefeed (maintainer hook → feed ring → session frames)
    # ------------------------------------------------------------------
    def _attach_feed(self, view_name: str) -> Changefeed:
        feed = self._feeds.get(view_name)
        if feed is None:
            view = self.maintainer.view(view_name)
            feed = Changefeed(
                view_name,
                view.last_refresh_sequence,
                self.config.changefeed_history,
            )
            feed.listeners.append(self._fan_out)
            self._feeds[view_name] = feed
            self.maintainer.subscribe(
                view_name,
                lambda v, delta: feed.append(
                    v.last_refresh_sequence, delta_to_document(delta)
                ),
            )
        return feed

    def _fan_out(self, feed: Changefeed, head: bytes) -> None:
        """Queue one already-encoded view delta on every subscribed session."""
        targets = self._subscribers.get(feed.view_name)
        if not targets:
            return
        sent = 0
        for session, subscription_id in list(targets):
            if session.send_frame(
                protocol.encode_event(head, subscription_id, feed.tail)
            ):
                sent += 1
        self.recorder.incr("server_events_sent", sent)

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    _OPS = ("ping", "query", "txn", "subscribe", "unsubscribe", "stats")

    async def dispatch(
        self, session: "Session | LocalSession", doc: Mapping[str, Any]
    ) -> dict[str, Any]:
        """Handle one request document; always returns a response doc."""
        request_id = doc.get("id")
        self.recorder.incr("server_requests")
        if self._draining:
            return protocol.response_error(
                request_id, protocol.E_SHUTTING_DOWN, "server is shutting down"
            )
        op = doc.get("op")
        if not isinstance(op, str) or op not in self._OPS:
            self.recorder.incr("server_requests_failed")
            return protocol.response_error(
                request_id,
                protocol.E_UNKNOWN_OP,
                f"unknown op {op!r}; expected one of {list(self._OPS)}",
            )
        handler = getattr(self, f"_op_{op}")
        try:
            with recording(self.recorder):
                result = handler(session, doc)
        except ProtocolError as exc:
            self.recorder.incr("server_requests_failed")
            return protocol.response_error(request_id, exc.code, str(exc))
        except ReproError as exc:
            self.recorder.incr("server_requests_failed")
            return protocol.response_error(request_id, protocol.E_INTERNAL, str(exc))
        except Exception as exc:  # a handler bug must not kill the session
            self.recorder.incr("server_requests_failed")
            return protocol.response_error(
                request_id, protocol.E_INTERNAL, f"{type(exc).__name__}: {exc}"
            )
        return protocol.response_ok(request_id, result)

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    def _op_ping(self, session: Session, doc: Mapping[str, Any]) -> dict[str, Any]:
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "views": list(self.maintainer.view_names()),
            "relations": list(self.database.relation_names()),
        }

    def _resolve_target(self, name: str) -> tuple[str, Relation, int]:
        """``(kind, contents, sequence)`` for a view or base relation."""
        with contextlib.suppress(UnknownViewError):
            view = self.maintainer.view(name)
            return "view", view.contents, view.last_refresh_sequence
        try:
            relation = self.database.relation(name)
        except UnknownRelationError:
            raise ProtocolError(
                protocol.E_UNKNOWN_TARGET,
                f"{name!r} names neither a view nor a base relation",
            ) from None
        return "relation", relation, self.database.log.last_sequence()

    def _op_query(self, session: Session, doc: Mapping[str, Any]) -> dict[str, Any]:
        target = protocol.request_field(doc, "target", str)
        where = protocol.request_field(doc, "where", str, required=False)
        select = protocol.request_field(doc, "select", list, required=False)
        limit = protocol.request_field(doc, "limit", int, required=False)
        kind, contents, sequence = self._resolve_target(target)
        schema = contents.schema
        names = tuple(schema.names)

        condition = None
        if where is not None:
            try:
                condition = Condition.coerce(where)
            except ConditionError as exc:
                raise ProtocolError(protocol.E_BAD_CONDITION, str(exc)) from exc
            unknown = condition.variables() - set(names)
            if unknown:
                raise ProtocolError(
                    protocol.E_BAD_CONDITION,
                    f"condition references {sorted(unknown)}, not attributes "
                    f"of {target!r} {list(names)}",
                )

        positions: list[int] | None = None
        if select is not None:
            if not select or not all(isinstance(a, str) for a in select):
                raise ProtocolError(
                    protocol.E_BAD_REQUEST,
                    "'select' must be a non-empty list of attribute names",
                )
            try:
                positions = [names.index(a) for a in select]
            except ValueError:
                missing = [a for a in select if a not in names]
                raise ProtocolError(
                    protocol.E_BAD_REQUEST,
                    f"'select' names {missing} not in {target!r} {list(names)}",
                ) from None

        # Iterate in sorted-encoded order — the exact order of
        # persistence.relation_to_document, so an unfiltered view query
        # is byte-for-byte the view's stored contents.
        rows: list[list[Any]] = []
        counts: list[int] = []
        if positions is None:
            for values, count in sorted(contents.items()):
                if condition is not None and not condition.evaluate(
                    dict(zip(names, values))
                ):
                    continue
                rows.append(list(schema.decode_values(values)))
                counts.append(count)
        else:
            # Bag projection: surviving rows merge their multiplicities.
            merged: dict[tuple[Any, ...], int] = {}
            for values, count in contents.items():
                if condition is not None and not condition.evaluate(
                    dict(zip(names, values))
                ):
                    continue
                decoded = schema.decode_values(values)
                key = tuple(decoded[i] for i in positions)
                merged[key] = merged.get(key, 0) + count
            for key in sorted(merged):
                rows.append(list(key))
                counts.append(merged[key])
        truncated = False
        if limit is not None and limit >= 0 and len(rows) > limit:
            rows, counts = rows[:limit], counts[:limit]
            truncated = True
        self.recorder.incr("server_rows_returned", len(rows))
        result = {
            "target": target,
            "kind": kind,
            "attributes": list(select) if select is not None else list(names),
            "rows": rows,
            "counts": counts,
            "seq": sequence,
        }
        if truncated:
            result["truncated"] = True
        return result

    def _op_txn(self, session: Session, doc: Mapping[str, Any]) -> dict[str, Any]:
        inserts = protocol.request_field(doc, "insert", dict, required=False) or {}
        deletes = protocol.request_field(doc, "delete", dict, required=False) or {}
        if not inserts and not deletes:
            raise ProtocolError(
                protocol.E_BAD_REQUEST, "'txn' needs 'insert' and/or 'delete' batches"
            )
        for label, batch in (("insert", inserts), ("delete", deletes)):
            for name, batch_rows in batch.items():
                if not isinstance(batch_rows, list) or not all(
                    isinstance(row, list) for row in batch_rows
                ):
                    raise ProtocolError(
                        protocol.E_BAD_REQUEST,
                        f"'{label}' batch for {name!r} must be a list of rows",
                    )
        txn = self.database.begin()
        try:
            # Deletes before inserts, matching Database.apply: an update
            # expressed as delete+insert of the same key nets correctly.
            for name, batch_rows in deletes.items():
                txn.delete_many(name, batch_rows)
            for name, batch_rows in inserts.items():
                txn.insert_many(name, batch_rows)
            deltas = txn.commit()
        except ReproError as exc:
            if txn.state.value == "active":
                txn.abort()
            self.recorder.incr("server_txns_failed")
            raise ProtocolError(protocol.E_TXN_FAILED, str(exc)) from exc
        self.recorder.incr("server_txns_committed")
        # Advance virtual time and let the scheduler refresh whatever
        # the commit pushed past its staleness SLA.
        self.clock.advance(1)
        refreshed = self.scheduler.tick()
        if refreshed:
            self.recorder.incr("server_scheduler_refreshes", len(refreshed))
        applied = {
            name: {
                "inserted": delta.insert_count(),
                "deleted": delta.delete_count(),
            }
            for name, delta in sorted(deltas.items())
            if not delta.is_empty()
        }
        return {
            "txn": txn.txn_id,
            "seq": self.database.log.last_sequence(),
            "applied": applied,
        }

    def _feed_position(self, view_name: str) -> tuple[Changefeed, int]:
        """The feed a subscription to ``view_name`` follows, and the
        sequence that view stands at."""
        try:
            view = self.maintainer.view(view_name)
        except UnknownViewError:
            raise ProtocolError(
                protocol.E_UNKNOWN_TARGET,
                f"{view_name!r} names no view (subscriptions are per-view)",
            ) from None
        return self._attach_feed(view_name), view.last_refresh_sequence

    def _op_subscribe(self, session: Session, doc: Mapping[str, Any]) -> dict[str, Any]:
        view_name = protocol.request_field(doc, "view", str)
        after = protocol.request_field(doc, "from", int, required=False)
        feed, current = self._feed_position(view_name)
        replay: list[tuple[int, bytes]] = []
        if after is not None and after < current:
            replay = feed.since(after)
        subscription_id = session.new_subscription(view_name)
        self._subscribers.setdefault(view_name, []).append(
            (session, subscription_id)
        )
        self.recorder.incr("server_subscriptions_opened")
        # Catch-up events are staged; the session sends them right
        # after this response, so confirmation always precedes deltas.
        for _, head in replay:
            session.pending_events.append(
                protocol.encode_event(head, subscription_id, feed.tail)
            )
        self.recorder.incr("server_events_sent", len(replay))
        return {
            "subscription": subscription_id,
            "view": view_name,
            "seq": current,
            "replayed": len(replay),
        }

    def _op_unsubscribe(self, session: Session, doc: Mapping[str, Any]) -> dict[str, Any]:
        subscription_id = protocol.request_field(doc, "subscription", int)
        view_name = session.drop_subscription(subscription_id)
        if view_name is None:
            raise ProtocolError(
                protocol.E_BAD_REQUEST,
                f"this session holds no subscription {subscription_id}",
            )
        self._drop_subscriber(view_name, session, subscription_id)
        return {"unsubscribed": subscription_id, "view": view_name}

    def _op_stats(self, session: Session, doc: Mapping[str, Any]) -> dict[str, Any]:
        only = protocol.request_field(doc, "view", str, required=False)
        if only is not None and only not in self.maintainer.view_names():
            raise ProtocolError(
                protocol.E_UNKNOWN_TARGET,
                f"{only!r} names no view (stats filters are per-view)",
            )
        views = {}
        for name, maintenance in self.maintainer.all_stats().items():
            if only is not None and name != only:
                continue
            view = self.maintainer.view(name)
            views[name] = {
                "policy": self.maintainer.policy(name).value,
                "tuples": len(view.contents),
                "seq": view.last_refresh_sequence,
                "maintenance": maintenance,
                "backlog": self.maintainer.backlog(name),
            }
        result = {
            "counters": self.recorder.snapshot(),
            "views": views,
            "plan_cache": self.maintainer.plan_cache_stats(),
            "codegen": self.maintainer.codegen_stats().as_dict(),
            "sessions": {
                "open": len(self._sessions),
                "max": self.config.max_sessions,
            },
            "subscriptions": sum(len(t) for t in self._subscribers.values()),
            "seq": self.database.log.last_sequence(),
            "scheduler": {
                "now": self.clock.now,
                "batch_limit": self.scheduler.batch_limit,
                "slas": {
                    name: sla.as_dict()
                    for name in self.scheduler.sla_names()
                    if (sla := self.scheduler.sla(name)) is not None
                },
                "violations": self.scheduler.violations(),
                "counters": self.scheduler.counters(),
            },
        }
        if self.durability is not None:
            result["wal_position"] = self.durability.position
        return result

    def __repr__(self) -> str:
        return (
            f"<ViewServer port={self.port} {len(self._sessions)} sessions, "
            f"{len(self.maintainer.view_names())} views"
            f"{' draining' if self._draining else ''}>"
        )


class ServerHandle:
    """A :class:`ViewServer` running on its own event-loop thread.

    The embedding story for synchronous programs (examples, benchmarks,
    the CLI's tests): start the loop in a daemon thread, hand blocking
    :class:`~repro.server.client.ViewClient` connections to it, stop it
    with :meth:`stop`.  Build the database, views and server *before*
    :meth:`start`; afterwards the loop thread owns them, and all
    mutation must go through the wire.

    Usable as a context manager::

        with ServerHandle(server) as handle:
            client = ViewClient(port=handle.port)
    """

    def __init__(self, server: ViewServer) -> None:
        self.server = server
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self, timeout: float = 10.0) -> "ServerHandle":
        """Launch the loop thread; returns once the port is bound."""
        self._thread = threading.Thread(
            target=self._run, name="repro-view-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("view server failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"view server failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            await self.server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        await self.server.wait_closed()

    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        assert self.server.port is not None, "server not started"
        return self.server.port

    def stop(self, timeout: float = 10.0) -> None:
        """Gracefully shut the server down and join the loop thread."""
        if self._thread is None or not self._thread.is_alive():
            return
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(self.server.shutdown(), self._loop)
        with contextlib.suppress(TimeoutError, RuntimeError):  # loop already gone
            future.result(timeout)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        alive = self._thread is not None and self._thread.is_alive()
        return f"<ServerHandle port={self.server.port} {'running' if alive else 'stopped'}>"
