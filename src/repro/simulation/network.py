"""The simulated network: lossy channels, shard links, record shipping,
sim clients.

Four pieces, each deterministic given its seeded RNG and the
:class:`~repro.simulation.clock.SimClock`:

:class:`SimChannel`
    A unidirectional message queue with injected delay, reordering,
    drops, duplication, partitions and bounded capacity.  A *FIFO*
    channel (``fifo=True``) models one TCP connection: delay only,
    delivery order preserved — byte streams do not reorder; datagram
    faults belong on the record bus.

:class:`SimShardLink`
    A coordinator-to-shard link for the sharded topology: one
    :class:`SimChannel` per direction, so a message and its reply each
    face their own fault draw.

:class:`ReplicaLink`
    Ships WAL records from the leader's directory to a
    :class:`~repro.replication.follower.Follower` over a lossy channel,
    at-least-once: every pump re-offers records after the follower's
    acknowledged position, so drops are repaired by retransmission,
    duplicates are ignored by :meth:`Follower.apply_record`, and
    reordered arrivals wait in a per-sequence buffer until their
    predecessors land.

:class:`SimClient`
    One in-process client driving a
    :class:`~repro.server.session.LocalSession`: it subscribes to a
    view, maintains a **mirror** of its contents purely from changefeed
    delta events (reseeding over the same wire with a full query), and
    reconnects — resuming from its mirror position, falling back to a
    reseed on ``offset_out_of_range`` — whenever the server drops it
    (slow consumer) or crashes.  The mirror is the harness's proof that
    the changefeed alone reconstructs the view byte-for-byte.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Mapping

from repro.cluster.links import DeliverFn, undelivered
from repro.cluster.shard import ShardNode
from repro.replication.follower import Follower
from repro.replication.wal import WalReader, WalRecord
from repro.server import protocol
from repro.simulation.clock import SimClock


class SimChannel:
    """A seeded lossy message queue running on virtual time."""

    def __init__(
        self,
        clock: SimClock,
        rng: random.Random,
        delay_max: int = 2,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        reorder_rate: float = 0.0,
        capacity: int | None = None,
        fifo: bool = False,
    ) -> None:
        self.clock = clock
        self.rng = rng
        self.delay_max = delay_max
        self.drop_rate = drop_rate
        self.duplicate_rate = duplicate_rate
        self.reorder_rate = reorder_rate
        self.capacity = capacity
        self.fifo = fifo
        self.partitioned = False
        self._heap: list[tuple[int, int, Any]] = []
        self._counter = 0
        self._last_assigned = 0
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.duplicated = 0
        self.refused = 0

    def __len__(self) -> int:
        return len(self._heap)

    def _enqueue(self, deliver_at: int, message: Any) -> None:
        heapq.heappush(self._heap, (deliver_at, self._counter, message))
        self._counter += 1

    def send(self, message: Any) -> bool:
        """Offer one message; False when the channel refuses (full).

        A partitioned or lossy channel *accepts* and silently discards
        — the sender cannot tell, exactly as with a real network.
        """
        self.sent += 1
        if self.partitioned or self.rng.random() < self.drop_rate:
            self.dropped += 1
            return True
        if self.capacity is not None and len(self._heap) >= self.capacity:
            self.refused += 1
            return False
        delay = self.rng.randint(0, self.delay_max) if self.delay_max else 0
        if not self.fifo and self.rng.random() < self.reorder_rate:
            delay += self.rng.randint(1, 3)
        deliver_at = self.clock.now + delay
        if self.fifo:
            # One connection: later sends never overtake earlier ones.
            deliver_at = max(deliver_at, self._last_assigned)
            self._last_assigned = deliver_at
        self._enqueue(deliver_at, message)
        if not self.fifo and self.rng.random() < self.duplicate_rate:
            self.duplicated += 1
            self._enqueue(self.clock.now + self.rng.randint(0, self.delay_max + 3), message)
        return True

    def deliver_due(self) -> list[Any]:
        """Messages whose delivery time has arrived, in delivery order."""
        due = []
        while self._heap and self._heap[0][0] <= self.clock.now:
            due.append(heapq.heappop(self._heap)[2])
        self.delivered += len(due)
        return due

    def clear(self) -> int:
        """Drop everything in flight (a connection reset); returns count."""
        count = len(self._heap)
        self._heap.clear()
        self._last_assigned = 0
        return count

    def stats(self) -> dict[str, int]:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "refused": self.refused,
        }


class SimShardLink:
    """A lossy, delayed, partitionable coordinator-to-shard link.

    Each direction is an independent :class:`SimChannel`, so a message
    and its reply each face their own drop/duplicate/reorder/delay
    draw — retransmission and ack-caching on both ends are what make
    the 2PC protocol converge, and this link is what exercises them.
    Nothing moves until :meth:`pump` runs, so the schedule controls
    every interleaving.
    """

    __slots__ = ("shard", "deliver", "to_shard", "to_coord")

    def __init__(
        self,
        shard: ShardNode,
        clock: SimClock,
        rng: random.Random,
        *,
        delay_max: int = 2,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        reorder_rate: float = 0.0,
    ) -> None:
        self.shard = shard
        self.deliver: DeliverFn = undelivered
        self.to_shard = SimChannel(
            clock, rng, delay_max, drop_rate, duplicate_rate, reorder_rate
        )
        self.to_coord = SimChannel(
            clock, rng, delay_max, drop_rate, duplicate_rate, reorder_rate
        )

    def send(self, message: Mapping[str, Any]) -> bool:
        return self.to_shard.send(dict(message))

    def pump(self) -> int:
        """Deliver everything due in both directions; returns how many
        messages moved (0 means the link is momentarily idle)."""
        moved = 0
        for message in self.to_shard.deliver_due():
            moved += 1
            for reply in self.shard.handle(message):
                self.to_coord.send(reply)
        for reply in self.to_coord.deliver_due():
            moved += 1
            self.deliver(reply)
        return moved

    def partition(self, flag: bool) -> None:
        """(Un)partition both directions at once."""
        self.to_shard.partitioned = flag
        self.to_coord.partitioned = flag

    def reset(self) -> None:
        """Drop every in-flight message (a crash wipes the wire too)."""
        self.to_shard.clear()
        self.to_coord.clear()

    def rebind(self, shard: ShardNode) -> None:
        self.shard = shard

    def idle(self) -> bool:
        """True when nothing is queued in either direction."""
        return len(self.to_shard) == 0 and len(self.to_coord) == 0


class ReplicaLink:
    """At-least-once WAL record shipping to one follower.

    The leader side re-reads the shared directory after the follower's
    applied position on every :meth:`pump` — retransmission is the
    repair for dropped messages.  The replica side buffers out-of-order
    arrivals and funnels everything through
    :meth:`Follower.apply_record`, which ignores duplicates and rejects
    gaps.
    """

    def __init__(self, follower: Follower, channel: SimChannel, window: int = 8) -> None:
        self.follower = follower
        self.channel = channel
        self.window = window
        self._reader = WalReader(follower.directory)
        self._buffer: dict[int, WalRecord] = {}
        self.stalled_until = 0
        self.records_applied = 0

    def pump(self) -> int:
        """Leader side: offer the next window of records; returns sent."""
        sent = 0
        for record in self._reader.records(after=self.follower.position):
            self.channel.send((record.sequence, record.txn_id, record.deltas_doc))
            sent += 1
            if sent >= self.window:
                break
        return sent

    def receive(self) -> int:
        """Replica side: apply due, in-order records; returns applied."""
        if self.channel.clock.now < self.stalled_until:
            return 0
        for sequence, txn_id, deltas_doc in self.channel.deliver_due():
            if sequence > self.follower.position and sequence not in self._buffer:
                self._buffer[sequence] = WalRecord(sequence, txn_id, deltas_doc)
        applied = 0
        while self.follower.position + 1 in self._buffer:
            record = self._buffer.pop(self.follower.position + 1)
            if self.follower.apply_record(record):
                applied += 1
        self.records_applied += applied
        return applied

    def stall(self, until_tick: int) -> None:
        """Stop consuming until virtual time reaches ``until_tick``."""
        self.stalled_until = max(self.stalled_until, until_tick)

    def reset(self, follower: Follower) -> None:
        """Adopt a rebuilt follower; everything in flight is stale."""
        self.follower = follower
        self._reader = WalReader(follower.directory)
        self._buffer.clear()
        self.channel.clear()
        self.stalled_until = 0

    def idle(self) -> bool:
        """True when nothing is in flight, buffered, or stalled."""
        return (
            not self._buffer
            and len(self.channel) == 0
            and self.channel.clock.now >= self.stalled_until
        )


class SimClient:
    """One changefeed subscriber + request issuer over a LocalSession.

    The client owns the *server→client* FIFO channel; its ``transport``
    (handed to :meth:`ViewServer.open_local_session`) offers every
    outbound frame to that channel, whose bounded capacity is the
    model's socket buffer: a stalled client stops draining, the channel
    fills, the next offer is refused, and the server applies its
    slow-consumer policy.  Client→server requests are delivered
    immediately (requests are small; the interesting contention is the
    fan-out direction).
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        view_name: str,
        delay_max: int = 1,
        capacity: int = 64,
    ) -> None:
        self.name = name
        self.clock = clock
        self.view_name = view_name
        self.link = SimChannel(clock, random.Random(0), delay_max=delay_max,
                               capacity=capacity, fifo=True)
        self.session: Any = None
        self.server: Any = None
        #: The changefeed-built copy: decoded row tuple → multiplicity.
        self.mirror: dict[tuple[Any, ...], int] = {}
        self.mirror_seq = 0
        self.seeded = False
        self._held_events: list[tuple[int, dict[str, Any]]] = []
        self.stalled_until = 0
        self._pending: dict[int, str] = {}
        self._next_request_id = 1
        self.divergences: list[str] = []
        self.counters = {
            "connects": 0,
            "reseeds": 0,
            "txns_ok": 0,
            "requests_failed": 0,
            "events_applied": 0,
            "queries_verified": 0,
            "disconnects_seen": 0,
        }

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _transport(self, frame: bytes) -> bool:
        return self.link.send(frame)

    def connected(self) -> bool:
        return self.session is not None and not self.session.closing

    def connect(self, server: Any, resume: bool = True) -> None:
        """Open a session and (re)subscribe.

        ``resume=True`` asks the feed to replay from the mirror's
        position — valid only while the server instance is continuous.
        After a server crash the caller passes ``resume=False``: WAL
        sequences may have been reissued for different data, so the
        mirror re-seeds from scratch.
        """
        if self.session is not None and not self.session.closing:
            self.session.close("superseded")
        self.link.clear()
        self._pending.clear()
        self._held_events.clear()
        self.server = server
        self.session = server.open_local_session(self._transport)
        self.counters["connects"] += 1
        doc: dict[str, Any] = {"op": "subscribe", "view": self.view_name}
        if resume and self.seeded:
            doc["from"] = self.mirror_seq
        else:
            self.seeded = False
            self.mirror.clear()
            self.mirror_seq = 0
        self._submit(doc, "subscribe")

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _submit(self, doc: dict[str, Any], kind: str) -> bool:
        if not self.connected():
            return False
        request_id = self._next_request_id
        self._next_request_id += 1
        doc = dict(doc)
        doc["id"] = request_id
        self._pending[request_id] = kind
        self.session.handle(doc)
        return True

    def submit_txn(self, inserts: dict[str, list[list[Any]]],
                   deletes: dict[str, list[list[Any]]]) -> bool:
        """Commit a transaction through the server; False if not connected."""
        doc: dict[str, Any] = {"op": "txn"}
        if inserts:
            doc["insert"] = inserts
        if deletes:
            doc["delete"] = deletes
        return self._submit(doc, "txn")

    def submit_query(self, target: str, where: str | None = None) -> bool:
        """An ad-hoc read (response is only counted, not verified)."""
        doc: dict[str, Any] = {"op": "query", "target": target}
        if where is not None:
            doc["where"] = where
        return self._submit(doc, "query")

    def request_verify(self) -> bool:
        """Query the subscribed view in full, to diff against the mirror."""
        return self._submit(
            {"op": "query", "target": self.view_name}, "verify"
        )

    def resubscribe(self) -> None:
        """Subscriber churn: drop the subscription, re-open it resumably."""
        if not self.connected():
            return
        for subscription_id in list(self.session.subscriptions):
            self._submit({"op": "unsubscribe", "subscription": subscription_id},
                         "unsubscribe")
        doc: dict[str, Any] = {"op": "subscribe", "view": self.view_name}
        if self.seeded:
            doc["from"] = self.mirror_seq
        self._submit(doc, "subscribe")

    def stall(self, until_tick: int) -> None:
        """Stop draining the link until virtual time reaches the tick."""
        self.stalled_until = max(self.stalled_until, until_tick)

    # ------------------------------------------------------------------
    # Frame processing
    # ------------------------------------------------------------------
    def process(self) -> int:
        """Drain due frames (unless stalled); returns frames handled."""
        if self.clock.now < self.stalled_until:
            return 0
        handled = 0
        for frame in self.link.deliver_due():
            self._on_frame(protocol.decode_payload(frame[protocol.HEADER_BYTES:]))
            handled += 1
        return handled

    def _on_frame(self, doc: dict[str, Any]) -> None:
        if doc.get("event") == "delta":
            self._on_event(doc)
            return
        kind = self._pending.pop(doc.get("id"), "unknown")
        if not doc.get("ok", False):
            code = doc.get("error", {}).get("code")
            self.counters["requests_failed"] += 1
            if kind == "subscribe" and code == protocol.E_OFFSET_OUT_OF_RANGE:
                # The feed's window has moved past the mirror: start over.
                self.seeded = False
                self.mirror.clear()
                self.mirror_seq = 0
                self._submit({"op": "subscribe", "view": self.view_name}, "subscribe")
            return
        result = doc.get("result", {})
        if kind == "subscribe" and not self.seeded:
            # Fresh subscription: pull the full contents at one sequence.
            self.counters["reseeds"] += 1
            self._submit({"op": "query", "target": self.view_name}, "reseed")
        elif kind == "reseed":
            self.mirror = {}
            for row, count in zip(result["rows"], result["counts"]):
                key = tuple(row)
                self.mirror[key] = self.mirror.get(key, 0) + count
            self.mirror_seq = result["seq"]
            self.seeded = True
            held, self._held_events = self._held_events, []
            for sequence, delta_doc in held:
                if sequence > self.mirror_seq:
                    self._apply_delta(sequence, delta_doc)
        elif kind == "verify":
            self._check_verify(result)
        elif kind == "txn":
            self.counters["txns_ok"] += 1

    def _on_event(self, doc: dict[str, Any]) -> None:
        if doc.get("view") != self.view_name:
            return
        sequence = doc["seq"]
        delta_doc = doc["delta"]
        if not self.seeded:
            self._held_events.append((sequence, delta_doc))
        elif sequence > self.mirror_seq:
            self._apply_delta(sequence, delta_doc)

    def _apply_delta(self, sequence: int, delta_doc: dict[str, Any]) -> None:
        for row in delta_doc.get("deleted", ()):
            key = tuple(row)
            count = self.mirror.get(key, 0) - 1
            if count < 0:
                self.divergences.append(
                    f"client {self.name}: delta at seq {sequence} deletes "
                    f"{key!r} not present in the mirror"
                )
            if count <= 0:
                self.mirror.pop(key, None)
            else:
                self.mirror[key] = count
        for row in delta_doc.get("inserted", ()):
            key = tuple(row)
            self.mirror[key] = self.mirror.get(key, 0) + 1
        self.mirror_seq = sequence
        self.counters["events_applied"] += 1

    def _check_verify(self, result: dict[str, Any]) -> None:
        """Diff a full-view query against the mirror.

        Sound whenever the mirror is seeded: the link is FIFO, so every
        delta event for a commit ordered before the query was processed
        before this response — the mirror already reflects any
        view-changing commit up to ``result["seq"]``, and commits after
        ``mirror_seq`` that left the view untouched emit no event.
        """
        if not self.seeded:
            return
        queried: dict[tuple[Any, ...], int] = {}
        for row, count in zip(result["rows"], result["counts"]):
            key = tuple(row)
            queried[key] = queried.get(key, 0) + count
        if queried != self.mirror:
            missing = sorted(set(queried) - set(self.mirror))
            extra = sorted(set(self.mirror) - set(queried))
            self.divergences.append(
                f"client {self.name}: mirror of {self.view_name!r} diverges "
                f"at seq {self.mirror_seq} (missing {missing[:3]!r}, "
                f"unexpected {extra[:3]!r}, sizes {len(queried)} vs "
                f"{len(self.mirror)})"
            )
        else:
            self.counters["queries_verified"] += 1

    # ------------------------------------------------------------------
    # Episode plumbing
    # ------------------------------------------------------------------
    def on_server_gone(self) -> None:
        """The server object died under us (crash): drop the session."""
        if self.session is not None and not self.session.closing:
            self.session.closing = True
        self.counters["disconnects_seen"] += 1
        self.link.clear()
        self._pending.clear()
        self._held_events.clear()

    def idle(self) -> bool:
        """Nothing in flight, no outstanding requests, not stalled."""
        return (
            len(self.link) == 0
            and not self._pending
            and self.clock.now >= self.stalled_until
        )

    def __repr__(self) -> str:
        return (
            f"<SimClient {self.name} view={self.view_name!r} "
            f"seq={self.mirror_seq} {len(self.mirror)} rows>"
        )
