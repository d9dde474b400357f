"""The cluster's wire-protocol front door.

:class:`ClusterServer` speaks the exact protocol of
:class:`~repro.server.server.ViewServer` — same frames, same ops, same
error codes — so every existing client, including
:class:`~repro.server.client.ViewClient` and the recorded-transport
test harness, works against a cluster unmodified.  It subclasses the
single-node server and swaps the data plane:

* ``query`` resolves targets through the coordinator's scatter-gather
  merge (views and partitioned relations union across shards;
  replicated relations are answered by the home shard's delta-complete
  copy) and stamps results with the cluster sequence;
* ``txn`` submits through the coordinator's two-phase commit.  Over
  the synchronous :class:`~repro.cluster.links.DirectLink` transport
  the outcome is known before the response frame is written; an abort
  surfaces as ``txn_failed`` (a shard vetoed prepare — same meaning as
  single-node) or ``shard_unavailable`` (2PC timeout; nothing
  committed, retry is safe);
* ``subscribe`` replays and follows the *merged* cluster changefeed,
  ordered by ``cluster_seq`` — one subscription observes the whole
  cluster's view history, never a single shard's.

Lifecycle, admission control, session plumbing and dispatch are
inherited unchanged.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.algebra.relation import Relation
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.links import DirectLink
from repro.cluster.topology import HOME_SHARD
from repro.errors import ClusterError, UnknownRelationError
from repro.server import protocol
from repro.server.protocol import ProtocolError
from repro.server.server import Changefeed, ServerConfig, ViewServer
from repro.server.session import LocalSession, Session

__all__ = ["ClusterServer"]


class ClusterServer(ViewServer):
    """A :class:`ViewServer` whose data plane is a sharded cluster."""

    def __init__(
        self,
        coordinator: ClusterCoordinator,
        config: ServerConfig | None = None,
    ) -> None:
        for link in coordinator.links:
            if not isinstance(link, DirectLink):
                raise ClusterError(
                    "ClusterServer needs synchronous DirectLink transports "
                    "(client transactions must resolve within one request)"
                )
        self.coordinator = coordinator
        home = coordinator.nodes()[HOME_SHARD]
        super().__init__(home.database, home.maintainer, config)

    # ------------------------------------------------------------------
    # Changefeed plumbing: the coordinator owns the merged feeds
    # ------------------------------------------------------------------
    def _attach_feed(self, view_name: str) -> Changefeed:
        # Override: never subscribe to the home maintainer — per-shard
        # deltas are partial.  The coordinator appends merged events, in
        # ``cluster_seq`` order and view-name order within one, and the
        # feed hands each to the inherited fan-out.
        feed = self._feeds.get(view_name)
        if feed is None:
            feed = self._feeds[view_name] = self.coordinator.feeds[view_name]
            feed.listeners.append(self._fan_out)
        return feed

    def _feed_position(self, view_name: str) -> tuple[Changefeed, int]:
        if view_name not in self.coordinator.feeds:
            raise ProtocolError(
                protocol.E_UNKNOWN_TARGET,
                f"{view_name!r} names no view (subscriptions are per-view)",
            )
        return self._attach_feed(view_name), self.coordinator.last_sequence

    # ------------------------------------------------------------------
    # Data-plane overrides
    # ------------------------------------------------------------------
    def _resolve_target(self, name: str) -> tuple[str, Relation, int]:
        try:
            counts, schema, kind = self.coordinator.merged_counts(name)
        except UnknownRelationError:
            raise ProtocolError(
                protocol.E_UNKNOWN_TARGET,
                f"{name!r} names neither a view nor a base relation",
            ) from None
        contents = Relation.from_counts(schema, counts)
        return kind, contents, self.coordinator.last_sequence

    def _op_txn(
        self, session: Session | LocalSession, doc: Mapping[str, Any]
    ) -> dict[str, Any]:
        inserts = protocol.request_field(doc, "insert", dict, required=False) or {}
        deletes = protocol.request_field(doc, "delete", dict, required=False) or {}
        if not inserts and not deletes:
            raise ProtocolError(
                protocol.E_BAD_REQUEST,
                "'txn' needs 'insert' and/or 'delete' batches",
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
        try:
            txn_id = self.coordinator.submit(inserts=inserts, deletes=deletes)
        except (ClusterError, UnknownRelationError) as exc:
            self.recorder.incr("server_txns_failed")
            raise ProtocolError(protocol.E_TXN_FAILED, str(exc)) from exc
        outcome = self.coordinator.outcome(txn_id)
        if outcome is None or (
            outcome["status"] == "committed" and "applied" not in outcome
        ):
            # Unreachable over DirectLink; defensive for exotic wiring.
            self.recorder.incr("server_txns_failed")
            raise ProtocolError(
                protocol.E_SHARD_UNAVAILABLE,
                f"transaction {txn_id} did not resolve synchronously",
            )
        if outcome["status"] == "aborted":
            self.recorder.incr("server_txns_failed")
            raise ProtocolError(outcome["code"], outcome["error"])
        self.recorder.incr("server_txns_committed")
        return {
            "txn": txn_id,
            "seq": outcome["cluster_seq"],
            "applied": outcome["applied"],
        }

    def _op_stats(
        self, session: Session | LocalSession, doc: Mapping[str, Any]
    ) -> dict[str, Any]:
        shards = []
        for node in self.coordinator.nodes():
            shards.append(
                {
                    "shard": node.shard_id,
                    "applied_seq": node.applied_seq,
                    "views": {
                        name: len(node.maintainer.view(name).contents)
                        for name in node.maintainer.view_names()
                    },
                }
            )
        return {
            "counters": self.recorder.snapshot(),
            "cluster": self.coordinator.stats(),
            "shards": shards,
            "sessions": {
                "open": len(self._sessions),
                "max": self.config.max_sessions,
            },
            "subscriptions": sum(len(t) for t in self._subscribers.values()),
            "seq": self.coordinator.last_sequence,
        }

    def __repr__(self) -> str:
        return (
            f"<ClusterServer port={self.port} "
            f"{self.coordinator.topology.shards} shards, "
            f"{len(self._sessions)} sessions"
            f"{' draining' if self._draining else ''}>"
        )
