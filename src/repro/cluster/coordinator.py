"""The scatter-gather coordinator: one client surface over N shards.

The coordinator owns the cluster's global order and nothing else — all
relation state and view maintenance live in the shards.  Per committed
client transaction it:

1. **splits** the raw operation batches: partitioned relations route
   row-by-row to the owner shard (:meth:`~repro.cluster.topology.
   ClusterTopology.shard_of_row`); replicated relations go to the home
   shard and every other shard the routing table cannot prove
   indifferent (``cluster_deltas_sent`` / ``cluster_deltas_skipped``);
2. **prepares** on every participant.  A shard validates its
   sub-transaction exactly as a single-node commit would (structure,
   domains, declared constraints), so a unanimous prepare guarantees
   the later commit cannot fail — the classic 2PC contract;
3. **commits** with per-shard ``shard_seq`` and global ``cluster_seq``
   assigned at the decision point.  Commit messages are self-contained
   (they carry the ops, not a reference to the stage), so a shard that
   crashed after preparing needs no recovery dialogue; retransmission
   plus the shard's ack cache make delivery idempotent;
4. **merges** the per-shard view deltas carried on the commit acks into
   one cluster changefeed event, netting rows across shards, buffered
   and emitted strictly in ``cluster_seq`` order however the acks
   arrive.

Timeouts are logical ticks (:meth:`ClusterCoordinator.tick`), injected
by the caller — the wall clock is never consulted, so simulated and
real deployments run the identical state machine.  A transaction still
*preparing* past ``TIMEOUT_TICKS`` aborts with ``shard_unavailable``
(retry is safe: nothing committed anywhere).  A transaction past its
commit point never times out — the decision is durable in
:attr:`ClusterCoordinator.history` and retransmits until every ack
arrives, which is what makes crash recovery exact: rebuilding a shard
is replaying its history slice through a fresh :class:`~repro.cluster.
shard.ShardNode`.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from repro.algebra.conditions import Condition
from repro.algebra.expressions import (
    Expression,
    NormalForm,
    to_normal_form,
)
from repro.algebra.relation import Relation
from repro.algebra.schema import RelationSchema
from repro.cluster.links import DirectLink, ShardLink
from repro.cluster.routing import RoutingTable, build_routing_table
from repro.cluster.shard import ShardNode
from repro.cluster.topology import HOME_SHARD, ClusterTopology
from repro.engine.keys import ForeignKey
from repro.errors import ClusterError, UnknownRelationError
from repro.instrumentation import CostRecorder, charge, recording
from repro.server import protocol
from repro.server.server import Changefeed

__all__ = ["ClusterCoordinator", "PendingTxn", "build_cluster"]

OpBatches = Mapping[str, Sequence[Sequence[Any]]]
EmitHook = Callable[[int, Mapping[str, Mapping[str, Any]]], None]

#: Tick budget before an unresponsive prepare phase aborts.
TIMEOUT_TICKS = 12
#: Ticks between retransmissions of an unacknowledged message.
RETRY_TICKS = 3


class PendingTxn:
    """Coordinator-side state of one in-flight distributed transaction."""

    __slots__ = (
        "txn_id",
        "state",
        "participants",
        "prepared",
        "acked",
        "messages",
        "start_tick",
        "last_send",
        "cluster_seq",
        "view_docs",
        "applied_docs",
        "raw_ops",
    )

    def __init__(
        self,
        txn_id: int,
        participants: frozenset[int],
        messages: dict[int, dict[str, Any]],
        raw_ops: dict[str, Any],
        start_tick: int,
    ) -> None:
        self.txn_id = txn_id
        self.state = "preparing"
        self.participants = participants
        self.prepared: set[int] = set()
        self.acked: set[int] = set()
        #: The currently outstanding message per participant shard.
        self.messages = messages
        self.start_tick = start_tick
        self.last_send: dict[int, int] = {}
        self.cluster_seq: int | None = None
        #: Per-shard view delta documents gathered from commit acks.
        self.view_docs: dict[int, dict[str, dict[str, Any]]] = {}
        #: Per-shard applied base-relation counts from commit acks.
        self.applied_docs: dict[int, dict[str, dict[str, int]]] = {}
        #: The unsplit client ops, for the ordered committed log.
        self.raw_ops = raw_ops

    def outstanding(self) -> set[int]:
        """Participants whose current-phase reply is still missing."""
        if self.state == "preparing":
            return set(self.participants) - self.prepared
        return set(self.participants) - self.acked


class ClusterCoordinator:
    """Routes, two-phase-commits, and merges across a fixed shard set."""

    def __init__(
        self,
        topology: ClusterTopology,
        tables: Mapping[str, Sequence[str]],
        constraints: Mapping[str, Condition | str],
        views: Sequence[tuple[str, Expression]],
        links: Sequence[ShardLink],
        *,
        shard_factory: Callable[[int], ShardNode] | None = None,
        routed: bool = True,
        changefeed_history: int = 256,
    ) -> None:
        if len(links) != topology.shards:
            raise ClusterError(
                f"topology has {topology.shards} shards but "
                f"{len(links)} links were supplied"
            )
        self.topology = topology
        self.tables = {name: tuple(attrs) for name, attrs in tables.items()}
        self.constraints = {
            name: Condition.coerce(cond) for name, cond in constraints.items()
        }
        self.links = list(links)
        self.routed = routed
        self.recorder = CostRecorder()
        self._shard_factory = shard_factory
        catalog = {
            name: RelationSchema(list(attrs))
            for name, attrs in self.tables.items()
        }
        # Routing works over each view's SPJ core: aggregate views are
        # unwrapped (delta relevance is a property of the core), after
        # checking that every partitioned operand's partition key is a
        # grouping key — only then are groups shard-local, making the
        # coordinator's bag-union merge of visible group rows exact.
        self.views: dict[str, NormalForm] = {}
        for name, expression in views:
            from repro.algebra.aggregates import Aggregate

            core = expression
            if isinstance(expression, Aggregate):
                expression.schema(catalog)
                keys = set(expression.spec.keys)
                for base in sorted(set(expression.base_names())):
                    spec = topology.spec(base)
                    if spec is not None and spec.key not in keys:
                        raise ClusterError(
                            f"aggregate view {name!r} groups without the "
                            f"partition key {spec.key!r} of {base!r}: a "
                            "group would span shards and per-shard "
                            "aggregates could not be merged by union — "
                            f"add {spec.key!r} to the grouping keys or "
                            "replicate the relation"
                        )
                core = expression.child
            self.views[name] = to_normal_form(core, catalog)
        with recording(self.recorder):
            self.routing: RoutingTable = build_routing_table(
                topology, self.views, self.constraints
            )
        self.feeds: dict[str, Changefeed] = {
            name: Changefeed(name, 0, changefeed_history)
            for name in self.views
        }
        #: Hooks fired per merged changefeed event (simulation mirror).
        self.emit_hooks: list[EmitHook] = []
        #: Per-shard authoritative commit-message log, ``shard_seq`` order.
        self.history: list[list[dict[str, Any]]] = [
            [] for _ in range(topology.shards)
        ]
        #: Client raw ops of every committed txn, ``cluster_seq`` order.
        self.committed_log: list[dict[str, Any]] = []
        self._txn_counter = 0
        self._cluster_seq = 0
        self._shard_seqs = [0] * topology.shards
        self._tick = 0
        self._pending: dict[int, PendingTxn] = {}
        self._outcomes: dict[int, dict[str, Any]] = {}
        #: Completed-but-unemitted events, keyed by ``cluster_seq``.
        self._complete: dict[int, tuple[int, dict[str, dict[str, Any]]]] = {}
        #: Raw client ops awaiting in-order emission, by ``cluster_seq``.
        self._raw_by_seq: dict[int, dict[str, Any]] = {}
        self._emitted_seq = 0
        for link in self.links:
            link.deliver = self.on_shard_message

    # ------------------------------------------------------------------
    # Client transactions
    # ------------------------------------------------------------------
    def submit(
        self,
        inserts: OpBatches | None = None,
        deletes: OpBatches | None = None,
    ) -> int:
        """Route and start one client transaction; returns its id.

        The outcome arrives asynchronously (synchronously over
        :class:`~repro.cluster.links.DirectLink`): poll
        :meth:`outcome` for ``{"status": "committed", ...}`` or
        ``{"status": "aborted", "code": ..., "error": ...}``.
        """
        raw_inserts = {
            name: [list(row) for row in rows]
            for name, rows in (inserts or {}).items()
            if rows
        }
        raw_deletes = {
            name: [list(row) for row in rows]
            for name, rows in (deletes or {}).items()
            if rows
        }
        for name in sorted(set(raw_inserts) | set(raw_deletes)):
            if name not in self.tables:
                raise UnknownRelationError(f"unknown relation {name!r}")
        with recording(self.recorder):
            per_shard = self._split(raw_inserts, raw_deletes)
            self._txn_counter += 1
            txn_id = self._txn_counter
            raw_ops = {"inserts": raw_inserts, "deletes": raw_deletes}
            if not per_shard:
                # Every op was empty (or skippable): commit trivially at
                # the next global position so the ordered log still
                # records the transaction.
                self._cluster_seq += 1
                self._outcomes[txn_id] = {
                    "status": "committed",
                    "cluster_seq": self._cluster_seq,
                    "applied": {},
                }
                charge("cluster_txns_committed")
                self._complete[self._cluster_seq] = (txn_id, {})
                self._raw_by_seq[self._cluster_seq] = raw_ops
                self._emit_ready()
                return txn_id
            messages = {
                shard: {
                    "kind": "prepare",
                    "txn": txn_id,
                    "inserts": ops["inserts"],
                    "deletes": ops["deletes"],
                }
                for shard, ops in per_shard.items()
            }
            pending = PendingTxn(
                txn_id,
                frozenset(per_shard),
                messages,
                raw_ops,
                self._tick,
            )
            self._pending[txn_id] = pending
            for shard in sorted(per_shard):
                self._send(shard, pending)
            return txn_id

    def outcome(self, txn_id: int) -> dict[str, Any] | None:
        """The recorded outcome of ``txn_id`` (None while in flight)."""
        return self._outcomes.get(txn_id)

    def _split(
        self,
        inserts: Mapping[str, list[list[Any]]],
        deletes: Mapping[str, list[list[Any]]],
    ) -> dict[int, dict[str, dict[str, list[list[Any]]]]]:
        """Partition the client ops into per-shard sub-batches."""
        per_shard: dict[int, dict[str, dict[str, list[list[Any]]]]] = {}

        def bucket(shard: int) -> dict[str, dict[str, list[list[Any]]]]:
            return per_shard.setdefault(shard, {"inserts": {}, "deletes": {}})

        for kind, batches in (("inserts", inserts), ("deletes", deletes)):
            for name in sorted(batches):
                rows = batches[name]
                attrs = self.tables[name]
                if self.topology.is_partitioned(name):
                    groups: dict[int, list[list[Any]]] = {}
                    for row in rows:
                        owner = self.topology.shard_of_row(name, attrs, row)
                        groups.setdefault(owner, []).append(list(row))
                    for shard in sorted(groups):
                        bucket(shard)[kind][name] = groups[shard]
                        charge("cluster_deltas_sent")
                    continue
                for shard in range(self.topology.shards):
                    if (
                        shard != HOME_SHARD
                        and self.routed
                        and self.routing.should_skip(shard, name)
                    ):
                        charge("cluster_deltas_skipped")
                        continue
                    bucket(shard)[kind][name] = [list(row) for row in rows]
                    charge("cluster_deltas_sent")
        return per_shard

    # ------------------------------------------------------------------
    # Shard replies
    # ------------------------------------------------------------------
    def on_shard_message(self, reply: Mapping[str, Any]) -> None:
        """Handle one shard reply (installed as every link's deliver)."""
        kind = reply.get("kind")
        txn_id = int(reply["txn"])
        shard = int(reply["shard"]) if "shard" in reply else -1
        pending = self._pending.get(txn_id)
        if pending is None or shard not in pending.participants:
            return  # late duplicate of a finished transaction
        with recording(self.recorder):
            if kind == "prepared" and pending.state == "preparing":
                pending.prepared.add(shard)
                if pending.prepared == set(pending.participants):
                    self._decide_commit(pending)
            elif kind == "nack" and pending.state == "preparing":
                self._abort(
                    pending,
                    protocol.E_TXN_FAILED,
                    str(reply.get("error", "shard rejected the transaction")),
                )
            elif kind == "committed" and pending.state == "committing":
                pending.view_docs[shard] = dict(reply.get("views") or {})
                pending.applied_docs[shard] = dict(reply.get("applied") or {})
                pending.acked.add(shard)
                if pending.acked == set(pending.participants):
                    self._complete_commit(pending)
            elif kind == "abort_ack" and pending.state == "aborting":
                pending.acked.add(shard)
                if pending.acked == set(pending.participants):
                    del self._pending[pending.txn_id]
            # Anything else is a stale cross-phase duplicate; drop it.

    def _decide_commit(self, pending: PendingTxn) -> None:
        """The commit point: assign global order, log, and fan out."""
        self._cluster_seq += 1
        pending.cluster_seq = self._cluster_seq
        pending.state = "committing"
        charge("cluster_txns_committed")
        self._outcomes[pending.txn_id] = {
            "status": "committed",
            "cluster_seq": pending.cluster_seq,
        }
        self._raw_by_seq[pending.cluster_seq] = pending.raw_ops
        commit_messages: dict[int, dict[str, Any]] = {}
        for shard in sorted(pending.participants):
            self._shard_seqs[shard] += 1
            prepare = pending.messages[shard]
            commit_messages[shard] = {
                "kind": "commit",
                "txn": pending.txn_id,
                "shard_seq": self._shard_seqs[shard],
                "cluster_seq": pending.cluster_seq,
                "inserts": prepare["inserts"],
                "deletes": prepare["deletes"],
            }
            self.history[shard].append(commit_messages[shard])
        pending.messages = commit_messages
        pending.last_send = {}
        for shard in sorted(pending.participants):
            self._send(shard, pending)

    def _abort(self, pending: PendingTxn, code: str, error: str) -> None:
        pending.state = "aborting"
        pending.acked = set()
        charge("cluster_txns_aborted")
        self._outcomes[pending.txn_id] = {
            "status": "aborted",
            "code": code,
            "error": error,
        }
        pending.messages = {
            shard: {"kind": "abort", "txn": pending.txn_id}
            for shard in pending.participants
        }
        pending.last_send = {}
        for shard in sorted(pending.participants):
            self._send(shard, pending)

    def _complete_commit(self, pending: PendingTxn) -> None:
        merged = self._merge_view_docs(pending.view_docs)
        assert pending.cluster_seq is not None
        applied: dict[str, dict[str, int]] = {}
        for shard in sorted(pending.applied_docs):
            for name, counts in pending.applied_docs[shard].items():
                # Partitioned rows are disjoint across shards, so their
                # counts sum; a replicated relation is applied once per
                # shard, and counting every copy would report N times the
                # single-node figure — the home shard (which routing never
                # skips) speaks for the whole cluster.
                if not self.topology.is_partitioned(name) and shard != HOME_SHARD:
                    continue
                entry = applied.setdefault(name, {"inserted": 0, "deleted": 0})
                entry["inserted"] += int(counts.get("inserted", 0))
                entry["deleted"] += int(counts.get("deleted", 0))
        self._complete[pending.cluster_seq] = (pending.txn_id, merged)
        del self._pending[pending.txn_id]
        self._outcomes[pending.txn_id]["applied"] = applied
        self._emit_ready()

    def _merge_view_docs(
        self, per_shard: Mapping[int, Mapping[str, Mapping[str, Any]]]
    ) -> dict[str, dict[str, Any]]:
        """Net per-shard view deltas into one cluster-level document."""
        counts: dict[str, dict[tuple[Any, ...], int]] = {}
        for shard in sorted(per_shard):
            for view, doc in per_shard[shard].items():
                bag = counts.setdefault(view, {})
                for row in doc.get("inserted", ()):
                    key = tuple(row)
                    bag[key] = bag.get(key, 0) + 1
                for row in doc.get("deleted", ()):
                    key = tuple(row)
                    bag[key] = bag.get(key, 0) - 1
        merged: dict[str, dict[str, Any]] = {}
        for view in sorted(counts):
            inserted: list[list[Any]] = []
            deleted: list[list[Any]] = []
            for key in sorted(counts[view]):
                net = counts[view][key]
                if net > 0:
                    inserted.extend([list(key)] * net)
                elif net < 0:
                    deleted.extend([list(key)] * (-net))
            if inserted or deleted:
                merged[view] = {"inserted": inserted, "deleted": deleted}
        return merged

    def _emit_ready(self) -> None:
        """Emit completed events in strict ``cluster_seq`` order."""
        while self._emitted_seq + 1 in self._complete:
            self._emitted_seq += 1
            txn_id, merged = self._complete.pop(self._emitted_seq)
            raw_ops = self._raw_by_seq.pop(self._emitted_seq)
            self.committed_log.append(
                {
                    "seq": self._emitted_seq,
                    "txn": txn_id,
                    "inserts": raw_ops["inserts"],
                    "deletes": raw_ops["deletes"],
                }
            )
            # Appending encodes the event once and hands it to the feed's
            # listeners — an attached ClusterServer's fan-out.
            for view in sorted(merged):
                self.feeds[view].append(self._emitted_seq, merged[view])
            for hook in list(self.emit_hooks):
                hook(self._emitted_seq, merged)

    # ------------------------------------------------------------------
    # Time and failure injection
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Advance logical time: enforce timeouts, retransmit."""
        self._tick += 1
        with recording(self.recorder):
            for txn_id in sorted(self._pending):
                pending = self._pending.get(txn_id)
                if pending is None:
                    continue
                if (
                    pending.state == "preparing"
                    and self._tick - pending.start_tick > TIMEOUT_TICKS
                ):
                    self._abort(
                        pending,
                        protocol.E_SHARD_UNAVAILABLE,
                        "a shard stayed unreachable past the two-phase-"
                        "commit timeout; nothing committed — retry is safe",
                    )
                    continue
                for shard in sorted(pending.outstanding()):
                    last = pending.last_send.get(shard)
                    if last is None or self._tick - last >= RETRY_TICKS:
                        if last is not None:
                            charge("cluster_retransmissions")
                        self._send(shard, pending)

    def _send(self, shard: int, pending: PendingTxn) -> None:
        # Stamp before sending: over a DirectLink the reply (and even
        # the whole completion, deleting ``pending``) happens inside
        # ``send``, so ``pending`` must not be touched afterwards.
        pending.last_send[shard] = self._tick
        self.links[shard].send(pending.messages[shard])

    def crash_shard(self, shard: int) -> ShardNode:
        """Lose a shard's memory and wire, rebuild it from the log.

        Requires a ``shard_factory``; the rebuilt node replays its
        commit history slice (deterministically re-deriving relation
        state, view contents, *and* the ack cache with its view delta
        documents), then the link is rebound and flushed.  Outstanding
        messages retransmit on the next tick.
        """
        if self._shard_factory is None:
            raise ClusterError(
                "this cluster was built without a shard_factory; "
                "crash injection is unavailable"
            )
        with recording(self.recorder):
            charge("cluster_shard_rebuilds")
        node = self._shard_factory(shard)
        for message in self.history[shard]:
            node.handle(message)
        self.links[shard].rebind(node)
        self.links[shard].reset()
        for pending in self._pending.values():
            if shard in pending.participants:
                pending.last_send.pop(shard, None)
        return node

    # ------------------------------------------------------------------
    # Reads (scatter-gather over local shard handles)
    # ------------------------------------------------------------------
    def nodes(self) -> list[ShardNode]:
        """The live shard handles behind the links."""
        return [link.shard for link in self.links]

    def merged_counts(
        self, target: str
    ) -> tuple[dict[tuple[int, ...], int], RelationSchema, str]:
        """Cluster-wide contents of a view or base relation.

        Views and partitioned relations merge (disjoint bag-union)
        across every shard; replicated relations are answered by the
        home shard alone, whose copy is delta-complete by construction.
        Returns ``(encoded counts, schema, kind)``.
        """
        nodes = self.nodes()
        if target in self.views:
            sources = [
                (node.maintainer.view(target).contents, "view")
                for node in nodes
            ]
        elif target not in self.tables:
            raise UnknownRelationError(f"unknown relation {target!r}")
        elif self.topology.is_partitioned(target):
            sources = [(node.database.relation(target), "relation") for node in nodes]
        else:
            sources = [
                (nodes[HOME_SHARD].database.relation(target), "relation")
            ]
        counts: dict[tuple[int, ...], int] = {}
        for relation, _ in sources:
            for values, count in relation.items():
                counts[values] = counts.get(values, 0) + count
        schema = sources[0][0].schema
        return counts, schema, sources[0][1]

    def merged_relation(self, target: str) -> Relation:
        """:meth:`merged_counts` materialized as a relation."""
        counts, schema, _ = self.merged_counts(target)
        return Relation.from_counts(schema, counts)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def last_sequence(self) -> int:
        """The highest emitted ``cluster_seq``."""
        return self._emitted_seq

    def pending_count(self) -> int:
        """In-flight transactions (0 means the 2PC layer is quiet)."""
        return len(self._pending)

    def stats(self) -> dict[str, Any]:
        """Counters plus protocol state, for ``stats`` ops and tests."""
        return {
            "shards": self.topology.shards,
            "routed": self.routed,
            "cluster_seq": self._emitted_seq,
            "pending_txns": len(self._pending),
            "routing": self.routing.describe(),
            "counters": dict(sorted(self.recorder.counters.items())),
        }


def build_cluster(
    topology: ClusterTopology,
    tables: Mapping[str, Sequence[str]],
    rows: Mapping[str, Sequence[Sequence[Any]]],
    constraints: Mapping[str, Condition | str],
    views: Sequence[tuple[str, Expression]],
    *,
    routed: bool = True,
    link_factory: Callable[[ShardNode, int], ShardLink] | None = None,
    changefeed_history: int = 256,
    base_free_shards: Sequence[int] = (),
    keys: Mapping[str, Sequence[Sequence[str]]] | None = None,
    foreign_keys: Sequence[ForeignKey] = (),
) -> ClusterCoordinator:
    """Stand up a full cluster: shards, links, coordinator.

    ``rows`` holds each relation's *complete* initial contents; every
    shard filters its own slice.  Without a ``link_factory`` the shards
    hang off synchronous :class:`~repro.cluster.links.DirectLink`\\ s
    (the front-end / CLI / example deployment shape); the simulation
    passes a factory producing lossy :class:`~repro.simulation.network.
    SimShardLink`\\ s.  The returned coordinator carries a
    ``shard_factory`` closing over the initial rows, so
    :meth:`ClusterCoordinator.crash_shard` can rebuild any shard from
    genesis plus its commit history.

    ``base_free_shards`` lists shard ids built with ``base_free=True``
    (see :class:`ShardNode`): those nodes shed their base rows after
    registration and require every hosted view to be self-maintainable;
    crash rebuilds preserve the flag.  Delete-existence validation
    weakens to the remaining full hosts — keep at least the owning
    shard of every partitioned range full unless the workload's
    deletes are validated upstream, or declare keys that restore
    presence tracking (below).

    ``keys`` maps relation names to their declared candidate keys and
    ``foreign_keys`` lists :class:`~repro.engine.keys.ForeignKey`
    declarations; every shard declares them on its local database
    before registering views, so compiled plans prove the same chase
    facts cluster-wide.  A key on a *partitioned* relation must
    contain the partition attribute — rows agreeing on the key would
    otherwise route to different shards and shard-local enforcement
    could miss a cluster-wide collision.  On base-free shards a
    partition-aligned, row-determining key unlocks key-occupancy
    presence tracking (see :class:`ShardNode`), lifting the exact-ops
    workload restriction for that relation.
    """
    frozen_tables = {name: tuple(attrs) for name, attrs in tables.items()}
    frozen_rows = {name: list(batch) for name, batch in rows.items()}
    coerced = {
        name: Condition.coerce(cond) for name, cond in constraints.items()
    }
    view_list = [(name, expression) for name, expression in views]
    frozen_keys = {
        name: tuple(tuple(key) for key in declared)
        for name, declared in (keys or {}).items()
    }
    for name, declared in sorted(frozen_keys.items()):
        spec = topology.spec(name)
        if spec is None:
            continue
        for key in declared:
            if spec.key not in key:
                raise ClusterError(
                    f"key ({', '.join(key)}) on partitioned relation "
                    f"{name!r} omits the partition attribute "
                    f"{spec.key!r}: shard-local enforcement cannot see "
                    f"a collision between rows routed to different shards"
                )
    fk_list = tuple(foreign_keys)

    base_free = frozenset(base_free_shards)

    def make_shard(shard_id: int) -> ShardNode:
        return ShardNode(
            shard_id,
            topology,
            frozen_tables,
            frozen_rows,
            coerced,
            view_list,
            base_free=shard_id in base_free,
            keys=frozen_keys,
            foreign_keys=fk_list,
        )

    links: list[ShardLink] = []
    for shard_id in range(topology.shards):
        node = make_shard(shard_id)
        links.append(
            link_factory(node, shard_id)
            if link_factory is not None
            else DirectLink(node)
        )
    return ClusterCoordinator(
        topology,
        frozen_tables,
        coerced,
        view_list,
        links,
        shard_factory=make_shard,
        routed=routed,
        changefeed_history=changefeed_history,
    )
