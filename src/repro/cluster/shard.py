"""One shard worker: the unchanged single-node stack plus 2PC glue.

A :class:`ShardNode` owns a plain :class:`~repro.engine.database.
Database` + :class:`~repro.core.maintainer.ViewMaintainer` pair — the
same stack a single-node deployment runs, compiled plans, relevance
screens and all.  What makes it a shard is purely declarative: its base
relations hold only the rows its key-ranges own (partitioned relations)
or a full copy (replicated relations), and each partitioned relation's
ownership range is *declared as a constraint*, so a misrouted row is
rejected by the ordinary commit pipeline and the range doubles as a
premise for the compiled plans' own static-irrelevance screens.

The 2PC surface is a message handler (transport-agnostic — the
coordinator drives it over :class:`~repro.cluster.links.DirectLink` or
a simulated lossy channel):

* ``prepare`` — validate the sub-transaction (structure, domains, and
  declared constraints against its netted inserts, which is exact: a
  raw insert that violates a constraint can never be netted away,
  because the violating row cannot already be present) and stage it.
  No state changes; a crash between prepare and commit loses only the
  stage, which the coordinator's retransmitted, self-contained commit
  message replaces.
* ``commit`` — apply sub-commits strictly in ``shard_seq`` order (a
  gap buffer holds early arrivals), pinning the coordinator's global
  transaction id, and reply with the per-view deltas the maintainer
  just applied — the shard's changefeed contribution.  Acks are cached
  per ``shard_seq`` so retransmitted commits are answered
  byte-identically instead of re-applied.
* ``abort`` — drop the stage and tombstone the transaction id, so a
  late retransmitted ``prepare`` can never resurrect an aborted
  transaction.

Every reply carries ``shard`` so the coordinator can attribute it
without trusting transport metadata.

Base-free hosting
-----------------
With ``base_free=True`` the node keeps schemas and declared constraints
but sheds its base-relation rows right after registration: every hosted
view must be **self-maintainable** (:mod:`repro.scheduler.selfmaint`),
and commits are applied by *netting* the sub-transaction's op batches
(:meth:`ShardNode._net_base_free`, the commit pipeline's own rule) into
per-relation deltas fed straight to the maintainer, so view contents
and acks stay byte-identical to a full shard's.  What a base-free node
cannot do by itself is check presence (it has no rows to check
against): it takes a delete to name a present row and an insert an
absent one, so a duplicate insert of a stored row or a delete of an
absent row — silent no-ops on a full shard — would leak into its
netted deltas.  Without further premises the workload must avoid them,
and existence stays with the shards holding full copies.

Declared keys close that trust boundary.  When a partitioned relation
declares a key that (a) contains the partition attribute, so routing
sends every row with a given key value to this shard, and (b)
*determines the row* under the relation's declared constraint
(:func:`repro.analysis.dependencies.key_determines_row`), the node
keeps a **key-occupancy set** — just the key columns — instead of the
full rows it sheds.  Occupancy answers the only question presence
semantics needs: whether the row a key value pins
(:func:`~repro.analysis.dependencies.determined_row`) is currently
stored.  Netting then reproduces the commit pipeline's silent no-ops
exactly (duplicate inserts and absent deletes drop out), and prepare
rejects key collisions before voting, so such relations accept fully
unrestricted insert/delete workloads while staying byte-identical to a
full shard.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.algebra.conditions import Condition
from repro.algebra.expressions import Expression
from repro.algebra.relation import Delta, Relation
from repro.analysis.dependencies import determined_row, key_determines_row
from repro.cluster.topology import ClusterTopology
from repro.core.maintainer import ViewMaintainer
from repro.core.views import MaterializedView
from repro.engine.constraints import find_violations
from repro.engine.database import Database
from repro.engine.keys import ForeignKey
from repro.engine.persistence import delta_to_document
from repro.errors import ClusterError, ReproError, UnknownViewError
from repro.instrumentation import charge

__all__ = ["ShardNode"]

#: ``{"relation": [[value, ...], ...]}`` — raw (decoded) op batches.
OpBatches = Mapping[str, Sequence[Sequence[Any]]]

#: An encoded row (or key-column slice of one), as stored in relations.
ValueTuple = tuple[int, ...]


class ShardNode:
    """One shard's state machine: local stack + ordered 2PC application."""

    def __init__(
        self,
        shard_id: int,
        topology: ClusterTopology,
        tables: Mapping[str, Sequence[str]],
        rows: Mapping[str, Sequence[Sequence[Any]]],
        constraints: Mapping[str, Condition],
        views: Sequence[tuple[str, Expression]],
        base_free: bool = False,
        keys: Mapping[str, Sequence[Sequence[str]]] | None = None,
        foreign_keys: Sequence[ForeignKey] = (),
    ) -> None:
        self.shard_id = shard_id
        self.topology = topology
        self.base_free = base_free
        #: Distinct base tuples shed by base-free hosting (the
        #: benchmark's memory-saving measure; 0 on full shards).
        self.base_rows_dropped = 0
        self.database = Database()
        for name in sorted(tables):
            attributes = tables[name]
            initial = rows.get(name, ())
            if topology.is_partitioned(name):
                initial = [
                    row
                    for row in initial
                    if topology.shard_of_row(name, attributes, row) == shard_id
                ]
            self.database.create_relation(name, list(attributes), initial)
        # Declared constraints come first (they are premises the view
        # plans' static screens may use), global before range: for a
        # partitioned relation the shard declares K ∧ range as one
        # conjoined condition.
        for name in sorted(constraints):
            condition = Condition.coerce(constraints[name])
            spec = topology.spec(name)
            if spec is not None:
                condition = condition.conjoin(spec.range_condition(shard_id))
            if not condition.is_true():
                self.database.declare_constraint(name, condition)
        for name, spec in sorted(topology.partitions.items()):
            if name in constraints:
                continue
            window = spec.range_condition(shard_id)
            if not window.is_true():
                self.database.declare_constraint(name, window)
        # Keys and foreign keys are declared before the maintainer is
        # built so the compiled plans' chase proofs (view keys, FK
        # reductions) see the same premises a single-node stack would.
        for name in sorted(keys or {}):
            for key in (keys or {})[name]:
                self.database.declare_key(name, list(key))
        for fk in foreign_keys:
            self.database.declare_foreign_key(
                fk.relation, fk.attributes, fk.ref_relation, fk.ref_attributes
            )
        #: Base-free key-occupancy: relation → set of key tuples
        #: currently stored, for partitioned relations whose declared
        #: key contains the partition attribute and determines the row
        #: under the declared constraint.  Empty on full shards.
        self._occupancy: dict[str, set[ValueTuple]] = {}
        self._occupancy_keys: dict[str, tuple[str, ...]] = {}
        self._occupancy_positions: dict[str, tuple[int, ...]] = {}
        self.maintainer = ViewMaintainer(self.database)
        self._captured: list[tuple[str, dict[str, Any]]] = []
        self._applied_counts: dict[str, dict[str, int]] = {}
        self.database.add_commit_hook(self._capture_relation_deltas)
        for view_name, expression in views:
            self.maintainer.define_view(view_name, expression)
            self.maintainer.subscribe(view_name, self._capture_view_delta)
        if base_free:
            self._shed_base_copies()
        #: Highest contiguously applied ``shard_seq``.
        self.applied_seq = 0
        self._staged: dict[int, dict[str, Any]] = {}
        self._gap: dict[int, dict[str, Any]] = {}
        self._acks: dict[int, dict[str, Any]] = {}
        self._tombstones: set[int] = set()
        self._committed: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle(self, message: Mapping[str, Any]) -> list[dict[str, Any]]:
        """Process one coordinator message; returns the replies to send."""
        kind = message.get("kind")
        if kind == "prepare":
            return self._on_prepare(message)
        if kind == "commit":
            return self._on_commit(message)
        if kind == "abort":
            txn_id = int(message["txn"])
            self._staged.pop(txn_id, None)
            if txn_id not in self._committed:
                self._tombstones.add(txn_id)
            return [{"kind": "abort_ack", "txn": txn_id, "shard": self.shard_id}]
        raise ClusterError(
            f"shard {self.shard_id} received unknown message kind {kind!r}"
        )

    def _on_prepare(self, message: Mapping[str, Any]) -> list[dict[str, Any]]:
        txn_id = int(message["txn"])
        if txn_id in self._tombstones:
            return [
                {
                    "kind": "nack",
                    "txn": txn_id,
                    "shard": self.shard_id,
                    "error": "transaction was already aborted",
                }
            ]
        if txn_id in self._committed:
            # A retransmitted prepare arriving after the commit applied:
            # the coordinator is past this phase; re-answering prepared
            # is harmless and keeps the handler stateless about timing.
            return [{"kind": "prepared", "txn": txn_id, "shard": self.shard_id}]
        error = self._validate(
            message.get("inserts") or {}, message.get("deletes") or {}
        )
        if error is not None:
            self._tombstones.add(txn_id)
            return [
                {
                    "kind": "nack",
                    "txn": txn_id,
                    "shard": self.shard_id,
                    "error": error,
                }
            ]
        self._staged[txn_id] = dict(message)
        return [{"kind": "prepared", "txn": txn_id, "shard": self.shard_id}]

    def _validate(self, inserts: OpBatches, deletes: OpBatches) -> str | None:
        """Row-local validation exactly matching a single-node commit.

        Structural errors (unknown relations, arity, domains) surface
        while the batches are netted, which encodes each row once: a
        full node nets through a throwaway transaction that is always
        aborted, a base-free node through :meth:`_net_base_free`.  The
        constraint check runs over the netted inserts, which hold every
        violating raw insert: a violating row can never be stored, so
        netting never removes one (a same-transaction delete of an
        absent row does not cancel the insert — on a base-free node,
        whose unkeyed deletes are taken to name stored rows, within
        the trust boundary), and netting never adds inserted rows.

        Declared keys and foreign keys are checked here too, on the
        netted post-state: 2PC's contract is that a unanimous prepare
        guarantees the later commit cannot fail, and key checks run
        inside the commit pipeline, so prepare must anticipate them
        exactly.  A base-free node holds no rows, so existence stays
        with the full replicas in the quorum, except for key-occupancy
        relations, whose presence and key collisions are checked
        against the occupancy set.
        """
        violation: str | None = None
        try:
            if self.base_free:
                net, violation = self._net_base_free(inserts, deletes)
            else:
                net = self._probe(inserts, deletes)
        except ReproError as exc:
            return str(exc)
        for name in sorted(inserts):
            condition = self.database.constraints.get(name)
            delta = net.get(name)
            if condition is None or delta is None or not delta.inserted:
                continue
            violations = find_violations(
                name, condition, delta.schema, delta.inserted
            )
            if violations:
                preview = ", ".join(map(str, violations[:3]))
                return (
                    f"shard {self.shard_id} constraint {condition} on "
                    f"{name!r} rejects: {preview}"
                )
        if not self.base_free:
            violation = self.database.net_effect_violation(net)
        if violation is not None:
            return f"shard {self.shard_id} rejects: {violation}"
        return None

    def _probe(self, inserts: OpBatches, deletes: OpBatches) -> dict[str, Delta]:
        """A full node's net effect, from a transaction never committed."""
        probe = self.database.begin()
        try:
            for name, batch in sorted(deletes.items()):
                probe.delete_many(name, batch)
            for name, batch in sorted(inserts.items()):
                probe.insert_many(name, batch)
            return probe.net_deltas()
        finally:
            probe.abort()

    def _on_commit(self, message: Mapping[str, Any]) -> list[dict[str, Any]]:
        shard_seq = int(message["shard_seq"])
        if shard_seq > self.applied_seq:
            self._gap[shard_seq] = dict(message)
        replies = []
        while self.applied_seq + 1 in self._gap:
            self._apply_commit(self._gap.pop(self.applied_seq + 1))
        # Ack everything acked-or-applied that this message asks about,
        # from the cache — retransmissions get byte-identical answers.
        if shard_seq <= self.applied_seq:
            replies.append(self._acks[shard_seq])
        return replies

    def _apply_commit(self, message: dict[str, Any]) -> None:
        txn_id = int(message["txn"])
        shard_seq = int(message["shard_seq"])
        self._staged.pop(txn_id, None)
        self._captured.clear()
        self._applied_counts = {}
        if self.base_free:
            deltas, _ = self._net_base_free(
                message.get("inserts") or {}, message.get("deletes") or {}
            )
            for name in self._occupancy:
                delta = deltas.get(name)
                if delta is None:
                    continue
                positions = self._occupancy_positions[name]
                occupied = self._occupancy[name]
                for values in delta.deleted:
                    occupied.discard(tuple(values[i] for i in positions))
                for values in delta.inserted:
                    occupied.add(tuple(values[i] for i in positions))
            if deltas:
                self.maintainer.apply_deltas(txn_id, deltas)
            self._capture_relation_deltas(txn_id, deltas)
        else:
            txn = self.database.begin(txn_id=txn_id)
            for name, batch in sorted((message.get("deletes") or {}).items()):
                txn.delete_many(name, batch)
            for name, batch in sorted((message.get("inserts") or {}).items()):
                txn.insert_many(name, batch)
            txn.commit()
        views = {name: doc for name, doc in self._captured}
        self._captured.clear()
        self.applied_seq = shard_seq
        self._committed[txn_id] = shard_seq
        self._acks[shard_seq] = {
            "kind": "committed",
            "txn": txn_id,
            "shard": self.shard_id,
            "shard_seq": shard_seq,
            "views": views,
            "applied": self._applied_counts,
        }
        self._applied_counts = {}

    # ------------------------------------------------------------------
    # Base-free hosting
    # ------------------------------------------------------------------
    def _shed_base_copies(self) -> None:
        """Validate self-maintainability, then drop every base row.

        Runs once at registration: the hosted views have just been
        materialized against the bootstrap rows, so all that remains is
        proving no future maintenance step will read base state.  The
        per-shard range constraints are already declared, so a view
        whose condition contradicts this shard's ownership window
        classifies ``constraint_empty_join`` and is hosted as provably
        empty.

        Before clearing, partitioned relations with a row-determining
        declared key seed their key-occupancy set from the bootstrap
        rows: the key columns survive the shed and stand in for the
        full rows in all future presence checks.
        """
        offenders = [
            name
            for name in self.maintainer.view_names()
            if not self.maintainer.is_self_maintainable(name)
        ]
        if offenders:
            reasons = "; ".join(
                f"{name}: {self.maintainer.self_maintainability(name).reason}"
                for name in offenders
            )
            raise ClusterError(
                f"base-free shard {self.shard_id} cannot host "
                f"non-self-maintainable view(s) {offenders}: {reasons}"
            )
        for name, spec in sorted(self.topology.partitions.items()):
            relation = self.database.relation(name)
            constraint = self.database.constraints.get(name)
            if constraint is None:
                continue
            for key in self.database.keys.keys_of(name):
                if spec.key not in key:
                    # Routing is by the partition attribute; a key that
                    # omits it cannot be enforced shard-locally.
                    continue
                if not key_determines_row(relation.schema, key, constraint):
                    continue
                positions = tuple(relation.schema.index(a) for a in key)
                self._occupancy_keys[name] = key
                self._occupancy_positions[name] = positions
                self._occupancy[name] = {
                    tuple(values[i] for i in positions)
                    for values in relation.value_tuples()
                }
                charge("base_free_keys_tracked", len(self._occupancy[name]))
                break
        dropped = 0
        for name in sorted(self.database.relation_names()):
            dropped += self.database.relation(name).clear()
        self.base_rows_dropped = dropped
        charge("base_free_rows_dropped", dropped)

    def _net_base_free(
        self, inserts: OpBatches, deletes: OpBatches
    ) -> tuple[dict[str, Delta], str | None]:
        """Net op batches into per-relation deltas without stored rows.

        Each row is encoded once and folded by the commit pipeline's
        rule (:meth:`~repro.engine.transactions.Transaction._net`),
        deletes first as :meth:`_apply_commit` feeds them: a row
        cancels a pending opposite operation, or else joins the
        deletes if it is present, the inserts if it is absent.  Only
        the presence test differs, per relation:

        * a key-occupancy relation holds a row iff its key is occupied
          and :func:`~repro.analysis.dependencies.determined_row` of
          that key *is* the row — exact, so duplicate inserts and
          absent deletes net to silent no-ops as on a full shard;
        * any other relation is taken at its word, a deleted row
          present and an inserted one absent (the trust boundary in the
          module docstring).

        Returns the deltas and, for prepare to nack on, the first
        declared-key collision of a netted insert with another netted
        insert or with an occupied key the batch does not vacate.
        """
        deltas: dict[str, Delta] = {}
        violation: str | None = None
        for name in sorted(set(inserts) | set(deletes)):
            schema = self.database.relation(name).schema
            positions = self._occupancy_positions.get(name)
            inserted: set[ValueTuple] = set()
            deleted: set[ValueTuple] = set()
            for inserting, batch in (
                (False, deletes.get(name, ())),
                (True, inserts.get(name, ())),
            ):
                cancels, grows = (
                    (deleted, inserted) if inserting else (inserted, deleted)
                )
                for row in batch:
                    values = schema.encode_values(row)
                    if values in cancels:
                        cancels.discard(values)
                        continue
                    if positions is None:
                        present = not inserting
                    else:
                        key_values = tuple(values[i] for i in positions)
                        present = self._pinned_row(name, key_values) == values
                    if present != inserting:
                        grows.add(values)
            if inserted or deleted:
                deltas[name] = Delta.adopt(
                    schema, dict.fromkeys(inserted, 1), dict.fromkeys(deleted, 1)
                )
            if positions is None or violation is not None:
                continue
            vacated = {tuple(values[i] for i in positions) for values in deleted}
            claimed: dict[ValueTuple, ValueTuple] = {}
            for values in sorted(inserted):
                key_values = tuple(values[i] for i in positions)
                other = claimed.get(key_values)
                if other is None and key_values not in vacated:
                    other = self._pinned_row(name, key_values)
                if other is not None:
                    violation = (
                        f"the key ({', '.join(self._occupancy_keys[name])}) "
                        f"on {name!r}: {values!r}/{other!r}"
                    )
                    break
                claimed[key_values] = values
        return deltas, violation

    def _pinned_row(self, name: str, key_values: ValueTuple) -> ValueTuple | None:
        """The stored row an occupied key pins (``None`` when vacant)."""
        if key_values not in self._occupancy[name]:
            return None
        return determined_row(
            self.database.relation(name).schema,
            self._occupancy_keys[name],
            key_values,
            self.database.constraints.get(name),
        )

    def _capture_view_delta(self, view: MaterializedView, delta: Delta) -> None:
        self._captured.append((view.definition.name, delta_to_document(delta)))

    def _capture_relation_deltas(
        self, txn_id: int, deltas: Mapping[str, Delta]
    ) -> None:
        self._applied_counts = {
            name: {
                "inserted": delta.insert_count(),
                "deleted": delta.delete_count(),
            }
            for name, delta in sorted(deltas.items())
            if not delta.is_empty()
        }

    # ------------------------------------------------------------------
    # Local reads (scatter-gather query path; no messages involved)
    # ------------------------------------------------------------------
    def snapshot_counts(self, target: str) -> tuple[Relation, str]:
        """``(contents, kind)`` for a view or base relation by name."""
        try:
            return self.maintainer.view(target).contents, "view"
        except UnknownViewError:
            return self.database.relation(target), "relation"

    def __repr__(self) -> str:
        return (
            f"<ShardNode {self.shard_id} applied_seq={self.applied_seq} "
            f"{len(self._staged)} staged, {len(self._gap)} buffered>"
        )
