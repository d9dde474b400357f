"""The database: named base relations plus the commit pipeline.

A :class:`Database` owns:

* the base relations (plain set-semantics relations — every tuple has
  multiplicity one, as the paper notes for base relations in §5.2),
  each carrying its own hash indexes — :meth:`create_index` /
  :meth:`drop_index` are the DDL facade over them;
* the transaction factory (:meth:`begin` / :meth:`transact`);
* the :class:`~repro.engine.log.UpdateLog`;
* an ordered list of *commit hooks* — callables receiving
  ``(txn_id, {relation: Delta})`` — through which view maintainers and
  snapshot queues observe committed net effects.  Hooks run inside the
  commit, after base relations (and so their indexes) have been
  updated, matching the paper's assumption that base relations are
  updated before views and that complete affected tuples are available
  at view-update time.
"""

from __future__ import annotations

from contextlib import contextmanager, suppress
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.algebra.conditions import Condition
from repro.algebra.relation import Delta, HashIndex, Relation, key_function
from repro.algebra.schema import RelationSchema
from repro.engine.constraints import (
    ConstraintCatalog,
    find_violations,
    validate_constraint_condition,
)
from repro.engine.keys import (
    ForeignKey,
    KeyCatalog,
    find_dangling_references,
    find_key_collisions,
    validate_key_attributes,
)
from repro.engine.log import UpdateLog
from repro.engine.transactions import Transaction
from repro.errors import (
    ConstraintError,
    ConstraintViolationError,
    KeyViolationError,
    ReproError,
    SchemaError,
    UnknownRelationError,
)

ValueTuple = tuple[int, ...]

CommitHook = Callable[[int, Mapping[str, Delta]], None]

#: A schema/DDL observer: ``hook(event, relation_name)`` where event is
#: one of ``"create_relation"``, ``"drop_relation"``, ``"create_index"``,
#: ``"drop_index"``, ``"declare_constraint"``, ``"drop_constraint"``,
#: ``"declare_key"``, ``"drop_key"``, ``"declare_foreign_key"``,
#: ``"drop_foreign_key"``.
DdlHook = Callable[[str, str], None]


class Database:
    """An in-memory relational database with commit-time maintenance."""

    def __init__(self) -> None:
        self._relations: dict[str, Relation] = {}
        self._next_txn_id = 1
        self.log = UpdateLog()
        self.constraints = ConstraintCatalog(notify=self._notify_ddl)
        self.keys = KeyCatalog(notify=self._notify_ddl)
        self._commit_hooks: list[CommitHook] = []
        self._ddl_hooks: list[DdlHook] = []

    # ------------------------------------------------------------------
    # Schema management
    # ------------------------------------------------------------------
    def create_relation(
        self,
        name: str,
        schema: RelationSchema | Sequence[str],
        rows: Iterable[object] = (),
    ) -> Relation:
        """Create a base relation, optionally loading initial rows.

        Initial rows bypass the transaction machinery: they define the
        starting state, not an update to be maintained against.

        DDL hooks observe the creation and a hook that crashes does not
        undo it, with one exception: a hook that *rejects* the name by
        raising a :class:`~repro.errors.ReproError` (a view maintainer
        does when a registered view already holds it) leaves no
        relation behind.
        """
        if name in self._relations:
            raise SchemaError(f"relation {name!r} already exists")
        if not isinstance(schema, RelationSchema):
            schema = RelationSchema(schema)
        relation = Relation(schema)
        for distinct, row in enumerate(rows):
            relation.add(row)
            if len(relation) == distinct:  # the row only raised a counter
                raise SchemaError(f"duplicate initial row {row!r} in {name!r}")
        self._relations[name] = relation
        try:
            self._notify_ddl("create_relation", name)
        except ReproError:
            del self._relations[name]
            raise
        return relation

    def drop_relation(self, name: str) -> None:
        """Remove a base relation and its indexes."""
        relation = self._relations.pop(name, None)
        if relation is None:
            raise UnknownRelationError(f"unknown relation {name!r}")
        # Snapshot before dropping: _drop_index mutates the mapping.
        for attributes in tuple(relation.indexes):
            relation._drop_index(attributes)
            self._notify_ddl("drop_index", name)
        # The constraint dies with its relation; drop_relation's own DDL
        # event already reaches every dependent, so no second event.
        self.constraints.discard(name)
        self.keys.discard(name)
        self._notify_ddl("drop_relation", name)

    def relation(self, name: str) -> Relation:
        """The live base relation named ``name``."""
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(f"unknown relation {name!r}") from None

    def relation_names(self) -> tuple[str, ...]:
        """All base-relation names, sorted."""
        return tuple(sorted(self._relations))

    def schema_catalog(self) -> dict[str, RelationSchema]:
        """Mapping of relation name to schema (for expression analysis)."""
        return {name: rel.schema for name, rel in self._relations.items()}

    def instances(self) -> dict[str, Relation]:
        """Mapping of relation name to live contents (for evaluation)."""
        return dict(self._relations)

    def create_index(
        self, relation_name: str, attributes: Sequence[str]
    ) -> HashIndex:
        """Declare a hash index over a base relation (or return the
        existing one).  A ``create_index`` DDL event fires only when the
        relation's index set really changed."""
        relation = self.relation(relation_name)
        existing = relation.indexes.get(tuple(attributes))
        if existing is not None:
            return existing
        index = relation.index_on(attributes)
        self._notify_ddl("create_index", relation_name)
        return index

    def drop_index(self, relation_name: str, attributes: Sequence[str]) -> bool:
        """Drop a hash index; returns True when one existed.

        The ``drop_index`` DDL event is what makes dropping safe: a
        compiled plan holds the index object itself, which stops being
        kept up here, so its readers must recompile and rebind.
        """
        relation = self._relations.get(relation_name)
        if relation is None or not relation._drop_index(attributes):
            return False
        self._notify_ddl("drop_index", relation_name)
        return True

    def declare_constraint(
        self, relation_name: str, condition: object
    ) -> Condition:
        """Declare that every tuple of ``relation_name`` satisfies
        ``condition`` (a Condition or a parseable string over the
        relation's attribute names).

        Existing rows are validated immediately — a constraint records
        an invariant, it cannot create one — and from here on the
        commit pipeline rejects transactions inserting violating tuples
        (:class:`~repro.errors.ConstraintViolationError`).  Declaring
        fires a ``declare_constraint`` DDL event, invalidating any
        compiled maintenance plan whose static-irrelevance proofs the
        new premise could change; re-declaring replaces the previous
        condition.
        """
        relation = self.relation(relation_name)
        coerced = Condition.coerce(condition)
        validate_constraint_condition(relation_name, coerced, relation.schema)
        violations = find_violations(
            relation_name, coerced, relation.schema, relation
        )
        if violations:
            preview = ", ".join(map(str, violations[:3]))
            if len(violations) > 3:
                preview += ", …"
            raise ConstraintError(
                f"cannot declare constraint {coerced} on {relation_name!r}: "
                f"existing rows violate it: {preview}"
            )
        self.constraints.declare(relation_name, coerced)
        return coerced

    def drop_constraint(self, relation_name: str) -> bool:
        """Drop a declared constraint; returns True when one existed.

        Fires a ``drop_constraint`` DDL event: plans that statically
        dropped the relation's screening on the constraint's strength
        must recompile without it.
        """
        self.relation(relation_name)  # unknown names fail loudly
        return self.constraints.drop(relation_name)

    def declare_key(
        self, relation_name: str, attributes: Sequence[str]
    ) -> tuple[str, ...]:
        """Declare ``attributes`` as a candidate key of ``relation_name``.

        Existing rows are validated immediately — no two stored rows may
        agree on the key — and from here on the commit pipeline rejects
        transactions whose net effect would create such a pair
        (:class:`~repro.errors.KeyViolationError`).  Declaring fires a
        ``declare_key`` DDL event, invalidating cached plans whose
        dependency proofs the new premise could strengthen.  The hash
        index on the key attributes is bound here (created, or reused
        when one exists): the commit check probes it once per inserted
        row instead of walking the relation.
        """
        relation = self.relation(relation_name)
        key = validate_key_attributes(relation_name, attributes, relation.schema)
        collisions = find_key_collisions(
            relation.schema, key, relation.value_tuples()
        )
        if collisions:
            preview = ", ".join(f"{a!r}/{b!r}" for a, b in collisions[:3])
            if len(collisions) > 3:
                preview += ", …"
            raise ConstraintError(
                f"cannot declare key ({', '.join(key)}) on {relation_name!r}: "
                f"existing rows collide on it: {preview}"
            )
        self.create_index(relation_name, key)
        self.keys.declare_key(relation_name, key)
        return key

    def drop_key(
        self, relation_name: str, attributes: Sequence[str] | None = None
    ) -> bool:
        """Drop a declared key (or all of a relation's); True when one
        existed.  Fires a ``drop_key`` DDL event: plans embedding the
        key's dependency proofs must recompile without them.
        """
        self.relation(relation_name)  # unknown names fail loudly
        return self.keys.drop_key(relation_name, attributes)

    def declare_foreign_key(
        self,
        relation_name: str,
        attributes: Sequence[str],
        ref_relation: str,
        ref_attributes: Sequence[str],
    ) -> ForeignKey:
        """Declare that ``relation_name``'s ``attributes`` reference the
        declared key ``ref_attributes`` of ``ref_relation``.

        The referenced attribute list must already be a declared key of
        the referenced relation (referential integrity to a non-key is
        not a functional dependency, so the chase could not use it).
        Existing rows are validated immediately; from here on the commit
        pipeline rejects transactions whose net effect leaves a
        referencing row without its referenced partner, probing the
        referenced key's index for each inserted referencing row and
        the index on the referencing attributes, bound here, for each
        deleted referenced row.
        """
        relation = self.relation(relation_name)
        ref = self.relation(ref_relation)
        key = validate_key_attributes(relation_name, attributes, relation.schema)
        ref_key = validate_key_attributes(ref_relation, ref_attributes, ref.schema)
        if len(key) != len(ref_key):
            raise ConstraintError(
                f"foreign key on {relation_name!r} lists {len(key)} "
                f"attributes but references {len(ref_key)}"
            )
        if ref_key not in self.keys.keys_of(ref_relation):
            raise ConstraintError(
                f"foreign key on {relation_name!r} references "
                f"({', '.join(ref_key)}) which is not a declared key of "
                f"{ref_relation!r} — declare the key first"
            )
        foreign_key = ForeignKey(relation_name, key, ref_relation, ref_key)
        dangling = find_dangling_references(
            foreign_key,
            relation.schema,
            relation.value_tuples(),
            ref.schema,
            ref.value_tuples(),
        )
        if dangling:
            preview = ", ".join(map(str, dangling[:3]))
            if len(dangling) > 3:
                preview += ", …"
            raise ConstraintError(
                f"cannot declare foreign key {foreign_key.describe()}: "
                f"existing rows dangle: {preview}"
            )
        self.create_index(relation_name, key)
        self.keys.declare_foreign_key(foreign_key)
        return foreign_key

    def drop_foreign_key(self, relation_name: str, ref_relation: str) -> bool:
        """Drop the foreign keys from ``relation_name`` to
        ``ref_relation``; True when one existed."""
        self.relation(relation_name)  # unknown names fail loudly
        return self.keys.drop_foreign_key(relation_name, ref_relation)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def begin(self, txn_id: int | None = None) -> Transaction:
        """Start a new transaction.

        ``txn_id`` pins an explicit identifier — the recovery path uses
        this to replay write-ahead-log records under their original ids,
        so a recovered database's history is indistinguishable from the
        one that produced the log.  Uniqueness of pinned ids is the
        replayer's contract (a log never holds duplicates); the counter
        only ever advances, so fresh transactions cannot collide with
        replayed ones.
        """
        if txn_id is None:
            txn_id = self._next_txn_id
        txn = Transaction(self, txn_id)
        self._next_txn_id = max(self._next_txn_id, txn_id + 1)
        return txn

    @contextmanager
    def transact(self, txn_id: int | None = None) -> Iterator[Transaction]:
        """Context manager: commit on success, abort on exception.

        >>> db = Database()
        >>> _ = db.create_relation("r", ["A", "B"])
        >>> with db.transact() as txn:
        ...     txn.insert("r", (1, 2))
        >>> (1, 2) in db.relation("r")
        True
        """
        txn = self.begin(txn_id)
        try:
            yield txn
        except BaseException:
            if txn.state.value == "active":
                txn.abort()
            raise
        if txn.state.value == "active":
            txn.commit()

    @property
    def next_txn_id(self) -> int:
        """The id the next transaction will receive (checkpoint state)."""
        return self._next_txn_id

    def advance_txn_counter(self, next_txn_id: int) -> None:
        """Ensure future transactions get ids ``>= next_txn_id``.

        Called by recovery after replaying a checkpoint whose log tail
        is empty, so fresh transactions never reuse a pre-crash id.
        """
        self._next_txn_id = max(self._next_txn_id, next_txn_id)

    def apply(self, inserts: Mapping[str, Iterable[object]] | None = None,
              deletes: Mapping[str, Iterable[object]] | None = None) -> dict[str, Delta]:
        """One-shot transaction helper: insert/delete batches and commit."""
        with self.transact() as txn:
            for name, rows in (deletes or {}).items():
                txn.delete_many(name, rows)
            for name, rows in (inserts or {}).items():
                txn.insert_many(name, rows)
            # Committed here for the deltas; transact() is the abort on error.
            deltas = txn.commit()
        return deltas

    # ------------------------------------------------------------------
    # Commit pipeline
    # ------------------------------------------------------------------
    def add_commit_hook(self, hook: CommitHook) -> None:
        """Register a commit observer (view maintainer, snapshot queue…).

        Hooks run in registration order, inside the commit, after base
        relations (with their indexes) and the log have been updated.
        """
        self._commit_hooks.append(hook)

    def remove_commit_hook(self, hook: CommitHook) -> None:
        """Unregister a previously added hook (no-op when absent)."""
        with suppress(ValueError):
            self._commit_hooks.remove(hook)

    def add_ddl_hook(self, hook: DdlHook) -> None:
        """Register a schema-change observer.

        Hooks fire on ``create_relation``/``drop_relation`` and on real
        index-set changes made through :meth:`create_index` /
        :meth:`drop_index`.  View maintainers
        use this to invalidate compiled maintenance plans whose join
        order or index bindings the change could stale.
        """
        self._ddl_hooks.append(hook)

    def remove_ddl_hook(self, hook: DdlHook) -> None:
        """Unregister a previously added DDL hook (no-op when absent)."""
        with suppress(ValueError):
            self._ddl_hooks.remove(hook)

    def _notify_ddl(self, event: str, relation_name: str) -> None:
        # Unlike commit hooks (observers of an already-durable fact,
        # where stop-at-first-failure is the pinned policy), DDL hooks
        # are correctness-critical: the maintainer's plan invalidation
        # rides this bus, and a user hook registered earlier must not be
        # able to stop it — that would leave a cached plan bound to an
        # index or relation that no longer exists.  Every hook sees
        # every event; the first failure propagates afterwards.
        failure: BaseException | None = None
        for hook in self._ddl_hooks:
            try:
                hook(event, relation_name)
            except BaseException as exc:
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure

    def _check_constraints(
        self, txn: Transaction, deltas: Mapping[str, Delta]
    ) -> None:
        """Reject a commit whose inserts violate a declared constraint.

        Called by :meth:`Transaction.commit` before the transaction
        leaves the active state, so a violation aborts cleanly with no
        state changed.  Deletions cannot violate a tuple-wise
        invariant, so only the inserted side is checked.  Declared keys
        and foreign keys are checked here too — on the transaction's
        *net effect* against the post-state — so a violation of any
        declared invariant aborts before the commit mutates anything.
        """
        if len(self.constraints):
            for name, delta in deltas.items():
                condition = self.constraints.get(name)
                if condition is None or not delta.inserted:
                    continue
                schema = self._relations[name].schema
                violations = find_violations(
                    name, condition, schema, delta.inserted
                )
                if violations:
                    preview = ", ".join(map(str, violations[:3]))
                    if len(violations) > 3:
                        preview += ", …"
                    raise ConstraintViolationError(
                        f"transaction {txn.txn_id} violates the constraint "
                        f"{condition} on {name!r}: {preview}"
                    )
        violation = self.net_effect_violation(deltas)
        if violation is not None:
            raise KeyViolationError(
                f"transaction {txn.txn_id} violates {violation}"
            )

    def net_effect_violation(
        self, deltas: Mapping[str, Delta]
    ) -> str | None:
        """Describe the first declared key / foreign key a net effect breaks.

        Returns ``None`` when the post-state satisfies every declared
        key and foreign key.  This is the commit pipeline's enforcement
        check exposed without a transaction: 2PC prepare runs it over a
        staged sub-transaction's netted deltas so that a unanimously
        prepared commit can never fail its key checks afterwards.

        The stored state satisfies every declared key and foreign key,
        so only rows the net effect moves can break one, and each is
        checked by probing an index over the stored (pre-commit) state:
        the work is proportional to the delta, not to the relation.  The
        indexes were bound at declaration; :meth:`create_index` hands
        them back, or re-creates one that was dropped since.

        Key collisions: deletes cannot create one, so only inserted
        rows are checked — each against the stored rows sharing its key
        value that the transaction does not delete, and against the
        other inserted rows.  Foreign keys ``r → p`` can break through
        inserts into ``r`` or deletes from ``p``; both sides are judged
        on the post-state, so a transaction may move a referenced row
        and its referencing rows together.
        """
        if not len(self.keys):
            return None
        for name in sorted(deltas):
            delta = deltas[name]
            if not delta.inserted:
                continue
            for key in self.keys.keys_of(name):
                collisions = self._key_collisions(name, key, delta)
                if collisions:
                    preview = ", ".join(
                        f"{a!r}/{b!r}" for a, b in collisions[:3]
                    )
                    if len(collisions) > 3:
                        preview += ", …"
                    return (
                        f"the key ({', '.join(key)}) on {name!r}: {preview}"
                    )
        checked: set[ForeignKey] = set()
        for name in sorted(deltas):
            candidates = self.keys.foreign_keys_of(name) + self.keys.referencing(
                name
            )
            for fk in candidates:
                if fk in checked:
                    continue
                checked.add(fk)
                dangling = self._dangling_references(
                    fk, deltas.get(fk.relation), deltas.get(fk.ref_relation)
                )
                if dangling:
                    preview = ", ".join(map(str, dangling[:3]))
                    if len(dangling) > 3:
                        preview += ", …"
                    return f"the foreign key {fk.describe()}: {preview}"
        return None

    def _key_collisions(
        self, name: str, key: tuple[str, ...], delta: Delta
    ) -> list[tuple[ValueTuple, ValueTuple]]:
        """The post-state's collisions on ``key``, one probe per inserted row.

        Every colliding pair holds an inserted row, so the inserted
        rows plus the surviving stored rows sharing a key value with
        one of them are all the rows that can collide.
        """
        index = self.create_index(name, key)
        key_of = index.key_of
        deleted = delta.deleted
        rows = set(delta.inserted)
        for values in delta.inserted:
            for stored in index.probe(key_of(values)):
                if stored not in deleted:
                    rows.add(stored)
        return find_key_collisions(self._relations[name].schema, key, rows)

    def _dangling_references(
        self, fk: ForeignKey, src_delta: Delta | None, dst_delta: Delta | None
    ) -> list[ValueTuple]:
        """The post-state's referencing rows without a partner, sorted.

        Only an inserted referencing row or a stored one whose partner
        the transaction deletes can dangle: the first kind probes the
        referenced key's index, the second is found by probing the
        index on the referencing attributes with the deleted key.
        """
        src_inserted = src_delta.inserted if src_delta is not None else {}
        dst_deleted = dst_delta.deleted if dst_delta is not None else {}
        if not (src_inserted or dst_deleted):
            return []
        src_key = key_function(
            self._relations[fk.relation].schema.positions(fk.attributes)
        )
        dst_key = key_function(
            self._relations[fk.ref_relation].schema.positions(fk.ref_attributes)
        )
        # Referenced key values the transaction itself supplies.
        arriving = set(
            map(dst_key, dst_delta.inserted if dst_delta is not None else ())
        )
        dangling: set[ValueTuple] = set()
        if src_inserted:
            referenced = self.create_index(fk.ref_relation, fk.ref_attributes)
            for values in src_inserted:
                wanted = src_key(values)
                if wanted not in arriving and all(
                    stored in dst_deleted for stored in referenced.probe(wanted)
                ):
                    dangling.add(values)
        if dst_deleted:
            referencing = self.create_index(fk.relation, fk.attributes)
            src_deleted = src_delta.deleted if src_delta is not None else {}
            for values in dst_deleted:
                gone = dst_key(values)
                if gone not in arriving:
                    dangling.update(
                        stored
                        for stored in referencing.probe(gone)
                        if stored not in src_deleted
                    )
        return sorted(dangling)

    def _apply_commit(self, txn: Transaction, deltas: Mapping[str, Delta]) -> None:
        """Apply a transaction's net effect (called by Transaction.commit)."""
        for name, delta in deltas.items():
            delta.apply_to(self._relations[name])
        if deltas:
            self.log.append(txn.txn_id, deltas)
        for hook in self._commit_hooks:
            hook(txn.txn_id, deltas)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def clone_data(self) -> "Database":
        """A structural copy of schemas and contents (no hooks, no log).

        Used by consistency checks and tests that need an isolated
        replica to replay or recompute against.
        """
        other = Database()
        for name, relation in self._relations.items():
            other._relations[name] = relation.copy()
        return other

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}({len(rel)})" for name, rel in sorted(self._relations.items())
        )
        return f"<Database {parts or 'empty'}>"
