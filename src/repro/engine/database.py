"""The database: named base relations plus the commit pipeline.

A :class:`Database` owns:

* the base relations (plain set-semantics relations — every tuple has
  multiplicity one, as the paper notes for base relations in §5.2),
  each carrying its own hash indexes — :meth:`create_index` /
  :meth:`drop_index` are the DDL facade over them;
* the transaction factory (:meth:`begin` / :meth:`transact`);
* the commit position (:meth:`last_sequence`) — a counter, not a
  history: the write-ahead log is the one record of past commits;
* an ordered list of *commit hooks* — callables receiving
  ``(txn_id, {relation: Delta})`` — through which view maintainers and
  the write-ahead log observe committed net effects.  Hooks run inside
  the commit, after base relations (and so their indexes) and the
  position have been updated, matching the paper's assumption that base
  relations are updated before views and that complete affected tuples
  are available at view-update time.

A commit is all or nothing.  While it runs, :attr:`Database.undo`
is its *undo record*: a hook appends ``(function, *arguments)`` for
each effect it made, and if the base apply, a hook or the log append
raises, the commit point is never reached — the base deltas are
inverted, the position is put back, the records run in reverse (so a
hook may undo by re-deriving from the restored base) and the
transaction ends aborted.  Past the commit point :attr:`Database.deliveries`
run: ``(callbacks, first, second)``, view subscribers with a view and
its delta, so a changefeed only ever sees committed deltas.
"""

from __future__ import annotations

from contextlib import suppress
from itertools import chain
from typing import Callable, Iterable, Mapping, Sequence

from repro.algebra.conditions import Condition
from repro.algebra.relation import (
    Delta,
    HashIndex,
    Relation,
    apply_counts,
    first_repeat,
    key_function,
)
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
from repro.engine.transactions import Transaction, TransactionState
from repro.errors import (
    ConstraintError,
    ConstraintViolationError,
    KeyViolationError,
    ReproError,
    SchemaError,
    UnknownRelationError,
    ViewQuarantinedError,
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
        self._last_sequence = 0
        self.constraints = ConstraintCatalog(notify=self._notify_ddl)
        self.keys = KeyCatalog(notify=self._notify_ddl)
        self._commit_hooks: list[CommitHook] = []
        self._ddl_hooks: list[DdlHook] = []
        #: The running commit's undo record and deliveries; else None.
        self.undo: list | None = None
        self.deliveries: list | None = None

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
        starting state, not an update to be maintained against.  They are
        one :meth:`RelationSchema.encode_rows` batch, then a set: the first
        bad row raises, else the first repeat.

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
        rows = list(rows)
        encoded = schema.encode_rows(rows)
        counts = dict.fromkeys(encoded, 1)
        if len(counts) < len(rows):
            row = rows[first_repeat(encoded)]
            raise SchemaError(f"duplicate initial row {row!r} in {name!r}")
        relation = self._relations[name] = Relation.adopt(schema, counts)
        try:
            self._notify_ddl("create_relation", name)
        except ReproError:
            del self._relations[name]
            raise
        return relation

    def drop_relation(self, name: str) -> None:
        """Remove a base relation with its indexes, constraint and keys.

        The ``drop_relation`` DDL event fires first, with everything
        still in place, and a hook that raises leaves it all there: that
        is how a view maintainer refuses to drop a relation a registered
        view reads (SQL's ``RESTRICT``).  The one event reaches every
        dependent of the indexes, constraint and keys that go with the
        relation, so none of them fires its own.
        """
        relation = self.relation(name)
        self._notify_ddl("drop_relation", name)
        del self._relations[name]
        # Snapshot before dropping: _drop_index mutates the mapping.
        for attributes in tuple(relation.indexes):
            relation._drop_index(attributes)
        self.constraints.discard(name)
        self.keys.discard(name)

    def relation(self, name: str) -> Relation:
        """The live base relation named ``name``."""
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(f"unknown relation {name!r}") from None

    def has_relation(self, name: str) -> bool:
        """Whether a base relation named ``name`` exists."""
        return name in self._relations

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
        bound = key in relation.indexes
        index = relation.index_on(key)  # built in one pass unless bound
        if len(index) < len(relation):  # some bucket holds two rows
            if not bound:
                relation._drop_index(key)
            crowded = [rows for rows in index._buckets.values() if len(rows) > 1]
            collisions = find_key_collisions(
                relation.schema, key, chain.from_iterable(crowded)
            )
            preview = ", ".join(f"{a!r}/{b!r}" for a, b in collisions[:3])
            if len(collisions) > 3:
                preview += ", …"
            raise ConstraintError(
                f"cannot declare key ({', '.join(key)}) on {relation_name!r}: "
                f"existing rows collide on it: {preview}"
            )
        if not bound:
            self._notify_ddl("create_index", relation_name)
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
        """Start a new transaction; it takes its id here, at the call.

        ``txn_id`` pins an explicit identifier — the recovery path uses
        this to replay write-ahead-log records under their original ids,
        so a recovered database's history is indistinguishable from the
        one that produced the log.  Uniqueness of pinned ids is the
        replayer's contract (a log never holds duplicates); the counter
        only ever advances, so fresh transactions cannot collide with
        replayed ones.

        The transaction is its own context manager, committing on
        success and aborting on an exception; :meth:`transact` is this
        method under the name a ``with`` block reads by:

        >>> db = Database()
        >>> _ = db.create_relation("r", ["A", "B"])
        >>> with db.transact() as txn:
        ...     txn.insert("r", (1, 2))
        >>> (1, 2) in db.relation("r")
        True
        """
        if txn_id is None:
            txn_id = self._next_txn_id
        if txn_id >= self._next_txn_id:
            self._next_txn_id = txn_id + 1
        return Transaction(self, txn_id)

    transact = begin

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

    def last_sequence(self) -> int:
        """The commit position: the sequence of the newest commit with a
        net effect, or of the one skipped to (0 for a fresh database).

        Every non-empty commit takes the next sequence before its hooks
        run, so a hook — the maintainer stamping a view's
        ``last_refresh_sequence`` — reads its own commit's sequence.
        """
        return self._last_sequence

    def advance_sequence(self, next_sequence: int) -> None:
        """Ensure future commits get sequences ``>= next_sequence``.

        Recovery and followers call this before replaying a WAL tail so
        each replayed commit takes *the sequence the WAL gave it* —
        afterwards :meth:`last_sequence` (and every view's
        ``last_refresh_sequence``) is a WAL position, which is what
        changefeed subscribers resume from, even with nothing replayed.
        """
        self._last_sequence = max(self._last_sequence, next_sequence - 1)

    def apply(self, inserts: Mapping[str, Iterable[object]] | None = None,
              deletes: Mapping[str, Iterable[object]] | None = None) -> dict[str, Delta]:
        """One-shot transaction helper: insert/delete batches and commit."""
        with self.transact() as txn:
            for name, rows in (deletes or {}).items():
                txn.delete_many(name, rows)
            for name, rows in (inserts or {}).items():
                txn.insert_many(name, rows)
            return txn.commit()  # for the deltas; the block aborts on error

    # ------------------------------------------------------------------
    # Commit pipeline
    # ------------------------------------------------------------------
    def add_commit_hook(self, hook: CommitHook) -> None:
        """Register a commit observer (view maintainer, WAL writer…).

        Hooks run in registration order, inside the commit, after base
        relations (with their indexes) and the position have been
        updated.  A hook that raises undoes the commit (each hook's
        effects are in :attr:`undo`), except with
        :class:`~repro.errors.ViewQuarantinedError`: the commit stands
        and ``commit()`` raises it once every hook and delivery ran.
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
        # Unlike commit hooks (where a failure undoes the commit, so
        # the hooks after it have nothing to observe), DDL hooks are
        # correctness-critical: the maintainer's plan invalidation
        # rides this bus, and a user hook registered earlier must not be
        # able to stop it — that would leave a cached plan bound to an
        # index or relation that no longer exists.  Every hook sees
        # every event; the first failure propagates afterwards.
        deliver([(self._ddl_hooks, event, relation_name)])

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
        constraints = self.constraints
        if constraints.involves(deltas):
            for name, delta in deltas.items():
                condition = constraints.get(name)
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
        keys = self.keys
        if not keys.involves(deltas):
            return None
        for name in sorted(deltas):
            delta = deltas[name]
            if not delta.inserted:
                continue
            for key in keys.keys_of(name):
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
        if not keys._foreign_keys:  # none declared: nothing to scan
            return None
        checked: set[ForeignKey] = set()
        for name in sorted(deltas):
            candidates = keys.foreign_keys_of(name) + keys.referencing(name)
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

    def _apply_commit(
        self,
        txn: Transaction | None,
        deltas: Mapping[str, Delta],
        hooks: Sequence[CommitHook] = (),
        txn_id: int = 0,
    ) -> None:
        """Apply ``txn``'s net effect and run the commit hooks, up to the
        commit point (see the module docstring).  Past it the deliveries
        run, every one even if some raise, and then the first failure is
        raised: a hook's :class:`~repro.errors.ViewQuarantinedError`
        first, else a delivery's.  With ``txn`` None, ``hooks`` observe
        the deltas of transaction ``txn_id``, which a base-free host
        holds no base rows to apply to."""
        if txn is not None:
            hooks, txn_id = self._commit_hooks, txn.txn_id
        outer = self.undo, self.deliveries
        undo: list = []
        deliveries: list = []
        self.undo, self.deliveries = undo, deliveries
        sequence, applied, stale = self._last_sequence, 0, None
        try:
            if txn is not None:
                for name, delta in deltas.items():
                    relation = self._relations[name]
                    if relation.schema is delta.schema:
                        apply_counts(relation, delta.inserted, delta.deleted, True)
                    else:  # the relation was re-created since the batch
                        delta.apply_to(relation)
                    applied += 1
                if deltas:
                    self._last_sequence += 1
            for hook in hooks:
                try:
                    hook(txn_id, deltas)
                except ViewQuarantinedError as exc:
                    stale = stale or exc
        except BaseException:
            for name, delta in reversed(list(deltas.items())[:applied]):
                apply_counts(self._relations[name], delta.deleted, delta.inserted)
            self._last_sequence = sequence
            for function, *arguments in reversed(undo):
                function(*arguments)
            if txn is not None:
                txn.state = TransactionState.ABORTED
            raise
        finally:
            self.undo, self.deliveries = outer
        if deliveries or stale is not None:
            deliver(deliveries, stale)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def clone_data(self) -> "Database":
        """A structural copy of schemas and contents (no hooks; the
        position starts at 0).

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


def deliver(deliveries: Iterable[tuple], failure: BaseException | None = None) -> None:
    """Run each ``(callbacks, first, second)`` delivery, calling every
    callback with the two arguments, even after one raised; then raise
    ``failure``, else the first error."""
    for callbacks, first, second in deliveries:
        for callback in callbacks:
            try:
                callback(first, second)
            except BaseException as exc:
                failure = failure or exc
    if failure is not None:
        raise failure
