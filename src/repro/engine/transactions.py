"""Transactions with the paper's net-effect semantics (Section 3).

A transaction is an *indivisible* sequence of insert and delete
operations against base relations.  The paper represents its effect on
each relation ``r`` by two sets — inserted tuples ``i_r`` and deleted
tuples ``d_r`` — such that ``r``, ``i_r`` and ``d_r`` are mutually
disjoint and the new state is ``r ∪ i_r − d_r``.  Crucially, only the
*net* changes count: "if a tuple not in the relation is inserted and
then deleted within a transaction, it is not represented at all in this
set of changes".

:class:`Transaction` implements exactly that bookkeeping.  Operations
are validated and folded into net-effect sets relative to the
relation's pre-transaction state, by one rule and its mirror image:

* ``insert(t)`` with ``t`` pending deletion cancels the deletion;
  otherwise ``t`` joins the pending-insert set unless it is already
  present (base relations are sets — count 1 per tuple, per §5.2).
* ``delete(t)`` with ``t`` pending insertion cancels the insertion;
  otherwise ``t`` joins the pending-delete set if it is present.

The resulting sets provably satisfy the Section 3 disjointness
invariant, which the property tests verify against a replay oracle.

Rows cross the encoding boundary here: the public methods take *raw*
rows and encode each exactly once; everything from the pending sets on
(deltas, count maps, indexes, kernels, the write-ahead log) holds
encoded tuples and never coerces them again.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Iterable

from repro.algebra.relation import Delta
from repro.algebra.schema import RelationSchema
from repro.algebra.tuples import coerce_row
from repro.errors import TransactionError

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.database import Database


class TransactionState(enum.Enum):
    """Lifecycle of a transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """An atomic batch of base-relation updates.

    Obtain instances through :meth:`repro.engine.database.Database.begin`
    rather than constructing them directly; a ``with`` block commits one
    (``__exit__``).  Rows are raw — a ``Row``, a mapping or a sequence —
    and are encoded once, here.
    """

    def __init__(self, database: "Database", txn_id: int) -> None:
        self._database = database
        self.txn_id = txn_id
        self.state = TransactionState.ACTIVE
        # Per relation: schema, net pending inserts, net pending deletes
        # (encoded tuples).
        self._pending: dict[str, tuple[RelationSchema, set, set]] = {}

    # ------------------------------------------------------------------
    # Update operations
    # ------------------------------------------------------------------
    def insert(self, relation_name: str, row: object) -> None:
        """``insert(R, t)``: make ``t`` present in ``R`` after commit."""
        self._net(relation_name, (row,), True)

    def insert_many(self, relation_name: str, rows: Iterable[object]) -> None:
        """Insert every row of ``rows`` into ``relation_name``."""
        self._net(relation_name, rows, True)

    def delete(self, relation_name: str, row: object) -> None:
        """``delete(R, t)``: make ``t`` absent from ``R`` after commit."""
        self._net(relation_name, (row,), False)

    def delete_many(self, relation_name: str, rows: Iterable[object]) -> None:
        """Delete every row of ``rows`` from ``relation_name``."""
        self._net(relation_name, rows, False)

    def update(self, relation_name: str, old_row: object, new_row: object) -> None:
        """Modify a tuple in place, expressed as delete + insert.

        The paper's model has no primitive update operation; replacing a
        tuple is a deletion of the old value and an insertion of the
        new one, and the net-effect machinery handles the rest.
        """
        self.delete(relation_name, old_row)
        self.insert(relation_name, new_row)

    def _net(
        self,
        relation_name: str,
        rows: Iterable[object],
        inserting: bool,
        encoded: bool = False,
    ) -> None:
        """The one write path: fold ``rows`` into the net pending sets.

        Insert and delete differ only in which set a row cancels from,
        which it grows, and whether it must be absent or present to
        count.  A bad row raises with the rows before it left pending.
        ``encoded`` rows skip the boundary they crossed when first
        written (replay of logged deltas only).
        """
        if self.state is not TransactionState.ACTIVE:
            self._require_active()
        relation = self._database.relation(relation_name)
        pending = self._pending.get(relation_name)
        if pending is None:
            pending = self._pending[relation_name] = (relation.schema, set(), set())
        schema, inserts, deletes = pending
        cancels, grows = (deletes, inserts) if inserting else (inserts, deletes)
        stored = relation._counts
        encode = schema.encode_values
        for row in rows:
            if encoded:
                values = row
            elif type(row) is tuple or type(row) is list:
                # Skips coerce_row's ABC tests, not a check: encode_values
                # validates arity and every domain either way.
                values = encode(row)
            else:
                values = coerce_row(schema, row)
            if cancels and values in cancels:
                # The opposite operation earlier in this transaction.
                cancels.discard(values)
            elif (values in stored) is not inserting:
                grows.add(values)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def touched_relations(self) -> tuple[str, ...]:
        """Names of relations with a non-empty net effect so far."""
        return tuple(
            sorted(n for n, (_, ins, dels) in self._pending.items() if ins or dels)
        )

    def net_deltas(self) -> dict[str, Delta]:
        """The current net effect per relation, as :class:`Delta` objects.

        Only relations with a non-empty net effect appear in the result.
        """
        return {
            name: Delta.adopt(
                schema, dict.fromkeys(inserts, 1), dict.fromkeys(deletes, 1)
            )
            for name, (schema, inserts, deletes) in sorted(self._pending.items())
            if inserts or deletes
        }

    def is_read_only(self) -> bool:
        """True when the transaction has no net effect at all."""
        return not self.touched_relations()

    # ------------------------------------------------------------------
    # Termination
    # ------------------------------------------------------------------
    def commit(self) -> dict[str, Delta]:
        """Atomically apply the net effect and run maintenance hooks.

        Returns the per-relation deltas that were applied.  Hooks (view
        maintainers, the write-ahead log) run *inside* the
        commit, matching the paper's assumption that "the differential
        update mechanism is invoked as the last operation within the
        transaction"; if one raises, the commit is undone and the
        transaction ends aborted (``Database._apply_commit``).
        """
        if self.state is not TransactionState.ACTIVE:
            self._require_active()
        deltas = self.net_deltas()
        # Declared-constraint enforcement runs while the transaction is
        # still active: a violation propagates with nothing applied and
        # the transaction abortable as usual.
        self._database._check_constraints(self, deltas)
        self.state = TransactionState.COMMITTED
        self._database._apply_commit(self, deltas)
        return deltas

    def abort(self) -> None:
        """Discard all pending operations."""
        self._require_active()
        self.state = TransactionState.ABORTED
        self._pending.clear()

    def _require_active(self) -> None:
        if self.state is not TransactionState.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.state.value}, not active"
            )

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type: object, exc: object, traceback: object) -> None:
        """Commit if still active; abort on an error in the block, or
        when that commit is refused (a declared check) while active."""
        try:
            if exc_type is None and self.state is TransactionState.ACTIVE:
                self.commit()
        finally:
            if self.state is TransactionState.ACTIVE:
                self.abort()

    def __repr__(self) -> str:
        return (
            f"<Transaction {self.txn_id} {self.state.value} "
            f"touching {list(self.touched_relations())}>"
        )
