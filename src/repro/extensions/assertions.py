"""Integrity-assertion monitoring (Hammer & Sarin [HS78]).

The paper's Section 2 describes [HS78]: every integrity assertion has an
*error predicate* — its logical complement — and efficient enforcement
means analyzing, at compile time, which updates could possibly make the
error predicate true, then testing only those at run time.  The paper's
conclusions observe that its own irrelevance filter "can be used in
those contexts as well": an update that is *irrelevant* to the
error-predicate view provably cannot violate the assertion.

This module builds that bridge:

* An :class:`IntegrityAssertion` is declared by its **error predicate**
  as an SPJ expression over the database — the assertion holds exactly
  when that expression evaluates to the empty relation.
* At declaration ("compile") time the error-predicate view is put in
  normal form — [HS78]'s compile-time assertion processor — and checked
  empty by a complete evaluation.
* :meth:`AssertionMonitor.validate_transaction` checks a transaction
  against the simulated post-state through a throwaway
  :class:`~repro.core.compiled.CompiledViewPlan` of the error predicate:
  the Section 4 screen kernels drop the provably irrelevant tuples, and
  the survivors run the row kernels of only the delta rows.  Any
  *insert-tagged* tuple emerging means the transaction would make the
  error predicate non-empty: an :class:`IntegrityViolation` is raised
  **before** commit, so the transaction can be aborted.
* Alternatively :meth:`AssertionMonitor.attach` installs a post-commit
  monitor that records violations (useful when enforcement is advisory).

A compiled plan reads whichever relations it is handed as operands
(``view_operands``), not only the database's live ones.  Screening reads
the deltas alone, so its plan is handed the post-state as it stands.
Only when a delta survives does the monitor compute the error
predicate's delta, with a plan handed copies of the database's own
relations (the simulated post-state's are throwaway already), because
a plan binds the hash indexes it probes on its operands, and a check
must leave the database as it found it.
"""

from __future__ import annotations

from typing import Mapping

from repro.algebra.expressions import Expression, NormalForm
from repro.algebra.relation import Delta, Relation
from repro.core.compiled import CompiledViewPlan
from repro.core.views import ViewDefinition
from repro.engine.database import Database
from repro.engine.transactions import Transaction
from repro.errors import MaintenanceError
from repro.instrumentation import CostRecorder, Tally, charge


class IntegrityViolation(MaintenanceError):
    """A transaction would make an assertion's error predicate true."""

    def __init__(self, assertion_name: str, witnesses: list) -> None:
        self.assertion_name = assertion_name
        #: Error-predicate tuples the transaction would create.
        self.witnesses = witnesses
        preview = ", ".join(map(str, witnesses[:3]))
        if len(witnesses) > 3:
            preview += ", …"
        super().__init__(
            f"assertion {assertion_name!r} violated; "
            f"error-predicate witnesses: {preview}"
        )


class IntegrityAssertion:
    """One compiled assertion: name + error-predicate view definition."""

    __slots__ = ("name", "error_predicate", "definition")

    def __init__(
        self, name: str, error_predicate: Expression, database: Database
    ) -> None:
        self.name = name
        self.error_predicate = error_predicate
        self.definition = ViewDefinition(
            name, error_predicate, database.schema_catalog()
        )

    @property
    def normal_form(self) -> NormalForm:
        """The error predicate in paper normal form."""
        return self.definition.normal_form

    @property
    def relation_names(self) -> frozenset[str]:
        """Relations whose updates can possibly matter."""
        return self.definition.relation_names

    def plan(
        self,
        database: Database,
        operands: Mapping[str, Relation],
        counters: CostRecorder,
    ) -> CompiledViewPlan:
        """A throwaway compiled plan of the error predicate that reads
        each relation it names from ``operands``."""
        return CompiledViewPlan(
            self.definition,
            database,
            counters,
            view_operands={name: operands[name] for name in self.relation_names},
        )

    def __repr__(self) -> str:
        return f"<IntegrityAssertion {self.name!r}: NOT EXISTS {self.error_predicate}>"


class AssertionMonitor:
    """Compiles and enforces a set of integrity assertions."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._assertions: dict[str, IntegrityAssertion] = {}
        #: Violations observed in monitor (post-commit) mode:
        #: (txn_id, assertion name, witness tuples).
        self.observed_violations: list[tuple[int, str, list]] = []
        self._attached = False

    # ------------------------------------------------------------------
    # Declaration ("compile time" in [HS78]'s vocabulary)
    # ------------------------------------------------------------------
    def declare(self, name: str, error_predicate: Expression) -> IntegrityAssertion:
        """Compile an assertion from its error predicate.

        The database must currently satisfy the assertion (the error
        predicate must be empty), otherwise declaration fails — the
        monitor maintains an invariant, it cannot create one.
        """
        if name in self._assertions:
            raise MaintenanceError(f"assertion {name!r} is already declared")
        assertion = IntegrityAssertion(name, error_predicate, self.database)
        counters = CostRecorder()
        counted: Tally = []
        charged: Tally = []
        plan = assertion.plan(self.database, self.database.instances(), counters)
        current = plan.evaluate(counted, charged)
        counters.settle(counted, charged)
        if len(current) > 0:
            raise IntegrityViolation(name, sorted(current.value_tuples()))
        self._assertions[name] = assertion
        return assertion

    def drop(self, name: str) -> None:
        """Forget an assertion."""
        if name not in self._assertions:
            raise MaintenanceError(f"no assertion named {name!r}")
        del self._assertions[name]

    def assertion_names(self) -> tuple[str, ...]:
        """All declared assertion names, sorted."""
        return tuple(sorted(self._assertions))

    # ------------------------------------------------------------------
    # Pre-commit enforcement
    # ------------------------------------------------------------------
    def validate_transaction(self, txn: Transaction) -> None:
        """Raise :class:`IntegrityViolation` if committing ``txn`` would
        violate any declared assertion.

        Call immediately before ``txn.commit()``.  The check is
        side-effect free: the post-state is simulated on copies of the
        touched relations only.
        """
        deltas = txn.net_deltas()
        if not deltas:
            return
        post = self._simulated_post_state(deltas)
        for name, assertion in self._assertions.items():
            witnesses = self._violations(assertion, deltas, post)
            if witnesses:
                raise IntegrityViolation(name, witnesses)

    def _simulated_post_state(
        self, deltas: Mapping[str, Delta]
    ) -> dict[str, Relation]:
        post = dict(self.database.instances())
        for name, delta in deltas.items():
            relation = post[name].copy()
            delta.apply_to(relation)
            post[name] = relation
        return post

    def _violations(
        self,
        assertion: IntegrityAssertion,
        deltas: Mapping[str, Delta],
        post: Mapping[str, Relation],
    ) -> list:
        touched = assertion.relation_names & deltas.keys()
        if not touched:
            return []
        charge("assertion_checks")
        # Screening reads the deltas alone, so its plan reads ``post``
        # as it stands.
        counters = CostRecorder()
        plan = assertion.plan(self.database, post, counters)
        counted: Tally = []
        charged: Tally = []
        try:
            relevant: dict[str, Delta] = {}
            for relation_name in sorted(touched):
                screened = plan.screen(
                    relation_name, deltas[relation_name], counted, charged
                )
                if screened is not None:
                    relevant[relation_name] = screened
            if not relevant:
                # Every update provably cannot satisfy the error predicate:
                # [HS78]'s compile-time screening at its best.
                charge("assertion_checks_screened")
                return []
            # A plan binds the indexes it probes on its operands: the
            # database's own relations are copied first, the throwaway
            # simulated ones are not.
            live = self.database.instances()
            operands: dict[str, Relation] = {}
            for name in assertion.relation_names:
                relation = post[name]
                operands[name] = (
                    relation.copy() if relation is live.get(name) else relation
                )
            plan = assertion.plan(self.database, operands, counters)
            inserted, _ = plan.compute_delta(relevant, counted, charged)
            return sorted(inserted)
        finally:
            counters.settle(counted, charged)

    # ------------------------------------------------------------------
    # Post-commit monitoring
    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Observe commits and record (not prevent) violations."""
        if not self._attached:
            self.database.add_commit_hook(self._on_commit)
            self._attached = True

    def detach(self) -> None:
        """Stop observing commits."""
        if self._attached:
            self.database.remove_commit_hook(self._on_commit)
            self._attached = False

    def _on_commit(self, txn_id: int, deltas: Mapping[str, Delta]) -> None:
        if not deltas:
            return
        post = self.database.instances()  # hooks run post-apply
        for name, assertion in self._assertions.items():
            witnesses = self._violations(assertion, deltas, post)
            if witnesses:
                self.observed_violations.append((txn_id, name, witnesses))

    def __repr__(self) -> str:
        return (
            f"<AssertionMonitor {len(self._assertions)} assertions, "
            f"{len(self.observed_violations)} observed violations>"
        )
