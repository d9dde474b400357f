"""Differentially maintained union views.

The paper's entire Section 5 rests on one algebraic fact: select,
project and join distribute over union.  That same fact makes views
defined as a *union of SPJ branches* maintainable with no new
machinery: the delta of ``V = E₁ ∪ E₂ ∪ … ∪ E_b`` is the merged delta
of the branches, because

    (E₁ ∪ … ∪ E_b)(D ⊕ Δ) = E₁(D ⊕ Δ) ∪ … ∪ E_b(D ⊕ Δ)

and each branch delta is exactly what :func:`compute_view_delta`
produces.  Union here is the *counted* (bag) union — counts add — in
keeping with the Section 5.2 multiplicity-counter semantics, so a tuple
produced by two branches carries count 2 and survives the deletion of
either supporting branch's source.

This lifts the maintainable class from SPJ to SPJU, covering the
classic "view as union of cases" idiom (e.g. hot orders = big pending
orders ∪ any order from a priority customer).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.algebra.expressions import Expression, to_normal_form
from repro.algebra.relation import Delta, Relation, TaggedRelation
from repro.algebra.tags import Tag
from repro.core.differential import compute_view_delta
from repro.core.irrelevance import filter_delta
from repro.core.planner import evaluate_normal_form
from repro.engine.database import Database
from repro.errors import MaintenanceError, SchemaError
from repro.instrumentation import charge


class UnionView:
    """A materialized union of SPJ branches, maintained differentially.

    All branches must produce the same output schema (attribute names,
    in order).  Maintenance runs inside every commit, via a hook
    registered at construction.
    """

    def __init__(
        self,
        database: Database,
        name: str,
        branches: Sequence[Expression],
    ) -> None:
        if not branches:
            raise MaintenanceError("a union view needs at least one branch")
        self.database = database
        self.name = name
        catalog = database.schema_catalog()
        self.normal_forms = [to_normal_form(b, catalog) for b in branches]
        schemas = [nf.output_schema() for nf in self.normal_forms]
        first = schemas[0]
        for schema in schemas[1:]:
            if schema.names != first.names:
                raise SchemaError(
                    f"union branches disagree on output schema: "
                    f"{first.names} vs {schema.names}"
                )
        self.contents = self._materialize()
        #: Number of non-empty deltas applied since materialization.
        self.updates_applied = 0
        database.add_commit_hook(self._on_commit)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _materialize(self) -> Relation:
        instances = self.database.instances()
        total: Relation | None = None
        for nf in self.normal_forms:
            branch = evaluate_normal_form(nf, instances)
            total = branch if total is None else total.union(branch)
        assert total is not None
        return total

    @property
    def relation_names(self) -> frozenset[str]:
        """Base relations any branch depends on."""
        names: frozenset[str] = frozenset()
        for nf in self.normal_forms:
            names |= frozenset(nf.relation_names)
        return names

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _on_commit(self, txn_id: int, deltas: Mapping[str, Delta]) -> None:
        touched = self.relation_names & deltas.keys()
        if not touched:
            return
        charge("union_view_maintenances")
        merged = TaggedRelation(self.contents.schema)
        instances = self.database.instances()
        for nf in self.normal_forms:
            branch_deltas: dict[str, Delta] = {}
            for relation_name in frozenset(nf.relation_names) & deltas.keys():
                delta, _ = filter_delta(nf, relation_name, deltas[relation_name])
                if not delta.is_empty():
                    branch_deltas[relation_name] = delta
            if not branch_deltas:
                continue
            branch_delta = compute_view_delta(nf, instances, branch_deltas)
            for values, count in branch_delta.inserted.items():
                merged.add(values, Tag.INSERT, count)
            for values, count in branch_delta.deleted.items():
                merged.add(values, Tag.DELETE, count)
        view_delta = merged.to_delta()
        if not view_delta.is_empty():
            view_delta.apply_to(self.contents)
            self.updates_applied += 1

    # ------------------------------------------------------------------
    # Verification / teardown
    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Compare against from-scratch evaluation of every branch."""
        truth = self._materialize()
        if truth != self.contents:
            raise MaintenanceError(
                f"union view {self.name!r} diverged from recomputation"
            )

    def detach(self) -> None:
        """Stop maintaining."""
        self.database.remove_commit_hook(self._on_commit)

    def __len__(self) -> int:
        return len(self.contents)

    def __repr__(self) -> str:
        return (
            f"<UnionView {self.name!r} {len(self.normal_forms)} branches, "
            f"{len(self.contents)} tuples, {self.updates_applied} updates>"
        )
