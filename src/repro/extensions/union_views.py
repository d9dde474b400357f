"""Differentially maintained union views.

The paper's entire Section 5 rests on one algebraic fact: select,
project and join distribute over union.  That same fact makes views
defined as a *union of SPJ branches* maintainable with no new
machinery: the delta of ``V = E₁ ∪ E₂ ∪ … ∪ E_b`` is the merged delta
of the branches, because

    (E₁ ∪ … ∪ E_b)(D ⊕ Δ) = E₁(D ⊕ Δ) ∪ … ∪ E_b(D ⊕ Δ)

Union here is the *counted* (bag) union — counts add — in keeping with
the Section 5.2 multiplicity-counter semantics, so a tuple produced by
two branches carries count 2 and survives the deletion of either
supporting branch's source.

Each branch is a view of a private
:class:`~repro.core.maintainer.ViewMaintainer` (the
:class:`~repro.extensions.alerters.AlerterRegistry` pattern), run on its
compiled kernels and counted on its row; the union is the counted sum of
the branch contents, folded in from the branch views' subscriber deltas.

This lifts the maintainable class from SPJ to SPJU, covering the
classic "view as union of cases" idiom (e.g. hot orders = big pending
orders ∪ any order from a priority customer).
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

from repro.algebra.expressions import Expression, to_normal_form
from repro.algebra.relation import Delta, Relation
from repro.algebra.sqlite_oracle import SqliteOracle
from repro.core.maintainer import ViewMaintainer
from repro.core.views import MaterializedView
from repro.engine.database import Database
from repro.errors import MaintenanceError, SchemaError


class UnionView:
    """A materialized union of SPJ branches, maintained differentially.

    All branches must produce the same output schema (attribute names,
    in order).
    """

    def __init__(
        self,
        database: Database,
        name: str,
        branches: Sequence[Expression],
    ) -> None:
        if not branches:
            raise MaintenanceError("a union view needs at least one branch")
        catalog = database.schema_catalog()
        first, *rest = (
            to_normal_form(b, catalog).output_schema().names for b in branches
        )
        for names in rest:
            if names != first:
                raise SchemaError(
                    f"union branches disagree on output schema: {first} vs {names}"
                )
        self.database = database
        self.name = name
        self.branches = tuple(branches)
        self._maintainer = ViewMaintainer(database)
        #: The private maintainer's name for each branch's view.
        self._branch_names = tuple(
            f"__union__{name}__{i}" for i in range(len(branches))
        )
        for branch_name, branch in zip(self._branch_names, self.branches):
            self._maintainer.define_view(branch_name, branch)
            self._maintainer.subscribe(branch_name, self._fold)
        first, *rest = (
            self._maintainer.view(b).contents for b in self._branch_names
        )
        self.contents = reduce(Relation.union, rest, first.copy())
        #: Commits that changed a branch since materialization.
        self.updates_applied = 0
        self._sequence = database.last_sequence()

    @property
    def relation_names(self) -> frozenset[str]:
        """Base relations any branch depends on."""
        return frozenset().union(
            *(self._maintainer.dependencies(b) for b in self._branch_names)
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _fold(self, view: MaterializedView, delta: Delta) -> None:
        """Add one branch view's applied delta to the union."""
        delta.apply_to(self.contents)
        sequence = self.database.last_sequence()
        if sequence != self._sequence:
            # The commit's first branch delta: count the commit once.
            self._sequence = sequence
            self.updates_applied += 1

    # ------------------------------------------------------------------
    # Verification / teardown
    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Compare against every branch evaluated from scratch as SQL on
        ``sqlite3`` (:mod:`repro.algebra.sqlite_oracle`), counts summed."""
        truth: dict = {}
        with SqliteOracle(self.database.instances()) as oracle:
            for branch in self.branches:
                for values, count in oracle.contents(branch).items():
                    truth[values] = truth.get(values, 0) + count
        if truth != self.contents.count_map:
            raise MaintenanceError(
                f"union view {self.name!r} diverged from recomputation"
            )

    def detach(self) -> None:
        """Stop maintaining."""
        self._maintainer.detach()

    def __len__(self) -> int:
        return len(self.contents)

    def __repr__(self) -> str:
        return (
            f"<UnionView {self.name!r} {len(self.branches)} branches, "
            f"{len(self.contents)} tuples, {self.updates_applied} updates>"
        )
