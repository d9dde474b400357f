"""Complete re-evaluation baseline.

"A materialized view can always be brought up to date by re-evaluating
the relational expression that defines it.  However, complete
re-evaluation is often wasteful, and the cost involved may be
unacceptable" (Section 1).  This maintainer is that strawman: on every
commit touching a view's relations it throws the stored contents away
and evaluates the definition from scratch.  Every benchmark that
reports a speedup measures against it.

It recomputes on the view's compiled plan (``CompiledViewPlan.evaluate``,
the kernel ``define_view`` materializes with): two strategies, one engine.
"""

from __future__ import annotations

from typing import Mapping

from repro.algebra.expressions import Expression
from repro.algebra.relation import Delta, Relation
from repro.core.compiled import CompiledViewPlan
from repro.core.views import MaterializedView, ViewDefinition
from repro.engine.database import Database
from repro.errors import MaintenanceError, UnknownViewError
from repro.instrumentation import CostRecorder, Tally, charge


class FullReevaluationMaintainer:
    """Maintains views by complete re-evaluation on every commit."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._views: dict[str, MaterializedView] = {}
        #: Each view's compiled plan, by name (emptied by any DDL event).
        self._plans: dict[str, CompiledViewPlan] = {}
        #: The always-on bag the plans count into.
        self._counters = CostRecorder()
        #: Number of from-scratch recomputations performed, per view.
        self.recomputations: dict[str, int] = {}
        database.add_commit_hook(self._on_commit)
        database.add_ddl_hook(self._on_ddl)

    def define_view(self, name: str, expression: Expression) -> MaterializedView:
        """Register and materialize a view."""
        if name in self._views:
            raise MaintenanceError(f"view {name!r} is already defined")
        definition = ViewDefinition(name, expression, self.database.schema_catalog())
        view = MaterializedView.from_stored(definition, self._evaluate(definition))
        self._views[name] = view
        self.recomputations[name] = 0
        return view

    def view(self, name: str) -> MaterializedView:
        """The materialized view registered under ``name``."""
        try:
            return self._views[name]
        except KeyError:
            raise UnknownViewError(f"no view named {name!r}") from None

    def _evaluate(self, definition: ViewDefinition, settle: bool = True) -> Relation:
        """One complete evaluation on the view's plan (compiled anew
        after DDL); ``settle`` lands what it counted."""
        plan = self._plans.get(definition.name)
        if plan is None or plan.definition is not definition:
            plan = self._plans[definition.name] = CompiledViewPlan(
                definition, self.database, self._counters
            )
        counted: Tally = []
        charged: Tally = []
        stored = plan.evaluate(counted, charged)
        if settle:
            self._counters.settle(counted, charged)
        return stored

    def _on_commit(self, txn_id: int, deltas: Mapping[str, Delta]) -> None:
        names = [
            name for name, view in self._views.items()
            if view.definition.relation_names & deltas.keys()
        ]
        for name in names:
            view = self._views[name]
            charge("baseline_recomputations")
            view.replace_contents(self._evaluate(view.definition))
            view.updates_applied += 1
            self.recomputations[name] += 1
        if names:
            self.database.undo.append((self._undo, names))

    def _undo(self, names: list[str]) -> None:
        """Take an undone commit back: re-derive its views from the
        restored base, uncounted, and uncount the commit."""
        for name in names:
            view = self._views[name]
            view.replace_contents(self._evaluate(view.definition, settle=False))
            view.updates_applied -= 1
            self.recomputations[name] -= 1

    def _on_ddl(self, event: str, relation_name: str) -> None:
        self._plans.clear()

    def detach(self) -> None:
        """Stop observing commits and DDL."""
        self.database.remove_commit_hook(self._on_commit)
        self.database.remove_ddl_hook(self._on_ddl)

    def __repr__(self) -> str:
        return f"<FullReevaluationMaintainer {len(self._views)} views>"
