"""Complete re-evaluation baseline.

"A materialized view can always be brought up to date by re-evaluating
the relational expression that defines it.  However, complete
re-evaluation is often wasteful, and the cost involved may be
unacceptable" (Section 1).  This maintainer is that strawman: on every
commit touching a view's relations it throws the stored contents away
and evaluates the definition from scratch.  Every benchmark that
reports a speedup measures against it.
"""

from __future__ import annotations

from typing import Mapping

from repro.algebra.expressions import Expression
from repro.algebra.relation import Delta
from repro.core.planner import evaluate_normal_form
from repro.core.views import MaterializedView, ViewDefinition
from repro.engine.database import Database
from repro.errors import MaintenanceError, UnknownViewError
from repro.instrumentation import charge


class FullReevaluationMaintainer:
    """Maintains views by complete re-evaluation on every commit."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._views: dict[str, MaterializedView] = {}
        #: Number of from-scratch recomputations performed, per view.
        self.recomputations: dict[str, int] = {}
        database.add_commit_hook(self._on_commit)

    def define_view(self, name: str, expression: Expression) -> MaterializedView:
        """Register and materialize a view."""
        if name in self._views:
            raise MaintenanceError(f"view {name!r} is already defined")
        definition = ViewDefinition(name, expression, self.database.schema_catalog())
        view = MaterializedView.from_stored(
            definition,
            evaluate_normal_form(definition.normal_form, self.database.instances()),
        )
        self._views[name] = view
        self.recomputations[name] = 0
        return view

    def view(self, name: str) -> MaterializedView:
        """The materialized view registered under ``name``."""
        try:
            return self._views[name]
        except KeyError:
            raise UnknownViewError(f"no view named {name!r}") from None

    def _on_commit(self, txn_id: int, deltas: Mapping[str, Delta]) -> None:
        if not deltas:
            return
        for name, view in self._views.items():
            if not (view.definition.relation_names & deltas.keys()):
                continue
            charge("baseline_recomputations")
            view.replace_contents(
                evaluate_normal_form(
                    view.definition.normal_form, self.database.instances()
                )
            )
            view.updates_applied += 1
            self.recomputations[name] += 1

    def detach(self) -> None:
        """Stop observing commits."""
        self.database.remove_commit_hook(self._on_commit)

    def __repr__(self) -> str:
        return f"<FullReevaluationMaintainer {len(self._views)} views>"
