"""The paper's pipeline built from the reference functions alone.

:class:`ReferenceViews` maintains views the way Sections 4 and 5 state
the algorithm, one tuple at a time: :func:`filter_delta` screens each
relation's net delta, :func:`compute_view_delta` evaluates the truth
table over hashed OLD operands, :meth:`AggregateState.fold` folds the
core delta of an aggregate view, and the result is applied with full
Section 5.2 counters.  It shares no compiled plan, generated kernel,
persistent index or chase-derived shortcut (static irrelevance, FK
reduction, counter-free apply) with :class:`~repro.ViewMaintainer`, so
the parity suites run the two side by side and compare view contents
after every stream.

Work counters are comparable too, with one exception by design: the
maintainer answers OLD-operand probes from persistent indexes where
the reference hashes the whole operand, so ``tuples_scanned`` and
``index_probes`` differ (``tests/test_codegen.py`` compares those
against the row-cap fallback, which runs the reference planner behind
the maintainer's own probes).
"""

from __future__ import annotations

from typing import Mapping

from repro.algebra.expressions import Expression
from repro.algebra.relation import Delta
from repro.core.aggregates import AggregateState
from repro.core.differential import compute_view_delta
from repro.core.irrelevance import filter_delta
from repro.core.planner import evaluate_normal_form
from repro.core.views import MaterializedView, ViewDefinition
from repro.engine.database import Database
from repro.instrumentation import charge

#: Counters the maintainer's kernels and the reference functions charge
#: identically on the same stream (absent static-irrelevance and
#: FK-reduction proofs, which only the maintainer exploits).
REFERENCE_PARITY_COUNTERS = (
    "join_probes",
    "tuples_emitted",
    "tuples_ignored",
    "truth_table_rows",
    "delta_rows_evaluated",
    "subexpression_memo_hits",
    "filter_tuples_checked",
    "filter_ground_evals",
    "filter_bound_probes",
    "differential_updates",
    "aggregate_rows_folded",
    "aggregate_groups_touched",
)


def reference_fold(state: AggregateState, core_delta: Delta) -> Delta:
    """Fold a core delta with the reference fold; the visible delta out.

    Charges the two aggregate work counters the way the maintainer's
    fold driver does, so the parity suites can compare them.
    """
    rows = len(core_delta.inserted) + len(core_delta.deleted)
    if rows:
        charge("aggregate_rows_folded", rows)
    touched, before, after, bad = state.fold(
        core_delta.inserted, core_delta.deleted
    )
    assert bad is None, f"reference fold underflowed on core row {bad}"
    if touched:
        charge("aggregate_groups_touched", len(touched))
    inserted = {}
    deleted = {}
    for key in touched:
        if before.get(key) != after.get(key):
            if key in before:
                deleted[before[key]] = 1
            if key in after:
                inserted[after[key]] = 1
    return Delta.from_counts(state.visible_schema, inserted, deleted)


class ReferenceViews:
    """Immediate maintenance of a set of views by the reference functions.

    Views are maintained inside every commit of ``database``, in
    definition order, so a later view may name an earlier one as an
    operand (stacked views see the delta just applied upstream).
    """

    def __init__(
        self,
        database: Database,
        definitions: Mapping[str, Expression] | None = None,
    ) -> None:
        self.database = database
        self.views: dict[str, MaterializedView] = {}
        for name, expression in (definitions or {}).items():
            self.define_view(name, expression)
        database.add_commit_hook(self._on_commit)

    def define_view(self, name: str, expression: Expression) -> MaterializedView:
        catalog = dict(self.database.schema_catalog())
        for view_name, view in self.views.items():
            catalog[view_name] = view.contents.schema
        definition = ViewDefinition(name, expression, catalog)
        view = MaterializedView.from_stored(
            definition, evaluate_normal_form(definition.normal_form, self._instances())
        )
        self.views[name] = view
        return view

    def view(self, name: str) -> MaterializedView:
        """One maintained view (same accessor as ``ViewMaintainer``)."""
        return self.views[name]

    def _instances(self):
        instances = dict(self.database.instances())
        for name, view in self.views.items():
            instances[name] = view.contents
        return instances

    def _on_commit(self, txn_id: int, deltas: Mapping[str, Delta]) -> None:
        deltas = dict(deltas)
        for name, view in self.views.items():
            normal_form = view.definition.normal_form
            relevant = {}
            for relation_name in view.definition.relation_names & deltas.keys():
                screened, _ = filter_delta(
                    normal_form, relation_name, deltas[relation_name]
                )
                if not screened.is_empty():
                    relevant[relation_name] = screened
            if not relevant:
                continue
            delta = compute_view_delta(normal_form, self._instances(), relevant)
            if view.aggregate_state is not None:
                delta = reference_fold(view.aggregate_state, delta)
            view.apply_delta(delta)
            if not delta.is_empty():
                deltas[name] = delta
