"""View definitions and materializations (Section 3 vocabulary).

A *view definition* V is a relational-algebra expression over the
database scheme; a *view materialization* v is a stored relation
resulting from evaluating that expression against a database instance.
:class:`ViewDefinition` carries the expression plus its paper normal
form; :class:`MaterializedView` pairs a definition with the stored
counted relation and the bookkeeping the maintainer needs.

Aggregate views ride on the same structure: the definition peels a
top-level :class:`~repro.algebra.aggregates.Aggregate` node off, keeps
its :class:`~repro.algebra.aggregates.AggregateSpec`, and normalizes
only the SPJ *core* — the Section 5 delta pipeline maintains the core,
and a final fold stage (:mod:`repro.core.aggregates`) turns core deltas
into visible group-row deltas.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

from repro.algebra.aggregates import Aggregate, AggregateSpec
from repro.algebra.expressions import (
    Expression,
    NormalForm,
    Project,
    to_normal_form,
)
from repro.algebra.relation import Delta, Relation
from repro.algebra.schema import RelationSchema
from repro.errors import ViewDefinitionError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.aggregates import AggregateState

class ViewDefinition:
    """A named SPJ (optionally aggregated) view definition.

    For plain views ``normal_form`` is the normalized expression.  For
    aggregate views ``expression`` keeps the full ``Aggregate`` node
    (full recompute and consistency checks evaluate it), ``aggregate``
    holds the spec, and ``normal_form`` is the normalized *core* —
    projected down to exactly the attributes the aggregation reads, so
    the maintained support state is as narrow as possible.
    """

    __slots__ = ("name", "expression", "normal_form", "aggregate")

    def __init__(
        self,
        name: str,
        expression: Expression,
        catalog: Mapping[str, RelationSchema],
    ) -> None:
        if not name or not isinstance(name, str):
            raise ViewDefinitionError(f"view name must be a non-empty string: {name!r}")
        self.name = name
        self.expression = expression
        self.aggregate: Optional[AggregateSpec] = None
        core = expression
        if isinstance(expression, Aggregate):
            # Validates the whole tree, including that the core really
            # produces every key and aggregate input attribute.
            expression.schema(catalog)
            self.aggregate = expression.spec
            core_attrs = expression.spec.core_attributes()
            core = expression.child
            if core_attrs and tuple(core.schema(catalog).names) != core_attrs:
                core = Project(core, core_attrs)
        # to_normal_form validates SPJ membership and well-formedness
        # (and rejects any non-outermost Aggregate left in the tree).
        self.normal_form: NormalForm = to_normal_form(core, catalog)

    @property
    def relation_names(self) -> frozenset[str]:
        """Base relations the view depends on."""
        return frozenset(self.normal_form.relation_names)

    def output_schema(self) -> RelationSchema:
        """Schema of the view's *visible* tuples."""
        if self.aggregate is not None:
            return self.aggregate.output_schema(self.normal_form.output_schema())
        return self.normal_form.output_schema()

    def __repr__(self) -> str:
        return f"<ViewDefinition {self.name!r}: {self.expression}>"


class MaterializedView:
    """A stored view materialization plus maintenance statistics.

    The stored relation carries the Section 5.2 multiplicity counter on
    every tuple, and — like any stored relation — the hash indexes its
    readers probe (``contents.index_on``).  ``contents`` is one object
    for the view's lifetime, read-only by convention: change it through
    :meth:`apply_delta` and :meth:`replace_contents`.
    """

    __slots__ = (
        "definition",
        "contents",
        "aggregate_state",
        "updates_applied",
        "last_refresh_sequence",
    )

    def __init__(
        self,
        definition: ViewDefinition,
        contents: Relation,
        aggregate_state: "AggregateState | None" = None,
    ) -> None:
        self.definition = definition
        self.contents = contents
        #: Per-group core support bags for aggregate views (None for
        #: plain SPJ views); ``contents`` holds the derived visible rows.
        self.aggregate_state = aggregate_state
        #: Number of non-empty deltas applied since materialization.
        self.updates_applied = 0
        #: Log sequence the view is current as of (deferred maintenance).
        self.last_refresh_sequence = 0

    @classmethod
    def from_stored(
        cls, definition: ViewDefinition, stored: Relation
    ) -> "MaterializedView":
        """The view whose :meth:`stored_contents` is ``stored``.

        ``stored`` is over the normal form's output schema either way:
        a plain view's contents, or an aggregate view's core support,
        which is grouped into the support state and rendered.
        """
        if definition.aggregate is not None:
            from repro.core.aggregates import AggregateState

            state = AggregateState.from_core(definition.aggregate, stored)
            return cls(definition, state.visible_relation(), state)
        return cls(definition, stored)

    def stored_contents(self) -> Relation:
        """The relation checkpoints persist.

        Plain views store their contents directly.  Aggregate views
        store the *core support* relation — the visible rows are derived
        state, and restoring MIN/MAX soundly needs the per-value support
        back (see :meth:`repro.core.aggregates.AggregateState.stored_contents`).
        """
        if self.aggregate_state is not None:
            return self.aggregate_state.stored_contents()
        return self.contents

    def apply_delta(self, delta: Delta) -> None:
        """Apply a computed view delta to the stored contents.

        All or nothing (:meth:`Delta.apply_to`): a delta deleting more
        copies than the view holds leaves contents and indexes alone.
        """
        if delta.is_empty():
            return
        delta.apply_to(self.contents)
        self.updates_applied += 1

    def replace_contents(self, stored: Relation) -> None:
        """Become the view whose :meth:`stored_contents` is ``stored``.

        ``stored`` is what :meth:`from_stored` takes: a plain view's
        recomputed contents, or an aggregate view's recomputed core,
        which replaces bags and accumulators through
        :meth:`~repro.core.aggregates.AggregateState.from_core` before
        the visible rows are rendered.  ``contents`` takes the tuples
        in place (:meth:`Relation.assign`): a plan that bound it or one
        of its indexes keeps reading the live view.
        """
        spec = self.definition.aggregate
        if spec is not None:
            from repro.core.aggregates import AggregateState

            self.aggregate_state = AggregateState.from_core(spec, stored)
            stored = self.aggregate_state.visible_relation()
        self.contents.assign(stored)

    def __len__(self) -> int:
        return len(self.contents)

    def __repr__(self) -> str:
        return (
            f"<MaterializedView {self.definition.name!r} "
            f"{len(self.contents)} tuples, {self.updates_applied} updates>"
        )
