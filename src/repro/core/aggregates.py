"""Per-group aggregate state, maintained from core SPJ deltas.

The Section 5.2 multiplicity counter generalizes: where an SPJ view
stores one counter per visible tuple, an aggregate view stores one
*support bag* per group — the group's core rows with their summed
multiplicities — and derives the visible row (COUNT/SUM/AVG/MIN/MAX
cells) from the bag on demand.  The bag is exactly what sound
incremental MIN/MAX needs: deleting the current extremum exposes the
runner-up only if the per-value support survives, which no bounded
per-group accumulator can provide.  COUNT/SUM/AVG would get away with
plain totals; the implementation keeps the bag uniformly so one fold
and one renderer cover the whole supported class.

The fold protocol is mirrored *exactly* by the generated aggregate
kernel (:func:`repro.core.codegen.generate_aggregate_source`) — same
touched-group ordering, same mutation order, same underflow signalling.
Maintenance runs the kernel, driven by
:meth:`repro.core.compiled.CompiledViewPlan.fold_aggregate` (which owns
the instrumentation charges and the visible-delta assembly);
:meth:`AggregateState.fold` is the reference the parity tests hold the
kernel to.
"""

from __future__ import annotations

from typing import Mapping

from repro.algebra.aggregates import (
    AggregateSpec,
    ColumnPlan,
    column_plans,
    render_group,
)
from repro.algebra.relation import Relation
from repro.algebra.schema import RelationSchema

ValueTuple = tuple[int, ...]
#: (touched keys in deterministic order, key → visible row before,
#:  key → visible row after, offending core row on underflow or None).
FoldResult = tuple[
    "dict[ValueTuple, int]",
    "dict[ValueTuple, ValueTuple]",
    "dict[ValueTuple, ValueTuple]",
    "ValueTuple | None",
]


class AggregateState:
    """One aggregate view's maintained state: group → core-row support.

    ``groups[key][core_row] = multiplicity`` with every multiplicity
    positive and no empty bags — the invariants
    :class:`~repro.algebra.relation.Relation` keeps for its counters,
    lifted one level.  A group with no bag emits no visible row (the
    aggregate analogue of "delete the tuple when its counter reaches
    zero").
    """

    __slots__ = (
        "spec",
        "core_schema",
        "visible_schema",
        "key_positions",
        "plans",
        "groups",
    )

    def __init__(self, spec: AggregateSpec, core_schema: RelationSchema) -> None:
        self.spec = spec
        self.core_schema = core_schema
        self.visible_schema = spec.output_schema(core_schema)
        self.key_positions: tuple[int, ...] = core_schema.positions(spec.keys)
        self.plans: ColumnPlan = column_plans(spec, core_schema)
        self.groups: dict[ValueTuple, dict[ValueTuple, int]] = {}

    @classmethod
    def from_core(cls, spec: AggregateSpec, core: Relation) -> "AggregateState":
        """Build the state from a fully evaluated core relation."""
        state = cls(spec, core.schema)
        groups = state.groups
        positions = state.key_positions
        for values, count in core.items():
            key = tuple(values[i] for i in positions)
            bag = groups.setdefault(key, {})
            bag[values] = bag.get(values, 0) + count
        return state

    def visible_relation(self) -> Relation:
        """Render every group into the visible (set-semantics) relation."""
        counts: dict[ValueTuple, int] = {}
        for key in sorted(self.groups):
            row = render_group(key, self.groups[key], self.plans)
            if row is not None:
                counts[row] = 1
        return Relation.from_counts(self.visible_schema, counts)

    def stored_contents(self) -> Relation:
        """The core support bag as one counted relation.

        This is what checkpoints persist for an aggregate view: the
        visible rows are derived state, and restoring MIN/MAX soundly
        needs the per-row support back.  Flattening and regrouping are
        inverse by construction (the grouping key is a projection of
        the row), so restore is byte-for-byte.
        """
        counts: dict[ValueTuple, int] = {}
        for bag in self.groups.values():
            for row, count in bag.items():
                counts[row] = counts.get(row, 0) + count
        return Relation.from_counts(self.core_schema, counts)

    def render(self, key: ValueTuple) -> ValueTuple | None:
        """The visible row of one group (None when the group is empty)."""
        bag = self.groups.get(key)
        if not bag:
            return None
        return render_group(key, bag, self.plans)

    def fold(
        self,
        inserted: Mapping[ValueTuple, int],
        deleted: Mapping[ValueTuple, int],
    ) -> FoldResult:
        """The reference fold — the oracle the generated kernel mirrors.

        Collects the touched groups (inserts first, then deletes, in
        delta order), renders their before-rows, applies the core delta
        to the support bags, and renders the after-rows.  An underflow
        (deleting more copies of a core row than its group supports)
        aborts mid-mutation and returns the offending row in the fourth
        slot; the driver raises — the same fatal-invariant contract as
        :meth:`repro.algebra.relation.Relation.discard`.
        """
        positions = self.key_positions
        plans = self.plans
        groups = self.groups
        touched: dict[ValueTuple, int] = {}
        for values in inserted:
            touched[tuple(values[i] for i in positions)] = 1
        for values in deleted:
            touched[tuple(values[i] for i in positions)] = 1
        before: dict[ValueTuple, ValueTuple] = {}
        for key in touched:
            bag = groups.get(key)
            if bag:
                row = render_group(key, bag, plans)
                if row is not None:
                    before[key] = row
        for values, count in inserted.items():
            key = tuple(values[i] for i in positions)
            bag = groups.get(key)
            if bag is None:
                groups[key] = {values: count}
            else:
                bag[values] = bag.get(values, 0) + count
        for values, count in deleted.items():
            key = tuple(values[i] for i in positions)
            bag = groups.get(key)
            remaining = (bag.get(values, 0) if bag is not None else 0) - count
            if remaining < 0:
                return touched, before, {}, values
            assert bag is not None
            if remaining:
                bag[values] = remaining
            else:
                del bag[values]
                if not bag:
                    del groups[key]
        after: dict[ValueTuple, ValueTuple] = {}
        for key in touched:
            bag = groups.get(key)
            if bag:
                row = render_group(key, bag, plans)
                if row is not None:
                    after[key] = row
        return touched, before, after, None

    def __len__(self) -> int:
        return len(self.groups)

    def __repr__(self) -> str:
        support = sum(len(bag) for bag in self.groups.values())
        return (
            f"<AggregateState {len(self.groups)} groups, "
            f"{support} support rows ({self.spec})>"
        )
