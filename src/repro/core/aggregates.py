"""Per-group aggregate state, maintained from core SPJ deltas.

The Section 5.2 multiplicity counter generalizes: where an SPJ view
stores one counter per visible tuple, an aggregate view stores per
group a *support bag* — the group's core rows with their summed
multiplicities — and beside it one *accumulator list*
(:func:`accumulator_slots`): the bag's total multiplicity, one running
Σ value·count per SUM/AVG input and the current extremum per MIN/MAX
input.  The generated fold kernel
(:func:`repro.core.codegen.generate_aggregate_source`) updates both per
delta row and renders a touched group's visible row from its
accumulators, so a fold costs work proportional to the core delta, not
to the groups it lands in.  The bag is what no bounded accumulator can
replace: deleting the current extremum exposes the runner-up only if
the per-value support survives, so the bag is the one thing the kernel
rescans (when a fold removes a row carrying a group's extremum), it is
the underflow check, and it is what checkpoints persist.

Everything else here renders *from the bags* — :func:`render_group`
behind :meth:`AggregateState.visible_relation`, :meth:`AggregateState.render`
and the reference :meth:`AggregateState.fold` — so the kernel-vs-reference
parity tests and :meth:`AggregateState.accumulator_drift` check the
accumulators against an independent computation rather than a mirror.

Maintenance runs the kernel, driven by
:meth:`repro.core.compiled.CompiledViewPlan.fold_aggregate` (which owns
the instrumentation charges); both folds validate every delete against
its bag before the first mutation, so an underflowing fold changes
nothing.
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


def accumulator_slots(plans: ColumnPlan) -> ColumnPlan:
    """The layout of one group's accumulator list.

    Slot 0 is the bag's total multiplicity (``("count", -1)``); then, in
    column order and without repeats, ``("sum", p)`` for every SUM/AVG
    input position and ``("min", p)`` / ``("max", p)`` for every
    extremum.  The single definition the state, the generated kernel
    and the audits share.
    """
    slots: list[tuple[str, int]] = [("count", -1)]
    for func, position in plans:
        slot = ("sum" if func == "avg" else func, position)
        if slot not in slots:
            slots.append(slot)
    return tuple(slots)


def group_accumulators(
    bag: Mapping[ValueTuple, int], slots: ColumnPlan
) -> list[int]:
    """One non-empty bag's accumulator list, computed from scratch."""
    accumulators: list[int] = []
    for func, position in slots:
        if func == "count":
            accumulators.append(sum(bag.values()))
        elif func == "sum":
            accumulators.append(
                sum(row[position] * count for row, count in bag.items())
            )
        elif func == "min":
            accumulators.append(min(row[position] for row in bag))
        else:  # max
            accumulators.append(max(row[position] for row in bag))
    return accumulators


class AggregateState:
    """One aggregate view's maintained state: group → core-row support.

    ``groups[key][core_row] = multiplicity`` with every multiplicity
    positive and no empty bags — the invariants
    :class:`~repro.algebra.relation.Relation` keeps for its counters,
    lifted one level.  A group with no bag emits no visible row (the
    aggregate analogue of "delete the tuple when its counter reaches
    zero").  ``accumulators[key]`` holds the group's accumulator list
    (layout ``slots``) and has exactly the keys of ``groups``.
    """

    __slots__ = (
        "spec",
        "core_schema",
        "visible_schema",
        "key_positions",
        "plans",
        "slots",
        "groups",
        "accumulators",
    )

    def __init__(self, spec: AggregateSpec, core_schema: RelationSchema) -> None:
        self.spec = spec
        self.core_schema = core_schema
        self.visible_schema = spec.output_schema(core_schema)
        self.key_positions: tuple[int, ...] = core_schema.positions(spec.keys)
        self.plans: ColumnPlan = column_plans(spec, core_schema)
        self.slots: ColumnPlan = accumulator_slots(self.plans)
        self.groups: dict[ValueTuple, dict[ValueTuple, int]] = {}
        self.accumulators: dict[ValueTuple, list[int]] = {}

    @classmethod
    def from_core(cls, spec: AggregateSpec, core: Relation) -> "AggregateState":
        """Build the state from a fully evaluated core relation.

        The one constructor of bags *and* accumulators: materialize,
        checkpoint restore, followers, shard rebuilds and
        :meth:`~repro.core.views.MaterializedView.replace_contents` all
        come through here.
        """
        state = cls(spec, core.schema)
        groups = state.groups
        positions = state.key_positions
        for values, count in core.items():
            key = tuple(values[i] for i in positions)
            bag = groups.setdefault(key, {})
            bag[values] = bag.get(values, 0) + count
        slots = state.slots
        state.accumulators = {
            key: group_accumulators(bag, slots) for key, bag in groups.items()
        }
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
        visible rows and the accumulators are derived state, and
        restoring MIN/MAX soundly needs the per-row support back.
        Flattening and regrouping are inverse by construction (the
        grouping key is a projection of the row), so restore is
        byte-for-byte.
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

    def accumulator_drift(self) -> list[ValueTuple]:
        """Group keys whose accumulators differ from a rebuild from the bag.

        Empty on a sound state.  The audit the simulator's oracle and
        the property tests run: the bags are maintained by plain dict
        arithmetic, the accumulators by the generated kernel.
        """
        groups = self.groups
        accumulators = self.accumulators
        slots = self.slots
        return sorted(
            key
            for key in groups.keys() | accumulators.keys()
            if key not in groups
            or accumulators.get(key) != group_accumulators(groups[key], slots)
        )

    def fold(
        self,
        inserted: Mapping[ValueTuple, int],
        deleted: Mapping[ValueTuple, int],
    ) -> FoldResult:
        """The reference fold — the oracle the generated kernel is held to.

        Collects the touched groups (inserts first, then deletes, in
        delta order), renders their before-rows *from the bags*, applies
        the core delta to the bags, re-renders, and rebuilds the touched
        groups' accumulators from their bags.  A delta is netted, so an
        underflow (deleting more copies of a core row than its group
        supports) is found before the first mutation: the offending row
        comes back in the fourth slot with the state untouched, and the
        driver raises — the same fatal-invariant, all-or-nothing
        contract as :meth:`repro.algebra.relation.Delta.apply_to`.
        """
        positions = self.key_positions
        plans = self.plans
        groups = self.groups
        for values, count in deleted.items():
            key = tuple(values[i] for i in positions)
            if groups.get(key, {}).get(values, 0) < count:
                return {}, {}, {}, values
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
            bag = groups[key]
            remaining = bag[values] - count
            if remaining:
                bag[values] = remaining
            else:
                del bag[values]
                if not bag:
                    del groups[key]
        after: dict[ValueTuple, ValueTuple] = {}
        accumulators = self.accumulators
        for key in touched:
            bag = groups.get(key)
            if bag:
                accumulators[key] = group_accumulators(bag, self.slots)
                row = render_group(key, bag, plans)
                if row is not None:
                    after[key] = row
            else:
                accumulators.pop(key, None)
        return touched, before, after, None

    def __len__(self) -> int:
        return len(self.groups)

    def __repr__(self) -> str:
        support = sum(len(bag) for bag in self.groups.values())
        return (
            f"<AggregateState {len(self.groups)} groups, "
            f"{support} support rows ({self.spec})>"
        )
