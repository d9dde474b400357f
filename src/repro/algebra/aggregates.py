"""Aggregate views: GROUP BY + COUNT/SUM/AVG/MIN/MAX over an SPJ core.

The paper's Section 5.2 multiplicity counter is the degenerate case
(COUNT with no grouping keys) of per-group aggregate state.  This
module generalizes it: an :class:`Aggregate` node wraps an ordinary
SPJ expression (its *core*) and declares grouping keys plus a list of
:class:`AggregateColumn` specs.  The maintained view then holds one
visible row per non-empty group:

* ``count`` — the summed multiplicity of the group's core rows;
* ``sum``  — Σ value·count over the group (integer-valued domains);
* ``avg``  — ``sum // count`` (floor division, documented);
* ``min`` / ``max`` — the extremum over the group's *distinct* core
  values.  Sound deletes need per-value support counts — the classic
  unsound spot for incremental MIN/MAX — which is why the maintained
  state keeps the group's core-row support bag, not just totals
  (see :mod:`repro.core.aggregates`).

Aggregation must be the **outermost** operator of a view definition:
the core stays inside the paper's SPJ class, so the Section 5 delta
pipeline (screens, truth tables, counted projection) applies unchanged
to the core, and the aggregate fold is a separate, final stage.
Nested aggregates, or SPJ operators above an aggregate, are rejected
by :func:`~repro.algebra.expressions.to_normal_form`.

All arithmetic runs over *encoded* cell values (see
:mod:`repro.algebra.schema`): for integer domains the code is the
value itself; for label domains MIN/MAX order by registration code
(deterministic, and identical between differential maintenance and
full recompute), while SUM/AVG over a label domain is flagged as a
typed ERROR by the static analyzer (:mod:`repro.analysis`).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.algebra.expressions import Expression, SchemaCatalog
from repro.algebra.relation import Relation
from repro.algebra.schema import Attribute, RelationSchema
from repro.errors import ExpressionError
from repro.instrumentation import charge

__all__ = [
    "AGGREGATE_FUNCTIONS",
    "Aggregate",
    "AggregateColumn",
    "AggregateSpec",
    "aggregate_relation",
    "column_plans",
    "render_group",
]

#: The supported aggregate class, in canonical order.
AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max")

ValueTuple = tuple[int, ...]
#: ``(func, position)`` pairs; position is -1 for ``count``.
ColumnPlan = tuple[tuple[str, int], ...]


class AggregateColumn:
    """One output column: an aggregate function over one core attribute.

    ``count`` takes no attribute (it counts rows); every other function
    takes exactly one.  ``alias`` names the output column and must be
    distinct from the grouping keys and the other aliases.
    """

    __slots__ = ("func", "attribute", "alias")

    def __init__(self, func: str, attribute: str | None, alias: str) -> None:
        if func not in AGGREGATE_FUNCTIONS:
            raise ExpressionError(
                f"unknown aggregate function {func!r}; supported: "
                f"{', '.join(AGGREGATE_FUNCTIONS)}"
            )
        if func == "count":
            if attribute is not None:
                raise ExpressionError(
                    "count takes no attribute (it counts the group's rows); "
                    f"got count({attribute})"
                )
        elif not attribute or not isinstance(attribute, str):
            raise ExpressionError(
                f"{func} needs exactly one attribute, got {attribute!r}"
            )
        if not alias or not isinstance(alias, str):
            raise ExpressionError(
                f"aggregate column needs a non-empty alias, got {alias!r}"
            )
        self.func = func
        self.attribute = attribute
        self.alias = alias

    def fingerprint(self) -> tuple[str, str | None, str]:
        """Hashable identity for plan caching."""
        return (self.func, self.attribute, self.alias)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AggregateColumn):
            return NotImplemented
        return self.fingerprint() == other.fingerprint()

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    def __str__(self) -> str:
        inner = self.attribute if self.attribute is not None else "*"
        return f"{self.func}({inner}) as {self.alias}"

    def __repr__(self) -> str:
        return f"AggregateColumn({self})"


class AggregateSpec:
    """Grouping keys plus the aggregate column list of one view."""

    __slots__ = ("keys", "columns")

    def __init__(
        self,
        keys: Sequence[str],
        columns: Iterable[AggregateColumn],
    ) -> None:
        self.keys = tuple(keys)
        self.columns = tuple(columns)
        if not self.columns:
            raise ExpressionError(
                "an aggregate view needs at least one aggregate column"
            )
        if len(set(self.keys)) != len(self.keys):
            raise ExpressionError(f"duplicate grouping keys {self.keys}")
        for column in self.columns:
            if not isinstance(column, AggregateColumn):
                raise ExpressionError(
                    f"expected AggregateColumn, got {column!r}"
                )
        aliases = [column.alias for column in self.columns]
        if len(set(aliases)) != len(aliases):
            raise ExpressionError(f"duplicate aggregate aliases {aliases}")
        clash = set(aliases) & set(self.keys)
        if clash:
            raise ExpressionError(
                f"aggregate aliases {sorted(clash)} collide with grouping keys"
            )

    @property
    def has_minmax(self) -> bool:
        """True when any column is MIN or MAX (base-free obstruction)."""
        return any(column.func in ("min", "max") for column in self.columns)

    def input_attributes(self) -> tuple[str, ...]:
        """Core attributes the aggregates read, deduped in declared order."""
        seen: dict[str, None] = {}
        for column in self.columns:
            if column.attribute is not None:
                seen.setdefault(column.attribute, None)
        return tuple(seen)

    def core_attributes(self) -> tuple[str, ...]:
        """The attributes the SPJ core must produce: keys then inputs."""
        extra = tuple(
            a for a in self.input_attributes() if a not in self.keys
        )
        return self.keys + extra

    def output_schema(self, core_schema: RelationSchema) -> RelationSchema:
        """The visible schema: key attributes then one per column.

        Keys keep the core's domains; ``count``/``sum``/``avg`` columns
        are plain integers; ``min``/``max`` inherit the input's domain.
        """
        attrs = [
            core_schema.attributes[core_schema.index(key)]
            for key in self.keys
        ]
        for column in self.columns:
            if column.func in ("min", "max"):
                assert column.attribute is not None
                domain = core_schema.domain_of(column.attribute)
                attrs.append(Attribute(column.alias, domain))
            else:
                attrs.append(Attribute(column.alias))
        return RelationSchema(attrs)

    def fingerprint(self) -> tuple:
        """Hashable identity, mixed into the compiled plan fingerprint."""
        return (
            "aggregate",
            self.keys,
            tuple(column.fingerprint() for column in self.columns),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AggregateSpec):
            return NotImplemented
        return self.fingerprint() == other.fingerprint()

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    def __str__(self) -> str:
        columns = ", ".join(str(column) for column in self.columns)
        if self.keys:
            return f"group by {', '.join(self.keys)} compute {columns}"
        return f"compute {columns}"

    def __repr__(self) -> str:
        return f"AggregateSpec({self})"


class Aggregate(Expression):
    """``γ_{keys; columns}(child)`` — the outermost aggregate operator."""

    __slots__ = ("child", "spec")

    def __init__(self, child: Expression, spec: AggregateSpec) -> None:
        if not isinstance(child, Expression):
            raise ExpressionError(
                f"Aggregate operand must be an Expression: {child!r}"
            )
        if not isinstance(spec, AggregateSpec):
            raise ExpressionError(
                f"Aggregate needs an AggregateSpec, got {spec!r}"
            )
        self.child = child
        self.spec = spec

    def schema(self, catalog: SchemaCatalog) -> RelationSchema:
        child_schema = self.child.schema(catalog)
        missing = [
            name
            for name in self.spec.core_attributes()
            if name not in child_schema
        ]
        if missing:
            raise ExpressionError(
                f"aggregate references attributes {missing} not produced "
                f"by its operand (schema {child_schema.names})"
            )
        return self.spec.output_schema(child_schema)

    def base_names(self) -> tuple[str, ...]:
        return self.child.base_names()

    def children(self) -> tuple[Expression, ...]:
        return (self.child,)

    def __str__(self) -> str:
        return f"aggregate[{self.spec}]({self.child})"


# ----------------------------------------------------------------------
# The shared fold arithmetic
# ----------------------------------------------------------------------

def column_plans(spec: AggregateSpec, core_schema: RelationSchema) -> ColumnPlan:
    """Resolve each column to ``(func, core position)`` (-1 for count)."""
    return tuple(
        (
            column.func,
            -1
            if column.attribute is None
            else core_schema.index(column.attribute),
        )
        for column in spec.columns
    )


def render_group(
    key: ValueTuple,
    support: Mapping[ValueTuple, int],
    plans: ColumnPlan,
) -> ValueTuple | None:
    """The visible row of one group, from its core-row support bag.

    ``support`` maps the group's core rows (encoded) to their summed
    multiplicities.  Returns ``None`` for an empty group (the group
    emits no row at all — the aggregate analogue of "delete the view
    tuple when the counter reaches zero").  This is the single
    definition of the aggregate arithmetic: full evaluation
    (:func:`aggregate_relation`), the reference fold and the
    generated kernels (:mod:`repro.core.codegen`) must all agree with
    it cell for cell.
    """
    total = sum(support.values())
    if total <= 0:
        return None
    cells = list(key)
    for func, position in plans:
        if func == "count":
            cells.append(total)
        elif func == "sum":
            cells.append(
                sum(row[position] * count for row, count in support.items())
            )
        elif func == "avg":
            summed = sum(
                row[position] * count for row, count in support.items()
            )
            cells.append(summed // total)
        elif func == "min":
            cells.append(min(row[position] for row in support))
        else:  # max
            cells.append(max(row[position] for row in support))
    return tuple(cells)


def aggregate_relation(relation: Relation, spec: AggregateSpec) -> Relation:
    """Full evaluation: group ``relation`` and render every group.

    The input must produce every key and aggregate input attribute
    (it is typically the evaluated SPJ core).  Each non-empty group
    yields exactly one visible row with count 1 — aggregate view
    contents are sets, the multiplicity machinery lives underneath in
    the core support.  With no grouping keys the whole relation is one
    group, and an empty input yields an empty view (no row, matching
    SQL's ``GROUP BY ()`` with zero groups rather than a NULL row —
    documented in docs/aggregates.md).
    """
    schema = relation.schema
    key_positions = schema.positions(spec.keys)
    plans = column_plans(spec, schema)
    groups: dict[ValueTuple, dict[ValueTuple, int]] = {}
    for values, count in relation.items():
        charge("tuples_scanned")
        key = tuple(values[i] for i in key_positions)
        bag = groups.setdefault(key, {})
        bag[values] = bag.get(values, 0) + count
    counts: dict[ValueTuple, int] = {}
    for key in sorted(groups):
        row = render_group(key, groups[key], plans)
        if row is not None:
            counts[row] = 1
    return Relation.from_counts(spec.output_schema(schema), counts)
