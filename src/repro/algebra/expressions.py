"""The SPJ expression language and its paper normal form.

Views in the paper are defined by *SPJ expressions* — combinations of
selections, projections and joins (Section 3).  This module provides:

* an expression AST (:class:`BaseRef`, :class:`Select`,
  :class:`Project`, :class:`Join`, :class:`Product`) with schema
  resolution and validation against a catalog of base-relation schemas;

* :class:`NormalForm` — the paper's canonical shape
  ``π_X( σ_C(Y)( R₁ × R₂ × … × R_p ) )`` that both the irrelevance
  filter (Section 4) and the differential algorithm (Section 5) are
  stated over, together with :func:`to_normal_form`, which flattens any
  SPJ tree into it.

Flattening notes
----------------
The paper assumes the relation schemes in a view are pairwise disjoint
(natural joins are written over shared attribute names, but the §4
formalism uses a cross product with explicit equality conditions).  We
bridge the two by *qualifying* attribute occurrences: each base-relation
occurrence in the flattened product renames any attribute whose name
has already been used, and natural joins contribute explicit equality
atoms between the two qualified copies.  Self-joins therefore work: the
two occurrences of the relation simply carry different qualified names.

Counted semantics is preserved by flattening: selections commute with
each other and with the product, and collapsing a tower of projections
into the outermost one leaves the final counts unchanged (summing
counts in one step equals summing them in stages).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from repro.algebra.conditions import Atom, Condition
from repro.algebra.schema import RelationSchema
from repro.errors import ExpressionError, SchemaError

if TYPE_CHECKING:  # runtime import would cycle: aggregates imports us
    from repro.algebra.aggregates import Aggregate, AggregateColumn

SchemaCatalog = Mapping[str, RelationSchema]


class Expression:
    """Base class of SPJ expression nodes."""

    def schema(self, catalog: SchemaCatalog) -> RelationSchema:
        """The output schema of this expression under ``catalog``."""
        raise NotImplementedError

    def base_names(self) -> tuple[str, ...]:
        """Names of base relations mentioned, in left-to-right order
        (with repetition for self-joins)."""
        raise NotImplementedError

    def children(self) -> tuple["Expression", ...]:
        """Direct sub-expressions."""
        raise NotImplementedError

    def walk(self) -> Iterator["Expression"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    # Fluent construction sugar -----------------------------------------
    def select(self, condition: object) -> "Select":
        """``σ_condition(self)`` — accepts a Condition or a string."""
        return Select(self, Condition.coerce(condition))

    def project(self, attributes: Sequence[str]) -> "Project":
        """``π_attributes(self)``."""
        return Project(self, attributes)

    def join(self, other: "Expression") -> "Join":
        """Natural join ``self ⋈ other``."""
        return Join(self, other)

    def product(self, other: "Expression") -> "Product":
        """Cross product ``self × other`` (disjoint schemas required)."""
        return Product(self, other)

    def rename(self, mapping: Mapping[str, str]) -> "Rename":
        """``ρ_mapping(self)`` — rename output attributes."""
        return Rename(self, mapping)

    def union(self, other: "Expression") -> "Union":
        """Counted union ``self ∪ other`` (evaluate-only)."""
        return Union(self, other)

    def difference(self, other: "Expression") -> "Difference":
        """Counted difference ``self − other`` (evaluate-only)."""
        return Difference(self, other)

    def aggregate(
        self,
        keys: Sequence[str],
        columns: Sequence["AggregateColumn | tuple[str, str | None, str]"],
    ) -> "Aggregate":
        """``γ_{keys; columns}(self)`` — aggregate view sugar.

        ``columns`` entries are :class:`~repro.algebra.aggregates.
        AggregateColumn` instances or ``(func, attribute, alias)``
        triples (attribute ``None`` for ``count``).
        """
        from repro.algebra.aggregates import (
            Aggregate,
            AggregateColumn,
            AggregateSpec,
        )

        cols = [
            column
            if isinstance(column, AggregateColumn)
            else AggregateColumn(column[0], column[1], column[2])
            for column in columns
        ]
        return Aggregate(self, AggregateSpec(keys, cols))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class BaseRef(Expression):
    """A reference to a named base relation."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise ExpressionError(f"base relation name must be a string: {name!r}")
        self.name = name

    def schema(self, catalog: SchemaCatalog) -> RelationSchema:
        try:
            return catalog[self.name]
        except KeyError:
            raise ExpressionError(f"unknown base relation {self.name!r}") from None

    def base_names(self) -> tuple[str, ...]:
        return (self.name,)

    def children(self) -> tuple[Expression, ...]:
        return ()

    def __str__(self) -> str:
        return self.name


class Select(Expression):
    """``σ_C(child)``."""

    __slots__ = ("child", "condition")

    def __init__(self, child: Expression, condition: object) -> None:
        if not isinstance(child, Expression):
            raise ExpressionError(f"Select operand must be an Expression: {child!r}")
        self.child = child
        self.condition = Condition.coerce(condition)

    def schema(self, catalog: SchemaCatalog) -> RelationSchema:
        child_schema = self.child.schema(catalog)
        unknown = self.condition.variables() - child_schema.nameset
        if unknown:
            raise ExpressionError(
                f"selection references attributes {sorted(unknown)} not produced "
                f"by its operand (schema {child_schema.names})"
            )
        return child_schema

    def base_names(self) -> tuple[str, ...]:
        return self.child.base_names()

    def children(self) -> tuple[Expression, ...]:
        return (self.child,)

    def __str__(self) -> str:
        return f"select[{self.condition}]({self.child})"


class Project(Expression):
    """``π_X(child)`` with the paper's counted semantics."""

    __slots__ = ("child", "attributes")

    def __init__(self, child: Expression, attributes: Sequence[str]) -> None:
        if not isinstance(child, Expression):
            raise ExpressionError(f"Project operand must be an Expression: {child!r}")
        attrs = tuple(attributes)
        if not attrs:
            raise ExpressionError("projection needs at least one attribute")
        if len(set(attrs)) != len(attrs):
            raise ExpressionError(f"duplicate attributes in projection {attrs}")
        self.child = child
        self.attributes = attrs

    def schema(self, catalog: SchemaCatalog) -> RelationSchema:
        child_schema = self.child.schema(catalog)
        missing = [a for a in self.attributes if a not in child_schema]
        if missing:
            raise ExpressionError(
                f"projection references attributes {missing} not produced "
                f"by its operand (schema {child_schema.names})"
            )
        return child_schema.project_schema(self.attributes)

    def base_names(self) -> tuple[str, ...]:
        return self.child.base_names()

    def children(self) -> tuple[Expression, ...]:
        return (self.child,)

    def __str__(self) -> str:
        return f"project[{', '.join(self.attributes)}]({self.child})"


class Join(Expression):
    """Natural join ``left ⋈ right`` on all shared attribute names."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expression, right: Expression) -> None:
        for side in (left, right):
            if not isinstance(side, Expression):
                raise ExpressionError(f"Join operand must be an Expression: {side!r}")
        self.left = left
        self.right = right

    def schema(self, catalog: SchemaCatalog) -> RelationSchema:
        return self.left.schema(catalog).join_schema(self.right.schema(catalog))

    def base_names(self) -> tuple[str, ...]:
        return self.left.base_names() + self.right.base_names()

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} join {self.right})"


class Rename(Expression):
    """``ρ_mapping(child)`` — rename output attributes.

    Not part of the paper's SPJ vocabulary, but the standard companion
    operator that makes *self-joins* expressible: without renaming, a
    natural join of a relation with itself is the identity.  Renaming
    is transparent to maintenance — the normal form already tracks
    attribute provenance through qualified names.
    """

    __slots__ = ("child", "mapping")

    def __init__(self, child: Expression, mapping: Mapping[str, str]) -> None:
        if not isinstance(child, Expression):
            raise ExpressionError(f"Rename operand must be an Expression: {child!r}")
        if not mapping:
            raise ExpressionError("Rename needs a non-empty attribute mapping")
        self.child = child
        self.mapping = dict(mapping)

    def schema(self, catalog: SchemaCatalog) -> RelationSchema:
        child_schema = self.child.schema(catalog)
        missing = [a for a in self.mapping if a not in child_schema]
        if missing:
            raise ExpressionError(
                f"rename references attributes {missing} not produced "
                f"by its operand (schema {child_schema.names})"
            )
        try:
            return child_schema.renamed(self.mapping)
        except SchemaError as exc:
            raise ExpressionError(str(exc)) from exc

    def base_names(self) -> tuple[str, ...]:
        return self.child.base_names()

    def children(self) -> tuple[Expression, ...]:
        return (self.child,)

    def __str__(self) -> str:
        inner = ", ".join(f"{old}->{new}" for old, new in self.mapping.items())
        return f"rename[{inner}]({self.child})"


class Product(Expression):
    """Cross product ``left × right``; schemas must be disjoint."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expression, right: Expression) -> None:
        for side in (left, right):
            if not isinstance(side, Expression):
                raise ExpressionError(f"Product operand must be an Expression: {side!r}")
        self.left = left
        self.right = right

    def schema(self, catalog: SchemaCatalog) -> RelationSchema:
        left_schema = self.left.schema(catalog)
        right_schema = self.right.schema(catalog)
        try:
            return left_schema.concat(right_schema)
        except SchemaError as exc:
            raise ExpressionError(str(exc)) from exc

    def base_names(self) -> tuple[str, ...]:
        return self.left.base_names() + self.right.base_names()

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} x {self.right})"


class Union(Expression):
    """Counted union ``left ∪ right`` (counts add).

    Evaluate-only: union views are maintained through
    :class:`repro.extensions.union_views.UnionView` (one normal form
    per branch), not through :func:`to_normal_form`, which rejects
    this operator with a pointer there.
    """

    __slots__ = ("left", "right")

    def __init__(self, left: Expression, right: Expression) -> None:
        for side in (left, right):
            if not isinstance(side, Expression):
                raise ExpressionError(f"Union operand must be an Expression: {side!r}")
        self.left = left
        self.right = right

    def schema(self, catalog: SchemaCatalog) -> RelationSchema:
        left_schema = self.left.schema(catalog)
        right_schema = self.right.schema(catalog)
        if left_schema.names != right_schema.names:
            raise ExpressionError(
                f"union operands disagree on schema: {left_schema.names} "
                f"vs {right_schema.names}"
            )
        return left_schema

    def base_names(self) -> tuple[str, ...]:
        return self.left.base_names() + self.right.base_names()

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} union {self.right})"


class Difference(Expression):
    """Counted difference ``left − right`` (counts subtract).

    Evaluate-only, like :class:`Union`; additionally, the left side
    must dominate the right count-wise at evaluation time or the
    counted difference is undefined (see
    :meth:`repro.algebra.relation.Relation.difference`).  Difference is
    not monotone, so it falls outside anything Section 5 can maintain.
    """

    __slots__ = ("left", "right")

    def __init__(self, left: Expression, right: Expression) -> None:
        for side in (left, right):
            if not isinstance(side, Expression):
                raise ExpressionError(
                    f"Difference operand must be an Expression: {side!r}"
                )
        self.left = left
        self.right = right

    def schema(self, catalog: SchemaCatalog) -> RelationSchema:
        left_schema = self.left.schema(catalog)
        right_schema = self.right.schema(catalog)
        if left_schema.names != right_schema.names:
            raise ExpressionError(
                f"difference operands disagree on schema: {left_schema.names} "
                f"vs {right_schema.names}"
            )
        return left_schema

    def base_names(self) -> tuple[str, ...]:
        return self.left.base_names() + self.right.base_names()

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} - {self.right})"


# ----------------------------------------------------------------------
# Normal form
# ----------------------------------------------------------------------


class Occurrence:
    """One base-relation occurrence in a flattened product.

    ``rename`` maps each original attribute name to its *qualified* name
    in the flattened product's namespace; ``inverse`` goes back.
    """

    __slots__ = ("name", "position", "rename", "inverse")

    def __init__(self, name: str, position: int, rename: Mapping[str, str]) -> None:
        self.name = name
        self.position = position
        self.rename = dict(rename)
        self.inverse = {q: o for o, q in self.rename.items()}

    def qualified_names(self) -> tuple[str, ...]:
        """Qualified names of this occurrence's attributes."""
        return tuple(self.rename.values())

    def __repr__(self) -> str:
        return f"<Occurrence {self.name}#{self.position}>"


class NormalForm:
    """The paper's canonical view shape ``π_X σ_C (R₁ × … × R_p)``.

    Attributes
    ----------
    occurrences:
        The base-relation occurrences, left to right.
    condition:
        The collected selection condition in DNF, over qualified names.
    projection:
        ``(output_name, qualified_name)`` pairs defining π_X.
    qualified_schema:
        The schema of the flattened product (all qualified attributes).
    """

    __slots__ = ("occurrences", "condition", "projection", "qualified_schema")

    def __init__(
        self,
        occurrences: Sequence[Occurrence],
        condition: Condition,
        projection: Sequence[tuple[str, str]],
        qualified_schema: RelationSchema,
    ) -> None:
        self.occurrences = tuple(occurrences)
        self.condition = condition
        self.projection = tuple(projection)
        self.qualified_schema = qualified_schema

        known = qualified_schema.nameset
        stray = self.condition.variables() - known
        if stray:
            raise ExpressionError(
                f"normal-form condition mentions unknown attributes {sorted(stray)}"
            )
        for _, qualified in self.projection:
            if qualified not in known:
                raise ExpressionError(
                    f"normal-form projection mentions unknown attribute {qualified!r}"
                )

    @property
    def relation_names(self) -> tuple[str, ...]:
        """Base-relation names, one per occurrence (repeats on self-join)."""
        return tuple(o.name for o in self.occurrences)

    def output_schema(self) -> RelationSchema:
        """Schema of the view, using output (user-visible) names."""
        attrs = []
        for output_name, qualified in self.projection:
            attr = self.qualified_schema.attributes[
                self.qualified_schema.index(qualified)
            ]
            attrs.append(attr.renamed(output_name))
        return RelationSchema(attrs)

    def occurrences_of(self, relation_name: str) -> tuple[Occurrence, ...]:
        """All occurrences of ``relation_name`` (≥ 2 for a self-join)."""
        return tuple(o for o in self.occurrences if o.name == relation_name)

    def condition_variables(self) -> frozenset[str]:
        """The set Y of Section 4 (qualified)."""
        return self.condition.variables()

    def __repr__(self) -> str:
        proj = ", ".join(out for out, _ in self.projection)
        rels = " x ".join(o.name for o in self.occurrences)
        return f"<NormalForm project[{proj}] select[{self.condition}] ({rels})>"


def to_normal_form(expression: Expression, catalog: SchemaCatalog) -> NormalForm:
    """Flatten an SPJ expression into the paper's normal form.

    Raises :class:`ExpressionError` when the expression is outside the
    SPJ class or ill-formed with respect to ``catalog``.
    """
    # Validate eagerly so error messages reference the original tree.
    expression.schema(catalog)

    used_names: set[str] = set()
    occurrences: list[Occurrence] = []
    counter = [0]

    def fresh_name(base: str) -> str:
        if base not in used_names:
            used_names.add(base)
            return base
        n = 2
        while f"{base}_{n}" in used_names:
            n += 1
        name = f"{base}_{n}"
        used_names.add(name)
        return name

    def flatten(
        node: Expression,
    ) -> tuple[Condition, dict[str, str]]:
        """Return (condition, visible) for ``node``.

        ``visible`` maps the node's output attribute names to qualified
        names in the flattened product.
        """
        if isinstance(node, BaseRef):
            schema = catalog[node.name]
            rename = {attr: fresh_name(attr) for attr in schema.names}
            occurrences.append(Occurrence(node.name, counter[0], rename))
            counter[0] += 1
            return Condition.true(), dict(rename)

        if isinstance(node, Select):
            condition, visible = flatten(node.child)
            binding_free = node.condition
            # Requalify the selection's variables.
            requalified = _requalify(binding_free, visible)
            return condition.conjoin(requalified), visible

        if isinstance(node, Project):
            condition, visible = flatten(node.child)
            return condition, {a: visible[a] for a in node.attributes}

        if isinstance(node, Rename):
            condition, visible = flatten(node.child)
            return condition, {
                node.mapping.get(name, name): qualified
                for name, qualified in visible.items()
            }

        if isinstance(node, Join):
            left_cond, left_visible = flatten(node.left)
            right_cond, right_visible = flatten(node.right)
            condition = left_cond.conjoin(right_cond)
            shared = set(left_visible) & set(right_visible)
            for name in sorted(shared):
                condition = condition.conjoin(
                    Condition.of_atoms(
                        [Atom(left_visible[name], "=", right_visible[name])]
                    )
                )
            visible = dict(left_visible)
            for name, qualified in right_visible.items():
                if name not in visible:
                    visible[name] = qualified
            return condition, visible

        if isinstance(node, Product):
            left_cond, left_visible = flatten(node.left)
            right_cond, right_visible = flatten(node.right)
            shared = set(left_visible) & set(right_visible)
            if shared:
                raise ExpressionError(
                    f"cross product operands share attributes {sorted(shared)}"
                )
            visible = dict(left_visible)
            visible.update(right_visible)
            return left_cond.conjoin(right_cond), visible

        if isinstance(node, Union):
            raise ExpressionError(
                "Union views are maintained per branch — use "
                "repro.extensions.union_views.UnionView instead of "
                "registering a Union expression directly"
            )
        from repro.algebra.aggregates import Aggregate

        if isinstance(node, Aggregate):
            raise ExpressionError(
                "aggregation must be the outermost operator of a view "
                "definition — the maintainer peels the Aggregate node off "
                "and normalizes only its SPJ core; nested aggregates (or "
                "SPJ operators above an aggregate) are not supported"
            )
        raise ExpressionError(
            f"{type(node).__name__} is outside the SPJ class supported "
            "by the differential algorithm (Section 5)"
        )

    condition, visible = flatten(expression)

    qualified_attrs = []
    for occ in occurrences:
        schema = catalog[occ.name]
        for attr in schema.attributes:
            qualified_attrs.append(attr.renamed(occ.rename[attr.name]))
    qualified_schema = RelationSchema(qualified_attrs)

    output_names = expression.schema(catalog).names
    projection = [(name, visible[name]) for name in output_names]
    return NormalForm(occurrences, condition, projection, qualified_schema)


def requalify_condition(
    condition: Condition, mapping: Mapping[str, str]
) -> Condition:
    """Rewrite a condition's variables through a rename ``mapping``.

    Used during flattening (selection conditions move into the flat
    product's qualified namespace) and by the static analyzer, which
    pushes a relation constraint ``K_R`` — written over R's own
    attribute names — through an :class:`Occurrence`'s rename so it can
    be conjoined with the view condition.  Raises
    :class:`ExpressionError` when the condition mentions a variable the
    mapping does not cover.
    """
    from repro.algebra.conditions import Conjunction, Var

    def map_atom(atom: Atom) -> Atom:
        left: object = atom.left
        right: object = atom.right
        if isinstance(left, Var):
            left = Var(mapping[left.name])
        if isinstance(right, Var):
            right = Var(mapping[right.name])
        return Atom(left, atom.op, right, atom.offset)

    missing = condition.variables() - set(mapping)
    if missing:
        raise ExpressionError(
            f"condition references attributes {sorted(missing)} not visible "
            "under the rename mapping"
        )
    return Condition(
        Conjunction(map_atom(a) for a in disjunct) for disjunct in condition.disjuncts
    )


# Backwards-compatible internal alias (flattening's original name).
_requalify = requalify_condition
