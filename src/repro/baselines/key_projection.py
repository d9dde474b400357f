"""Section 5.2's alternative (2): project-with-key views.

To make deletions unambiguous in a project view, the paper considers
two alternatives: (1) the multiplicity counter the library adopts, and
(2) "include the key of the underlying relation within the set of
attributes projected in the view.  This alternative allows unique
identification of each tuple in the view."  The paper chooses (1)
because (2) restricts the admissible views, and notes that (2) "becomes
a special case of alternative (1) in which every tuple in the view has
a counter value of one".

:class:`KeyProjectionView` implements alternative (2) so the trade-off
can be measured (experiment E4): it maintains ``π_{X ∪ K}(R)`` — the
user's attributes widened with the key — in plain set semantics, and
answers queries on ``X`` by projecting the key away on read.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.algebra.relation import Delta, Relation, ValueTuple, key_function
from repro.algebra.schema import RelationSchema
from repro.errors import MaintenanceError, SchemaError
from repro.instrumentation import charge


class KeyProjectionView:
    """A project view maintained by carrying the base relation's key.

    Parameters
    ----------
    base_schema:
        Schema of the underlying relation.
    attributes:
        The user-requested projection ``X``.
    key:
        Attributes forming a key of the base relation.  Base relations
        here are sets of tuples, so the full attribute list is always a
        valid (if maximal) key.
    """

    def __init__(
        self,
        base_schema: RelationSchema,
        attributes: Sequence[str],
        key: Sequence[str],
    ) -> None:
        self.base_schema = base_schema
        self.attributes = tuple(attributes)
        self.key = tuple(key)
        missing = [a for a in self.attributes + self.key if a not in base_schema]
        if missing:
            raise SchemaError(
                f"attributes {missing} are not in base schema {base_schema.names}"
            )
        # The stored schema is X widened with whatever key attributes X
        # does not already include, preserving X's order first.
        stored_names = list(self.attributes)
        for name in self.key:
            if name not in stored_names:
                stored_names.append(name)
        self.stored_schema = base_schema.project_schema(stored_names)
        self._widen = key_function(base_schema.positions(stored_names))
        self.contents = Relation(self.stored_schema)

    # ------------------------------------------------------------------
    # Materialization and maintenance
    # ------------------------------------------------------------------
    def materialize(self, base: Relation) -> None:
        """Load the widened projection of the base relation."""
        if base.schema.names != self.base_schema.names:
            raise SchemaError(
                f"expected base schema {self.base_schema.names}, "
                f"got {base.schema.names}"
            )
        if any(count != 1 for count in base.count_map.values()):
            raise MaintenanceError("key-projection views require set-semantics bases")
        self.contents = Relation.from_counts(
            self.stored_schema, self._stored(base.count_map)
        )

    def apply_delta(self, delta: Delta) -> None:
        """Maintain through a base delta — trivially, thanks to the key.

        Because stored tuples are uniquely identified, insertions and
        deletions "cause no trouble": each base change maps to exactly
        one stored-tuple change.  An update of an attribute outside ``X``
        and the key projects both sides onto one stored tuple, so the
        delta is checked disjoint and such an update is refused.
        """
        charge("tuples_scanned", len(delta.deleted) + len(delta.inserted))
        Delta.from_counts(
            self.stored_schema,
            self._stored(delta.inserted),
            self._stored(delta.deleted),
        ).apply_to(self.contents)

    def _stored(self, counts: Mapping[ValueTuple, int]) -> dict[ValueTuple, int]:
        """Base tuples' counts on their stored tuples (the key makes the
        widening injective)."""
        return {self._widen(values): count for values, count in counts.items()}

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def query(self) -> Relation:
        """The user-visible view ``π_X``: project the key away on read.

        This is the cost alternative (2) pays at query time — the read
        does the count aggregation that alternative (1) keeps
        incrementally maintained.
        """
        project = key_function(self.stored_schema.positions(self.attributes))
        counts: dict[ValueTuple, int] = {}
        for values, count in self.contents.count_map.items():
            key = project(values)
            counts[key] = counts.get(key, 0) + count
        if counts:
            charge("tuples_scanned", len(self.contents))
        return Relation.from_counts(
            self.stored_schema.project_schema(self.attributes), counts
        )

    def __len__(self) -> int:
        return len(self.contents)

    def __repr__(self) -> str:
        return (
            f"<KeyProjectionView π_{list(self.attributes)} "
            f"+key{list(self.key)}: {len(self.contents)} stored tuples>"
        )
