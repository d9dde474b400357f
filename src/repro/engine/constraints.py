"""Declared per-relation constraints.

A *relation constraint* asserts that every tuple of one base relation
satisfies a paper-class condition over that relation's own attributes —
the single-relation special case of the integrity assertions of
Hammer & Sarin [HS78] (the general form is a view that must stay
empty, ``MaintenancePolicy.ASSERTION``).  Constraints serve two masters:

* **Enforcement** — the commit pipeline rejects transactions whose
  inserted tuples violate a declared constraint, before any state
  changes (:class:`~repro.errors.ConstraintViolationError`), and
  declaration itself fails if existing rows already violate it.  Every
  stored row therefore satisfies every declared constraint at all
  times.
* **Static analysis** — the analyzer (:mod:`repro.analysis`) and the
  compiled maintenance plans (:mod:`repro.core.compiled`) use the
  declared condition ``K_R`` as a premise in Theorem 4.1 proofs: when
  ``C ∧ K_R`` is unsatisfiable for every occurrence of ``R`` in a view,
  *no legal update to R can ever be relevant*, and the plan drops R's
  per-tuple screening entirely.

Declaring or dropping a constraint fires the database's DDL hook bus
(events ``"declare_constraint"`` / ``"drop_constraint"``), so cached
plans whose static-irrelevance proofs depended on the constraint are
invalidated exactly like plans staled by an index drop.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

from repro.algebra.conditions import Condition
from repro.algebra.relation import Relation
from repro.algebra.schema import RelationSchema
from repro.errors import ConstraintError

#: Fired as ``notify(event, relation_name)`` with event one of
#: ``"declare_constraint"`` / ``"drop_constraint"`` — the same shape as
#: the database's other DDL events.
NotifyFn = Callable[[str, str], None]


class ConstraintCatalog:
    """The declared per-relation constraints of one database.

    The catalog stores one :class:`~repro.algebra.conditions.Condition`
    per relation name; conjoin conditions before declaring to express
    several invariants on one relation.  Validation against schemas and
    contents is the owning database's job (it knows both); the catalog
    only keeps the mapping and fires change notifications.
    """

    __slots__ = ("_conditions", "_notify")

    def __init__(self, notify: NotifyFn | None = None) -> None:
        self._conditions: dict[str, Condition] = {}
        self._notify = notify

    def declare(self, relation_name: str, condition: Condition) -> None:
        """Record ``condition`` as the constraint on ``relation_name``.

        Re-declaring replaces the previous condition (a change
        notification fires either way).
        """
        self._conditions[relation_name] = condition
        if self._notify is not None:
            self._notify("declare_constraint", relation_name)

    def drop(self, relation_name: str) -> bool:
        """Forget a constraint; returns True when one existed."""
        if relation_name not in self._conditions:
            return False
        del self._conditions[relation_name]
        if self._notify is not None:
            self._notify("drop_constraint", relation_name)
        return True

    def discard(self, relation_name: str) -> None:
        """Drop without notifying — for relation drops, which already
        fire their own DDL event covering the same dependents."""
        self._conditions.pop(relation_name, None)

    def get(self, relation_name: str) -> Condition | None:
        """The declared condition for ``relation_name``, or ``None``."""
        return self._conditions.get(relation_name)

    def involves(self, names: Iterable[str]) -> bool:
        """Whether any of ``names`` carries a constraint: O(1) per name."""
        for name in names:  # noqa: SIM110 - one frame per commit, not a generator's
            if name in self._conditions:
                return True
        return False

    def names(self) -> tuple[str, ...]:
        """All constrained relation names, sorted."""
        return tuple(sorted(self._conditions))

    def items(self) -> Iterator[tuple[str, Condition]]:
        """(name, condition) pairs in sorted name order."""
        for name in self.names():
            yield name, self._conditions[name]

    def __len__(self) -> int:
        return len(self._conditions)

    def __contains__(self, relation_name: str) -> bool:
        return relation_name in self._conditions

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}: {cond}" for name, cond in self.items()
        )
        return f"<ConstraintCatalog {inner or 'empty'}>"


def validate_constraint_condition(
    relation_name: str, condition: Condition, schema: RelationSchema
) -> None:
    """Reject conditions mentioning attributes outside the relation."""
    stray = condition.variables() - schema.nameset
    if stray:
        raise ConstraintError(
            f"constraint on {relation_name!r} references attributes "
            f"{sorted(stray)} outside its schema {list(schema.names)}"
        )


def find_violations(
    relation_name: str,
    condition: Condition,
    schema: RelationSchema,
    rows: Relation | Mapping[tuple[int, ...], int],
) -> list[tuple[int, ...]]:
    """Rows of ``rows`` that do not satisfy ``condition`` (sorted).

    ``rows`` is a relation (declaration-time check over existing
    contents) or a delta's inserted-counts mapping (commit-time check).
    """
    names = schema.names
    violations = []
    values_iter = (
        rows.value_tuples() if isinstance(rows, Relation) else rows
    )
    for values in values_iter:
        assignment = dict(zip(names, values))
        if not condition.evaluate(assignment):
            violations.append(values)
    return sorted(violations)
