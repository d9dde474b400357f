"""The tagged operands of Section 5's truth-table rows, one tuple at a time.

A DELTA operand carries a transaction's inserts and deletes tagged
``insert``/``delete``; an OLD operand the tuples present **both before
and after** the transaction, tagged ``old`` (``r − d_r``, equivalently
the post-state minus the inserts — see :mod:`repro.algebra.tags` for
why this reading makes the paper's tag table exact).  The generated row
kernels (:mod:`repro.core.codegen`) read both straight from a delta's
count maps and the live relations; the per-tuple forms below serve the
reference evaluator the tests keep (``tests/reference.py``).

:class:`LazyOperandEntry` is held in this module for
``macrobench/tracer.py``, which wraps ``LazyOperandEntry.__getitem__``
by this name, until the tracer stops naming it (ROADMAP item 2).
"""

from __future__ import annotations

from repro.algebra.relation import Delta, Relation, TaggedRelation
from repro.algebra.schema import RelationSchema
from repro.algebra.tags import Tag
from repro.core.truthtable import DeltaRowChoice
from repro.errors import MaintenanceError


def _old_operand(
    post_state: Relation,
    delta: Delta | None,
    qualified_schema: RelationSchema,
) -> TaggedRelation:
    """The OLD operand: tuples present both before and after the commit.

    ``post_state`` is the relation *after* the transaction applied;
    subtracting the inserted counts recovers ``r − d_r``.  The count
    arithmetic matters for *counted* operands (a view used as the base
    of another view): an insertion may merely raise an existing tuple's
    counter, in which case the pre-existing copies are still OLD.
    """
    out = TaggedRelation(qualified_schema)
    inserted = delta.inserted if delta is not None else {}
    for values, count in post_state.items():
        remaining = count - inserted.get(values, 0)
        if remaining > 0:
            out.add(values, Tag.OLD, remaining)
    return out


class LazyOperandEntry:
    """Per-occurrence operand mapping, built on first access.

    Materializing an OLD operand scans the whole base relation; when
    the planner answers its probes from a persistent index — or when a
    truth-table row never consults the operand at all (the OLD choice
    of a changed relation with k = 1, say) — that scan is pure waste.
    Construction is therefore deferred until the planner actually asks.
    """

    __slots__ = ("_post", "_delta", "_schema", "_changed", "_cache")

    def __init__(
        self,
        post_state: Relation,
        delta: Delta | None,
        qualified_schema: RelationSchema,
        changed: bool,
    ) -> None:
        self._post = post_state
        self._delta = delta
        self._schema = qualified_schema
        self._changed = changed
        self._cache: dict[DeltaRowChoice, TaggedRelation] = {}

    def __getitem__(self, choice: DeltaRowChoice) -> TaggedRelation:
        cached = self._cache.get(choice)
        if cached is not None:
            return cached
        if choice is DeltaRowChoice.OLD:
            built = _old_operand(self._post, self._delta, self._schema)
        elif self._changed and self._delta is not None:
            built = _delta_operand(self._delta, self._schema)
        else:
            raise MaintenanceError(
                "DELTA operand requested for an unchanged relation"
            )
        self._cache[choice] = built
        return built


def _delta_operand(
    delta: Delta, qualified_schema: RelationSchema
) -> TaggedRelation:
    """The DELTA operand: net inserts and deletes, tagged."""
    out = TaggedRelation(qualified_schema)
    for values, tag, count in delta.tagged_items():
        out.add(values, tag, count)
    return out
