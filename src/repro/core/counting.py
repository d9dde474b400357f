"""Multiplicity counters for project views (Section 5.2).

Projection introduces the first difficulty for differential updating:
it does not distribute over difference
(``π_X(r₁ − r₂) ≠ π_X(r₁) − π_X(r₂)`` in set semantics), so deleting a
base tuple does not say whether its projection should leave the view —
another base tuple may still support it (the paper's Example 5.1).

The paper's chosen fix (alternative 1) attaches a multiplicity counter
to every view tuple: insertions increment, deletions decrement, and a
tuple leaves the view when its counter reaches zero.  With the project
and join operators redefined to sum and multiply counters
(:mod:`repro.algebra.evaluate`), distributivity over difference is
restored and differential maintenance is exact.

:class:`~repro.algebra.relation.Relation` already carries the counter;
this module supplies the §5.2-specific operations: the direct
maintenance rule for a pure project view, and the distributivity check
the paper's argument rests on (used by the property tests).
"""

from __future__ import annotations

from typing import Sequence

from repro.algebra.relation import Delta, Relation
from repro.errors import MaintenanceError
from repro.instrumentation import charge


def project_delta(delta: Delta, attributes: Sequence[str]) -> tuple[
    dict[tuple[int, ...], int], dict[tuple[int, ...], int]
]:
    """Project a base delta onto view attributes, with counts.

    Returns ``(insert_counts, delete_counts)`` keyed by projected
    tuples.  Several base inserts (or deletes) may land on the same
    projected tuple — exactly the situation the counter exists for.
    """
    positions = delta.schema.positions(attributes)
    insert_counts: dict[tuple[int, ...], int] = {}
    delete_counts: dict[tuple[int, ...], int] = {}
    for values, count in delta.inserted.items():
        charge("tuples_scanned")
        key = tuple(values[i] for i in positions)
        insert_counts[key] = insert_counts.get(key, 0) + count
    for values, count in delta.deleted.items():
        charge("tuples_scanned")
        key = tuple(values[i] for i in positions)
        delete_counts[key] = delete_counts.get(key, 0) + count
    return insert_counts, delete_counts


def net_counts(
    insert_counts: dict[tuple[int, ...], int],
    delete_counts: dict[tuple[int, ...], int],
) -> tuple[dict[tuple[int, ...], int], dict[tuple[int, ...], int]]:
    """Cancel opposing counts on the same tuple, in place.

    The §5.2 counter arithmetic shared by every maintenance backend:
    insert and delete counts landing on the same view tuple net out
    (``+2/−1`` becomes ``+1``), leaving the disjoint sides a
    :class:`~repro.algebra.relation.Delta` requires.  Both dicts are
    mutated and returned for convenience.
    """
    for key in list(insert_counts.keys() & delete_counts.keys()):
        cancel = min(insert_counts[key], delete_counts[key])
        insert_counts[key] -= cancel
        delete_counts[key] -= cancel
        if not insert_counts[key]:
            del insert_counts[key]
        if not delete_counts[key]:
            del delete_counts[key]
    return insert_counts, delete_counts


def maintain_project_view(
    view: Relation, delta: Delta, attributes: Sequence[str]
) -> None:
    """Differentially update a pure project view ``V = π_X(R)`` in place.

    Increments counters for projected inserts, decrements for projected
    deletes, and removes tuples whose counter reaches zero — the §5.2
    algorithm verbatim.  The view relation's schema must match the
    projected attributes.
    """
    if view.schema.names != tuple(attributes):
        raise MaintenanceError(
            f"view schema {view.schema.names} does not match projection "
            f"{tuple(attributes)}"
        )
    inserted, deleted = net_counts(*project_delta(delta, attributes))
    Delta.from_counts(view.schema, inserted, deleted).apply_to(view)


def counted_projection_distributes(
    r1: Relation, r2: Relation, attributes: Sequence[str]
) -> bool:
    """Check ``π_X(r₁ − r₂) = π_X(r₁) − π_X(r₂)`` under counted semantics.

    ``r₂`` must be a counted sub-multiset of ``r₁`` for the left side to
    be defined.  The paper claims the redefined projection makes the
    identity hold; the property tests drive this over random relations.
    """
    from repro.algebra.evaluate import project_relation

    left = project_relation(r1.difference(r2), attributes)
    right = project_relation(r1, attributes).difference(
        project_relation(r2, attributes)
    )
    return left == right
