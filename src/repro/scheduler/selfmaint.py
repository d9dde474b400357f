"""Self-maintainability classification for SPJ views.

A view ``v = π_X(σ_C(R₁ × … × R_p))`` is *self-maintainable* when, for
every legal transaction, the new materialization is a function of the
old view contents (multiplicity counters included) and the
transaction's net deltas alone — no base-relation state is ever
consulted.  Hosts that carry only self-maintainable views can drop
their base-relation copies entirely and still maintain byte-for-byte
correct views from shipped deltas (``base_free=True`` on
:class:`~repro.replication.follower.Follower` and
:class:`~repro.cluster.shard.ShardNode`).

Why join views are not self-maintainable in general
---------------------------------------------------
The obstruction is the *empty view*: take ``v = σ_{A=C}(r × s)`` with
``r`` empty and ``s`` arbitrary, so ``v`` is empty.  Inserting a tuple
into ``r`` must produce every matching ``s``-partner in the view — but
the empty view contents carry no information about ``s`` at all, so no
function of (view contents, delta) can be correct for every ``s``.
Projection does not help (the counters only count rows already in the
view), and neither does any join order.  Self-maintainability for join
views therefore needs *extra premises* that let the probe side be
reconstructed or proven empty.  This module implements the two classes
whose premises the engine can actually discharge:

* ``single_relation`` (``p == 1``) — always self-maintainable.  The
  compiled maintenance plan's delta enumeration for one occurrence
  contains exactly the ``(DELTA,)`` row: the plan screens, selects and
  projects the delta itself with counted semantics and never
  materializes an OLD operand (the single-occurrence DELTA row reads
  none).  Running
  the *same compiled plan* against empty base relations is therefore
  byte-for-byte identical by construction, which is how the base-free
  hosting modes execute it.
* ``constraint_empty_join`` (``p ≥ 2``) — the view condition conjoined
  with every declared relation constraint (each ``K_R`` requalified
  through its occurrence's rename, Theorem 4.1 style) is
  unsatisfiable.  Every legal database state then yields an **empty**
  view, and every legal delta yields an empty view delta, so
  maintenance is trivially base-free.  Per-shard key-range constraints
  make this case real in the cluster: a shard whose ownership range
  contradicts a view's condition hosts that view as provably empty.
* ``fk_join`` (``p ≥ 2``) — every probe operand is reached through a
  declared foreign key into a declared candidate key and contributes
  nothing beyond the referenced key attributes
  (:func:`repro.analysis.dependencies.fk_reduction`).  The compiled
  plan then executes the *reduced* single-occurrence normal form over
  the referencing relation alone — the probe lookup is erased by
  substituting referencing attributes for referenced key attributes —
  so, like ``single_relation``, no maintenance step ever materializes
  an OLD operand and the same plan runs byte-for-byte against empty
  bases.

Everything else is classified ``join`` / not self-maintainable, with
the obstruction spelled out in the reason.  The test is sound but not
complete: like all Section 4 proofs it is decided over unbounded
discrete domains, so it may answer "not self-maintainable" for a view
that a finer analysis could admit, but never the reverse.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional, Protocol

from repro.algebra.conditions import Condition
from repro.algebra.expressions import requalify_condition
from repro.core.satisfiability import is_satisfiable
from repro.instrumentation import charge

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.dependencies import KeyLookup
    from repro.core.views import ViewDefinition


#: ``p == 1``: selection/projection over one occurrence — the delta-only
#: truth-table row maintains the view without OLD operands.
KIND_SINGLE_RELATION = "single_relation"
#: ``p >= 2`` but ``C ∧ K_R₁ ∧ … ∧ K_Rp`` is unsatisfiable: the view is
#: provably empty in every legal state, so maintenance is a no-op.
KIND_CONSTRAINT_EMPTY = "constraint_empty_join"
#: ``p >= 2`` where every probe operand is erased by a declared
#: foreign-key lookup into a declared candidate key: the compiled plan
#: runs the reduced single-occurrence normal form over the referencing
#: relation alone.
KIND_FK_JOIN = "fk_join"
#: ``p >= 2`` with no emptiness proof: the probe side of some delta row
#: cannot be recovered from view contents alone (the empty-view
#: obstruction), so base state is required.
KIND_JOIN = "join"
#: Any MIN/MAX aggregate column: deleting the current extremum needs the
#: runner-up, which the visible group rows do not determine — the
#: per-value support multiset is base-proportional auxiliary state.
KIND_AGGREGATE_MINMAX = "aggregate_minmax"
#: ``p == 1`` with only COUNT/SUM/AVG columns: the core delta is the
#: shipped delta itself, and the fold touches bounded per-group
#: accumulators only.
KIND_SINGLE_RELATION_AGGREGATE = "single_relation_aggregate"


class _ConstraintLookup(Protocol):
    """Anything with ``get(name) -> Condition | None`` — a
    :class:`~repro.engine.constraints.ConstraintCatalog` or a plain
    mapping."""

    def get(self, relation_name: str) -> Optional[Condition]: ...


class SelfMaintainability:
    """One view's classification, with the proof sketch as prose."""

    __slots__ = ("view", "self_maintainable", "kind", "reason")

    def __init__(
        self, view: str, self_maintainable: bool, kind: str, reason: str
    ) -> None:
        self.view = view
        self.self_maintainable = self_maintainable
        self.kind = kind
        self.reason = reason

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form (stable keys)."""
        return {
            "view": self.view,
            "self_maintainable": self.self_maintainable,
            "kind": self.kind,
            "reason": self.reason,
        }

    def __repr__(self) -> str:
        verdict = "self-maintainable" if self.self_maintainable else "base-bound"
        return f"<SelfMaintainability {self.view!r} {verdict} ({self.kind})>"


def classify_self_maintainability(
    definition: "ViewDefinition",
    constraints: Optional[_ConstraintLookup] = None,
    keys: "Optional[KeyLookup]" = None,
) -> SelfMaintainability:
    """Classify one view definition against declared constraints.

    ``constraints`` maps relation names to their declared invariants
    (``None`` disables the ``constraint_empty_join`` class); pass the
    owning database's :attr:`~repro.engine.database.Database.constraints`
    catalog.  ``keys`` is the database's declared key/foreign-key
    catalog (``None`` disables the ``fk_join`` class).  Deterministic
    for a given definition and catalogs.
    """
    normal_form = definition.normal_form
    name = definition.name
    charge("self_maintainability_proofs")

    aggregate = definition.aggregate
    if aggregate is not None and aggregate.has_minmax:
        funcs = ", ".join(
            sorted({c.func for c in aggregate.columns if c.func in ("min", "max")})
        )
        return SelfMaintainability(
            name,
            False,
            KIND_AGGREGATE_MINMAX,
            f"aggregate view computes {funcs}: deleting the current "
            "extremum requires the group's runner-up, which no bounded "
            "per-group accumulator determines — the per-value support "
            "multiset is base-proportional auxiliary state a base-free "
            "host must not carry",
        )

    if len(normal_form.occurrences) == 1:
        relation = normal_form.occurrences[0].name
        if aggregate is not None:
            return SelfMaintainability(
                name,
                True,
                KIND_SINGLE_RELATION_AGGREGATE,
                f"single occurrence of {relation!r} under COUNT/SUM/AVG "
                "aggregation: the core delta is the shipped delta itself "
                "(delta-only plan row, no OLD operand), and the fold "
                "updates bounded per-group accumulators",
            )
        return SelfMaintainability(
            name,
            True,
            KIND_SINGLE_RELATION,
            f"single occurrence of {relation!r}: the delta-only plan row "
            "screens, selects and projects the shipped delta with counted "
            "semantics and never materializes an OLD operand",
        )

    if keys is not None and aggregate is None:
        from repro.analysis.dependencies import fk_reduction

        reduction = fk_reduction(normal_form, keys)
        if reduction is not None:
            probes = ", ".join(reduction.probe_relations)
            return SelfMaintainability(
                name,
                True,
                KIND_FK_JOIN,
                f"declared foreign keys erase the probe lookup into {probes}: "
                "the compiled plan executes the reduced single-occurrence "
                f"normal form over {reduction.delta_relation!r} alone, so "
                "like a single-relation view it never materializes an OLD "
                "operand",
            )

    if constraints is not None:
        condition = normal_form.condition
        constrained: list[str] = []
        for occurrence in normal_form.occurrences:
            declared = constraints.get(occurrence.name)
            if declared is None:
                continue
            condition = condition.conjoin(
                requalify_condition(declared, occurrence.rename)
            )
            constrained.append(occurrence.name)
        if constrained and not is_satisfiable(condition):
            listed = ", ".join(sorted(set(constrained)))
            return SelfMaintainability(
                name,
                True,
                KIND_CONSTRAINT_EMPTY,
                "condition conjoined with the declared constraints on "
                f"{listed} is unsatisfiable: the view is empty in every "
                "legal database state and every legal delta is irrelevant",
            )

    relations = ", ".join(sorted(normal_form.relation_names))
    return SelfMaintainability(
        name,
        False,
        KIND_JOIN,
        f"join over {relations}: an insert into one operand must be joined "
        "against the others' current state, which the view contents do not "
        "determine (consider the view while empty) — base copies required",
    )


def classify_catalog(
    definitions: Mapping[str, "ViewDefinition"],
    constraints: Optional[_ConstraintLookup] = None,
    keys: "Optional[KeyLookup]" = None,
) -> dict[str, SelfMaintainability]:
    """Classify every definition; keys follow the input mapping's names."""
    return {
        name: classify_self_maintainability(definition, constraints, keys)
        for name, definition in definitions.items()
    }
