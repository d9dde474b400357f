"""Detection of relevant and irrelevant updates (Section 4).

A set of updates to a base relation is *irrelevant* to a view when it
cannot affect the view's state in **any** database instance.  Theorem
4.1 characterizes irrelevance exactly: inserting or deleting tuple
``t`` in ``r_i`` is irrelevant to ``v = π_X(σ_C(r₁ × … × r_p))`` iff
the substituted condition ``C(t, Y₂)`` is unsatisfiable.  This module
provides:

* :func:`is_irrelevant_update` — the direct Theorem 4.1 test (one
  satisfiability check per substituted condition);
* :class:`RelevanceFilter` — Algorithm 4.1: the batched filter that
  normalizes and classifies the condition **once**, precomputes
  all-pairs shortest paths over the *invariant* portion of the
  constraint graph with Floyd's algorithm, and then screens each tuple
  with only (a) ground evaluations of the variant evaluable formulae
  and (b) an O(B²) negative-cycle probe over the variant bounds —
  instead of a full O(n³) satisfiability run per tuple;
* :func:`is_irrelevant_combination` — the Theorem 4.2 multi-relation
  generalization;
* :func:`construct_witness_database` — the constructive "only if"
  direction of Theorem 4.1's proof: for any relevant tuple, a database
  instance in which the update visibly changes the view;
* :func:`filter_delta` — the convenience entry point the view
  maintainer uses: screen a whole :class:`~repro.algebra.relation.Delta`.

Self-joins (a relation appearing in several occurrences of the view)
generalize the paper's single-occurrence setting: a tuple is irrelevant
iff its substitution into **every** occurrence is unsatisfiable, since
it could enter the view through any of them.

Domain caveat: satisfiability is decided over the unbounded discrete
integers (the Rosenkrantz–Hunt class assumes "discrete and infinite
domains").  Over *finite* domains the test stays sound — an update
reported irrelevant truly is — but may conservatively report relevance
for a tuple whose only satisfying assignments fall outside the domain
bounds.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.algebra.conditions import Condition
from repro.algebra.expressions import NormalForm, Occurrence
from repro.algebra.relation import Delta, Relation
from repro.algebra.schema import RelationSchema
from repro.core.graph import ZERO, INF, ConstraintGraph
from repro.core.normalize import normalize_atom, normalize_conjunction
from repro.core.satisfiability import is_satisfiable, solve_conjunction
from repro.core.substitution import (
    binding_for,
    combined_binding,
    split_conjunction,
)
from repro.errors import MaintenanceError
from repro.instrumentation import charge

ValueTuple = tuple[int, ...]


# ----------------------------------------------------------------------
# Theorem 4.1 — direct test
# ----------------------------------------------------------------------

def is_irrelevant_update(
    normal_form: NormalForm,
    relation_name: str,
    values: ValueTuple,
    schema: RelationSchema,
) -> bool:
    """Theorem 4.1: is inserting/deleting ``values`` in ``relation_name``
    irrelevant to the view, for every database instance?

    The test is symmetric in insert vs delete — the paper proves the
    same condition covers both — so no operation kind is passed.
    """
    occurrences = normal_form.occurrences_of(relation_name)
    if not occurrences:
        # The relation does not participate in the view at all; no
        # update to it can possibly matter.
        return True
    for occurrence in occurrences:
        binding = binding_for(occurrence, schema, values)
        substituted = normal_form.condition.substitute(binding)
        if is_satisfiable(substituted):
            return False
    return True


# ----------------------------------------------------------------------
# Theorem 4.1 — static (per-relation) irrelevance under constraints
# ----------------------------------------------------------------------

def is_statically_irrelevant(
    normal_form: NormalForm,
    relation_name: str,
    constraint: Condition,
) -> bool:
    """Is *every* legal update to ``relation_name`` irrelevant to the view?

    ``constraint`` is the declared per-relation invariant ``K_R`` over
    R's own attribute names (see
    :class:`repro.engine.constraints.ConstraintCatalog`).  Theorem 4.1
    says a tuple ``t`` is irrelevant iff ``C(t, Y₂)`` is unsatisfiable;
    quantifying over all legal ``t`` turns the per-tuple substitution
    into a simultaneous satisfiability question with ``t``'s attributes
    left free:

        R is statically irrelevant  iff  ``C ∧ K_R`` is unsatisfiable
        for every occurrence of R (with ``K_R`` requalified through the
        occurrence's rename).

    Soundness and completeness both follow from Theorem 4.1: a
    satisfying assignment of ``C ∧ K_occ`` restricts to a legal tuple
    whose substituted condition is satisfiable (some legal update is
    relevant), and conversely a relevant legal tuple extends to a
    satisfying assignment.  As everywhere in Section 4, the test is
    decided over unbounded discrete domains, so over finite domains it
    may conservatively answer ``False`` but never wrongly ``True``.
    """
    occurrences = normal_form.occurrences_of(relation_name)
    if not occurrences:
        return True
    from repro.algebra.expressions import requalify_condition

    charge("static_irrelevance_proofs")
    for occurrence in occurrences:
        requalified = requalify_condition(constraint, occurrence.rename)
        if is_satisfiable(normal_form.condition.conjoin(requalified)):
            return False
    return True


# ----------------------------------------------------------------------
# Theorem 4.2 — simultaneous multi-relation test
# ----------------------------------------------------------------------

def is_irrelevant_combination(
    normal_form: NormalForm,
    tuples: Mapping[str, ValueTuple],
    schemas: Mapping[str, RelationSchema],
) -> bool:
    """Theorem 4.2: is the *combination* of tuples irrelevant?

    ``tuples`` maps relation names to one tuple each, all inserted (or
    all deleted) together.  The combination is irrelevant iff the
    simultaneous substitution ``C(t₁, …, t_k, Y₂)`` is unsatisfiable.
    Definition 4.3 assumes disjoint relation schemes — i.e. each named
    relation occurs exactly once in the view — and this function
    enforces that restriction.
    """
    bindings = []
    for name, values in tuples.items():
        occurrences = normal_form.occurrences_of(name)
        if not occurrences:
            raise MaintenanceError(f"relation {name!r} does not occur in the view")
        if len(occurrences) > 1:
            raise MaintenanceError(
                "Theorem 4.2 (Definition 4.3) requires disjoint relation "
                f"schemes; {name!r} occurs {len(occurrences)} times"
            )
        bindings.append(binding_for(occurrences[0], schemas[name], values))
    substituted = normal_form.condition.substitute(combined_binding(bindings))
    return not is_satisfiable(substituted)


# ----------------------------------------------------------------------
# Theorem 4.1 — constructive completeness (witness databases)
# ----------------------------------------------------------------------

def construct_witness_database(
    normal_form: NormalForm,
    relation_name: str,
    values: ValueTuple,
    schemas: Mapping[str, RelationSchema],
) -> dict[str, Relation] | None:
    """A database in which updating ``values`` visibly changes the view.

    Implements the proof of Theorem 4.1's "only if" direction: when the
    substituted condition is satisfiable, pick a satisfying assignment
    for the remaining variables and build one tuple per other
    occurrence from it (unconstrained attributes take the value 1, the
    proof's "any value, say one").  Inserting ``values`` into the
    returned instance adds a tuple to (or raises a count in) the view;
    deleting it from the post-insert instance removes one.

    Returns ``None`` when the update is irrelevant (no witness exists —
    that is exactly Theorem 4.1's "if" direction).
    """
    target_schema = schemas[relation_name]
    for occurrence in normal_form.occurrences_of(relation_name):
        binding = binding_for(occurrence, target_schema, values)
        substituted = normal_form.condition.substitute(binding)
        for disjunct in substituted.disjuncts:
            solution = solve_conjunction(disjunct)
            if solution is None:
                continue
            rows: dict[str, dict] = {name: {} for name in schemas}
            for other in normal_form.occurrences:
                if other is occurrence:
                    continue
                other_schema = schemas[other.name]
                row = tuple(
                    solution.get(other.rename[attr], 1)
                    for attr in other_schema.names
                )
                rows[other.name][row] = 1  # a solver witness: already encoded
            return {
                name: Relation.from_counts(schema, rows[name])
                for name, schema in schemas.items()
            }
    return None


# ----------------------------------------------------------------------
# Algorithm 4.1 — the batched relevance filter
# ----------------------------------------------------------------------

class _DisjunctScreen:
    """Per-(occurrence, disjunct) precomputation for the batch filter.

    Holds the Definition 4.2 split, the normalized invariant constraint
    graph's all-pairs shortest paths (Floyd), and the symbolic variant
    formulae to be substituted per tuple.
    """

    __slots__ = (
        "occurrence",
        "invariant",
        "variant_evaluable",
        "variant_non_evaluable",
        "dist",
        "dead",
    )

    def __init__(self, occurrence: Occurrence, disjunct, substituted_vars) -> None:
        self.occurrence = occurrence
        split = split_conjunction(disjunct, substituted_vars)
        self.invariant = split.invariant
        self.variant_evaluable = split.variant_evaluable
        self.variant_non_evaluable = split.variant_non_evaluable
        self.dead = False
        self.dist: dict[str, dict[str, float]] = {}

        invariant = normalize_conjunction(type(disjunct)(split.invariant))
        if invariant.trivially_false:
            self.dead = True
            return
        # The graph needs nodes for every variable a variant bound can
        # mention, so APSP entries exist even for otherwise-unconstrained
        # variables.
        remaining_vars = disjunct.variables() - set(substituted_vars)
        graph = ConstraintGraph.from_atoms(invariant.atoms, nodes=remaining_vars)
        dist, negative = graph.floyd_warshall()
        if negative:
            # The invariant portion alone is unsatisfiable: this
            # disjunct can never be satisfied, for any tuple.
            self.dead = True
            return
        self.dist = dist

    def admits(self, binding: Mapping[str, int]) -> bool:
        """Is the disjunct satisfiable once ``binding`` is substituted?

        Ground (variant evaluable) atoms are evaluated directly.  The
        variant non-evaluable atoms become single-variable bounds; a
        negative cycle in (invariant graph + bounds) exists iff some
        simple loop through the zero node is negative, and every such
        loop is "bound-edge out, invariant shortest path, bound-edge
        in", so an O(B²) probe over the precomputed APSP suffices.
        """
        if self.dead:
            return False
        for atom in self.variant_evaluable:
            ground = atom.substitute(binding)
            charge("filter_ground_evals")
            if not ground.truth_value():
                return False

        # Tightest upper (x <= c) and lower (x >= c) bounds per variable.
        uppers: dict[str, int] = {}
        lowers: dict[str, int] = {}
        for atom in self.variant_non_evaluable:
            bound = atom.substitute(binding)
            if bound.is_ground():  # defensive; cannot happen for VNE atoms
                if not bound.truth_value():
                    return False
                continue
            for normalized in normalize_atom(bound):
                var = normalized.left.name  # type: ignore[union-attr]
                c = normalized.right.value  # type: ignore[union-attr]
                if normalized.op == "<=":
                    if var not in uppers or c < uppers[var]:
                        uppers[var] = c
                else:
                    if var not in lowers or c > lowers[var]:
                        lowers[var] = c

        charge("filter_bound_probes")
        dist = self.dist
        # Augment with the zero node itself (weight 0) so loops that use
        # only one bound edge are covered; skip the trivial (0, 0) pair.
        lower_items = list(lowers.items()) + [(ZERO, 0)]
        upper_items = list(uppers.items()) + [(ZERO, 0)]
        for y, cl in lower_items:
            dist_y = dist[y]
            for x, cu in upper_items:
                if y == ZERO and x == ZERO:
                    continue
                path = dist_y[x]
                if path == INF:
                    continue
                # Cycle: ZERO -> y (weight -cl), y ~> x (path), x -> ZERO
                # (weight cu).  For the ZERO entries the bound edge
                # degenerates to staying put at weight 0.
                if -cl + path + cu < 0:
                    return False
        return True


class FilterStats:
    """Counters describing one batch-filtering run of the reference
    functions (:meth:`RelevanceFilter.screen_delta`, :func:`filter_delta`)."""

    __slots__ = ("checked", "relevant", "irrelevant")

    def __init__(self) -> None:
        self.checked = 0
        self.relevant = 0
        self.irrelevant = 0

    def __repr__(self) -> str:
        return (
            f"<FilterStats checked={self.checked} relevant={self.relevant} "
            f"irrelevant={self.irrelevant}>"
        )


class RelevanceFilter:
    """Algorithm 4.1: screen batches of tuples against one view.

    Construction performs the once-per-batch work — normalization,
    Definition 4.2 classification, invariant-graph APSP via Floyd's
    algorithm — for every (occurrence, disjunct) pair.  Each
    :meth:`is_relevant` call then costs only the variant part.

    Parameters
    ----------
    normal_form:
        The view in paper normal form.
    relation_name:
        The updated relation (Algorithm 4.1's input scheme R).
    schema:
        Schema of the updated relation.
    """

    def __init__(
        self,
        normal_form: NormalForm,
        relation_name: str,
        schema: RelationSchema,
    ) -> None:
        self.normal_form = normal_form
        self.relation_name = relation_name
        self.schema = schema
        self.stats = FilterStats()
        self._always_relevant = False
        self._screens: list[_DisjunctScreen] = []

        occurrences = normal_form.occurrences_of(relation_name)
        self._participates = bool(occurrences)
        for occurrence in occurrences:
            substituted_vars = frozenset(occurrence.qualified_names())
            for disjunct in normal_form.condition.disjuncts:
                if not disjunct.atoms:
                    # An empty disjunct is the constant TRUE: every
                    # update is relevant, no screening possible.
                    self._always_relevant = True
                screen = _DisjunctScreen(occurrence, disjunct, substituted_vars)
                if not screen.dead:
                    self._screens.append(screen)

    def is_relevant(self, values: ValueTuple) -> bool:
        """Does inserting/deleting ``values`` possibly affect the view?"""
        charge("filter_tuples_checked")
        self.stats.checked += 1
        relevant = self._decide(values)
        if relevant:
            self.stats.relevant += 1
        else:
            self.stats.irrelevant += 1
        return relevant

    def _decide(self, values: ValueTuple) -> bool:
        if not self._participates:
            return False
        if self._always_relevant:
            return True
        binding_cache: dict[int, dict[str, int]] = {}
        for screen in self._screens:
            occ_id = id(screen.occurrence)
            binding = binding_cache.get(occ_id)
            if binding is None:
                binding = binding_for(screen.occurrence, self.schema, values)
                binding_cache[occ_id] = binding
            if screen.admits(binding):
                return True
        return False

    def filter_tuples(
        self, tuples: Sequence[ValueTuple]
    ) -> list[ValueTuple]:
        """Algorithm 4.1's T_out: the relevant subset of ``tuples``."""
        return [values for values in tuples if self.is_relevant(values)]

    def screen_delta(self, delta: Delta) -> tuple[Delta, FilterStats]:
        """Screen one net-effect delta; returns (filtered delta, call stats).

        The execution half of Algorithm 4.1: the filter's once-per-view
        precomputation (normalization, invariant split, APSP) is reused
        across calls — this is what the compiled-plan cache banks on —
        while the returned :class:`FilterStats` describe *this* call
        only.  Cumulative counts keep accruing on :attr:`stats`.
        """
        call_stats = FilterStats()

        def keep(values: ValueTuple) -> bool:
            charge("filter_tuples_checked")
            call_stats.checked += 1
            self.stats.checked += 1
            relevant = self._decide(values)
            if relevant:
                call_stats.relevant += 1
                self.stats.relevant += 1
            else:
                call_stats.irrelevant += 1
                self.stats.irrelevant += 1
            return relevant

        inserted = {
            values: count for values, count in delta.inserted.items() if keep(values)
        }
        deleted = {
            values: count for values, count in delta.deleted.items() if keep(values)
        }
        return Delta.from_counts(delta.schema, inserted, deleted), call_stats

    def describe(self) -> str:
        """The Definition 4.2 split, one line per (occurrence, disjunct).

        Shows which atoms of each disjunct are *invariant* (their
        constraint graph and APSP are built once, at compile time) and
        which are *variant* (re-evaluated per screened tuple) — the
        textual form of what :meth:`is_relevant` executes.
        """
        if not self._participates:
            return (
                f"  {self.relation_name}: does not participate; "
                "every update is irrelevant"
            )
        if self._always_relevant:
            return (
                f"  {self.relation_name}: condition has an empty disjunct "
                "(constant TRUE); every update is relevant, no screening"
            )
        lines = []
        for screen in self._screens:
            occ = screen.occurrence
            inv = " and ".join(str(a) for a in screen.invariant) or "(none)"
            ve = " and ".join(str(a) for a in screen.variant_evaluable) or "(none)"
            vne = (
                " and ".join(str(a) for a in screen.variant_non_evaluable)
                or "(none)"
            )
            lines.append(
                f"  {self.relation_name}#{occ.position}: "
                f"invariant [{inv}]; variant evaluable [{ve}]; "
                f"variant non-evaluable [{vne}]"
            )
        if not lines:
            lines.append(
                f"  {self.relation_name}: every disjunct's invariant part is "
                "unsatisfiable; all updates screened out"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<RelevanceFilter view over {self.relation_name!r}, "
            f"{len(self._screens)} screens, {self.stats!r}>"
        )


def filter_delta(
    normal_form: NormalForm,
    relation_name: str,
    delta: Delta,
    schema: RelationSchema | None = None,
) -> tuple[Delta, FilterStats]:
    """Screen a whole net-effect delta; keep only relevant tuples.

    Returns the filtered delta and the filter statistics.  Insertions
    and deletions are screened by the same test (Theorem 4.1 covers
    both directions).
    """
    schema = schema if schema is not None else delta.schema
    relevance = RelevanceFilter(normal_form, relation_name, schema)
    return relevance.screen_delta(delta)
