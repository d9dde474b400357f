"""Chase-based dependency inference over view normal forms.

The paper's Section 4 machinery reasons over *range* premises (declared
per-relation constraints).  This module adds the second premise family
of the self-maintenance literature: **functional dependencies** seeded
from declared candidate keys (:class:`~repro.engine.keys.KeyCatalog`)
and propagated through a view condition's equality atoms by attribute
closure — a chase restricted to the FD fragment, which is sound and
complete for FD implication (Armstrong).

Three derived artifacts feed the runtime:

* **View keys** (:func:`derive_view_key`) — a minimal subset of the
  view's output columns on which no two materialized rows can agree.
  A derived view key simultaneously proves every view row has
  multiplicity ≤ 1, so the Section 5.2 counters carry no information:
  the codegen finishes may pin every counter to one
  (*counter-free* maintenance, ``F_COUNTER_FREE``).
* **FK-join reductions** (:func:`fk_reduction`) — a join view whose
  probe sides are reached through declared foreign keys into declared
  keys, touch nothing beyond the referenced key attributes, and can
  therefore be rewritten to a single-occurrence normal form over the
  referencing relation alone.  The reduced plan consults no probe
  state at all, making the view self-maintainable (base-free hostable)
  and the reduction itself a measured fast path on every host.
* **Row determination** (:func:`key_determines_row` /
  :func:`determined_row`) — whether a relation's declared constraint
  makes the full row a function of its key values, which is what lets
  a base-free host keep a key-columns-only occupancy set and still
  replicate exact set semantics for duplicate inserts and absent
  deletes.

Soundness notes
---------------
Key FDs hold for every product row regardless of the condition (two
combined rows agreeing on one occurrence's key attributes draw the same
base row for that occurrence, base relations being sets on which the
declared key is enforced at commit).  Equality-atom FDs are *row-local*
facts of rows satisfying the condition, so under a DNF condition only
atoms shared by **every** disjunct yield dependencies — an atom present
in one branch proves nothing about rows admitted by another.  All
iteration orders are pinned, so derivations (and their proof chains)
are byte-identical across runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Protocol, Sequence

from repro.algebra.conditions import Atom, Condition, Const, Var
from repro.algebra.expressions import (
    NormalForm,
    Occurrence,
    requalify_condition,
)
from repro.algebra.schema import RelationSchema
from repro.instrumentation import charge

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.keys import ForeignKey


class KeyLookup(Protocol):
    """The slice of :class:`~repro.engine.keys.KeyCatalog` the chase
    reads: declared candidate keys and declared foreign keys."""

    def keys_of(self, relation_name: str) -> tuple[tuple[str, ...], ...]: ...

    def foreign_keys_of(
        self, relation_name: str
    ) -> "tuple[ForeignKey, ...]": ...


class Dependency:
    """One functional dependency ``lhs → rhs`` with its provenance."""

    __slots__ = ("lhs", "rhs", "reason")

    def __init__(
        self, lhs: Sequence[str], rhs: Sequence[str], reason: str
    ) -> None:
        self.lhs: tuple[str, ...] = tuple(sorted(lhs))
        self.rhs: tuple[str, ...] = tuple(sorted(rhs))
        self.reason = reason

    def describe(self) -> str:
        lhs = ", ".join(self.lhs) if self.lhs else "∅"
        return f"{{{lhs}}} → {{{', '.join(self.rhs)}}} [{self.reason}]"

    def __repr__(self) -> str:
        return f"<Dependency {self.describe()}>"


def shared_equality_atoms(condition: Condition) -> tuple[Atom, ...]:
    """Equality atoms present in **every** disjunct of a DNF condition.

    Only these are sound FD sources: a row in the condition's extension
    satisfies *some* disjunct, and an atom shared by all of them is
    satisfied whichever branch admitted the row.  The empty condition
    (``false``) has no rows, so any answer is sound; we return none.
    """
    if not condition.disjuncts:
        return ()
    shared = set(condition.disjuncts[0].atoms)
    for disjunct in condition.disjuncts[1:]:
        shared &= set(disjunct.atoms)
    equalities = [atom for atom in shared if atom.op == "="]
    equalities.sort(key=str)
    return tuple(equalities)


def _equality_dependencies(condition: Condition) -> list[Dependency]:
    deps: list[Dependency] = []
    for atom in shared_equality_atoms(condition):
        if atom.is_two_variable():
            assert isinstance(atom.left, Var) and isinstance(atom.right, Var)
            deps.append(
                Dependency(
                    (atom.left.name,), (atom.right.name,), f"equality {atom}"
                )
            )
            deps.append(
                Dependency(
                    (atom.right.name,), (atom.left.name,), f"equality {atom}"
                )
            )
        elif atom.is_single_variable():
            assert isinstance(atom.left, Var)
            deps.append(Dependency((), (atom.left.name,), f"constant {atom}"))
    return deps


def dependencies_for(
    normal_form: NormalForm, keys: KeyLookup
) -> tuple[Dependency, ...]:
    """Every FD the chase may use over ``normal_form``'s qualified
    namespace: declared keys requalified through each occurrence's
    rename, plus the condition's shared equality atoms."""
    deps: list[Dependency] = []
    for occurrence in normal_form.occurrences:
        for key in keys.keys_of(occurrence.name):
            deps.append(
                Dependency(
                    tuple(occurrence.rename[a] for a in key),
                    occurrence.qualified_names(),
                    f"declared key ({', '.join(key)}) of {occurrence.name}",
                )
            )
    deps.extend(_equality_dependencies(normal_form.condition))
    deps.sort(key=lambda d: (d.lhs, d.rhs, d.reason))
    return tuple(deps)


def close(
    attributes: Iterable[str], dependencies: Sequence[Dependency]
) -> tuple[frozenset[str], tuple[str, ...]]:
    """Attribute closure with an ordered proof chain.

    Returns ``(closure, proof)`` where each proof line records one
    productive FD application.  Deterministic: dependencies fire in
    their given (sorted) order until fixpoint.
    """
    charge("dependency_closures")
    known = set(attributes)
    proof: list[str] = []
    changed = True
    while changed:
        changed = False
        for dep in dependencies:
            if known.issuperset(dep.lhs) and not known.issuperset(dep.rhs):
                gained = sorted(set(dep.rhs) - known)
                known.update(gained)
                lhs = ", ".join(dep.lhs) if dep.lhs else "∅"
                proof.append(
                    f"{{{lhs}}} → {{{', '.join(gained)}}} ({dep.reason})"
                )
                changed = True
    return frozenset(known), tuple(proof)


class ViewKey:
    """A derived candidate key of a view, with its chase proof.

    ``attributes`` are output (user-visible) column names; ``qualified``
    the corresponding attributes of the flattened product.  Existence
    of a view key proves more than uniqueness: the closure of the
    projected attributes covers the *entire* product row, so two
    product rows agreeing on the projection are identical — every view
    row has multiplicity exactly one (counter-free maintenance).
    """

    __slots__ = ("view_attributes", "qualified", "proof")

    def __init__(
        self,
        view_attributes: Sequence[str],
        qualified: Sequence[str],
        proof: Sequence[str],
    ) -> None:
        self.view_attributes: tuple[str, ...] = tuple(view_attributes)
        self.qualified: tuple[str, ...] = tuple(qualified)
        self.proof: tuple[str, ...] = tuple(proof)

    def describe(self) -> str:
        return f"({', '.join(self.view_attributes)})"

    def __repr__(self) -> str:
        return f"<ViewKey {self.describe()}>"


def derive_view_key(
    normal_form: NormalForm, keys: KeyLookup
) -> Optional[ViewKey]:
    """Derive a minimal view key, or None when the chase cannot.

    The derivation succeeds iff the closure of the projected qualified
    attributes covers every attribute of the flattened product: then
    two product rows agreeing on the projection agree everywhere, i.e.
    are the same row, so (a) the projection is duplicate-free and (b)
    any subset of it whose closure still covers the product is a view
    key.  The minimal key is canonical: attributes are dropped greedily
    in sorted qualified order, so equal inputs yield equal keys.
    """
    dependencies = dependencies_for(normal_form, keys)
    all_attributes = set(normal_form.qualified_schema.names)
    projected = sorted({q for _, q in normal_form.projection})
    closure, _ = close(projected, dependencies)
    if not closure.issuperset(all_attributes):
        return None
    minimal = list(projected)
    for attribute in list(minimal):
        candidate = [a for a in minimal if a != attribute]
        closure, _ = close(candidate, dependencies)
        if closure.issuperset(all_attributes):
            minimal = candidate
    _, proof = close(minimal, dependencies)
    chosen = set(minimal)
    seen: set[str] = set()
    view_attributes: list[str] = []
    qualified: list[str] = []
    for output, qualified_name in normal_form.projection:
        if qualified_name in chosen and qualified_name not in seen:
            seen.add(qualified_name)
            view_attributes.append(output)
            qualified.append(qualified_name)
    charge("view_keys_derived")
    return ViewKey(view_attributes, qualified, proof)


class FkReduction:
    """A provably-valid rewrite of an FK join to its referencing side.

    ``normal_form`` is the reduced single-occurrence normal form over
    the delta-side relation alone; executing it is byte-for-byte
    equivalent to the original join **in every legal database state**,
    because each referencing row has exactly one partner per probe
    (foreign key: at least one; declared key: at most one) and nothing
    outside the referenced key attributes is consulted — so the partner
    lookup is erased by substituting the referencing attributes for the
    referenced key attributes.  Probe-relation deltas can never change
    the view (it no longer depends on probe state), so the compiled
    plan screens them out entirely.
    """

    __slots__ = (
        "delta_relation",
        "delta_position",
        "normal_form",
        "probe_relations",
        "proof",
    )

    def __init__(
        self,
        delta_relation: str,
        delta_position: int,
        normal_form: NormalForm,
        probe_relations: Sequence[str],
        proof: Sequence[str],
    ) -> None:
        self.delta_relation = delta_relation
        self.delta_position = delta_position
        self.normal_form = normal_form
        self.probe_relations: tuple[str, ...] = tuple(probe_relations)
        self.proof: tuple[str, ...] = tuple(proof)

    def describe(self) -> str:
        probes = ", ".join(self.probe_relations)
        return (
            f"maintain on {self.delta_relation} alone; probes {probes} "
            "erased by foreign-key substitution"
        )

    def __repr__(self) -> str:
        return f"<FkReduction {self.describe()}>"


def _join_pairs(condition: Condition) -> dict[frozenset[str], Atom]:
    """Shared offset-0 variable equalities, keyed by their variable pair
    (orientation-insensitive: flattening may emit either side first)."""
    pairs: dict[frozenset[str], Atom] = {}
    for atom in shared_equality_atoms(condition):
        if atom.is_two_variable() and atom.offset == 0:
            assert isinstance(atom.left, Var) and isinstance(atom.right, Var)
            pairs.setdefault(
                frozenset((atom.left.name, atom.right.name)), atom
            )
    return pairs


def fk_reduction(
    normal_form: NormalForm, keys: KeyLookup
) -> Optional[FkReduction]:
    """Find an FK-join reduction of ``normal_form``, or None.

    The premises, checked per candidate delta-side occurrence ``D`` (in
    position order, first match wins — deterministic):

    1. ``D``'s relation occurs exactly once; the probe occurrences have
       pairwise-distinct relations.
    2. Every probe ``P`` is reached through a declared foreign key
       ``D(fk…) references P(key…)`` whose attribute pairs all appear
       as shared offset-0 equality atoms of the condition.
    3. Outside those join atoms, the condition and the projection
       mention only ``D``'s attributes and the referenced key
       attributes (which the substitution replaces).

    Premise 2 makes the join total (every ``D`` row has a partner) and
    unique (the partner is single); premise 3 makes the partner's
    non-key attributes unobservable.  The rewrite is then exact, and —
    because it holds in every legal state — indifferent to probe-side
    deltas, which is what base-free hosting needs.
    """
    if len(normal_form.occurrences) < 2:
        return None
    pairs = _join_pairs(normal_form.condition)
    for delta_occ in normal_form.occurrences:
        if len(normal_form.occurrences_of(delta_occ.name)) != 1:
            continue
        probes = [o for o in normal_form.occurrences if o is not delta_occ]
        probe_names = [o.name for o in probes]
        if len(set(probe_names)) != len(probe_names):
            continue
        substitution: dict[str, str] = {}
        join_atom_pairs: set[frozenset[str]] = set()
        proof: list[str] = []
        matched = True
        for probe in probes:
            fk_match: "Optional[ForeignKey]" = None
            for fk in keys.foreign_keys_of(delta_occ.name):
                if fk.ref_relation != probe.name:
                    continue
                if fk.ref_attributes not in keys.keys_of(probe.name):
                    continue
                atom_pairs = [
                    frozenset(
                        (delta_occ.rename[src], probe.rename[dst])
                    )
                    for src, dst in zip(fk.attributes, fk.ref_attributes)
                ]
                if all(pair in pairs for pair in atom_pairs):
                    fk_match = fk
                    join_atom_pairs.update(atom_pairs)
                    break
            if fk_match is None:
                matched = False
                break
            for src, dst in zip(fk_match.attributes, fk_match.ref_attributes):
                substitution[probe.rename[dst]] = delta_occ.rename[src]
            proof.append(
                f"probe {probe.name}: foreign key {fk_match.describe()} "
                "joined on its full referenced key — the partner exists "
                "(referential integrity) and is unique (declared key)"
            )
        if not matched:
            continue
        allowed = set(delta_occ.qualified_names()) | set(substitution)

        def is_join_atom(atom: Atom) -> bool:
            return (
                atom.op == "="
                and atom.offset == 0
                and atom.is_two_variable()
                and frozenset(
                    (atom.left.name, atom.right.name)  # type: ignore[union-attr]
                )
                in join_atom_pairs
            )

        residual_ok = all(
            is_join_atom(atom) or atom.variables() <= allowed
            for disjunct in normal_form.condition.disjuncts
            for atom in disjunct.atoms
        )
        projection_ok = all(
            qualified in allowed for _, qualified in normal_form.projection
        )
        if not (residual_ok and projection_ok):
            continue

        from repro.algebra.conditions import Conjunction

        stripped = Condition(
            Conjunction(a for a in disjunct.atoms if not is_join_atom(a))
            for disjunct in normal_form.condition.disjuncts
        )
        mapping = {
            name: substitution.get(name, name)
            for name in normal_form.qualified_schema.names
        }
        reduced_condition = requalify_condition(stripped, mapping)
        reduced_projection = tuple(
            (output, substitution.get(qualified, qualified))
            for output, qualified in normal_form.projection
        )
        schema = normal_form.qualified_schema
        reduced_schema = RelationSchema(
            [
                schema.attributes[schema.index(name)]
                for name in delta_occ.qualified_names()
            ]
        )
        reduced = NormalForm(
            [Occurrence(delta_occ.name, 0, delta_occ.rename)],
            reduced_condition,
            reduced_projection,
            reduced_schema,
        )
        proof.append(
            "condition and projection reference only "
            f"{delta_occ.name}'s attributes and referenced key "
            "attributes: the probe lookup is erased by substitution"
        )
        charge("fk_reductions_derived")
        return FkReduction(
            delta_occ.name,
            delta_occ.position,
            reduced,
            sorted(probe_names),
            proof,
        )
    return None


def key_determines_row(
    schema: RelationSchema,
    key: Sequence[str],
    constraint: Optional[Condition],
) -> bool:
    """True when a declared constraint makes the whole row a function
    of its key values (closure of the key under the constraint's shared
    equality atoms covers the schema).

    This is what lets a base-free host keep a key-columns-only
    occupancy set per relation: presence of a key tuple decides
    presence of the (unique, reconstructible) full row.
    """
    if set(key) == set(schema.names):
        return True
    if constraint is None:
        return False
    dependencies = _equality_dependencies(constraint)
    closure, _ = close(key, tuple(dependencies))
    return closure.issuperset(schema.names)


def determined_row(
    schema: RelationSchema,
    key: Sequence[str],
    key_values: Sequence[int],
    constraint: Optional[Condition],
) -> Optional[tuple[int, ...]]:
    """Reconstruct the unique row with the given key values, or None.

    Runs the constraint's shared equality atoms to fixpoint as
    assignments (``x = y + c`` propagates either direction; ``x = c``
    grounds).  Returns None when the constraint does not determine
    every attribute — callers should have checked
    :func:`key_determines_row` first.
    """
    known: dict[str, int] = dict(zip(key, key_values))
    atoms = (
        shared_equality_atoms(constraint) if constraint is not None else ()
    )
    changed = True
    while changed:
        changed = False
        for atom in atoms:
            if atom.is_two_variable():
                assert isinstance(atom.left, Var)
                assert isinstance(atom.right, Var)
                x, y, c = atom.left.name, atom.right.name, atom.offset
                if y in known and x not in known:
                    known[x] = known[y] + c
                    changed = True
                elif x in known and y not in known:
                    known[y] = known[x] - c
                    changed = True
            elif atom.is_single_variable():
                assert isinstance(atom.left, Var)
                assert isinstance(atom.right, Const)
                if atom.left.name not in known:
                    known[atom.left.name] = atom.right.value
                    changed = True
    try:
        return tuple(known[name] for name in schema.names)
    except KeyError:
        return None
