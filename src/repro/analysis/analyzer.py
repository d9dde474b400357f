"""The static view analyzer: eight checks over definitions and plans.

Everything here reuses the Section 4 decision machinery — the
Rosenkrantz–Hunt constraint graph, satisfiability, and the implication
reduction ``C ⟹ a iff C ∧ ¬a unsat`` — against a view definition *at
registration time* instead of against tuples at update time:

(a) **Unsatisfiable condition** (ERROR) — no disjunct of the DNF
    condition is satisfiable, so the view is empty in every database
    state.  Strict registration rejects these.
(b) **Dead disjuncts / redundant atoms** (WARN) — an unsatisfiable
    disjunct contributes nothing; an atom implied by the rest of its
    conjunct can be dropped.  Either way the compiled screens carry
    edges that buy no selectivity.
(c) **Loose bounds** (INFO) — the all-pairs shortest paths of a
    disjunct's constraint graph entail a strictly tighter constant
    bound than a written single-variable screen.
(d) **Static irrelevance** (INFO) — under a relation's declared
    constraint, ``C ∧ K_R`` is unsatisfiable for every occurrence of
    R, so no legal update to R can ever affect the view (Theorem 4.1
    lifted from one tuple to the whole legal domain).  The compiled
    plan proves the same fact itself and drops R's screening; the
    finding surfaces it.
(e) **Cross-view subsumption / equivalence** (WARN / INFO) — two views
    over the same operand list with provably equivalent conditions and
    identical projected columns are duplicates; a one-way implication
    with a column subset means one view is computable from the other.
(f) **Plan lint** (WARN / INFO) — OLD operands joined with no equality
    links (every maintenance step scans them in full, no index can
    help) and delta terms that can never fire because they require a
    delta from a statically irrelevant relation.
(g) **Self-maintainability** (INFO) — the view is maintainable from
    its own counted contents plus the delta, with no base-relation
    access (:mod:`repro.scheduler.selfmaint`), so a ``base_free=True``
    follower or shard could host it without base copies.
(h) **Unsupported aggregates** (ERROR) — SUM/AVG over an attribute
    whose domain is a label space: the encoded codes are arbitrary
    registration order, so the arithmetic is meaningless in every
    database state.  MIN/MAX over labels stays legal (ordered by code,
    documented); COUNT reads no attribute at all.
(i) **Key/FD reasoning** (INFO / WARN) — the chase over declared keys
    (:mod:`repro.analysis.dependencies`) derives view keys
    (``F_VIEW_KEY`` with the FD proof chain), proves multiplicity ≤ 1
    so codegen can pin the Section 5.2 counters (``F_COUNTER_FREE``),
    and warns when a self-maintainable view reads a keyless base
    relation whose shipped deltas rely on upstream validation
    (``F_DUPLICATE_SENSITIVE``).

All checks are *decision procedures*, not heuristics: each finding is
a theorem about the definition, which is why the report is
deterministic — same input, byte-identical output.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.algebra.conditions import Atom, Conjunction, Var
from repro.algebra.domains import FiniteDomain, IntegerDomain
from repro.analysis.dependencies import KeyLookup, derive_view_key
from repro.analysis.findings import (
    F_COUNTER_FREE,
    F_DEAD_DISJUNCT,
    F_DEAD_TRUTH_ROWS,
    F_DUPLICATE_SENSITIVE,
    F_DUPLICATE_VIEW,
    F_LOOSE_BOUND,
    F_REDUNDANT_ATOM,
    F_SELF_MAINTAINABLE,
    F_STATIC_IRRELEVANCE,
    F_SUBSUMED_VIEW,
    F_UNBOUND_OLD_OPERAND,
    F_UNSATISFIABLE_CONDITION,
    F_UNSUPPORTED_AGGREGATE,
    F_VIEW_KEY,
    Finding,
    Severity,
)
from repro.core.graph import INF, ZERO, ConstraintGraph
from repro.core.implication import (
    condition_implies,
    conditions_equivalent,
    implies,
)
from repro.core.irrelevance import is_statically_irrelevant
from repro.core.normalize import normalize_conjunction
from repro.core.satisfiability import is_satisfiable, is_satisfiable_conjunction
from repro.core.truthtable import DeltaRowChoice
from repro.errors import ConditionError
from repro.instrumentation import charge

if TYPE_CHECKING:  # pragma: no cover
    from repro.algebra.expressions import NormalForm
    from repro.core.compiled import CompiledViewPlan
    from repro.core.maintainer import ViewMaintainer
    from repro.core.views import ViewDefinition
    from repro.engine.constraints import ConstraintCatalog


# ----------------------------------------------------------------------
# Per-definition checks (a)–(d), (f)
# ----------------------------------------------------------------------

def analyze_definition(
    definition: "ViewDefinition",
    constraints: "ConstraintCatalog | None" = None,
    plan: "CompiledViewPlan | None" = None,
    keys: "KeyLookup | None" = None,
    view_operands: Iterable[str] = (),
) -> tuple[Finding, ...]:
    """All single-view findings for one definition, report-ordered.

    ``constraints`` enables the static-irrelevance check (d);
    ``plan`` enables the compiled-plan lint (f); ``keys`` enables the
    chase-based check (i) and the ``fk_join`` self-maintainability
    class.  ``view_operands`` names operands that are themselves
    registered views — they carry bag semantics, for which the
    multiplicity-≤-1 conclusions of check (i) do not hold (taken from
    ``plan`` when one is given).  Without them the condition checks
    (a)–(c) still run — this is the subset strict registration needs,
    since only (a) produces ERROR findings.

    When the condition is unsatisfiable the single ERROR finding is
    returned alone: every other check would fire vacuously (an
    unsatisfiable condition implies everything) and only add noise.
    """
    charge("analysis_definitions_checked")
    name = definition.name
    nf = definition.normal_form
    findings: list[Finding] = []

    # (h) arithmetic aggregates over label domains.  Runs before the
    # satisfiability gate so a view broken both ways surfaces both
    # ERRORs — the fixes are independent.
    if definition.aggregate is not None:
        core_schema = nf.output_schema()
        for column in definition.aggregate.columns:
            if column.func not in ("sum", "avg"):
                continue
            assert column.attribute is not None
            domain = core_schema.domain_of(column.attribute)
            if not isinstance(domain, (IntegerDomain, FiniteDomain)):
                findings.append(
                    Finding(
                        F_UNSUPPORTED_AGGREGATE,
                        name,
                        str(column),
                        f"{column.func} over {column.attribute!r} is "
                        "arithmetic on a label domain: the encoded codes "
                        "are registration order, not numbers — use count, "
                        "min or max, or aggregate an integer attribute",
                    )
                )

    # (a) satisfiability of the whole condition.
    if not is_satisfiable(nf.condition):
        findings.append(
            Finding(
                F_UNSATISFIABLE_CONDITION,
                name,
                "condition",
                f"condition {nf.condition} is unsatisfiable: the view is "
                "empty in every database state",
            )
        )
        # Every other check would fire vacuously; stop at the ERRORs.
        return tuple(sorted(dict.fromkeys(findings), key=Finding.sort_key))

    # (b) dead disjuncts, then redundant atoms within live disjuncts,
    # then (c) loosenable bounds (skipping atoms already flagged
    # redundant — a redundant screen is loose by definition).
    for index, disjunct in enumerate(nf.condition.disjuncts, start=1):
        subject_prefix = f"disjunct {index}"
        if not is_satisfiable_conjunction(disjunct):
            findings.append(
                Finding(
                    F_DEAD_DISJUNCT,
                    name,
                    subject_prefix,
                    f"disjunct ({disjunct}) is unsatisfiable and "
                    "contributes no rows; it can be removed",
                )
            )
            continue
        for atom in _redundant_atoms(disjunct):
            findings.append(
                Finding(
                    F_REDUNDANT_ATOM,
                    name,
                    f"{subject_prefix}: {atom}",
                    f"atom ({atom}) is implied by the rest of its "
                    f"conjunct and can be dropped",
                )
            )
        findings.extend(_loose_bound_findings(name, subject_prefix, disjunct))

    # (d) static irrelevance under declared constraints.
    if constraints is not None:
        for relation_name in sorted(set(nf.relation_names)):
            constraint = constraints.get(relation_name)
            if constraint is None:
                continue
            if is_statically_irrelevant(nf, relation_name, constraint):
                findings.append(
                    Finding(
                        F_STATIC_IRRELEVANCE,
                        name,
                        relation_name,
                        f"under its declared constraint ({constraint}), no "
                        f"legal update to {relation_name!r} can affect the "
                        "view; the compiled plan drops its screening "
                        "entirely",
                    )
                )

    # (f) compiled-plan lint.  The lint speaks the plan's *execution*
    # normal form: an FK-reduced plan builds planners over the reduced
    # single-occurrence form, and positions refer to it.
    if plan is not None:
        findings.extend(
            _plan_lint_findings(name, plan.execution_normal_form, plan)
        )

    # (g) self-maintainability classification.
    from repro.scheduler.selfmaint import classify_self_maintainability

    verdict = classify_self_maintainability(definition, constraints, keys)
    if verdict.self_maintainable:
        findings.append(
            Finding(
                F_SELF_MAINTAINABLE,
                name,
                verdict.kind,
                f"{verdict.reason}; a base_free=True follower or shard "
                "can host this view without base-relation copies",
            )
        )

    # (i) key/FD reasoning: derived view keys, counter-freeness, and
    # duplicate sensitivity of base-free hosting.  View operands are
    # bags — a keyless upstream view can hold the same row twice — so
    # the multiplicity-≤-1 conclusions are suppressed over them, the
    # same gate the compiled plan applies.
    if keys is not None:
        bag_operands = (
            frozenset(plan.view_operands)
            if plan is not None
            else frozenset(view_operands)
        ) & set(nf.relation_names)
        if definition.aggregate is None and not bag_operands:
            view_key = derive_view_key(nf, keys)
            if view_key is not None:
                proof = "; ".join(view_key.proof) or "projection covers the product"
                findings.append(
                    Finding(
                        F_VIEW_KEY,
                        name,
                        view_key.describe(),
                        f"the chase derives view key {view_key.describe()}: "
                        "no two materialized rows can agree on it "
                        f"[{proof}]",
                    )
                )
                findings.append(
                    Finding(
                        F_COUNTER_FREE,
                        name,
                        view_key.describe(),
                        "the view key's closure covers the whole flattened "
                        "product, so every view row has multiplicity 1 and "
                        "the row kernels' finishes pin the Section 5.2 counters "
                        "(counter-free maintenance)",
                    )
                )
        if verdict.self_maintainable:
            keyless = [
                relation
                for relation in sorted(set(nf.relation_names))
                if relation not in bag_operands and not keys.keys_of(relation)
            ]
            if keyless:
                listed = ", ".join(keyless)
                findings.append(
                    Finding(
                        F_DUPLICATE_SENSITIVE,
                        name,
                        listed,
                        "self-maintainable view reads keyless relation(s) "
                        f"[{listed}]: a base-free host cannot re-validate "
                        "duplicate inserts or absent deletes locally and "
                        "must trust upstream (leader-side) enforcement — "
                        "declare keys to unlock local occupancy tracking",
                    )
                )

    unique = tuple(dict.fromkeys(findings))
    return tuple(sorted(unique, key=Finding.sort_key))


def _redundant_atoms(disjunct: Conjunction) -> tuple[Atom, ...]:
    """Atoms implied by the rest of their (satisfiable) conjunct.

    Each atom is tested against all the *others* — no iterative
    removal — so the result is order-independent: for a mutually
    redundant pair (two copies of one atom) both are reported, and the
    message's "can be dropped" holds one at a time.
    """
    atoms = disjunct.atoms
    redundant: list[Atom] = []
    seen: set[Atom] = set()
    for index, atom in enumerate(atoms):
        if atom in seen:
            continue
        rest = Conjunction(atoms[:index] + atoms[index + 1:])
        if atom.is_ground():
            implied = atom.truth_value()
        else:
            implied = implies(rest, atom)
        if implied:
            redundant.append(atom)
            seen.add(atom)
    return tuple(redundant)


def _loose_bound_findings(
    view_name: str, subject_prefix: str, disjunct: Conjunction
) -> list[Finding]:
    """Check (c): written single-variable screens vs. entailed bounds.

    The disjunct's constraint graph is solved once (Floyd–Warshall, the
    same APSP Algorithm 4.1 precomputes); ``dist[x][ZERO]`` is then the
    tightest entailed upper bound on ``x`` and ``−dist[ZERO][x]`` the
    tightest lower bound — constants propagated through two-variable
    atoms (join equalities, offsets) the written screens never state.
    A variable whose entailed bound is strictly tighter than its
    written screen — or that has an entailed bound and no screen at
    all — is reported with the constant the screen could use:
    single-variable bounds are exactly what the Section 4 filter
    checks cheapest, so the tightening is free selectivity.
    """
    normalized = normalize_conjunction(disjunct)
    if not normalized.atoms:
        return []
    graph = ConstraintGraph.from_atoms(
        normalized.atoms, nodes=disjunct.variables()
    )
    dist, negative = graph.floyd_warshall()
    if negative:  # pragma: no cover - caller screened satisfiability
        return []
    # The bounds the screens actually state, tightest per direction.
    written_upper: dict[str, float] = {}
    written_lower: dict[str, float] = {}
    for atom in disjunct.atoms:
        if not atom.is_single_variable():
            continue
        assert isinstance(atom.left, Var)  # is_single_variable guarantees it
        variable = atom.left.name
        constant = atom.right.value  # type: ignore[union-attr]
        if atom.op in ("<", "<=", "="):
            bound = constant - 1 if atom.op == "<" else constant
            written_upper[variable] = min(
                written_upper.get(variable, INF), bound
            )
        if atom.op in (">", ">=", "="):
            bound = constant + 1 if atom.op == ">" else constant
            written_lower[variable] = max(
                written_lower.get(variable, -INF), bound
            )
    findings: list[Finding] = []
    for variable in sorted(disjunct.variables()):
        entailed_upper = dist[variable][ZERO]
        stated = written_upper.get(variable, INF)
        if entailed_upper < stated:
            detail = (
                f"the written screen only states {variable} <= {int(stated)}"
                if stated != INF
                else "no screen states it"
            )
            findings.append(
                Finding(
                    F_LOOSE_BOUND,
                    view_name,
                    f"{subject_prefix}: {variable} upper",
                    f"the disjunct entails {variable} <= "
                    f"{int(entailed_upper)} but {detail}; writing the "
                    "tighter bound is free screening selectivity",
                )
            )
        to_variable = dist[ZERO][variable]
        if to_variable != INF:
            entailed_lower = -to_variable
            stated = written_lower.get(variable, -INF)
            if entailed_lower > stated:
                detail = (
                    f"the written screen only states "
                    f"{variable} >= {int(stated)}"
                    if stated != -INF
                    else "no screen states it"
                )
                findings.append(
                    Finding(
                        F_LOOSE_BOUND,
                        view_name,
                        f"{subject_prefix}: {variable} lower",
                        f"the disjunct entails {variable} >= "
                        f"{int(entailed_lower)} but {detail}; writing the "
                        "tighter bound is free screening selectivity",
                    )
                )
    return findings


def _plan_lint_findings(
    view_name: str, nf: "NormalForm", plan: "CompiledViewPlan"
) -> list[Finding]:
    """Check (f): lint the compiled plan's join orders and delta terms."""
    findings: list[Finding] = []
    p = len(nf.occurrences)

    # OLD operands joined with no equality links: walk the lowered
    # shape of every single-relation update (the common transaction
    # shape) and collect the OLD nodes it hashes instead of probing —
    # full cross-product scans no index can serve.
    if p > 1:
        unbound: dict[int, set[str]] = {}
        for changed in range(p):
            for node in plan.shape_ops([changed]).nodes:
                if node.table and node.choice is DeltaRowChoice.OLD:
                    unbound.setdefault(node.step.position, set()).add(
                        nf.occurrences[changed].name
                    )
        for position in sorted(unbound):
            occurrence = nf.occurrences[position]
            triggers = ", ".join(sorted(unbound[position]))
            findings.append(
                Finding(
                    F_UNBOUND_OLD_OPERAND,
                    view_name,
                    f"{occurrence.name}#{position}",
                    f"OLD operand {occurrence.name!r} (occurrence "
                    f"{position}) joins with no equality links when "
                    f"[{triggers}] change: every maintenance step scans "
                    "it in full and no hash index can be probed",
                )
            )

    # Delta terms that can never fire: the term of a statically
    # irrelevant occurrence opens with tuples the relevance stage
    # provably never passes through.  (Section 5.3's table would count
    # every row holding such a delta: 2^p − 2^(p − dead) of 2^p − 1.)
    static = sorted(plan.static_irrelevant)
    if static:
        dead_terms = sum(
            1 for occ in nf.occurrences if occ.name in plan.static_irrelevant
        )
        findings.append(
            Finding(
                F_DEAD_TRUTH_ROWS,
                view_name,
                ", ".join(static),
                f"{dead_terms} of {p} delta terms (one per occurrence) "
                f"require a delta from statically irrelevant relation(s) "
                f"[{', '.join(static)}] and can never fire",
            )
        )
    return findings


# ----------------------------------------------------------------------
# Cross-view check (e)
# ----------------------------------------------------------------------

def cross_view_findings(
    normal_forms: Mapping[str, "NormalForm"],
    aggregates: Mapping[str, tuple | None] | None = None,
) -> tuple[Finding, ...]:
    """Duplicate and subsumed views across a catalog of normal forms.

    Two views are *comparable* when they flatten to the same operand
    sequence (hence the same qualified namespace) — only then do their
    conditions and projections speak the same language.  Comparable
    pairs are then tested with the implication machinery:

    * equivalent conditions + identical projected columns → duplicates
      (one WARN on the lexicographically first view of the pair);
    * one-way implication + column subset → the implied-from view is
      subsumed: computable as a selection of the other (INFO).

    ``aggregates`` maps each view name to its aggregate spec
    fingerprint (``None`` for plain views).  A pair with *different*
    entries is never comparable.  A pair with the *same* aggregate spec
    over comparable cores still gets the duplicate check, but never the
    subsumption check: a narrower condition selects a different core
    row set per group, and aggregates of different row sets are not
    derivable from one another (a SUM over fewer rows is not a
    selection of the wider SUM).

    Views with unsatisfiable conditions are skipped here (they already
    carry an ERROR finding, and an empty view vacuously implies
    everything); pairs whose condition negation blows past the DNF
    bound are skipped as undecided-cheaply rather than guessed at.
    """
    names = sorted(normal_forms)
    satisfiable = {
        name: is_satisfiable(normal_forms[name].condition) for name in names
    }
    findings: list[Finding] = []
    for i, a_name in enumerate(names):
        for b_name in names[i + 1:]:
            a = normal_forms[a_name]
            b = normal_forms[b_name]
            if not (satisfiable[a_name] and satisfiable[b_name]):
                continue
            a_agg = aggregates.get(a_name) if aggregates else None
            b_agg = aggregates.get(b_name) if aggregates else None
            if a_agg != b_agg:
                continue
            if a.relation_names != b.relation_names:
                continue
            if tuple(a.qualified_schema.names) != tuple(b.qualified_schema.names):
                continue
            a_proj = tuple(qualified for _, qualified in a.projection)
            b_proj = tuple(qualified for _, qualified in b.projection)
            charge("analysis_view_pairs_compared")
            try:
                if a_proj == b_proj and conditions_equivalent(
                    a.condition, b.condition
                ):
                    findings.append(
                        Finding(
                            F_DUPLICATE_VIEW,
                            a_name,
                            b_name,
                            f"views {a_name!r} and {b_name!r} have provably "
                            "identical contents: same operands, equivalent "
                            "conditions, same projected columns",
                        )
                    )
                    continue
                if a_agg is not None:
                    # Equal aggregate specs over non-equivalent cores:
                    # subsumption is undefined across aggregation.
                    continue
                if set(a_proj) <= set(b_proj) and condition_implies(
                    a.condition, b.condition
                ):
                    findings.append(
                        _subsumed(a_name, b_name)
                    )
                if set(b_proj) <= set(a_proj) and condition_implies(
                    b.condition, a.condition
                ):
                    findings.append(
                        _subsumed(b_name, a_name)
                    )
            except ConditionError:
                # Negating one of the conditions exceeded the DNF
                # blow-up bound; this pair stays unanalyzed.
                continue
    return tuple(sorted(dict.fromkeys(findings), key=Finding.sort_key))


def _subsumed(narrow: str, wide: str) -> Finding:
    return Finding(
        F_SUBSUMED_VIEW,
        narrow,
        wide,
        f"view {narrow!r} is subsumed by {wide!r}: its condition implies "
        f"{wide!r}'s and its projected columns are a subset, so it is "
        f"computable as a selection and projection of {wide!r}",
    )


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------

class AnalysisReport:
    """Every finding over a set of views, deterministically ordered.

    Rendering is byte-identical for the same catalog state: findings
    are deduplicated and sorted by :meth:`Finding.sort_key`, and the
    JSON form serializes with sorted keys.
    """

    __slots__ = ("views", "findings")

    def __init__(
        self, views: Sequence[str], findings: Iterable[Finding]
    ) -> None:
        self.views = tuple(views)
        self.findings = tuple(
            sorted(dict.fromkeys(findings), key=Finding.sort_key)
        )

    @property
    def has_errors(self) -> bool:
        """True when any finding is ERROR-level (CLI exit-code driver)."""
        return any(f.severity is Severity.ERROR for f in self.findings)

    def count(self, severity: Severity) -> int:
        """How many findings carry ``severity``."""
        return sum(1 for f in self.findings if f.severity is severity)

    def for_view(self, name: str) -> tuple[Finding, ...]:
        """The findings whose primary view is ``name``."""
        return tuple(f for f in self.findings if f.view == name)

    def format(self) -> str:
        """The text report the ``analyze`` CLI verb prints."""
        header = (
            f"static view analysis: {len(self.views)} view(s), "
            f"{len(self.findings)} finding(s) "
            f"({self.count(Severity.ERROR)} error, "
            f"{self.count(Severity.WARN)} warn, "
            f"{self.count(Severity.INFO)} info)"
        )
        if not self.findings:
            return header + "\nno findings"
        lines = [header]
        lines.extend(finding.format() for finding in self.findings)
        return "\n".join(lines)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready structure (stable ordering throughout)."""
        return {
            "views": list(self.views),
            "counts": {
                "error": self.count(Severity.ERROR),
                "warn": self.count(Severity.WARN),
                "info": self.count(Severity.INFO),
            },
            "findings": [f.as_dict() for f in self.findings],
        }

    def as_json(self) -> str:
        """The report as deterministic JSON (sorted keys, 2-space indent)."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def __repr__(self) -> str:
        return (
            f"<AnalysisReport {len(self.views)} views, "
            f"{len(self.findings)} findings>"
        )


def analyze_maintainer(maintainer: "ViewMaintainer") -> AnalysisReport:
    """The full analyzer over every view a maintainer has registered.

    Runs the per-definition checks (with the database's constraint
    catalog and each view's compiled plan, compiled now if a DDL event
    had evicted it) plus the cross-view pass.
    """
    charge("analysis_runs")
    names = maintainer.view_names()
    findings: list[Finding] = []
    normal_forms: dict[str, "NormalForm"] = {}
    aggregates: dict[str, tuple | None] = {}
    for name in names:
        view = maintainer.view(name)
        findings.extend(
            analyze_definition(
                view.definition,
                constraints=maintainer.database.constraints,
                plan=maintainer.peek_plan(name),
                keys=maintainer.database.keys,
            )
        )
        normal_forms[name] = view.definition.normal_form
        spec = view.definition.aggregate
        aggregates[name] = spec.fingerprint() if spec is not None else None
    findings.extend(cross_view_findings(normal_forms, aggregates))
    return AnalysisReport(names, findings)
