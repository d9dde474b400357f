"""The paper's algorithms stated one tuple at a time: the test oracle.

The maintainer runs generated kernels only (:mod:`repro.core.codegen`).
This module is the per-tuple statement of the same algorithms that the
parity suites hold those kernels to:

* :func:`filter_delta` — Algorithm 4.1 over a whole delta, one
  :meth:`~repro.core.irrelevance.RelevanceFilter.is_relevant` per tuple;
* :class:`RowWalker` — Algorithm 5.1's row evaluation: it walks the
  nodes of a shape lowered by :meth:`~repro.core.planner.RowPlanner.lower`
  (the join orders, links and filter atoms the kernel generator also
  reads) over tagged operands it builds itself, with the memo of shared
  prefixes as a switch (E13) and an optional index hook for OLD operands
  (:func:`index_probe_for`, E14);
* :func:`compute_view_delta` and :func:`evaluate_normal_form` — the
  differential and the complete evaluation built on it.

:class:`ReferenceViews` maintains views with these functions alone:
each relation's net delta screened, the truth table evaluated over
hashed OLD operands, :meth:`AggregateState.fold` for the core delta of
an aggregate view, the result applied with full Section 5.2 counters.
It shares no compiled plan, generated kernel or chase-derived shortcut
(static irrelevance, FK reduction, counter-free apply) with
:class:`~repro.ViewMaintainer`, so the parity suites run the two side by
side and compare view contents after every stream.

Work counters are comparable too.  By default the reference hashes
every OLD operand it joins where the maintainer probes a persistent
index, so ``tuples_scanned`` and ``index_probes`` differ; with
``index_probes=True`` it reads the same indexes through
:func:`index_probe_for` and those two agree as well
(``PROBE_PARITY_COUNTERS``).

The per-row loaders at the end build a relation's count map without the
batch door (``RelationSchema.encode_rows``): one ``coerce_row`` per row,
in order, then each site's duplicate rule.  The batch loaders must give
the same map in the same order, or raise the same error.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional, Sequence

from repro.algebra.conditions import Atom, Condition
from repro.algebra.evaluate import compile_condition
from repro.algebra.expressions import Expression, NormalForm
from repro.algebra.relation import Delta, Relation, TaggedRelation
from repro.algebra.schema import RelationSchema
from repro.algebra.tags import Tag, combine_join_tags
from repro.algebra.tuples import coerce_row
from repro.core.aggregates import AggregateState
from repro.core.differential import LazyOperandEntry
from repro.core.irrelevance import FilterStats, RelevanceFilter
from repro.core.planner import Node, RowPlanner, ShapeOps
from repro.core.truthtable import DeltaRowChoice, Rows, enumerate_delta_rows
from repro.core.views import MaterializedView, ViewDefinition
from repro.engine.database import Database
from repro.engine.persistence import PersistenceError
from repro.errors import MaintenanceError, ReproError, SchemaError
from repro.instrumentation import charge

ValueTuple = tuple[int, ...]
#: Rows a probe answers: (encoded values, tag, count).
ProbeRow = tuple[ValueTuple, Tag, int]
#: A probe function: join-key values -> matching operand rows.
ProbeFn = Callable[[ValueTuple], Iterable[ProbeRow]]
#: An index hook: (position, link attributes) -> a probe function, or
#: None to hash the operand instead.
IndexProbe = Callable[[int, tuple[str, ...]], Optional[ProbeFn]]
#: ``operands[position][choice]``: an occurrence's tagged tuples.
Operands = Sequence[Mapping[DeltaRowChoice, TaggedRelation]]

#: Counters the maintainer's kernels and the reference functions charge
#: identically on the same stream (absent static-irrelevance and
#: FK-reduction proofs, which only the maintainer exploits).
REFERENCE_PARITY_COUNTERS = (
    "join_probes",
    "tuples_emitted",
    "tuples_ignored",
    "truth_table_rows",
    "delta_rows_evaluated",
    "subexpression_memo_hits",
    "filter_tuples_checked",
    "filter_ground_evals",
    "filter_bound_probes",
    "differential_updates",
    "aggregate_rows_folded",
    "aggregate_groups_touched",
)

#: Counters the kernels and the reference behind :func:`index_probe_for`
#: charge identically: how an OLD operand is reached agrees too.
PROBE_PARITY_COUNTERS = REFERENCE_PARITY_COUNTERS + (
    "tuples_scanned",
    "index_probes",
)


# ----------------------------------------------------------------------
# Algorithm 4.1, one tuple at a time
# ----------------------------------------------------------------------

def filter_delta(
    normal_form: NormalForm,
    relation_name: str,
    delta: Delta,
    schema: RelationSchema | None = None,
) -> tuple[Delta, FilterStats]:
    """Screen a whole net-effect delta; keep only relevant tuples.

    Insertions and deletions are screened by the same test (Theorem 4.1
    covers both directions).  Returns the filtered delta and the
    filter's statistics for this call.
    """
    relevance = RelevanceFilter(
        normal_form, relation_name, schema if schema is not None else delta.schema
    )
    return screened(relevance, delta), relevance.stats


def screened(relevance: RelevanceFilter, delta: Delta) -> Delta:
    """The tuples of ``delta`` one built filter finds relevant: the
    per-tuple half of Algorithm 4.1, reusing the filter's invariant
    split and APSP across calls."""
    inserted = {v: c for v, c in delta.inserted.items() if relevance.is_relevant(v)}
    deleted = {v: c for v, c in delta.deleted.items() if relevance.is_relevant(v)}
    return Delta.from_counts(delta.schema, inserted, deleted)


# ----------------------------------------------------------------------
# Algorithm 5.1, one tuple at a time
# ----------------------------------------------------------------------

class RowWalker:
    """Evaluates a lowered shape's rows (:class:`ShapeOps`), tuple by tuple.

    ``operands[position][choice]`` supplies the tagged tuples of each
    occurrence under each truth-table choice (DELTA only for changed
    positions); the walker takes the nodes, choices, links and filter
    atoms from the ops and nothing else — OLD comes from ``operands``,
    whatever the ops' access says.  With ``share_subexpressions`` every
    node is memoized, so rows whose orders begin alike share the work,
    as the row kernel's nodes do.  A node the ops probe is answered by
    ``index_probe`` where it returns a probe; any other joined operand is
    hashed once per (distinct step, choice), as the kernels hash it.
    """

    def __init__(
        self,
        ops: ShapeOps,
        operands: Operands,
        index_probe: IndexProbe | None = None,
        share_subexpressions: bool = True,
    ) -> None:
        self.ops = ops
        self.operands = operands
        self.index_probe = index_probe
        self.share = share_subexpressions
        self.memo: dict[int, TaggedRelation] = {}
        self.tables: dict[tuple[int, DeltaRowChoice], dict[ValueTuple, list[ProbeRow]]] = {}
        #: Per step, by number: its prefilter and postfilter, compiled here.
        self.filters = [
            (
                _conjunction(step.prefilter_atoms, step.operand_schema),
                _conjunction(step.postfilter_atoms, step.acc_schema),
            )
            for step in ops.planner.distinct_steps
        ]
        #: Per finish: the final re-check, compiled here, and the projection.
        self.finishes = [
            (
                None if f.condition is None else compile_condition(f.condition, f.schema),
                f.positions,
            )
            for f in ops.finishes
        ]

    def evaluate(self, rows: Iterable[Rows]) -> TaggedRelation:
        """Every row, filtered, projected and merged into one result."""
        merged = TaggedRelation(self.ops.planner.normal_form.output_schema())
        if not self.ops.rows_evaluated:  # a shared ground atom is false
            return merged
        for row in rows:
            charge("delta_rows_evaluated")
            final, finish = self.ops.rows[row]
            check, positions = self.finishes[finish]
            for values, tag, count in self._node(final).items():
                if check is None or check(values):
                    merged.add(tuple(values[i] for i in positions), tag, count)
        return merged

    def _node(self, index: int) -> TaggedRelation:
        if self.share:
            cached = self.memo.get(index)
            if cached is not None:
                charge("subexpression_memo_hits")
                return cached
        node = self.ops.nodes[index]
        step = node.step
        if node.parent is None:
            prefilter = self.filters[step.number][0]
            result = TaggedRelation(step.operand_schema)
            for values, tag, count in self.operands[step.position][node.choice].items():
                charge("tuples_scanned")
                if prefilter is None or prefilter(values):
                    result.add(values, tag, count)
        else:
            result = self._join(self._node(node.parent), node)
        if self.share:
            self.memo[index] = result
        return result

    def _join(self, acc: TaggedRelation, node: Node) -> TaggedRelation:
        step = node.step
        out = TaggedRelation(step.acc_schema)
        if acc.is_empty():
            return out
        probe = self._probe_for(node)
        postfilter = self.filters[step.number][1]
        for acc_values, acc_tag, acc_count in acc.items():
            charge("join_probes")
            key = tuple(acc_values[pos] + shift for pos, _, shift in step.eq_links)
            for op_values, op_tag, op_count in probe(key):
                tag = combine_join_tags(acc_tag, op_tag)
                if tag is Tag.IGNORE:
                    charge("tuples_ignored")
                    continue
                joined = acc_values + op_values
                if postfilter is not None and not postfilter(joined):
                    continue
                charge("tuples_emitted")
                out.add(joined, tag, acc_count * op_count)
        return out

    def _probe_for(self, node: Node) -> ProbeFn:
        step, choice = node.step, node.choice
        prefilter = self.filters[step.number][0]
        if node.target is not None and self.index_probe is not None:
            indexed = self.index_probe(step.position, step.link_attr_names)
            if indexed is not None:
                if prefilter is None:
                    return indexed
                return lambda key: (
                    found for found in indexed(key) if prefilter(found[0])
                )
        table = self.tables.get((step.number, choice))
        if table is None:
            table = self.tables[(step.number, choice)] = {}
            for values, tag, count in self.operands[step.position][choice].items():
                charge("tuples_scanned")
                if prefilter is None or prefilter(values):
                    key = tuple(values[i] for i in step.operand_key_positions)
                    table.setdefault(key, []).append((values, tag, count))
        return lambda key: table.get(key, ())


def _conjunction(
    atoms: Sequence[Atom], schema: RelationSchema
) -> Optional[Callable[[ValueTuple], bool]]:
    return compile_condition(Condition.of_atoms(atoms), schema) if atoms else None


def changed_positions_for(
    normal_form: NormalForm, deltas: Mapping[str, Delta]
) -> tuple[int, ...]:
    """Occurrence positions carrying a non-empty delta, in order: the
    truth-table shape of one transaction."""
    return tuple(
        i
        for i, occ in enumerate(normal_form.occurrences)
        if occ.name in deltas and not deltas[occ.name].is_empty()
    )


def build_operands(
    normal_form: NormalForm,
    post_instances: Mapping[str, Relation],
    deltas: Mapping[str, Delta],
    changed_positions: Sequence[int],
) -> list[LazyOperandEntry]:
    """Per-occurrence lazy operands over one transaction's post-state
    and deltas: OLD is ``r − d_r``, DELTA the tagged net change."""
    qualified = normal_form.qualified_schema
    operands = []
    for i, occ in enumerate(normal_form.occurrences):
        try:
            post = post_instances[occ.name]
        except KeyError:
            raise MaintenanceError(
                f"post-state for relation {occ.name!r} was not supplied"
            ) from None
        occ_schema = qualified.project_schema(occ.qualified_names())
        operands.append(
            LazyOperandEntry(
                post, deltas.get(occ.name), occ_schema, i in changed_positions
            )
        )
    return operands


def compute_view_delta(
    normal_form: NormalForm,
    post_instances: Mapping[str, Relation],
    deltas: Mapping[str, Delta],
    share_subexpressions: bool = True,
    index_probe: IndexProbe | None = None,
) -> Delta:
    """The net change to a view caused by one transaction (Algorithm 5.1).

    ``post_instances`` holds every operand *after* the transaction;
    ``deltas`` its net effect per relation, possibly screened first.  A
    relation absent from it, or mapped to an empty delta, is unchanged.
    """
    changed = changed_positions_for(normal_form, deltas)
    if not changed:
        return Delta(normal_form.output_schema())
    charge("differential_updates")
    walker = RowWalker(
        RowPlanner(normal_form, changed).lower(),
        build_operands(normal_form, post_instances, deltas, changed),
        index_probe,
        share_subexpressions,
    )
    rows = enumerate_delta_rows(len(normal_form.occurrences), changed)
    return walker.evaluate(rows).to_delta()


def index_probe_for(
    normal_form: NormalForm,
    post_instances: Mapping[str, Relation],
    deltas: Mapping[str, Delta],
) -> IndexProbe:
    """An OLD-operand hook reading the indexes the maintainer binds.

    A probe reads the operand's hash index on its link attributes
    (``index_on``: built on first use, then kept by the relation), one
    charged :meth:`~repro.algebra.relation.HashIndex.probe` per key.
    The index holds the post-commit operand while OLD means ``r − d_r``,
    so a tuple keeps its live count less this transaction's inserted
    copies, and one with none left is not OLD.
    """

    def hook(position: int, link_attrs: tuple[str, ...]) -> ProbeFn:
        occurrence = normal_form.occurrences[position]
        operand = post_instances[occurrence.name]
        index = operand.index_on([occurrence.inverse[q] for q in link_attrs])
        delta = deltas.get(occurrence.name)
        inserted = delta.inserted if delta is not None else {}
        counts = operand.count_map

        def probe(key: ValueTuple) -> Iterable[ProbeRow]:
            for values in index.probe(key):
                remaining = counts[values] - inserted.get(values, 0)
                if remaining > 0:
                    yield values, Tag.OLD, remaining

        return probe

    return hook


def evaluate_normal_form(
    normal_form: NormalForm, instances: Mapping[str, Relation]
) -> Relation:
    """Complete evaluation: the one all-OLD row over every operand."""
    ops = RowPlanner(normal_form, changed_positions=()).lower()
    operands = []
    for occurrence in normal_form.occurrences:
        tagged = TaggedRelation(
            normal_form.qualified_schema.project_schema(occurrence.qualified_names())
        )
        for values, count in instances[occurrence.name].items():
            tagged.add(values, Tag.OLD, count)
        operands.append({DeltaRowChoice.OLD: tagged})
    counts: dict[ValueTuple, int] = {}
    for values, _, count in RowWalker(ops, operands).evaluate(ops.rows).items():
        counts[values] = counts.get(values, 0) + count
    return Relation.from_counts(normal_form.output_schema(), counts)


def reference_fold(state: AggregateState, core_delta: Delta) -> Delta:
    """Fold a core delta with the reference fold; the visible delta out.

    Charges the two aggregate work counters the way the maintainer's
    fold driver does, so the parity suites can compare them.
    """
    rows = len(core_delta.inserted) + len(core_delta.deleted)
    if rows:
        charge("aggregate_rows_folded", rows)
    touched, before, after, bad = state.fold(
        core_delta.inserted, core_delta.deleted
    )
    assert bad is None, f"reference fold underflowed on core row {bad}"
    if touched:
        charge("aggregate_groups_touched", len(touched))
    inserted = {}
    deleted = {}
    for key in touched:
        if before.get(key) != after.get(key):
            if key in before:
                deleted[before[key]] = 1
            if key in after:
                inserted[after[key]] = 1
    return Delta.from_counts(state.visible_schema, inserted, deleted)


class ReferenceViews:
    """Immediate maintenance of a set of views by the reference functions.

    Views are maintained inside every commit of ``database``, in
    definition order, so a later view may name an earlier one as an
    operand (stacked views see the delta just applied upstream).
    """

    def __init__(
        self,
        database: Database,
        definitions: Mapping[str, Expression] | None = None,
        index_probes: bool = False,
    ) -> None:
        self.database = database
        self.index_probes = index_probes
        self.views: dict[str, MaterializedView] = {}
        for name, expression in (definitions or {}).items():
            self.define_view(name, expression)
        database.add_commit_hook(self._on_commit)

    def define_view(self, name: str, expression: Expression) -> MaterializedView:
        catalog = dict(self.database.schema_catalog())
        for view_name, view in self.views.items():
            catalog[view_name] = view.contents.schema
        definition = ViewDefinition(name, expression, catalog)
        view = MaterializedView.from_stored(
            definition, evaluate_normal_form(definition.normal_form, self._instances())
        )
        self.views[name] = view
        return view

    def view(self, name: str) -> MaterializedView:
        """One maintained view (same accessor as ``ViewMaintainer``)."""
        return self.views[name]

    def _instances(self):
        instances = dict(self.database.instances())
        for name, view in self.views.items():
            instances[name] = view.contents
        return instances

    def _on_commit(self, txn_id: int, deltas: Mapping[str, Delta]) -> None:
        deltas = dict(deltas)
        for name, view in self.views.items():
            normal_form = view.definition.normal_form
            relevant = {}
            for relation_name in view.definition.relation_names & deltas.keys():
                screened, _ = filter_delta(
                    normal_form, relation_name, deltas[relation_name]
                )
                if not screened.is_empty():
                    relevant[relation_name] = screened
            if not relevant:
                continue
            instances = self._instances()
            delta = compute_view_delta(
                normal_form,
                instances,
                relevant,
                index_probe=index_probe_for(normal_form, instances, relevant)
                if self.index_probes
                else None,
            )
            if view.aggregate_state is not None:
                delta = reference_fold(view.aggregate_state, delta)
            view.apply_delta(delta)
            if not delta.is_empty():
                deltas[name] = delta


# ----------------------------------------------------------------------
# Per-row loaders
# ----------------------------------------------------------------------

def _coerced(schema: RelationSchema, rows: list) -> list[tuple[int, ...]]:
    """Every row through ``coerce_row``, in order: the first bad row raises."""
    return [coerce_row(schema, row) for row in rows]


def reference_create_relation(
    name: str, schema: RelationSchema, rows: list
) -> dict[tuple[int, ...], int]:
    """``Database.create_relation``'s count map: a set, so the first row
    that repeats an earlier one is a ``SchemaError``."""
    counts: dict[tuple[int, ...], int] = {}
    for row, values in zip(rows, _coerced(schema, rows)):
        if values in counts:
            raise SchemaError(f"duplicate initial row {row!r} in {name!r}")
        counts[values] = 1
    return counts


def reference_relation_from_document(
    name: str, schema: RelationSchema, rows: list, counts: list
) -> dict[tuple[int, ...], int]:
    """``relation_from_document``'s count map, for a document with valid
    counts: rows must be arrays, and a repeat is refused even where
    counts are allowed."""
    if any(type(row) not in (list, tuple) for row in rows):
        raise PersistenceError(f"relation {name!r}: every row must be an array")
    try:
        encoded = _coerced(schema, rows)
    except (TypeError, ReproError) as exc:
        raise PersistenceError(f"relation {name!r}: bad row: {exc}") from exc
    stored: dict[tuple[int, ...], int] = {}
    for row, values, count in zip(rows, encoded, counts):
        if values in stored:
            raise PersistenceError(f"relation {name!r}: duplicate row {row}")
        stored[values] = count
    return stored


def reference_from_rows(schema: RelationSchema, rows: list) -> dict[tuple[int, ...], int]:
    """``Relation.from_rows``'s count map: a bag, a repeat counts again."""
    counts: dict[tuple[int, ...], int] = {}
    for values in _coerced(schema, rows):
        counts[values] = counts.get(values, 0) + 1
    return counts
