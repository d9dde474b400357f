"""The paper's algorithms stated one tuple at a time: the test oracle.

The maintainer runs generated kernels only (:mod:`repro.core.codegen`).
This module is the per-tuple statement of the same algorithms that the
parity suites hold those kernels to:

* :func:`filter_delta` — Algorithm 4.1 over a whole delta, one
  :meth:`~repro.core.irrelevance.RelevanceFilter.is_relevant` per tuple;
* :class:`RowWalker` — Algorithm 5.1's delta evaluation: it walks the
  terms of a shape lowered by :meth:`~repro.core.planner.RowPlanner.lower`
  (the join orders, links and filter atoms the kernel generator also
  reads) over the tagged delta and the stored and pre-commit operands it
  builds itself, with an optional index hook for the untagged operands
  (:func:`index_probe_for`, E14);
* :func:`compute_view_delta` and :func:`evaluate_normal_form` — the
  differential and the complete evaluation built on it;
* :func:`truth_table_delta` — the same view delta by the paper's own
  Section 5.3 table: its 2^k − 1 rows over OLD (``r − d_r``) and the
  tagged deltas, joined by the tagged operators below.  The terms and
  the table net to the same view delta (``tests/test_delta_terms.py``).

:class:`ReferenceViews` maintains views with these functions alone:
each relation's net delta screened, the terms evaluated over hashed
operands, :meth:`AggregateState.fold` for the core delta of
an aggregate view, the result applied with full Section 5.2 counters.
It shares no compiled plan, generated kernel or chase-derived shortcut
(static irrelevance, FK reduction, counter-free apply) with
:class:`~repro.ViewMaintainer`, so the parity suites run the two side by
side and compare view contents after every stream.

Work counters are comparable too.  By default the reference hashes
every untagged operand it joins where the maintainer probes a
persistent index, so ``tuples_scanned`` and ``index_probes`` differ; with
``index_probes=True`` it reads the same indexes through
:func:`index_probe_for` and those two agree as well
(``PROBE_PARITY_COUNTERS``).

The tag algebra comes first: the paper's two tag tables as data
(:data:`JOIN_TAG_TABLE`, :data:`UNARY_TAG_TABLE`) and
:class:`TaggedRelation`, the currency of the per-tuple evaluators.

:func:`evaluate` is the complete re-evaluation of an expression tree by
Section 5.2's counted operators (and Section 5.3's tagged ones beside
them), the naive tree walker.  ``tests/test_sqlite_oracle.py`` holds it
to the system's ground truth, SQL on ``sqlite3``
(:mod:`repro.algebra.sqlite_oracle`), and the benchmarks that measure
against complete re-evaluation (E4, E5, E6, E12, E18, E25) import it
from here.

The per-row loaders at the end build a relation's count map without the
batch door (``RelationSchema.encode_rows``): one ``coerce_row`` per row,
in order, then each site's duplicate rule.  The batch loaders must give
the same map in the same order, or raise the same error.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.algebra.aggregates import Aggregate, AggregateSpec, column_plans, render_group
from repro.algebra.conditions import Atom, Condition, Var
from repro.algebra.expressions import (
    BaseRef,
    Difference,
    Expression,
    Join,
    NormalForm,
    Product,
    Project,
    Rename,
    Select,
    Union,
)
from repro.algebra.relation import Delta, Relation
from repro.algebra.schema import RelationSchema
from repro.algebra.tags import Tag
from repro.algebra.tuples import coerce_row
from repro.core.aggregates import AggregateState
from repro.core.differential import LazyOperandEntry
from repro.core.irrelevance import FilterStats, RelevanceFilter
from repro.core.planner import Node, RowPlanner, ShapeOps
from repro.core.truthtable import DeltaRowChoice, Rows, enumerate_delta_rows
from repro.core.views import MaterializedView, ViewDefinition
from repro.engine.database import Database
from repro.engine.persistence import PersistenceError
from repro.errors import ExpressionError, MaintenanceError, ReproError, SchemaError
from repro.instrumentation import charge

ValueTuple = tuple[int, ...]


# ----------------------------------------------------------------------
# The tag algebra (Section 5.3)
# ----------------------------------------------------------------------

#: The paper's join tag table, keyed by the operand tags.
JOIN_TAG_TABLE: dict[tuple[Tag, Tag], Tag] = {
    (Tag.INSERT, Tag.INSERT): Tag.INSERT,
    (Tag.INSERT, Tag.DELETE): Tag.IGNORE,
    (Tag.INSERT, Tag.OLD): Tag.INSERT,
    (Tag.DELETE, Tag.INSERT): Tag.IGNORE,
    (Tag.DELETE, Tag.DELETE): Tag.DELETE,
    (Tag.DELETE, Tag.OLD): Tag.DELETE,
    (Tag.OLD, Tag.INSERT): Tag.INSERT,
    (Tag.OLD, Tag.DELETE): Tag.DELETE,
    (Tag.OLD, Tag.OLD): Tag.OLD,
}

#: The paper's unary (select/project) tag table.
UNARY_TAG_TABLE: dict[Tag, Tag] = {
    Tag.INSERT: Tag.INSERT,
    Tag.DELETE: Tag.DELETE,
    Tag.OLD: Tag.OLD,
}


def combine_join_tags(left: Tag, right: Tag) -> Tag:
    """Tag of a joined tuple, per the paper's Section 5.3 table.

    ``IGNORE`` operands are not valid inputs: the paper specifies that
    ignored tuples are discarded *when performing the join*, so they can
    never reach a subsequent combination.
    """
    try:
        return JOIN_TAG_TABLE[(left, right)]
    except KeyError:
        raise ValueError(f"cannot combine tags {left!r} ⋈ {right!r}") from None


def unary_tag(tag: Tag) -> Tag:
    """Tag of a selected/projected tuple (identity on real tags)."""
    try:
        return UNARY_TAG_TABLE[tag]
    except KeyError:
        raise ValueError(f"{tag!r} cannot flow through a unary operator") from None


def tagged_items(delta: Delta) -> Iterator[tuple[ValueTuple, Tag, int]]:
    """Iterate a delta as tagged tuples, the §5.3 representation."""
    for values, count in delta.inserted.items():
        yield values, Tag.INSERT, count
    for values, count in delta.deleted.items():
        yield values, Tag.DELETE, count


class TaggedRelation:
    """Tuples carrying a tag and a count: the §5.3 evaluation currency.

    The map key is ``(values, tag)`` so the same tuple may legitimately
    appear under several tags while a differential expression is being
    evaluated (for instance, projected inserts and deletes landing on
    the same view tuple, which later partially cancel when the delta is
    applied to the stored view).
    """

    __slots__ = ("schema", "_counts")

    def __init__(self, schema: RelationSchema) -> None:
        self.schema = schema
        self._counts: dict[tuple[ValueTuple, Tag], int] = {}

    @classmethod
    def from_relation(cls, relation: Relation, tag: Tag = Tag.OLD) -> "TaggedRelation":
        """Tag every tuple of ``relation`` with ``tag`` (default ``OLD``)."""
        out = cls(relation.schema)
        for values, count in relation.items():
            out._counts[(values, tag)] = count
        return out

    @classmethod
    def from_delta(cls, delta: Delta) -> "TaggedRelation":
        """The tagged form of a delta: inserts and deletes, tagged."""
        out = cls(delta.schema)
        for values, tag, count in tagged_items(delta):
            out._counts[(values, tag)] = count
        return out

    def add(self, values: ValueTuple, tag: Tag, count: int = 1) -> None:
        """Accumulate ``count`` copies of ``values`` under ``tag``."""
        if tag is Tag.IGNORE:
            return
        if count <= 0:
            raise MaintenanceError(f"tagged count must be positive, got {count}")
        key = (values, tag)
        self._counts[key] = self._counts.get(key, 0) + count

    def items(self) -> Iterator[tuple[ValueTuple, Tag, int]]:
        """Iterate ``(values, tag, count)`` triples."""
        for (values, tag), count in self._counts.items():
            yield values, tag, count

    def __len__(self) -> int:
        return len(self._counts)

    def is_empty(self) -> bool:
        return not self._counts

    def count_of(self, values: ValueTuple, tag: Tag) -> int:
        """The count stored for ``values`` under ``tag`` (0 when absent)."""
        return self._counts.get((values, tag), 0)

    def merge(self, other: "TaggedRelation") -> None:
        """Accumulate all of ``other`` into this relation in place."""
        if other.schema.names != self.schema.names:
            raise SchemaError(
                f"schema mismatch: {self.schema.names} vs {other.schema.names}"
            )
        for (values, tag), count in other._counts.items():
            key = (values, tag)
            self._counts[key] = self._counts.get(key, 0) + count

    def to_delta(self) -> Delta:
        """Collapse the tagged tuples into a net :class:`Delta`.

        ``OLD`` tuples are dropped (they are already in the view);
        inserts and deletes of the same tuple cancel count-wise, which
        happens when different truth-table rows contribute opposite
        changes that net out.
        """
        inserted: dict[ValueTuple, int] = {}
        deleted: dict[ValueTuple, int] = {}
        for (values, tag), count in self._counts.items():
            if tag is Tag.INSERT:
                inserted[values] = inserted.get(values, 0) + count
            elif tag is Tag.DELETE:
                deleted[values] = deleted.get(values, 0) + count
        for values in list(inserted.keys() & deleted.keys()):
            cancel = min(inserted[values], deleted[values])
            inserted[values] -= cancel
            deleted[values] -= cancel
            if not inserted[values]:
                del inserted[values]
            if not deleted[values]:
                del deleted[values]
        return Delta.adopt(self.schema, inserted, deleted)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaggedRelation):
            return NotImplemented
        return self.schema.names == other.schema.names and self._counts == other._counts

    def __repr__(self) -> str:
        by_tag: dict[Tag, int] = {}
        for (_, tag), count in self._counts.items():
            by_tag[tag] = by_tag.get(tag, 0) + count
        summary = ", ".join(f"{t.value}:{c}" for t, c in sorted(by_tag.items(), key=lambda kv: kv[0].value))
        return f"<TaggedRelation {list(self.schema.names)} {summary or 'empty'}>"

#: Rows a probe answers: (encoded values, tag, count).
ProbeRow = tuple[ValueTuple, Tag, int]
#: A probe function: join-key values -> matching operand rows.
ProbeFn = Callable[[ValueTuple], Iterable[ProbeRow]]
#: An index hook: (position, link attributes, pre-commit) -> a probe
#: function, or None to hash the operand instead.
IndexProbe = Callable[[int, tuple[str, ...], bool], Optional[ProbeFn]]

#: What a term reads of an occurrence: its tagged delta, the operand as
#: stored after the commit, or as it stood before it; and what the
#: paper's truth table reads besides the delta: OLD, ``r − d_r``.
DELTA, STORED, PRE_COMMIT, OLD = "delta", "stored", "pre-commit", "old"
#: ``operands[position][state]``: an occurrence's tagged tuples.
Operands = Sequence[Mapping[str, TaggedRelation]]

#: Counters the maintainer's kernels and the reference functions charge
#: identically on the same stream (absent static-irrelevance and
#: FK-reduction proofs, which only the maintainer exploits).
REFERENCE_PARITY_COUNTERS = (
    "join_probes",
    "tuples_emitted",
    "truth_table_rows",
    "delta_rows_evaluated",
    "filter_tuples_checked",
    "filter_ground_evals",
    "filter_bound_probes",
    "differential_updates",
    "aggregate_rows_folded",
    "aggregate_groups_touched",
)

#: Counters the kernels and the reference behind :func:`index_probe_for`
#: charge identically: how an untagged operand is reached agrees too.
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
    """Evaluates a lowered shape's terms (:class:`ShapeOps`), tuple by tuple.

    ``operands[position][state]`` supplies the tagged tuples of each
    occurrence in each state a term reads: ``DELTA`` (changed positions
    only), ``STORED`` and ``PRE_COMMIT``.  The walker takes the nodes,
    choices, links and filter atoms from the ops and nothing else: a
    term's delta is the node the ops choose DELTA, a changed operand
    right of it is read ``PRE_COMMIT`` and every other one ``STORED`` —
    whatever the ops' access says.  A node the ops probe is answered by
    ``index_probe`` where it returns a probe; any other joined operand
    is hashed once per distinct step, as the kernels hash it.
    """

    def __init__(
        self,
        ops: ShapeOps,
        operands: Operands,
        index_probe: IndexProbe | None = None,
    ) -> None:
        self.ops = ops
        self.operands = operands
        self.index_probe = index_probe
        self.tables: dict[int, dict[ValueTuple, list[ProbeRow]]] = {}
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
        """Every term, filtered, projected and merged into one result."""
        merged = TaggedRelation(self.ops.planner.normal_form.output_schema())
        if not self.ops.rows_evaluated:  # a shared ground atom is false
            return merged
        for row in rows:
            charge("delta_rows_evaluated")
            final, finish = self.ops.rows[row]
            check, positions = self.finishes[finish]
            first = row.index(DeltaRowChoice.DELTA) if DeltaRowChoice.DELTA in row else len(row)
            for values, tag, count in self._node(final, first).items():
                if check is None or check(values):
                    merged.add(tuple(values[i] for i in positions), tag, count)
        return merged

    def _state(self, node: Node, first: int) -> str:
        """What the node's term reads of its operand, its delta at
        position ``first``."""
        position = node.step.position
        if node.choice is DeltaRowChoice.DELTA:
            return DELTA
        return PRE_COMMIT if position > first and position in self.ops.planner.changed else STORED

    def _node(self, index: int, first: int) -> TaggedRelation:
        node = self.ops.nodes[index]
        step = node.step
        if node.parent is not None:
            return self._join(self._node(node.parent, first), node, self._state(node, first))
        prefilter = self.filters[step.number][0]
        result = TaggedRelation(step.operand_schema)
        for values, tag, count in self.operands[step.position][self._state(node, first)].items():
            charge("tuples_scanned")
            if prefilter is None or prefilter(values):
                result.add(values, tag, count)
        return result

    def _join(self, acc: TaggedRelation, node: Node, state: str) -> TaggedRelation:
        step = node.step
        out = TaggedRelation(step.acc_schema)
        if acc.is_empty():
            return out
        probe = self._probe_for(node, state)
        postfilter = self.filters[step.number][1]
        for acc_values, acc_tag, acc_count in acc.items():
            charge("join_probes")
            key = tuple(acc_values[pos] + shift for pos, _, shift in step.eq_links)
            for op_values, op_tag, op_count in probe(key):
                tag = combine_join_tags(acc_tag, op_tag)
                joined = acc_values + op_values
                if postfilter is not None and not postfilter(joined):
                    continue
                charge("tuples_emitted")
                out.add(joined, tag, acc_count * op_count)
        return out

    def _probe_for(self, node: Node, state: str) -> ProbeFn:
        step = node.step
        prefilter = self.filters[step.number][0]
        if node.target is not None and self.index_probe is not None:
            indexed = self.index_probe(step.position, step.link_attr_names, state == PRE_COMMIT)
            if indexed is not None:
                if prefilter is None:
                    return indexed
                return lambda key: (
                    found for found in indexed(key) if prefilter(found[0])
                )
        table = self.tables.get(step.number)
        if table is None:
            table = self.tables[step.number] = {}
            for values, tag, count in self.operands[step.position][state].items():
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


def old_operand(
    post_state: Relation,
    delta: Delta | None,
    qualified_schema: RelationSchema,
) -> TaggedRelation:
    """The paper's OLD operand: tuples present both before and after the
    commit.

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


def pre_commit_operand(
    post_state: Relation,
    delta: Delta | None,
    qualified_schema: RelationSchema,
) -> TaggedRelation:
    """The operand as it stood before the commit: the post-state less
    the inserted counts, plus the deleted ones — OLD and the deletes."""
    out = TaggedRelation(qualified_schema)
    inserted = delta.inserted if delta is not None else {}
    deleted = delta.deleted if delta is not None else {}
    counts = dict(post_state.items())
    for values in [*counts, *(v for v in deleted if v not in counts)]:
        count = counts.get(values, 0) - inserted.get(values, 0) + deleted.get(values, 0)
        if count > 0:
            out.add(values, Tag.OLD, count)
    return out


def stored_operand(post_state: Relation, qualified_schema: RelationSchema) -> TaggedRelation:
    """The operand as stored after the commit, untagged (``OLD``)."""
    out = TaggedRelation(qualified_schema)
    for values, count in post_state.items():
        out.add(values, Tag.OLD, count)
    return out


def delta_operand(delta: Delta, qualified_schema: RelationSchema) -> TaggedRelation:
    """The DELTA operand: net inserts and deletes, tagged."""
    out = TaggedRelation(qualified_schema)
    for values, tag, count in tagged_items(delta):
        out.add(values, tag, count)
    return out


def build_operands(
    normal_form: NormalForm,
    post_instances: Mapping[str, Relation],
    deltas: Mapping[str, Delta],
    changed_positions: Sequence[int],
) -> list[LazyOperandEntry]:
    """Per-occurrence lazy operands over one transaction's post-state
    and deltas, by state: ``DELTA`` the tagged net change, ``STORED``
    the post-state, ``PRE_COMMIT`` the state before the commit and
    ``OLD`` the paper's ``r − d_r``."""
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
                _operand_builder(post, deltas.get(occ.name), occ_schema, i in changed_positions)
            )
        )
    return operands


def _operand_builder(
    post: Relation, delta: Delta | None, schema: RelationSchema, changed: bool
) -> Callable[[str], TaggedRelation]:
    def build(state: str) -> TaggedRelation:
        if state == STORED:
            return stored_operand(post, schema)
        if state == PRE_COMMIT:
            return pre_commit_operand(post, delta, schema)
        if state == OLD:
            return old_operand(post, delta, schema)
        if changed and delta is not None:
            return delta_operand(delta, schema)
        raise MaintenanceError("DELTA operand requested for an unchanged relation")

    return build


def compute_view_delta(
    normal_form: NormalForm,
    post_instances: Mapping[str, Relation],
    deltas: Mapping[str, Delta],
    index_probe: IndexProbe | None = None,
) -> Delta:
    """The net change to a view caused by one transaction (Algorithm 5.1),
    one term per changed occurrence.

    ``post_instances`` holds every operand *after* the transaction;
    ``deltas`` its net effect per relation, possibly screened first.  A
    relation absent from it, or mapped to an empty delta, is unchanged.
    """
    changed = changed_positions_for(normal_form, deltas)
    if not changed:
        return Delta(normal_form.output_schema())
    charge("differential_updates")
    ops = RowPlanner(normal_form, changed).lower()
    if ops.rows_evaluated:
        charge("truth_table_rows", ops.rows_evaluated)
    walker = RowWalker(
        ops, build_operands(normal_form, post_instances, deltas, changed), index_probe
    )
    return walker.evaluate(ops.rows).to_delta()


def truth_table_delta(
    normal_form: NormalForm,
    post_instances: Mapping[str, Relation],
    deltas: Mapping[str, Delta],
) -> Delta:
    """The net change to a view by the paper's Section 5.3 table.

    Each of the 2^k − 1 rows joins OLD (``r − d_r``) or the tagged delta
    per occurrence with the tagged operators — ``insert ⋈ delete``
    pairs dropped — selects and projects; the rows' tagged tuples net
    to the view delta.  Every row is a cross product of its operands
    before the select, so keep the relations small.
    """
    changed = changed_positions_for(normal_form, deltas)
    operands = build_operands(normal_form, post_instances, deltas, changed)
    projection = [qualified for _, qualified in normal_form.projection]
    merged = TaggedRelation(normal_form.output_schema())
    for row in enumerate_delta_rows(len(normal_form.occurrences), changed):
        joined: TaggedRelation | None = None
        for position, choice in enumerate(row):
            operand = operands[position][DELTA if choice is DeltaRowChoice.DELTA else OLD]
            joined = operand if joined is None else tagged_product(joined, operand)
        assert joined is not None
        selected = tagged_select(joined, normal_form.condition)
        for values, tag, count in tagged_project(selected, projection).items():
            merged.add(values, tag, count)
    return merged.to_delta()


def index_probe_for(
    normal_form: NormalForm,
    post_instances: Mapping[str, Relation],
    deltas: Mapping[str, Delta],
) -> IndexProbe:
    """An untagged-operand hook reading the indexes the maintainer binds.

    A probe reads the operand's hash index on its link attributes
    (``index_on``: built on first use, then kept by the relation), one
    charged :meth:`~repro.algebra.relation.HashIndex.probe` per key.
    The index holds the post-commit operand: a stored read keeps each
    tuple's live count; a pre-commit read takes this transaction's
    inserted copies off and its deleted ones back, and adds the deleted
    tuples the operand no longer holds under the probed key.
    """

    def hook(position: int, link_attrs: tuple[str, ...], pre_commit: bool) -> ProbeFn:
        occurrence = normal_form.occurrences[position]
        operand = post_instances[occurrence.name]
        attrs = [occurrence.inverse[q] for q in link_attrs]
        index = operand.index_on(attrs)
        counts = operand.count_map
        if not pre_commit:
            return lambda key: ((values, Tag.OLD, counts[values]) for values in index.probe(key))
        delta = deltas.get(occurrence.name)
        inserted = delta.inserted if delta is not None else {}
        deleted = delta.deleted if delta is not None else {}
        positions = operand.schema.positions(attrs)
        gone: dict[ValueTuple, list[ValueTuple]] = {}
        for values in deleted:
            if values not in counts:
                gone.setdefault(tuple(values[i] for i in positions), []).append(values)

        def probe(key: ValueTuple) -> Iterable[ProbeRow]:
            for values in [*index.probe(key), *gone.get(key, ())]:
                count = counts.get(values, 0) - inserted.get(values, 0) + deleted.get(values, 0)
                if count > 0:
                    yield values, Tag.OLD, count

        return probe

    return hook


def evaluate_normal_form(
    normal_form: NormalForm, instances: Mapping[str, Relation]
) -> Relation:
    """Complete evaluation: the one row with no delta, over every operand
    as stored."""
    ops = RowPlanner(normal_form, changed_positions=()).lower()
    qualified = normal_form.qualified_schema
    operands = [
        {STORED: stored_operand(
            instances[occ.name], qualified.project_schema(occ.qualified_names())
        )}
        for occ in normal_form.occurrences
    ]
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
# Complete re-evaluation: the tree evaluator (Sections 5.2 and 5.3)
# ----------------------------------------------------------------------
#
# Counted operators over Relation (Section 5.2): projection *sums*
# multiplicity counters, join *multiplies* them (the paper's
# ``t(N) = u(N) * v(N)``), selection leaves them unchanged, and
# :func:`evaluate` applies them to a whole expression tree.  Tagged
# operators over TaggedRelation (Section 5.3) behave alike on counts and
# combine tags per the paper's table: ``insert ⋈ delete`` pairs are
# discarded inside the join.  Joins are hash joins keyed on the shared
# attributes; selections are compiled to closures once per call.

Predicate = Callable[[ValueTuple], bool]


def compile_condition(condition: Condition, schema: RelationSchema) -> Predicate:
    """Compile ``condition`` into a fast row predicate for ``schema``.

    Variables are resolved to tuple positions once; the resulting
    closure evaluates one row with no dictionary lookups.
    """
    if condition.is_true():
        return lambda values: True
    if condition.is_false():
        return lambda values: False

    op_funcs = {
        "=": operator.eq,
        "<": operator.lt,
        ">": operator.gt,
        "<=": operator.le,
        ">=": operator.ge,
    }

    compiled_disjuncts: list[tuple[Callable, ...]] = []
    for disjunct in condition.disjuncts:
        atom_preds = []
        for atom in disjunct.atoms:
            func = op_funcs[atom.op]
            offset = atom.offset
            if isinstance(atom.left, Var) and isinstance(atom.right, Var):
                li = schema.index(atom.left.name)
                ri = schema.index(atom.right.name)
                atom_preds.append(
                    lambda v, f=func, li=li, ri=ri, c=offset: f(v[li], v[ri] + c)
                )
            elif isinstance(atom.left, Var):
                li = schema.index(atom.left.name)
                rc = atom.right.value + offset  # type: ignore[union-attr]
                atom_preds.append(lambda v, f=func, li=li, rc=rc: f(v[li], rc))
            elif isinstance(atom.right, Var):
                lc = atom.left.value  # type: ignore[union-attr]
                ri = schema.index(atom.right.name)
                atom_preds.append(
                    lambda v, f=func, lc=lc, ri=ri, c=offset: f(lc, v[ri] + c)
                )
            else:
                truth = atom.truth_value()
                atom_preds.append(lambda v, t=truth: t)
        compiled_disjuncts.append(tuple(atom_preds))

    if len(compiled_disjuncts) == 1:
        preds = compiled_disjuncts[0]
        return lambda values: all(p(values) for p in preds)

    disjuncts = tuple(compiled_disjuncts)
    return lambda values: any(all(p(values) for p in preds) for preds in disjuncts)


# ----------------------------------------------------------------------
# Counted operators over Relation
# ----------------------------------------------------------------------

def select_relation(relation: Relation, condition: Condition) -> Relation:
    """``σ_C(r)`` — counts unchanged (the paper's note on select)."""
    predicate = compile_condition(condition, relation.schema)
    out = Relation(relation.schema)
    for values, count in relation.items():
        charge("tuples_scanned")
        if predicate(values):
            out._counts[values] = count
    return out


def project_relation(relation: Relation, attributes: Sequence[str]) -> Relation:
    """``π_X(r)`` with summed multiplicity counters (Section 5.2)."""
    positions = relation.schema.positions(attributes)
    out_schema = relation.schema.project_schema(attributes)
    out = Relation(out_schema)
    counts = out._counts
    for values, count in relation.items():
        charge("tuples_scanned")
        key = tuple(values[i] for i in positions)
        counts[key] = counts.get(key, 0) + count
    return out


def join_relations(left: Relation, right: Relation) -> Relation:
    """Natural join with multiplied counters (Section 5.2's ⋈).

    Implemented as a hash join: the smaller operand is built into a hash
    table keyed on the shared attributes.  With no shared attributes the
    join degenerates into the cross product, as usual.
    """
    shared = left.schema.shared_names(right.schema)
    out_schema = left.schema.join_schema(right.schema)

    build, probe = (left, right) if len(left) <= len(right) else (right, left)
    build_is_left = build is left

    build_keys = build.schema.positions(shared)
    probe_keys = probe.schema.positions(shared)

    # Positions of the probe-side attributes that are *not* shared,
    # needed to assemble output rows in out_schema order.
    table: dict[ValueTuple, list[tuple[ValueTuple, int]]] = {}
    for values, count in build.items():
        charge("tuples_scanned")
        key = tuple(values[i] for i in build_keys)
        table.setdefault(key, []).append((values, count))

    right_extra_positions = tuple(
        right.schema.index(n) for n in right.schema.names if n not in set(shared)
    )

    out = Relation(out_schema)
    counts = out._counts
    for probe_values, probe_count in probe.items():
        charge("join_probes")
        key = tuple(probe_values[i] for i in probe_keys)
        for build_values, build_count in table.get(key, ()):
            if build_is_left:
                lvals, rvals = build_values, probe_values
            else:
                lvals, rvals = probe_values, build_values
            row = lvals + tuple(rvals[i] for i in right_extra_positions)
            charge("tuples_emitted")
            counts[row] = counts.get(row, 0) + build_count * probe_count
    return out


def rename_relation(relation: Relation, mapping: Mapping[str, str]) -> Relation:
    """``ρ_mapping(r)`` — same tuples under a renamed schema."""
    out = Relation(relation.schema.renamed(mapping))
    out._counts = dict(relation._counts)
    return out


def product_relations(left: Relation, right: Relation) -> Relation:
    """Cross product with multiplied counters; schemas must be disjoint."""
    out_schema = left.schema.concat(right.schema)
    out = Relation(out_schema)
    counts = out._counts
    for lvals, lcount in left.items():
        for rvals, rcount in right.items():
            charge("tuples_emitted")
            counts[lvals + rvals] = lcount * rcount
    return out


def evaluate(expression: Expression, instances: Mapping[str, Relation]) -> Relation:
    """Fully evaluate an SPJ expression — complete re-evaluation.

    ``instances`` maps base-relation names to their current contents.
    This is the paper's "re-evaluating the relational expression that
    defines the view": the baseline the benchmarks measure the
    differential algorithm against, held to the SQL ground truth by the
    tests.
    """
    catalog = {name: rel.schema for name, rel in instances.items()}
    # Validates the tree up front, including condition variable scoping.
    expression.schema(catalog)
    return _evaluate_node(expression, instances)


def _evaluate_node(
    expression: Expression, instances: Mapping[str, Relation]
) -> Relation:
    if isinstance(expression, BaseRef):
        return instances[expression.name]
    if isinstance(expression, Select):
        return select_relation(
            _evaluate_node(expression.child, instances), expression.condition
        )
    if isinstance(expression, Project):
        return project_relation(
            _evaluate_node(expression.child, instances), expression.attributes
        )
    if isinstance(expression, Join):
        return join_relations(
            _evaluate_node(expression.left, instances),
            _evaluate_node(expression.right, instances),
        )
    if isinstance(expression, Product):
        return product_relations(
            _evaluate_node(expression.left, instances),
            _evaluate_node(expression.right, instances),
        )
    if isinstance(expression, Rename):
        return rename_relation(
            _evaluate_node(expression.child, instances), expression.mapping
        )
    if isinstance(expression, Union):
        left = _evaluate_node(expression.left, instances)
        right = _evaluate_node(expression.right, instances)
        return _align_schema(left, right.schema).union(right)
    if isinstance(expression, Difference):
        left = _evaluate_node(expression.left, instances)
        right = _evaluate_node(expression.right, instances)
        return left.difference(_align_schema(right, left.schema))
    if isinstance(expression, Aggregate):
        return aggregate_relation(
            _evaluate_node(expression.child, instances), expression.spec
        )
    raise ExpressionError(f"cannot evaluate {type(expression).__name__}")


def _align_schema(relation: Relation, target: RelationSchema) -> Relation:
    """Rebind a relation to an equally-named schema (domains may differ
    in provenance but names match by Union/Difference validation)."""
    if relation.schema is target or relation.schema == target:
        return relation
    out = Relation(target)
    out._counts = dict(relation._counts)
    return out


def aggregate_relation(relation: Relation, spec: AggregateSpec) -> Relation:
    """Full evaluation: group ``relation`` and render every group.

    The input must produce every key and aggregate input attribute
    (it is typically the evaluated SPJ core).  Each non-empty group
    yields exactly one visible row with count 1 — aggregate view
    contents are sets, the multiplicity machinery lives underneath in
    the core support.  With no grouping keys the whole relation is one
    group, and an empty input yields an empty view (no row, matching
    SQL's ``GROUP BY ()`` with zero groups rather than a NULL row —
    documented in docs/aggregates.md).
    """
    schema = relation.schema
    key_positions = schema.positions(spec.keys)
    plans = column_plans(spec, schema)
    groups: dict[ValueTuple, dict[ValueTuple, int]] = {}
    for values, count in relation.items():
        charge("tuples_scanned")
        key = tuple(values[i] for i in key_positions)
        bag = groups.setdefault(key, {})
        bag[values] = bag.get(values, 0) + count
    counts: dict[ValueTuple, int] = {}
    for key in sorted(groups):
        row = render_group(key, groups[key], plans)
        if row is not None:
            counts[row] = 1
    return Relation.from_counts(spec.output_schema(schema), counts)


def counted_projection_distributes(
    r1: Relation, r2: Relation, attributes: Sequence[str]
) -> bool:
    """Check ``π_X(r₁ − r₂) = π_X(r₁) − π_X(r₂)`` under counted semantics.

    ``r₂`` must be a counted sub-multiset of ``r₁`` for the left side to
    be defined.  The paper claims the redefined projection makes the
    identity hold; the property tests drive this over random relations.
    """
    left = project_relation(r1.difference(r2), attributes)
    right = project_relation(r1, attributes).difference(
        project_relation(r2, attributes)
    )
    return left == right


# ----------------------------------------------------------------------
# Tagged operators over TaggedRelation (Section 5.3)
# ----------------------------------------------------------------------

def tagged_select(relation: TaggedRelation, condition: Condition) -> TaggedRelation:
    """``σ_C`` over tagged tuples; tags pass through unchanged."""
    predicate = compile_condition(condition, relation.schema)
    out = TaggedRelation(relation.schema)
    for values, tag, count in relation.items():
        charge("tuples_scanned")
        if predicate(values):
            out.add(values, tag, count)
    return out


def tagged_project(
    relation: TaggedRelation, attributes: Sequence[str]
) -> TaggedRelation:
    """``π_X`` over tagged tuples; counts sum *per tag*."""
    positions = relation.schema.positions(attributes)
    out = TaggedRelation(relation.schema.project_schema(attributes))
    for values, tag, count in relation.items():
        charge("tuples_scanned")
        out.add(tuple(values[i] for i in positions), tag, count)
    return out


def tagged_join(left: TaggedRelation, right: TaggedRelation) -> TaggedRelation:
    """Natural join over tagged tuples, combining tags per the paper.

    ``insert ⋈ delete`` combinations yield ``IGNORE`` and are dropped
    inside the join, exactly as Section 5.3 specifies.
    """
    shared = left.schema.shared_names(right.schema)
    out_schema = left.schema.join_schema(right.schema)

    left_keys = left.schema.positions(shared)
    right_keys = right.schema.positions(shared)
    shared_set = set(shared)
    right_extra_positions = tuple(
        right.schema.index(n) for n in right.schema.names if n not in shared_set
    )

    table: dict[ValueTuple, list[tuple[ValueTuple, Tag, int]]] = {}
    for values, tag, count in left.items():
        charge("tuples_scanned")
        key = tuple(values[i] for i in left_keys)
        table.setdefault(key, []).append((values, tag, count))

    out = TaggedRelation(out_schema)
    for rvalues, rtag, rcount in right.items():
        charge("join_probes")
        key = tuple(rvalues[i] for i in right_keys)
        for lvalues, ltag, lcount in table.get(key, ()):
            tag = combine_join_tags(ltag, rtag)
            if tag is Tag.IGNORE:
                continue
            row = lvalues + tuple(rvalues[i] for i in right_extra_positions)
            charge("tuples_emitted")
            out.add(row, tag, lcount * rcount)
    return out


def tagged_product(left: TaggedRelation, right: TaggedRelation) -> TaggedRelation:
    """Cross product over tagged tuples (disjoint schemas)."""
    out_schema = left.schema.concat(right.schema)
    out = TaggedRelation(out_schema)
    for lvalues, ltag, lcount in left.items():
        for rvalues, rtag, rcount in right.items():
            tag = combine_join_tags(ltag, rtag)
            if tag is Tag.IGNORE:
                continue
            charge("tuples_emitted")
            out.add(lvalues + rvalues, tag, lcount * rcount)
    return out


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
