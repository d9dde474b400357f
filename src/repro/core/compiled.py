"""Compiled maintenance plans: one per view, built once, executed often.

Algorithm 4.1 is explicitly *amortized*: the invariant portion of the
screening condition is split out (Definition 4.2) so that its
constraint graph and all-pairs shortest paths are built once and reused
for every tuple in a batch.  This module extends the same amortization
from "once per batch" to "once per view registration":

* the Section 4 relevance screens (normalization, invariant/variant
  split, Floyd–Warshall APSP) are built per participating relation at
  compile time and reused by every subsequent transaction;
* the Section 5 row planners (a delta-rooted join order per term,
  hash-join links, selection pushdown, projection positions) are built
  per shape — the tuple of changed occurrence positions — and cached;
* OLD-operand probes bind to persistent hash indexes once, and the
  bindings are kept until an index create/drop, relation drop or view
  re-registration invalidates the whole plan.

A :class:`CompiledViewPlan` is the unit the
:class:`~repro.core.maintainer.ViewMaintainer` keeps on each view's
registry record and every maintenance entry point — immediate commits, deferred ``refresh``, WAL-replay
recovery, changefeed followers, and the network view-server above them
— executes, from the view's first materialization
(:meth:`CompiledViewPlan.evaluate`) on.  The plan is deliberately *stateless with respect to data*:
it holds no tuples, only derived control structure, so executing the
same plan against a replica produces byte-for-byte the leader's result.
"""

from __future__ import annotations

from functools import partial
from types import MappingProxyType
from typing import TYPE_CHECKING, AbstractSet, Callable, Iterable, Mapping, Sequence, cast

from repro.algebra.conditions import Atom, Condition, Conjunction
from repro.algebra.expressions import NormalForm
from repro.algebra.relation import Delta, HashIndex, Relation
from repro.analysis.dependencies import (
    FkReduction,
    ViewKey,
    derive_view_key,
    fk_reduction,
)
from repro.core.codegen import (
    AggregateKernel,
    CODEGEN_VERSION,
    RowKernel,
    Screen,
    compile_kernel,
    compile_shape_kernels,
    generate_aggregate_source,
    generate_shape_source,
    quoted,
    screen_for,
    stage,
)
from repro.core.implication import implies
from repro.core.irrelevance import RelevanceFilter, is_statically_irrelevant
from repro.core.planner import Finish, ProbeTarget, RowPlanner, ShapeOps, shared_atoms
from repro.core.views import ViewDefinition
from repro.instrumentation import CostRecorder, Tally

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.aggregates import AggregateState
    from repro.engine.database import Database

ValueTuple = tuple[int, ...]
CountMap = dict[ValueTuple, int]
Lookup = Callable[[ValueTuple, AbstractSet[ValueTuple]], AbstractSet[ValueTuple]]


class _Lookups(dict[int, Lookup]):
    """One shape's step number → the bucket lookup of the index that
    step's OLD probe reads (:attr:`HashIndex.lookup`); the row kernel
    subscripts it.  A step's entry is resolved on first use, by
    ``index_of`` of its probe target: for a commit, the index the plan
    binds (:meth:`CompiledViewPlan._bind_index`, so an index is still
    created lazily and with no DDL event); for
    :meth:`CompiledViewPlan.evaluate`, a transient one."""

    __slots__ = ("_index_of", "_targets")

    def __init__(
        self,
        index_of: Callable[[ProbeTarget], HashIndex],
        targets: Mapping[int, ProbeTarget],
    ) -> None:
        super().__init__()
        self._index_of = index_of
        self._targets = targets

    def __missing__(self, number: int) -> Lookup:
        lookup = self[number] = self._index_of(self._targets[number]).lookup
        return lookup


_Shape = tuple[tuple[int, ...], ShapeOps, RowKernel, _Lookups]


class CompiledViewPlan:
    """Everything derivable from a view definition ahead of any delta.

    Parameters
    ----------
    definition:
        The view's validated definition (carries the normal form).
    database:
        The database whose base relations, declared constraints and
        keys the plan binds.
    counters:
        The owner's always-on bag — the maintainer's per-view row —
        which counts this compile.  What a maintenance step counts goes
        to the tallies its caller settles there (:meth:`screen`), so
        the per-view counters outlive the plan (eviction, recompiles).
    view_operands:
        The contents of the view's operands that are themselves
        registered views, by name.  Every operand name is resolved to
        its live stored relation here, once — these, or a base relation
        of ``database`` — and from then on the two kinds differ in one
        respect only: a view operand is a bag, so the kernels generated
        for it read each multiplicity from the live count map.
    """

    __slots__ = (
        "definition",
        "normal_form",
        "_operands",
        "_bag_operands",
        "_screens",
        "_static_irrelevant",
        "_planners",
        "_index_bindings",
        "_screen_kernels",
        "_shapes",
        "_aggregate_kernel",
        "_reduction",
        "_view_key",
        "_exec_normal_form",
        "_occurrence_names",
        "_core_schema",
    )

    def __init__(
        self,
        definition: ViewDefinition,
        database: "Database",
        counters: CostRecorder,
        view_operands: Mapping[str, Relation] = MappingProxyType({}),
    ) -> None:
        self.definition = definition
        self.normal_form: NormalForm = definition.normal_form
        self._bag_operands = frozenset(view_operands)
        # Chase-derived facts (keys DDL invalidates the plan, so they
        # are re-proved on every compile, like static irrelevance).
        # Both are gated on set-semantics operands: view operands are
        # bags, for which the multiplicity-≤-1 argument fails.
        self._reduction: FkReduction | None = None
        self._view_key: ViewKey | None = None
        if definition.aggregate is None and not self._bag_operands:
            self._reduction = fk_reduction(self.normal_form, database.keys)
            self._view_key = derive_view_key(self.normal_form, database.keys)
        #: The normal form execution actually runs: the FK-reduced
        #: single-occurrence form when the chase proved one, the
        #: definition's own otherwise.  Planners, kernels, operand
        #: construction and index bindings all speak this form.
        self._exec_normal_form: NormalForm = (
            self._reduction.normal_form
            if self._reduction is not None
            else self.normal_form
        )
        self._occurrence_names = self._exec_normal_form.relation_names
        self._core_schema = self._exec_normal_form.output_schema()
        #: Operand name → its live post-commit relation.  A DDL event
        #: that could replace one invalidates the whole plan.
        self._operands: dict[str, Relation] = {}
        # Compile the Section 4 screens eagerly — one per participating
        # relation; this is the Definition 4.2 invariant split plus its
        # APSP, the paper's built-once structure.
        self._screens: dict[str, RelevanceFilter] = {}
        for name in set(self.normal_form.relation_names):
            operand = (
                view_operands[name]
                if name in view_operands
                else database.relation(name)
            )
            self._operands[name] = operand
            self._screens[name] = RelevanceFilter(
                self.normal_form, name, operand.schema
            )
        # Static irrelevance (the analyzer's check (d), proved here so
        # the *plan itself* carries the optimization): a relation whose
        # declared constraint makes C ∧ K_R unsatisfiable for every
        # occurrence can never contribute a relevant legal update, so
        # its deltas are dropped with zero per-tuple screening.  The
        # proof is part of the compiled plan; declare/drop-constraint
        # DDL events invalidate the plan, re-running it on recompile.
        constraints = database.constraints
        self._static_irrelevant: frozenset[str] = frozenset(
            name
            for name in self._screens
            if (constraint := constraints.get(name)) is not None
            and is_statically_irrelevant(self.normal_form, name, constraint)
        )
        # Row planners are keyed by the changed-position tuple (the
        # shape) and built on first use: a view over p relations has
        # 2^p − 1 possible shapes but a workload usually exercises a
        # handful.
        self._planners: dict[tuple[int, ...], RowPlanner] = {}
        #: Probe target → the operand relation's HashIndex.
        self._index_bindings: dict[ProbeTarget, HashIndex] = {}
        # Generated batch kernels.  Screen kernels are compiled eagerly
        # — they bake the APSP distances into source, so they must be
        # rebuilt whenever the plan is.  Shape kernels compile on first
        # use of each shape, like the planners they mirror.
        #: Relation name → its screen (:class:`~repro.core.codegen.Screen`):
        #: the kernel and its source, or a comment line and no kernel when
        #: every update is relevant or a compile-time proof drops the
        #: relation's deltas wholesale: static irrelevance, or the probe
        #: side of an FK reduction (legal states keep the foreign key
        #: satisfied, and the probe contributes only its referenced key
        #: attributes, which the referencing side already carries).
        self._screen_kernels: dict[str, Screen] = {}
        #: The names of the relations whose deltas survived screening,
        #: in a call's order → everything one execution of that shape
        #: needs that no transaction changes: the changed positions,
        #: their ops, its row kernel and its step → bound index lookup.
        self._shapes: dict[tuple[str, ...], _Shape] = {}
        # The aggregate fold kernel (when the view aggregates) compiles
        # eagerly with the screens: its shape depends only on the spec
        # and core schema, never on the incoming delta.
        self._aggregate_kernel: tuple[str, AggregateKernel] | None = None
        probe_side = self._reduction.probe_relations if self._reduction else ()
        for name in sorted(self._screens):
            if name in self._static_irrelevant or name in probe_side:
                static = name in self._static_irrelevant
                proof = (
                    "statically irrelevant under its declared constraint"
                    if static
                    else "an FK-reduction probe operand"
                )
                self._screen_kernels[name] = Screen(
                    f"# screen: relation {quoted(name)} is {proof}; no kernel\n",
                    None,
                    drop="static_tuples_dropped" if static else "fk_probe_tuples_dropped",
                )
                continue
            self._screen_kernels[name] = screen_for(
                name,
                self._screens[name],
                self._operands[name].schema,
                partial(
                    compile_kernel,
                    name="screen_kernel",
                    filename=f"<codegen:{definition.name}:screen:{name}>",
                ),
            )
        if definition.aggregate is not None:
            source = generate_aggregate_source(
                definition.aggregate, self.normal_form.output_schema()
            )
            self._aggregate_kernel = (
                source,
                compile_kernel(
                    source,
                    "fold_kernel",
                    f"<codegen:{definition.name}:aggregate>",
                ),
            )
        counters.count("codegen_plans_compiled")

    # ------------------------------------------------------------------
    # Section 4: screening
    # ------------------------------------------------------------------
    def screen(
        self,
        relation_name: str,
        delta: Delta,
        counted: Tally,
        charged: Tally | None,
    ) -> Delta | None:
        """What of one relation's delta can affect the view, if any (a
        foreign ``relation_name`` raises :class:`KeyError`).

        This method, :meth:`compute_delta` and :meth:`fold_aggregate`
        run a trigger's stages (:func:`~repro.core.codegen.stage`) for a
        caller that tallies: ``(metric, amount)`` pairs join ``counted``
        (always-on) or ``charged`` (active recorder only; ``None`` when
        none is active), which the caller settles once.
        """
        screen = self._screen_kernels[relation_name]
        return stage(screen.kind, counted, charged, delta, screen.kernel, drop=screen.drop)

    @property
    def static_irrelevant(self) -> frozenset[str]:
        """Relations proven statically irrelevant under their constraints."""
        return self._static_irrelevant

    @property
    def view_operands(self) -> frozenset[str]:
        """Operand names that are themselves registered views (bags)."""
        return self._bag_operands

    @property
    def execution_normal_form(self) -> NormalForm:
        """The normal form maintenance actually executes.

        The FK-reduced single-occurrence form when the chase over
        declared keys proved the probe lookups away; otherwise the
        definition's own normal form.
        """
        return self._exec_normal_form

    @property
    def reduction(self) -> FkReduction | None:
        """The chase's FK-join reduction, when one was proved."""
        return self._reduction

    @property
    def view_key(self) -> ViewKey | None:
        """The chase's derived view key, when one was proved."""
        return self._view_key

    @property
    def counter_free(self) -> bool:
        """Whether the row kernels' finishes pin the Section 5.2 counters to one.

        True exactly when the chase proved a view key, so every view
        row has multiplicity ≤ 1.  The reference functions always keep
        full counters — they are the parity oracle.
        """
        return self._view_key is not None

    def screens(self) -> Mapping[str, RelevanceFilter]:
        """The compiled per-relation relevance filters (read-only)."""
        return dict(self._screens)

    # ------------------------------------------------------------------
    # Section 5: planners and execution
    # ------------------------------------------------------------------
    def planner_for(self, changed_positions: Iterable[int]) -> RowPlanner:
        """The cached row planner for one shape."""
        key = tuple(sorted(set(changed_positions)))
        planner = self._planners.get(key)
        if planner is None:
            planner = RowPlanner(self._exec_normal_form, key)
            self._planners[key] = planner
        return planner

    def shape_ops(self, changed_positions: Iterable[int]) -> ShapeOps:
        """One shape lowered with this plan's bag operands
        and counter-free proof: what its kernels, ``explain``, the index
        advisor and the analyzer read."""
        return self.planner_for(changed_positions).lower(
            self._bag_operands, self.counter_free
        )

    def compute_delta(
        self, deltas: Mapping[str, Delta], counted: Tally, charged: Tally | None
    ) -> tuple[CountMap, CountMap]:
        """The view's netted insert and delete count maps — fresh
        dicts — for one transaction's screened deltas, none empty: the
        shape's row kernel, compiled on first use."""
        names = tuple(deltas)
        shape = self._shapes.get(names) or self._compile_shape(names, counted)
        operands = list(map(deltas.get, self._occurrence_names))
        return stage("rows", counted, charged, shape, operands, self._old_counts)

    def fold_aggregate(
        self,
        state: "AggregateState",
        inserted: CountMap,
        deleted: CountMap,
        counted: Tally,
        charged: Tally | None,
    ) -> tuple[CountMap, CountMap]:
        """Fold one core delta's count maps into the support state;
        the visible delta's count maps out (a changed group's old row
        out and new row in).  An underflowing delete raises with the
        state untouched."""
        assert self._aggregate_kernel is not None, "not an aggregate view"
        fold, name = self._aggregate_kernel[1], self.definition.name
        return stage("fold", counted, charged, fold, state, name, inserted, deleted)

    # ------------------------------------------------------------------
    # Complete evaluation
    # ------------------------------------------------------------------
    def evaluate(self, counted: Tally, charged: Tally | None) -> Relation:
        """The view's stored contents — an aggregate view's core rows —
        evaluated from scratch on the kernels commits run.

        Complete evaluation is one term of the delta rule: insert all
        of an operand ``r`` into an empty ``r``, and the view's delta is
        ``i_r ⋈ s ⋈ …`` — the shape ``(r,)`` that every commit on ``r``
        executes.  Its row kernel runs with the whole count map of the
        largest operand (ties to the first occurrence) as ``inserted``,
        and every other operand read as it stands.  An OLD probe
        reads an index the operand already carries or one built for
        this call alone, never registered: evaluation creates and binds
        no index and fires no DDL event.

        Tallies go to ``counted`` and ``charged`` as in :meth:`screen`.
        """
        operands = [self._operands[name] for name in self._occurrence_names]
        sizes = [len(operand) for operand in operands]
        if not all(sizes):
            # A join with an empty operand is empty.
            return Relation(self._core_schema)
        largest = sizes.index(max(sizes))
        root_name, root = self._occurrence_names[largest], operands[largest]
        names = (root_name,)
        _, ops, row_kernel, _ = self._shapes.get(names) or self._compile_shape(names, counted)

        def transient(target: ProbeTarget) -> HashIndex:
            name, attrs = target
            operand = self._operands[name]
            return operand.indexes.get(attrs) or HashIndex(operand, attrs)

        # The kernel only reads a delta's maps: the live one will do.
        everything = Delta.adopt(root.schema, cast(CountMap, root.count_map), {})
        inserted, _, scanned, probes, emitted, _, looked_up = row_kernel(
            [everything if name == root_name else None for name in self._occurrence_names],
            self._old_counts,
            _Lookups(transient, ops.probe_targets),
        )
        counted += (("codegen_batch_rows", ops.rows_evaluated),)
        if charged is not None:
            charged += (
                ("tuples_scanned", scanned),
                ("join_probes", probes),
                ("index_probes", looked_up),
                ("tuples_emitted", emitted),
            )
        return Relation.from_counts(self._core_schema, inserted)

    def _compile_shape(self, names: tuple[str, ...], counted: Tally) -> _Shape:
        """One shape's execution entry, compiled on first
        use and memoised under ``names``."""
        changed = self._changed(names)
        # The same names in another order reach the same shape.
        shape = next((s for s in self._shapes.values() if s[0] == changed), None)
        if shape is None:
            ops = self.shape_ops(changed)
            row_kernel = compile_shape_kernels(ops, self.definition.name)
            counted += (("codegen_plans_compiled", 1),)
            shape = (changed, ops, row_kernel, _Lookups(self._bind_index, ops.probe_targets))
        self._shapes[names] = shape
        return shape

    def _changed(self, names: Iterable[str]) -> tuple[int, ...]:
        """The occurrence positions of the relations ``names``."""
        return tuple(i for i, name in enumerate(self._occurrence_names) if name in names)

    # ------------------------------------------------------------------
    # Traversals shared across views (Sellis's multiple-query
    # optimization, over the views one commit reaches)
    # ------------------------------------------------------------------
    def takes_traversal_of(self, other: "CompiledViewPlan") -> bool:
        """Whether this view's rows can come from ``other``'s traversal
        of any shape: both join the same occurrences of the same
        operands, and every disjunct of this view's core implies each
        atom ``other``'s traversal applies as it joins
        (:func:`~repro.core.implication.implies`), so a finish
        re-checking this view's other atoms (:meth:`finishes_over`)
        keeps exactly its rows.  Equal cores take each other's."""
        mine, theirs = self._exec_normal_form, other._exec_normal_form
        if self._bag_operands != other._bag_operands or _layout(mine) != _layout(theirs):
            return False
        if _always_empty(mine) or _always_empty(theirs):
            return False
        pushed = [atom for atom in shared_atoms(theirs.condition) if not atom.is_ground()]
        # An atom a disjunct holds needs no solver, and neither does one
        # over a variable it leaves free (so it cannot imply the atom).
        return all(
            atom in d.atoms or (atom.variables() <= d.variables() and implies(d, atom))
            for d in mine.condition.disjuncts for atom in pushed
        )

    def finishes_over(self, ops: ShapeOps) -> tuple[Finish, ...]:
        """This view's finishes over ``ops``, a traversal it takes
        (:meth:`takes_traversal_of`): per complete order, its own
        projection and counters and a re-check of its atoms the
        traversal did not apply."""
        nf = self._exec_normal_form
        condition = _recheck(nf, ops.planner.pushed_atoms)
        return tuple(
            finish._replace(
                condition=condition,
                positions=tuple(finish.schema.index(q) for _, q in nf.projection),
                counter_free=self.counter_free,
            )
            for finish in ops.finishes
        )

    def recheck_over(self, other: "CompiledViewPlan") -> Condition | None:
        """What this view's finish re-checks over ``other``'s traversal
        (:meth:`finishes_over`): None when nothing is left to check."""
        return _recheck(self._exec_normal_form, shared_atoms(other._exec_normal_form.condition))

    def shared_shape(
        self, names: tuple[str, ...], members: Sequence["CompiledViewPlan"], first: str
    ) -> _Shape:
        """The execution entry of this view's traversal of the shape of
        ``names``, with one finish per view of ``members`` (each takes
        this traversal): its kernel returns each member's accumulators
        in turn.  It is named for view ``first``, in whose turn it
        runs."""
        ops = self.shape_ops(self._changed(names))
        source = generate_shape_source(ops, [member.finishes_over(ops) for member in members])
        shape_tag = "".join(str(p) for p in ops.planner.changed)
        kernel = compile_kernel(source, "row_kernel", f"<codegen:{first}:shape{shape_tag}:shared>")
        return (ops.planner.changed, ops, kernel, _Lookups(self._bind_index, ops.probe_targets))

    # ------------------------------------------------------------------
    # Operand resolution
    # ------------------------------------------------------------------
    def _old_counts(self, position: int) -> Mapping[ValueTuple, int]:
        """The live count map of one occurrence's operand (kernels)."""
        return self._operands[self._occurrence_names[position]].count_map

    # ------------------------------------------------------------------
    # Index bindings
    # ------------------------------------------------------------------
    def _bind_index(self, target: ProbeTarget) -> HashIndex:
        """Resolve (and cache) the hash index one OLD probe uses.

        An operand lazily gets its covering index on first use, from
        the operand relation itself: an index nobody dropped changes no
        plan's meaning, so no DDL event fires.
        """
        binding = self._index_bindings.get(target)
        if binding is None:
            name, attrs = target
            binding = self._index_bindings[target] = self._operands[name].index_on(attrs)
        return binding

    def index_bindings(self) -> dict[ProbeTarget, HashIndex]:
        """A snapshot of the currently resolved probe bindings: the
        hash index of its operand relation each OLD probe executed so
        far reads, by probe target (operand, attributes)."""
        return dict(self._index_bindings)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _listed_shapes(self) -> list[tuple[int, ...]]:
        """The shapes introspection covers: each single-relation shape,
        then (for a join) the one changing every operand."""
        width = len(self._exec_normal_form.occurrences)
        return [(i,) for i in range(width)] + [tuple(range(width))] * (width > 1)

    def recommended_indexes(self) -> tuple[ProbeTarget, ...]:
        """The probe targets of every single-relation shape, sorted: the
        indexes the lazy path would create on first use.  A term's join
        order depends on its delta alone, so a shape changing several
        relations probes no target theirs do not."""
        width = len(self._exec_normal_form.occurrences)
        return tuple(sorted({
            target
            for i in range(width)
            for target in self.shape_ops((i,)).probe_targets.values()
        }))

    def kernel_source(self) -> str:
        """The complete generated source for this plan, deterministic.

        One listing: a version header, the screen kernel per
        participating relation (sorted by name; a comment line naming
        the proof for a relation whose deltas are dropped unscreened),
        then the row kernels for every single-relation shape plus the
        all-relations shape.  Generation is a pure function of the plan structure, so two
        compiles of the same definition against the same catalog and
        constraints emit byte-identical text — the property the CLI's
        ``--source`` determinism check asserts.
        """
        name = self.definition.name
        parts = [
            f"# generated kernels for view {quoted(name)} "
            f"(codegen v{CODEGEN_VERSION})\n"
        ]
        if self._reduction is not None:
            parts.append(
                f"# fk reduction: shapes cover the reduced normal form "
                f"over {quoted(self._reduction.delta_relation)} alone; "
                "deltas on "
                f"{', '.join(map(quoted, self._reduction.probe_relations))} "
                "are screened out wholesale\n"
            )
        for relation_name in sorted(self._screen_kernels):
            parts.append(self._screen_kernels[relation_name].source)
        for shape in self._listed_shapes():
            parts.append(generate_shape_source(self.shape_ops(shape)))
        if self._aggregate_kernel is not None:
            parts.append(self._aggregate_kernel[0])
        return "\n".join(parts)

    def describe(self, changed_relations: Iterable[str]) -> str:
        """The compiled plan, as text, for a hypothetical update.

        Sections: the Definition 4.2 invariant/variant split per changed
        relation (the screening plan), the cached row plan for the
        resulting shape (each term's join order, hash links, pushdown),
        and the hash index each probe binds.  This is what the CLI's
        ``explain`` verb prints.
        """
        nf = self._exec_normal_form
        changed_set = set(changed_relations)
        probe_relations: frozenset[str] = (
            frozenset(self._reduction.probe_relations)
            if self._reduction is not None
            else frozenset()
        )
        positions = [
            i for i, occ in enumerate(nf.occurrences) if occ.name in changed_set
        ]
        name = self.definition.name
        if not positions:
            if changed_set & probe_relations:
                assert self._reduction is not None
                return (
                    f"view {name!r}: {sorted(changed_set & probe_relations)} "
                    "are FK-reduction probe operands; their deltas are "
                    "proven irrelevant and dropped wholesale "
                    f"({self._reduction.describe()})"
                )
            return (
                f"view {name!r}: none of {sorted(changed_set)} participate; "
                "no maintenance needed"
            )
        lines = [f"compiled plan for view {name!r}"]
        if self._reduction is not None:
            lines.append(
                "fk reduction (chase over declared keys): "
                + self._reduction.describe()
            )
            for step in self._reduction.proof:
                lines.append(f"  {step}")
        if self._view_key is not None:
            lines.append(
                "derived view key (chase over declared keys): "
                + self._view_key.describe()
            )
            for step in self._view_key.proof:
                lines.append(f"  {step}")
            lines.append(
                "  multiplicity ≤ 1 proven; counter-free finishes"
            )
        lines.append("relevance screens (Definition 4.2 split, compiled once):")
        for relation_name in sorted(changed_set & self._screens.keys()):
            if relation_name in self._static_irrelevant:
                lines.append(
                    f"  {relation_name}: statically irrelevant under its "
                    "declared constraint; deltas dropped without per-tuple "
                    "screening"
                )
                continue
            if relation_name in probe_relations:
                lines.append(
                    f"  {relation_name}: FK-reduction probe operand; deltas "
                    "proven irrelevant and dropped without per-tuple "
                    "screening"
                )
                continue
            lines.append(self._screens[relation_name].describe())
        ops = self.shape_ops(positions)
        lines.append(ops.describe())
        lines.append("index bindings (OLD-operand probes):")
        for number, (operand, attrs) in ops.probe_targets.items():
            state = (
                "bound"
                if attrs in self._operands[operand].indexes
                else "will be created on first use"
            )
            lines.append(
                f"  step {number}: probes hash index "
                f"{operand}({', '.join(attrs)}) [{state}]"
            )
        if not ops.probe_targets:
            lines.append("  (none: no OLD operand is joined by equality links)")
        if self.definition.aggregate is not None:
            lines.append(
                "aggregate stage (generated fold kernel): "
                f"{self.definition.aggregate}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        shapes = len(self._planners)
        possible = 1 << len(self._exec_normal_form.occurrences)
        return (
            f"<CompiledViewPlan {self.definition.name!r} "
            f"{len(self._screens)} screens, {shapes}/{possible} planner shapes, "
            f"{len(self._index_bindings)} index bindings>"
        )


def _layout(nf: NormalForm) -> tuple:
    """What fixes a normal form's joined rows: its occurrences, in
    order, and how each names its attributes."""
    return tuple((occ.name, tuple(occ.rename.items())) for occ in nf.occurrences)


def _always_empty(nf: NormalForm) -> bool:
    """A false condition, or a false ground atom every disjunct holds."""
    condition = nf.condition
    return not condition.disjuncts or any(
        atom.is_ground() and not atom.truth_value() for atom in shared_atoms(condition)
    )


def _recheck(nf: NormalForm, pushed: Iterable[Atom]) -> Condition | None:
    """``nf``'s condition less the atoms ``pushed`` (a traversal applied
    them); None when some disjunct has nothing left."""
    applied = set(pushed)
    rest = [[atom for atom in d.atoms if atom not in applied] for d in nf.condition.disjuncts]
    return None if any(not atoms for atoms in rest) else Condition(map(Conjunction, rest))
