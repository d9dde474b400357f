"""Compiled maintenance plans: one per view, built once, executed often.

Algorithm 4.1 is explicitly *amortized*: the invariant portion of the
screening condition is split out (Definition 4.2) so that its
constraint graph and all-pairs shortest paths are built once and reused
for every tuple in a batch.  This module extends the same amortization
from "once per batch" to "once per view registration":

* the Section 4 relevance screens (normalization, invariant/variant
  split, Floyd–Warshall APSP) are built per participating relation at
  compile time and reused by every subsequent transaction;
* the Section 5 row planners (a delta-rooted join order per row,
  hash-join links, selection pushdown, projection positions) are built
  per truth-table shape — the tuple of changed occurrence positions —
  and cached;
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

from types import MappingProxyType
from typing import TYPE_CHECKING, AbstractSet, Callable, Iterable, Iterator, Mapping, cast

from repro.algebra.expressions import NormalForm
from repro.algebra.relation import Delta, HashIndex, Relation
from repro.algebra.tags import Tag
from repro.algebra.schema import RelationSchema
from repro.analysis.dependencies import (
    FkReduction,
    ViewKey,
    derive_view_key,
    fk_reduction,
)
from repro.core.codegen import (
    AggregateKernel,
    CODEGEN_VERSION,
    MAX_CODEGEN_ROWS,
    ScreenKernel,
    ShapeKernels,
    compile_kernel,
    compile_shape_kernels,
    generate_aggregate_source,
    generate_screen_source,
    generate_shape_source,
    quoted,
)
from repro.core.counting import net_counts
from repro.core.differential import execute_planner
from repro.core.irrelevance import RelevanceFilter, is_statically_irrelevant
from repro.core.planner import IndexProbe, ProbeFn, ProbeRow, RowPlanner, StepPlan, evaluate_normal_form
from repro.core.truthtable import count_delta_rows
from repro.core.views import ViewDefinition
from repro.errors import MaintenanceError
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
    ``index_of(step)``: for a commit, the index the plan binds
    (:meth:`CompiledViewPlan._bind_index`, so an index is still created
    lazily and with no DDL event); for :meth:`CompiledViewPlan.evaluate`,
    a transient one."""

    __slots__ = ("_index_of", "_steps")

    def __init__(
        self,
        index_of: Callable[[StepPlan], HashIndex],
        steps: tuple[StepPlan, ...],
    ) -> None:
        super().__init__()
        self._index_of = index_of
        self._steps = steps

    def __missing__(self, number: int) -> Lookup:
        lookup = self[number] = self._index_of(self._steps[number]).lookup
        return lookup


_Shape = tuple[tuple[int, ...], RowPlanner, ShapeKernels | None, _Lookups]


class CompiledViewPlan:
    """Everything derivable from a view definition ahead of any delta.

    Parameters
    ----------
    definition:
        The view's validated definition (carries the normal form).
    database:
        The database whose base relations, declared constraints and
        keys the plan binds.
    catalog:
        Schema catalog at compile time (base relations *and* upstream
        views), used to build relevance screens per operand relation.
    counters:
        The owner's always-on bag — the maintainer's per-view row —
        which counts this compile.  What a maintenance call counts goes
        to the tally its caller settles there (:meth:`maintain`), so
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
        catalog: Mapping[str, RelationSchema],
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
        schemas: dict[str, RelationSchema] = {}
        #: Operand name → its live post-commit relation.  A DDL event
        #: that could replace one invalidates the whole plan.
        self._operands: dict[str, Relation] = {}
        # Compile the Section 4 screens eagerly — one per participating
        # relation; this is the Definition 4.2 invariant split plus its
        # APSP, the paper's built-once structure.
        self._screens: dict[str, RelevanceFilter] = {}
        for name in set(self.normal_form.relation_names):
            try:
                schema = catalog[name]
            except KeyError:
                raise MaintenanceError(
                    f"cannot compile plan for view {definition.name!r}: "
                    f"operand {name!r} is not in the catalog"
                ) from None
            schemas[name] = schema
            self._operands[name] = (
                view_operands[name]
                if name in view_operands
                else database.relation(name)
            )
            self._screens[name] = RelevanceFilter(self.normal_form, name, schema)
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
        # truth-table shape) and built on first use: a view over p
        # relations has 2^p − 1 possible shapes but a workload usually
        # exercises a handful.
        self._planners: dict[tuple[int, ...], RowPlanner] = {}
        #: (position, link_attrs) → the operand relation's HashIndex.
        self._index_bindings: dict[
            tuple[int, tuple[str, ...]], HashIndex
        ] = {}
        # Generated batch kernels.  Screen kernels are compiled eagerly
        # — they bake the APSP distances and any static-irrelevance
        # proof into source, so they must be rebuilt whenever the plan
        # is (constraint DDL invalidates the plan, not just a flag).
        # Shape kernels compile on first use of each truth-table shape,
        # like the planners they mirror.
        self._screen_kernels: dict[str, tuple[str, ScreenKernel]] = {}
        #: The names of the relations whose deltas survived screening,
        #: in a call's order → everything one execution of that shape
        #: needs that no transaction changes: the changed positions,
        #: their planner, its kernels (None past the row cap) and its
        #: step → bound index lookup.
        self._shapes: dict[tuple[str, ...], _Shape] = {}
        # The aggregate fold kernel (when the view aggregates) compiles
        # eagerly with the screens: its shape depends only on the spec
        # and core schema, never on the incoming delta.
        self._aggregate_kernel: tuple[str, AggregateKernel] | None = None
        for name in sorted(self._screens):
            source = generate_screen_source(
                name,
                self._screens[name],
                schemas[name],
                statically_irrelevant=name in self._static_irrelevant,
            )
            kernel = compile_kernel(
                source,
                "screen_kernel",
                f"<codegen:{definition.name}:screen:{name}>",
            )
            self._screen_kernels[name] = (source, kernel)
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
    # One maintenance call
    # ------------------------------------------------------------------
    def maintain(
        self,
        deltas: Mapping[str, Delta],
        aggregate_state: "AggregateState | None",
        counted: Tally,
        charged: Tally | None,
    ) -> Delta | None:
        """One view's whole pipeline for one commit's non-empty operand
        deltas: the view delta, or ``None`` when every tuple was
        screened out — the payoff Section 4 is after.

        The three steps hand on the kernels' own count maps and append
        ``(metric, amount)`` pairs to ``counted`` (always-on) or
        ``charged`` (active recorder only; ``None`` when none is
        active), which the caller settles once
        (:meth:`~repro.instrumentation.CostRecorder.settle`).
        """
        relevant: dict[str, Delta] = {}
        for relation_name, delta in deltas.items():
            screened = self.screen(relation_name, delta, counted, charged)
            if screened is not None:
                relevant[relation_name] = screened
        if not relevant:
            return None
        inserted, deleted = self.compute_delta(relevant, counted, charged)
        if aggregate_state is None:
            return Delta.adopt(self._core_schema, inserted, deleted)
        # That was a delta over the SPJ *core*; the fold turns it into
        # the visible group-row delta every downstream consumer sees.
        inserted, deleted = self.fold_aggregate(
            aggregate_state, inserted, deleted, counted, charged
        )
        return Delta.adopt(aggregate_state.visible_schema, inserted, deleted)

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
        """What of one relation's delta can affect the view, if any."""
        n = len(delta.inserted) + len(delta.deleted)
        if relation_name not in self._screens:
            # The relation does not participate in the view: everything
            # is irrelevant (Theorem 4.1's trivial case).
            counted += (("tuples_screened", n), ("tuples_irrelevant", n))
            return None
        static = relation_name in self._static_irrelevant
        if static or (
            self._reduction is not None
            and relation_name in self._reduction.probe_relations
        ):
            # Dropped with no per-tuple work by a compile-time proof,
            # and counted under it: no legal update to this relation
            # can affect the view, or the FK reduction proved the same
            # of a probe side (legal states keep the foreign key
            # satisfied, and the probe contributes only its referenced
            # key attributes, which the referencing side already
            # carries).
            counted += (
                ("tuples_screened", n),
                ("tuples_irrelevant", n),
                ("tuples_static_dropped", n),
                ("static_tuples_dropped", n if static else 0),
                ("fk_probe_tuples_dropped", 0 if static else n),
            )
            return None
        # The generated kernel is functionally identical to
        # RelevanceFilter.screen_delta, every instrumentation counter
        # included: it returns its per-tuple ground-eval and
        # bound-probe tallies so they are charged in bulk here.
        inserted, deleted, ground_evals, bound_probes = self._screen_kernels[
            relation_name
        ][1](delta.inserted, delta.deleted)
        counted += (
            ("tuples_screened", n),
            ("tuples_irrelevant", n - len(inserted) - len(deleted)),
            ("codegen_batch_rows", n),
        )
        if charged is not None:
            charged += (
                ("filter_tuples_checked", n),
                ("filter_ground_evals", ground_evals),
                ("filter_bound_probes", bound_probes),
            )
        if inserted is delta.inserted:
            # A constant-TRUE condition: the kernel passed its input on.
            return delta
        if inserted or deleted:
            return Delta.adopt(delta.schema, inserted, deleted)
        return None

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
        """Whether apply kernels pin the Section 5.2 counters to one.

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
        """The cached row planner for one truth-table shape."""
        key = tuple(sorted(set(changed_positions)))
        planner = self._planners.get(key)
        if planner is None:
            planner = RowPlanner(self._exec_normal_form, key)
            self._planners[key] = planner
        return planner

    def compute_delta(
        self, deltas: Mapping[str, Delta], counted: Tally, charged: Tally | None
    ) -> tuple[CountMap, CountMap]:
        """The view's netted insert and delete count maps — fresh
        dicts — for one transaction's screened deltas, none empty.

        Runs the shape's generated row kernel, the batch counterpart of
        :func:`repro.core.differential.execute_planner`, tallying the
        same counters in bulk from what the kernel returns.
        """
        names = tuple(deltas)
        shape = self._shapes.get(names) or self._compile_shape(names, counted)
        changed, planner, kernels, lookups = shape
        if kernels is None:
            # The shape's truth table exceeds MAX_CODEGEN_ROWS: the
            # reference planner executes it instead, tuple by tuple,
            # charging as it goes.
            fallback = sum(len(d.inserted) + len(d.deleted) for d in deltas.values())
            counted += (("codegen_fallback_tuples", fallback),)
            delta = execute_planner(
                planner,
                self._operands,
                deltas,
                changed,
                index_probe=self.index_probe_for(deltas),
            )
            return delta.inserted, delta.deleted
        ins, dele, scanned, probes, emitted, ignored, looked_up = kernels.row_kernel(
            list(map(deltas.get, self._occurrence_names)), self._old_counts, lookups
        )
        rows = kernels.rows_evaluated
        counted += (("codegen_batch_rows", rows),)
        if charged is not None:
            charged += (
                ("differential_updates", 1),
                ("truth_table_rows", rows),
                ("delta_rows_evaluated", rows),
                ("subexpression_memo_hits", kernels.memo_hits),
                ("tuples_scanned", scanned),
                ("join_probes", probes),
                ("index_probes", looked_up),
                ("tuples_emitted", emitted),
                ("tuples_ignored", ignored),
            )
        if ins and dele:
            net_counts(ins, dele)
        return ins, dele

    def fold_aggregate(
        self,
        state: "AggregateState",
        inserted: CountMap,
        deleted: CountMap,
        counted: Tally,
        charged: Tally | None,
    ) -> tuple[CountMap, CountMap]:
        """Fold one core delta's count maps into the support state;
        the visible delta's count maps out.

        The final stage of aggregate maintenance: the Section 5 pipeline
        produced the core delta over the view's SPJ core, and this fold
        applies it to the per-group support bags and accumulators,
        re-rendering every touched group.  A group whose visible row
        changes contributes a delete of the old row and an insert of
        the new one (a keyed upsert, from the changefeed's point of
        view); a group that appears or disappears contributes just the
        insert or delete.

        Runs the generated fold kernel, which keeps bags and
        accumulators in step and renders from the accumulators; the
        reference :meth:`~repro.core.aggregates.AggregateState.fold`
        renders the same rows from the bags.  The counters —
        ``aggregate_rows_folded``, ``aggregate_groups_touched`` and
        ``aggregate_support_rescanned`` — are tallied here in the
        driver.  An underflowing delete raises with the state untouched.
        """
        assert self._aggregate_kernel is not None, "not an aggregate view"
        rows = len(inserted) + len(deleted)
        inserted, deleted, touched, rescanned, bad = self._aggregate_kernel[1](
            state.groups, state.accumulators, inserted, deleted
        )
        counted += (("codegen_batch_rows", rows),)
        if charged is not None:
            # An underflow touched and rescanned nothing.
            charged += (
                ("aggregate_rows_folded", rows),
                ("aggregate_groups_touched", touched),
                ("aggregate_support_rescanned", rescanned),
            )
        if bad is not None:
            raise MaintenanceError(
                f"aggregate maintenance for view {self.definition.name!r} "
                f"would delete more copies of core row {bad} than the "
                "group support holds"
            )
        return inserted, deleted

    # ------------------------------------------------------------------
    # Complete evaluation
    # ------------------------------------------------------------------
    def evaluate(self, counted: Tally, charged: Tally | None) -> Relation:
        """The view's stored contents — an aggregate view's core rows —
        evaluated from scratch on the kernels commits run.

        Complete evaluation is one row of the Section 5.3 truth table:
        insert all of an operand ``r`` into an empty ``r``, and only
        ``i_r ⋈ s ⋈ …`` of the expansion is non-empty — the shape
        ``(r,)`` that every commit on ``r`` executes.  Its row kernel
        runs with the whole count map of the largest operand (ties to
        the first occurrence) as ``inserted``, so OLD ``r − d_r`` is
        empty, and every other operand read as it stands.  An OLD probe
        reads an index the operand already carries or one built for
        this call alone, never registered: evaluation creates and binds
        no index and fires no DDL event.  A shape past
        :data:`~repro.core.codegen.MAX_CODEGEN_ROWS` runs on
        :func:`~repro.core.planner.evaluate_normal_form` instead.

        Tallies go to ``counted`` and ``charged`` as in :meth:`maintain`.
        """
        operands = [self._operands[name] for name in self._occurrence_names]
        sizes = [len(operand) for operand in operands]
        if not all(sizes):
            # A join with an empty operand is empty.
            return Relation(self._core_schema)
        largest = sizes.index(max(sizes))
        root_name, root = self._occurrence_names[largest], operands[largest]
        names = (root_name,)
        _, planner, kernels, _ = self._shapes.get(names) or self._compile_shape(names, counted)
        if kernels is None:
            return evaluate_normal_form(self._exec_normal_form, self._operands)

        def transient(step: StepPlan) -> HashIndex:
            name, attrs = self._probe_target(step.position, step.link_attr_names)
            operand = self._operands[name]
            return operand.indexes.get(attrs) or HashIndex(operand, attrs)

        # The kernel only reads a delta's maps: the live one will do.
        everything = Delta.adopt(root.schema, cast(CountMap, root.count_map), {})
        inserted, _, scanned, probes, emitted, _, looked_up = kernels.row_kernel(
            [everything if name == root_name else None for name in self._occurrence_names],
            self._old_counts,
            _Lookups(transient, planner.distinct_steps),
        )
        counted += (("codegen_batch_rows", kernels.rows_evaluated),)
        if charged is not None:
            charged += (
                ("tuples_scanned", scanned),
                ("join_probes", probes),
                ("index_probes", looked_up),
                ("tuples_emitted", emitted),
            )
        return Relation.from_counts(self._core_schema, inserted)

    def _compile_shape(self, names: tuple[str, ...], counted: Tally) -> _Shape:
        """One truth-table shape's execution entry, compiled on first
        use and memoised under ``names``."""
        changed = tuple(
            i for i, name in enumerate(self._occurrence_names) if name in names
        )
        # The same names in another order reach the same shape.
        shape = next((s for s in self._shapes.values() if s[0] == changed), None)
        if shape is None:
            planner = self.planner_for(changed)
            kernels = compile_shape_kernels(
                planner,
                self.definition.name,
                counter_free=self.counter_free,
                bag_operands=self._bag_operands,
            )
            if kernels is not None:
                counted += (("codegen_plans_compiled", 1),)
            lookups = _Lookups(
                lambda step: self._bind_index(step.position, step.link_attr_names),
                planner.distinct_steps,
            )
            shape = (changed, planner, kernels, lookups)
        self._shapes[names] = shape
        return shape

    # ------------------------------------------------------------------
    # Operand resolution
    # ------------------------------------------------------------------
    def _old_counts(self, position: int) -> Mapping[ValueTuple, int]:
        """The live count map of one occurrence's operand (kernels)."""
        return self._operands[self._occurrence_names[position]].count_map

    # ------------------------------------------------------------------
    # Index bindings
    # ------------------------------------------------------------------
    def _bind_index(
        self, position: int, link_attrs: tuple[str, ...]
    ) -> HashIndex:
        """Resolve (and cache) the hash index one OLD probe uses.

        An operand lazily gets its covering index on first use, from
        the operand relation itself: an index nobody dropped changes no
        plan's meaning, so no DDL event fires.
        """
        key = (position, link_attrs)
        binding = self._index_bindings.get(key)
        if binding is None:
            name, attrs = self._probe_target(position, link_attrs)
            binding = self._index_bindings[key] = self._operands[name].index_on(attrs)
        return binding

    def _probe_target(
        self, position: int, link_attrs: tuple[str, ...]
    ) -> tuple[str, tuple[str, ...]]:
        """The operand one OLD probe reads and the attributes of it
        the probe's link attributes name."""
        occurrence = self._exec_normal_form.occurrences[position]
        return occurrence.name, tuple(occurrence.inverse[q] for q in link_attrs)

    def index_probe_for(self, deltas: Mapping[str, Delta]) -> IndexProbe:
        """The per-execution OLD-operand probe hook.

        Bindings are plan-level (resolved once, invalidated with the
        plan); the screening of probe results against the transaction's
        inserted tuples is per-execution — indexes store the
        *post-commit* relation while OLD semantics wants ``r − d_r``.
        A tuple's surviving multiplicity is its live count less this
        transaction's inserted copies — for a set operand (count one)
        that is "an inserted tuple is not OLD", for a bag operand the
        same subtraction the generated scan performs.  Inserts the
        relevance filter dropped survive in probe results harmlessly:
        an irrelevant tuple fails the view condition in every
        combination.
        """

        def probe_hook(position: int, link_attrs: tuple[str, ...]) -> ProbeFn:
            index = self._bind_index(position, link_attrs)
            delta = deltas.get(self._occurrence_names[position])
            inserted = delta.inserted if delta is not None else {}
            counts = self._old_counts(position)

            def probe(key: ValueTuple) -> Iterator[ProbeRow]:
                for values in index.probe(key):
                    remaining = counts[values] - inserted.get(values, 0)
                    if remaining > 0:
                        yield values, Tag.OLD, remaining

            return probe

        return probe_hook

    def index_bindings(self) -> dict[tuple[int, tuple[str, ...]], HashIndex]:
        """A snapshot of the currently resolved probe bindings: the
        hash index of its operand relation each OLD probe executed so
        far reads, by (position, link attributes)."""
        return dict(self._index_bindings)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def kernel_source(self) -> str:
        """The complete generated source for this plan, deterministic.

        One listing: a version header, the screen kernel per
        participating relation (sorted by name), then the row/apply
        kernels for every single-relation truth-table shape plus the
        all-relations shape.  Generation is a pure function of the plan
        structure, so two compiles of the same definition against the
        same catalog and constraints emit byte-identical text — the
        property the CLI's ``--source`` determinism check asserts.
        Shapes beyond :data:`~repro.core.codegen.MAX_CODEGEN_ROWS` are
        listed as reference-planner fallbacks.
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
            parts.append(self._screen_kernels[relation_name][0])
        width = len(self._exec_normal_form.occurrences)
        shapes = [(i,) for i in range(width)]
        if width > 1:
            shapes.append(tuple(range(width)))
        for shape in shapes:
            rows = count_delta_rows(len(shape))
            if rows > MAX_CODEGEN_ROWS:
                parts.append(
                    f"# shape {shape!r}: {rows} truth-table rows "
                    "exceed the codegen limit; reference-planner fallback\n"
                )
                continue
            parts.append(
                generate_shape_source(
                    self.planner_for(shape),
                    counter_free=self.counter_free,
                    bag_operands=self._bag_operands,
                )
            )
        if self._aggregate_kernel is not None:
            parts.append(self._aggregate_kernel[0])
        return "\n".join(parts)

    def describe(self, changed_relations: Iterable[str]) -> str:
        """The compiled plan, as text, for a hypothetical update.

        Sections: the Definition 4.2 invariant/variant split per changed
        relation (the screening plan), the cached row plan for the
        resulting truth-table shape (each row's join order, hash links,
        pushdown),
        and the hash index each OLD probe binds.  This is what the CLI's
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
                "  multiplicity ≤ 1 proven; counter-free apply kernels"
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
        planner = self.planner_for(positions)
        lines.append(planner.describe())
        lines.append("index bindings (OLD-operand probes):")
        probes = planner.old_probe_steps()
        for step in probes:
            operand, base_attrs = self._probe_target(
                step.position, step.link_attr_names
            )
            state = (
                "bound"
                if base_attrs in self._operands[operand].indexes
                else "will be created on first use"
            )
            lines.append(
                f"  step {step.number}: probes hash index "
                f"{operand}({', '.join(base_attrs)}) [{state}]"
            )
        if not probes:
            lines.append("  (none: no OLD operand is joined by equality links)")
        if self.definition.aggregate is not None:
            lines.append(
                "aggregate stage (generated fold kernel): "
                f"{self.definition.aggregate}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        shapes = len(self._planners)
        possible = count_delta_rows(len(self._exec_normal_form.occurrences)) + 1
        return (
            f"<CompiledViewPlan {self.definition.name!r} "
            f"{len(self._screens)} screens, {shapes}/{possible} planner shapes, "
            f"{len(self._index_bindings)} index bindings>"
        )
