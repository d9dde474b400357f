"""The view maintainer: filter, then differentially re-evaluate.

This is the top of the paper's architecture.  All database updates are
"first filtered to remove from consideration those that cannot possibly
affect the view" (Section 4); for the remaining updates "a differential
algorithm can be applied to re-evaluate the view expression"
(Section 5).  :class:`ViewMaintainer` wires both stages into a
database's commit pipeline:

* **Immediate** views are brought up to date inside every commit — the
  paper's default assumption ("views are materialized every time a
  transaction updates the database").
* **Deferred** views are *snapshots* [AL80]: commits only compose the
  net deltas per view, and :meth:`refresh` applies the accumulated
  change on demand, through exactly the same differential machinery.

Both paths execute **compiled maintenance plans**
(:class:`~repro.core.compiled.CompiledViewPlan`): the relevance
screens, join orders, pushdown decisions and index bindings are built
once per view — eagerly at registration — kept on the view's registry
record, and discarded when a DDL event (index create/drop, relation
drop, a declared constraint or key) could stale them; the next
maintenance call recompiles.  Every consumer of the maintainer —
immediate commits, deferred ``refresh``, WAL-replay recovery,
changefeed followers, the network view-server — therefore runs the
same cached plan, and there is one pipeline: a *trigger program*
(:func:`~repro.core.codegen.compile_trigger`), generated once per set of
changed relations, runs every view their deltas reach as straight-line
code — each view's screen, row and fold kernels, then the apply —
counting straight into the view's row.  The parity tests compare the
maintainer against a per-tuple statement of Sections 4 and 5 kept with
the tests (``tests/reference.py``) and against
:meth:`~repro.core.aggregates.AggregateState.fold`.

A commit's maintenance is all or nothing with the commit (its trigger
records what it applied in the database's undo record), except that
a view whose own stages raise is *quarantined*: the trigger's run is
taken back and run again without it and what reads it, which keep
their pre-commit contents until :meth:`ViewMaintainer.refresh`
rebuilds them.  An assertion view (``MaintenancePolicy.ASSERTION``)
the commit would leave non-empty undoes the commit.

The registry is one record per view plus one index, *dependents*: a
relation or view name to the records whose definitions read it.  The
trivial case of Section 4's filter — the updated relation does not
occur in the view — is decided by that lookup, so a commit, a DDL
event and ``drop_view`` each touch only the views their subject
reaches, never the catalog.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, Mapping, NoReturn

from repro.algebra.expressions import Expression
from repro.algebra.relation import Delta, Relation
from repro.algebra.schema import RelationSchema
from repro.algebra.sqlite_oracle import SqliteOracle
from repro.core.codegen import Trigger, compile_trigger, raised_in, traversals, violation
from repro.core.compiled import CompiledViewPlan
from repro.core.counting import net_counts
from repro.core.consistency import ConsistencyReport, check_view_consistency
from repro.core.views import MaterializedView, ViewDefinition
from repro.engine.database import Database, deliver
from repro.errors import MaintenanceError, UnknownViewError, ViewQuarantinedError
from repro.instrumentation import CostRecorder, Tally, active_recorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis import AnalysisReport
    from repro.scheduler.selfmaint import SelfMaintainability


class MaintenancePolicy(enum.Enum):
    """When a view is brought up to date."""

    #: Inside every committing transaction (the paper's main setting).
    IMMEDIATE = "immediate"
    #: On demand / periodically — snapshot refresh (Section 6, [AL80]).
    DEFERRED = "deferred"
    #: An integrity assertion [HS78]: an immediate view of the
    #: assertion's *error predicate*, which must stay empty.  Declaring
    #: one over a state that violates it raises, and a commit the view
    #: would not stay empty through is undone; both raise
    #: :class:`~repro.errors.IntegrityViolation` naming the witnesses.
    ASSERTION = "assertion"


#: The families of every counter a maintenance call increments: a view's
#: row holds them at 0 from the start, so an increment is one subscript.
_ROW_FAMILIES = ("view", "plan_cache", "codegen", "analysis")


class _ViewEntry:
    """Everything the maintainer keeps about one registered view."""

    __slots__ = (
        "view", "policy", "dependencies", "ordinal", "row", "plan", "missed",
        "pending", "commits_since_refresh", "subscribers", "quarantined",
    )

    def __init__(
        self,
        view: MaterializedView,
        policy: MaintenancePolicy,
        dependencies: frozenset[str],
        ordinal: int,
        row: CostRecorder,
    ) -> None:
        self.view = view
        self.policy = policy
        #: Names the definition reads: base relations and upstream views.
        self.dependencies = dependencies
        #: Registration order.  An upstream view is always registered
        #: before its dependents, so ascending ordinal is a valid
        #: propagation order.
        self.ordinal = ordinal
        #: The view's always-on counters.  Its compiled plans count
        #: into it too, so codegen counters survive recompiles.
        self.row = row
        #: The compiled plan; None between a DDL invalidation and the
        #: next maintenance call or introspection, which recompiles.
        self.plan: CompiledViewPlan | None = None
        #: The plan was compiled for a trigger and has not run since:
        #: its first maintenance counts a plan-cache miss.
        self.missed = False
        #: Deferred views: the composed, not yet applied operand deltas.
        self.pending: dict[str, Delta] = {}
        #: Commits that touched a deferred view's operands since its
        #: last refresh — the backlog measure staleness SLAs bound.
        #: (Distinct from len(pending): composition nets per relation.)
        self.commits_since_refresh = 0
        #: Replaced, never changed in place, by subscribe and unsubscribe:
        #: a delivery iterates the list it read, whatever a callback does.
        self.subscribers: list[Callable[[MaterializedView, Delta], None]] = []
        #: Why the view is quarantined (a commit's stages raised in it or
        #: in a view it reads), or None: ``txn``, ``seq``, the ``view``
        #: that raised, the ``error`` type and its ``message``.
        self.quarantined: dict[str, object] | None = None


class ViewMaintainer:
    """Maintains a set of materialized views over one database.

    Parameters
    ----------
    database:
        The database whose commits to observe.
    strict:
        Default for :meth:`define_view`'s ``strict`` parameter: run the
        static analyzer (:mod:`repro.analysis`) on every new definition
        and reject registrations with ERROR-level findings
        (:class:`~repro.errors.StrictAnalysisError`).
    auto_verify:
        After every maintenance step, recompute the view from scratch
        and compare — a self-checking mode for tests and debugging.
    """

    def __init__(
        self,
        database: Database,
        strict: bool = False,
        auto_verify: bool = False,
    ) -> None:
        self.database = database
        self.strict = strict
        self.auto_verify = auto_verify
        #: One record per registered view, in definition order.
        self._entries: dict[str, _ViewEntry] = {}
        #: Relation or view name -> the records whose definitions read
        #: it, in definition order.  Written by _install_view and
        #: drop_view only.
        self._dependents: dict[str, list[_ViewEntry]] = {}
        #: Relation or view name -> its *reach list*: the records a
        #: delta to it can reach through _dependents, directly or via
        #: the IMMEDIATE views in between, in ascending ordinal.  Built
        #: on first use by _reach_of; dropped wholesale by _install_view
        #: and drop_view.
        self._reach: dict[str, list[_ViewEntry]] = {}
        #: The trigger program of each set of changed relations (or of one
        #: deferred view's backlog), by the key _on_commit and refresh
        #: look it up under; compiled by _trigger on first use.  Dropped
        #: wholesale with the reach lists and whenever a plan is.
        self._triggers: dict[Hashable, Trigger] = {}
        self._next_ordinal = 0
        #: The rows of dropped views, summed.
        self._retired = CostRecorder()
        database.add_commit_hook(self._on_commit)
        database.add_ddl_hook(self._on_ddl)

    # ------------------------------------------------------------------
    # View management
    # ------------------------------------------------------------------
    def define_view(
        self,
        name: str,
        expression: Expression,
        policy: MaintenancePolicy = MaintenancePolicy.IMMEDIATE,
        strict: bool | None = None,
    ) -> MaterializedView:
        """Register and materialize a view.

        The plan is compiled first, and the initial materialization is
        its :meth:`~repro.core.compiled.CompiledViewPlan.evaluate`: the
        complete evaluation of the defining expression, run as the
        kernel of the one truth-table row that inserting the largest
        operand into an empty one leaves.  Differential maintenance
        takes over from the next commit, on the same plan.  Whatever
        step fails, the view leaves no trace.

        The expression may reference *other registered views* by name
        (views over views): the upstream view then acts as a base
        relation whose per-commit delta is the one this maintainer just
        applied to it.  Upstream views must be IMMEDIATE — a deferred
        upstream has no per-commit delta to propagate.

        With ``strict`` (default: the maintainer's ``strict`` setting)
        the definition first runs through the static analyzer; any
        ERROR-level finding — today, a provably unsatisfiable condition
        (the view would be empty in every database state) — rejects the
        registration with :class:`~repro.errors.StrictAnalysisError`
        before anything is materialized.  WARN/INFO findings never
        block; read them via :meth:`analyze`.

        With ``policy=MaintenancePolicy.ASSERTION`` the expression is an
        integrity assertion's error predicate: a state it is not empty
        on raises :class:`~repro.errors.IntegrityViolation` instead of
        registering, and so does every later commit that would make it
        non-empty, which is undone.  Advisory monitoring is an ordinary
        view plus a subscriber.
        """
        definition, referenced = self._validated_definition(name, expression)
        effective_strict = self.strict if strict is None else strict
        if effective_strict:
            from repro.analysis import Severity, analyze_definition
            from repro.errors import StrictAnalysisError

            findings = analyze_definition(
                definition,
                constraints=self.database.constraints,
                keys=self.database.keys,
                view_operands=referenced & self._entries.keys(),
            )
            errors = tuple(
                f for f in findings if f.severity is Severity.ERROR
            )
            if errors:
                raise StrictAnalysisError(name, errors)
        row = CostRecorder().family(*_ROW_FAMILIES)
        plan = self._compile_plan(definition, referenced, row)
        counted: Tally = []
        charged: Tally | None = [] if active_recorder() is not None else None
        stored = plan.evaluate(counted, charged)
        row.settle(counted, charged)
        view = MaterializedView.from_stored(definition, stored)
        if policy is MaintenancePolicy.ASSERTION and len(view.contents):
            raise violation(view, view.contents.counts())
        return self._install_view(view, referenced, policy, plan, row)

    def restore_view(
        self,
        name: str,
        expression: Expression,
        contents: Relation,
        policy: MaintenancePolicy = MaintenancePolicy.IMMEDIATE,
        verify: bool = False,
    ) -> MaterializedView:
        """Register a view with pre-computed contents — no evaluation.

        This is the rebuild-from-snapshot path of crash recovery
        (:class:`repro.replication.recovery.Recovery`): a checkpoint carries
        each view's stored relation, counters included, so after a restart
        the view is re-adopted byte-for-byte and the replayed WAL tail flows
        through the differential pipeline — it is never recomputed.

        ``contents`` must match the definition's *stored* schema by
        attribute names — the visible schema for plain views, the SPJ
        core's schema for aggregate views (checkpoints persist the core
        support relation; visible group rows are derived and re-rendered
        here).  Contents over the stored schema (domains too) are adopted
        as a copy; others are re-encoded against the catalog's domains.
        ``verify`` recomputes the view and compares, turning a stale or
        tampered snapshot into an immediate error instead of a silently
        diverging view.
        """
        definition, referenced = self._validated_definition(name, expression)
        expected = definition.normal_form.output_schema()
        if tuple(contents.schema.names) != tuple(expected.names):
            if definition.aggregate is not None:
                raise MaintenanceError(
                    f"restored contents for aggregate view {name!r} have "
                    f"schema {list(contents.schema.names)}, expected the "
                    f"core support schema {list(expected.names)} (aggregate "
                    "checkpoints store the core rows, not the rendered "
                    "group rows)"
                )
            raise MaintenanceError(
                f"restored contents for view {name!r} have schema "
                f"{list(contents.schema.names)}, expected {list(expected.names)}"
            )
        row = CostRecorder().family(*_ROW_FAMILIES)
        plan = self._compile_plan(definition, referenced, row)
        bag = contents.counts()  # a copy: the caller's may be live
        if contents.schema != expected:
            decoded = map(contents.schema.decode_values, bag)
            bag = dict(zip(expected.encode_rows(decoded), bag.values()))
        view = MaterializedView.from_stored(definition, Relation.adopt(expected, bag))
        if verify:
            check_view_consistency(view, self.instances())
        return self._install_view(view, referenced, policy, plan, row)

    def _validated_definition(
        self, name: str, expression: Expression
    ) -> tuple[ViewDefinition, frozenset[str]]:
        """Shared registration checks for new and restored views."""
        if name in self._entries:
            raise MaintenanceError(f"view {name!r} is already defined")
        if self.database.has_relation(name):
            raise MaintenanceError(
                f"view name {name!r} collides with a base relation; views "
                "and relations share one namespace (stacked views resolve "
                "references through it)"
            )
        definition = ViewDefinition(
            name, expression, self._operand_schemas(expression.base_names())
        )
        referenced = frozenset(definition.normal_form.relation_names)
        for dep in sorted(referenced & self._entries.keys()):
            upstream = self._entries[dep]
            if upstream.policy is not MaintenancePolicy.IMMEDIATE:
                raise MaintenanceError(
                    f"view {name!r} references {upstream.policy.value} view "
                    f"{dep!r}; stacked views require IMMEDIATE upstream maintenance"
                )
            if upstream.quarantined is not None:
                raise MaintenanceError(
                    f"view {name!r} references quarantined view {dep!r}; refresh it first"
                )
        return definition, referenced

    def _install_view(
        self,
        view: MaterializedView,
        referenced: frozenset[str],
        policy: MaintenancePolicy,
        plan: CompiledViewPlan,
        row: CostRecorder,
    ) -> MaterializedView:
        """Register a view with the plan and counter row its caller
        compiled it with.  Callers compile before anything else: a
        definition whose plan cannot be compiled, or whose contents
        cannot be computed, must leave no trace — not a view without a
        plan, not a taken name."""
        view.last_refresh_sequence = self.database.last_sequence()
        entry = _ViewEntry(view, policy, referenced, self._next_ordinal, row)
        entry.plan = plan
        self._next_ordinal += 1
        self._entries[view.definition.name] = entry
        for dep in referenced:
            self._dependents.setdefault(dep, []).append(entry)
        self._reach.clear()
        self._triggers.clear()
        return view

    def drop_view(self, name: str) -> None:
        """Forget a view (its contents are discarded).

        The hash indexes its plan had upstream views build go with it:
        each upstream view it read drops its indexes, and the plans of
        that view's remaining readers are invalidated, so whichever of
        them still probes one rebuilds and rebinds it on its next use
        and no index is kept up that no plan probes.
        """
        entry = self._entry(name)
        readers = self._dependents.get(name)
        if readers:
            referencing = sorted(r.view.definition.name for r in readers)
            raise MaintenanceError(
                f"cannot drop view {name!r}: referenced by {referencing}"
            )
        if entry.plan is not None:
            entry.plan = None
            entry.row.count("plan_cache_invalidations")
        self._retired.add(entry.row)
        del self._entries[name]
        self._reach.clear()
        self._triggers.clear()
        for dep in entry.dependencies:
            readers = self._dependents[dep]
            readers.remove(entry)
            if not readers:
                del self._dependents[dep]
            upstream = self._entries.get(dep)
            if upstream is None:
                continue
            contents = upstream.view.contents
            if contents.indexes:
                for attrs in tuple(contents.indexes):
                    contents._drop_index(attrs)
                self._invalidate_readers(dep)

    # ------------------------------------------------------------------
    # Compiled plans
    # ------------------------------------------------------------------
    def _compile_plan(
        self,
        definition: ViewDefinition,
        referenced: frozenset[str],
        row: CostRecorder,
    ) -> CompiledViewPlan:
        """Build a fresh compiled plan for one definition."""
        return CompiledViewPlan(
            definition,
            self.database,
            row,
            view_operands={
                name: self._entries[name].view.contents
                for name in referenced & self._entries.keys()
            },
        )

    def codegen_stats(self) -> CostRecorder:
        """Cumulative codegen counters across all plans and recompiles."""
        return self.totals.family("codegen")

    def kernel_source(self, name: str) -> str:
        """The generated kernel source for one view's current plan."""
        return self.peek_plan(name).kernel_source()

    def _recompile(self, entry: _ViewEntry) -> CompiledViewPlan:
        """Compile and keep the plan of a registered view anew."""
        definition = entry.view.definition
        entry.plan = self._compile_plan(definition, entry.dependencies, entry.row)
        return entry.plan

    def peek_plan(self, name: str) -> CompiledViewPlan:
        """The plan introspection reads: compiled if absent, uncounted.

        ``explain``, ``kernel_source``, ``recommended_indexes`` and the
        static analyzer are not maintenance, so they leave the hit/miss
        counters alone.
        """
        entry = self._entry(name)
        return entry.plan or self._recompile(entry)

    def compiled_plan(self, name: str) -> CompiledViewPlan | None:
        """The currently cached plan for ``name`` (None when absent).

        Purely observational: does not compile and does not touch the
        hit/miss counters.
        """
        return self._entry(name).plan

    def plan_cache_stats(self) -> dict[str, int]:
        """Maintainer-wide plan-cache counters (hits/misses/invalidations)."""
        return self.totals.family("plan_cache").as_dict()

    def _on_ddl(self, event: str, relation_name: str) -> None:
        """Invalidate plans a schema change could have staled.

        Index drops are the correctness-critical case — a cached plan
        holds direct bindings to index objects that stop being
        maintained the moment their relation drops them.  Explicit
        index creation, relation creation and anything else
        touching an operand invalidate too: the cheapest sound answer
        is to recompile, and compilation is exactly what keeping the
        plan made rare.  (A plan's own lazy index creation asks the
        operand relation directly and is not a DDL event.)

        Views and relations share one namespace, so creating a relation
        under a registered view's name is refused here (the database
        takes the relation back out): every view stacked on that name
        would otherwise read the relation's deltas as the view's.  And a
        relation a registered view reads cannot be dropped (SQL's
        ``RESTRICT``): the view would outlive its operand.
        """
        if event == "create_relation" and relation_name in self._entries:
            raise MaintenanceError(
                f"relation name {relation_name!r} collides with a registered "
                "view; views and relations share one namespace (stacked "
                "views resolve references through it)"
            )
        readers = self._dependents.get(relation_name)
        if event == "drop_relation" and readers:
            raise MaintenanceError(
                f"cannot drop relation {relation_name!r}: read by views "
                f"{sorted(r.view.definition.name for r in readers)}"
            )
        self._invalidate_readers(relation_name)

    def _invalidate_readers(self, name: str) -> None:
        """Discard the kept plan of every view reading ``name``, and
        every trigger program, which holds the plans' kernels."""
        for entry in self._dependents.get(name, ()):
            if entry.plan is not None:
                entry.plan = None
                entry.row.count("plan_cache_invalidations")
                self._triggers.clear()

    # ------------------------------------------------------------------
    # Operands by name (base relations + registered views)
    # ------------------------------------------------------------------
    def _operand_schemas(self, names: Iterable[str]) -> dict[str, RelationSchema]:
        """The schema of each named operand — a registered view's stored
        relation, else a base relation — looked up by name, so a
        registration costs the operands it names, not the catalog.  A
        name that is neither is left out, for the definition to report.
        """
        schemas: dict[str, RelationSchema] = {}
        for name in names:
            entry = self._entries.get(name)
            if entry is not None:
                schemas[name] = entry.view.contents.schema
            elif self.database.has_relation(name):
                schemas[name] = self.database.relation(name).schema
        return schemas

    def instances(self) -> dict[str, Relation]:
        """Base relations plus every view's contents, by name.

        The mapping :func:`~repro.core.consistency.check_view_consistency`
        takes: a stacked view's definition names its upstream views like
        relations.
        """
        instances = dict(self.database.instances())
        for view_name, entry in self._entries.items():
            instances[view_name] = entry.view.contents
        return instances

    def subscribe(
        self, name: str, callback: Callable[[MaterializedView, Delta], None]
    ) -> None:
        """Receive every non-empty delta applied to view ``name``.

        Callbacks run once the commit stands — after every view, the
        write-ahead log and any later hook — so a callback only ever
        sees committed deltas; for deferred views, at the end of
        ``refresh()``.  A callback that raises does not undo anything:
        the other deliveries run, then its error is raised.  This is the
        natural hook for alerters [BC79]: the view delta *is* the alert
        stream.
        """
        entry = self._entry(name)
        entry.subscribers = [*entry.subscribers, callback]

    def unsubscribe(
        self, name: str, callback: Callable[[MaterializedView, Delta], None]
    ) -> None:
        """Remove a previously registered subscriber (no-op if absent)."""
        entry = self._entries.get(name)
        if entry is not None and callback in entry.subscribers:
            subscribers = list(entry.subscribers)
            subscribers.remove(callback)
            entry.subscribers = subscribers

    def view(self, name: str) -> MaterializedView:
        """The materialized view registered under ``name``."""
        return self._entry(name).view

    def view_names(self) -> tuple[str, ...]:
        """All registered view names, sorted."""
        return tuple(sorted(self._entries))

    def dependencies(self, name: str) -> frozenset[str]:
        """The names one view's definition reads: base relations and
        upstream views."""
        return self._entry(name).dependencies

    @property
    def totals(self) -> CostRecorder:
        """Maintainer-wide always-on totals: every view's row summed,
        dropped views' included."""
        totals = CostRecorder()
        totals.add(self._retired)
        for entry in self._entries.values():
            totals.add(entry.row)
        return totals

    def stats(self, name: str) -> dict[str, Any]:
        """One view's maintenance counters: the ``view`` and
        ``plan_cache`` families of :mod:`repro.instrumentation`; and for
        a quarantined view, its ``quarantined`` record."""
        entry = self._entry(name)
        stats: dict[str, Any] = entry.row.family("view", "plan_cache").as_dict()
        if entry.quarantined is not None:
            stats["quarantined"] = dict(entry.quarantined)
        return stats

    def quarantined(self, name: str) -> dict[str, object] | None:
        """Why view ``name`` is quarantined, or None (see :meth:`refresh`)."""
        record = self._entry(name).quarantined
        return None if record is None else dict(record)

    def all_stats(self) -> dict[str, dict[str, Any]]:
        """Every view's maintenance counters (:meth:`stats`), by name —
        the JSON-ready form the view-server's ``stats`` op serves."""
        return {name: self.stats(name) for name in self.view_names()}

    def policy(self, name: str) -> MaintenancePolicy:
        """The registered maintenance policy for one view."""
        return self._entry(name).policy

    def explain(self, name: str, changed_relations: Iterable[str]) -> str:
        """Describe the compiled maintenance plan for a hypothetical update.

        ``changed_relations`` names the base relations a transaction
        would touch; the returned text shows the invariant/variant
        screening split, the truth-table rows, each row's join order
        with its pushdown decisions, and the hash index each OLD
        probe binds — the plan a real transaction with this shape would
        execute, served from the same cache — and, when the update
        reaches other views that share this view's traversal
        (:func:`~repro.core.codegen.traversals`), which views those are,
        whose plan traverses and what this view's finish re-checks.
        """
        changed = tuple(changed_relations)
        text = self.peek_plan(name).describe(changed)
        reached = self._reached(changed)
        if not any(e.view.definition.name == name for e, _ in reached):
            return text
        for sharing, lead in self.shared_traversals(changed):
            if name in sharing:
                recheck = self._entry(name).plan.recheck_over(self._entry(lead).plan)
                return text + (
                    f"\nshared traversal on this update: {', '.join(sharing)} run one, "
                    f"over the plan of {lead!r}; this view's finish re-checks "
                    f"{'nothing' if recheck is None else recheck}"
                )
        return text + (
            "\nshared traversal on this update: none (no other view it reaches "
            "reads these deltas with this core)"
        )

    def shared_traversals(self, changed_relations: Iterable[str]) -> list[tuple[list[str], str]]:
        """The traversals the views an update of the base relations
        ``changed_relations`` reaches share (a commit's trigger runs
        each once, :func:`~repro.core.codegen.traversals`): per group,
        its views' names in order and the name of the view whose plan
        traverses.  A view whose plan DDL discarded joins no group."""
        changed = tuple(changed_relations)
        reached = [(e, compose) for e, compose in self._reached(changed) if e.plan is not None]
        arrived = [name for name in changed if name not in self._entries]
        return [
            ([reached[j][0].view.definition.name for j in members],
             reached[leader][0].view.definition.name)
            for members, leader in traversals(reached, arrived)
        ]

    def _reached(self, changed_relations: Iterable[str]) -> list[tuple[_ViewEntry, bool]]:
        """The views a commit of the base relations ``changed_relations``
        reaches, in ordinal order, each with whether it only composes a
        backlog (a deferred view): what the commit's trigger runs."""
        merged = {
            e.ordinal: e for relation in changed_relations if relation not in self._entries
            for e in self._reach_of(relation)
        }
        return [(e, e.policy is MaintenancePolicy.DEFERRED) for _, e in sorted(merged.items())]

    def analyze(self) -> "AnalysisReport":
        """Run the full static analyzer over every registered view.

        Per-view checks (unsatisfiable conditions, dead disjuncts,
        redundant atoms, loosenable bounds, static irrelevance under
        declared constraints, compiled-plan lint) plus the cross-view
        subsumption/equivalence pass.  Returns an
        :class:`~repro.analysis.AnalysisReport`; rendering it with
        ``format()`` or ``as_json()`` is deterministic for a given
        catalog state.
        """
        from repro.analysis import analyze_maintainer

        return analyze_maintainer(self)

    def recommended_indexes(self, name: str) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """Indexes the planner would probe while maintaining this view.

        The probe targets of every OLD operand joined by equality links,
        in the lowered shapes of each single-relation update (an update
        changing several relations probes the same): exactly the indexes
        the lazy path would create on first use.  Returns sorted ``(name, attributes)``
        pairs.
        """
        return self.peek_plan(name).recommended_indexes()

    def create_recommended_indexes(self, name: str) -> int:
        """Eagerly create every recommended index; returns how many.

        Without this, the same indexes appear lazily on first use; with
        it, the first maintenance after a bulk load avoids the one-off
        index-build latency.
        """
        created = 0
        instances = self.instances()
        for operand_name, attrs in self.recommended_indexes(name):
            operand = instances[operand_name]
            created += attrs not in operand.indexes
            operand.index_on(attrs)
        return created

    def detach(self) -> None:
        """Stop observing commits (views stop being maintained)."""
        self.database.remove_commit_hook(self._on_commit)
        self.database.remove_ddl_hook(self._on_ddl)

    def _entry(self, name: str) -> _ViewEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownViewError(f"no view named {name!r}") from None

    # ------------------------------------------------------------------
    # Commit-side
    # ------------------------------------------------------------------
    def _reach_of(self, name: str) -> list[_ViewEntry]:
        """The reach list of one relation or view name (see ``_reach``)."""
        reach = self._reach.get(name)
        if reach is None:
            found: dict[int, _ViewEntry] = {}
            names = [name]
            while names:
                for entry in self._dependents.get(names.pop(), ()):
                    if entry.ordinal not in found and entry.quarantined is None:
                        found[entry.ordinal] = entry
                        # A deferred view has no per-commit delta to
                        # pass on.
                        if entry.policy is MaintenancePolicy.IMMEDIATE:
                            names.append(entry.view.definition.name)
            reach = self._reach[name] = [found[o] for o in sorted(found)]
        return reach

    def _on_commit(self, txn_id: int, deltas: Mapping[str, Delta]) -> None:
        entries = self._entries
        # The transaction's non-empty base deltas.  A registered view's
        # name never takes a base delta — what is stacked on it reads
        # the view.
        arrived = {
            name: delta
            for name, delta in deltas.items()
            if name not in entries and not delta.is_empty()
        }
        if arrived:
            recorder = active_recorder()
            key = (frozenset(arrived), recorder is not None, self.auto_verify)
            trigger = self._triggers.get(key) or self._trigger(key, tuple(arrived), None, key[1])
            database = self.database
            try:
                trigger(arrived, recorder, database.undo, database.deliveries)
            except Exception as error:
                self._quarantine(txn_id, arrived, key, error)

    def _quarantine(
        self, txn_id: int, arrived: Mapping[str, Delta], key: Hashable, error: Exception
    ) -> NoReturn:
        """A commit's trigger run over ``arrived`` raised ``error``: take
        the run back (its undo record and the deliveries it queued),
        quarantine the view whose stages raised and every view reading
        it, and run the commit's trigger again without them — until a
        run completes; then raise :class:`ViewQuarantinedError`.  A view
        a taken-back run got through keeps that run's counts, not the
        next one's.  ``error`` is raised instead, for the commit to be
        undone, when it came from no view's stages or an assertion is
        among the views to quarantine."""
        database = self.database
        faulted: list[str] = []
        # id(counters) -> (counters, what they held after their first run).
        held: dict[int, tuple[dict[str, int], dict[str, int]]] = {}
        try:
            while True:
                counters = raised_in(error)
                entry = next((e for e in self._entries.values() if e.row.counters is counters), None)
                readers = [] if entry is None else [entry, *self._reach_of(entry.view.definition.name)]
                if not readers or any(e.policy is MaintenancePolicy.ASSERTION for e in readers):
                    raise error
                function, views, *record = database.undo.pop()
                function(views, *record)
                ran = [e for e, _, _ in views]
                taken = {e.view for e in ran}
                database.deliveries[:] = [d for d in database.deliveries if d[1] not in taken]
                for done in ran[:ran.index(entry)]:
                    row = done.row.counters
                    held.setdefault(id(row), (row, dict(row)))
                why = {"txn": txn_id, "seq": database.last_sequence(),
                       "view": entry.view.definition.name,
                       "error": type(error).__name__, "message": str(error)}
                for reader in readers:
                    reader.quarantined = why
                    faulted.append(reader.view.definition.name)
                self._reach.clear()
                self._triggers.clear()
                try:
                    trigger = self._trigger(key, tuple(arrived), None, key[1])
                    trigger(arrived, active_recorder(), database.undo, database.deliveries)
                    break
                except Exception as again:
                    error = again
        finally:
            for counters, first in held.values():
                counters.clear()
                counters.update(first)
        raise ViewQuarantinedError(tuple(faulted), self._entries[faulted[0]].quarantined)

    def _trigger(
        self, key: Hashable, names: tuple[str, ...], target: _ViewEntry | None,
        recording: bool,
    ) -> Trigger:
        """Compile the trigger ``key`` names (it ends with ``recording``,
        whether a recorder is active, and ``auto_verify``): of the
        relations ``names`` for a commit, or of deferred view
        ``target``'s backlog over them for a refresh.  A commit's trigger runs the records
        the deltas reach in ascending ordinal, so an upstream view's
        delta has arrived by the turn of what is stacked on it.  A plan
        DDL discarded is compiled here, and the trigger counts its miss
        the first time the view runs, then hits."""
        views = [(target, False)] if target is not None else self._reached(names)
        for entry, compose in views:
            if not compose and entry.plan is None:
                self._recompile(entry)  # counts its compile itself
                entry.missed = True
        verify = (lambda view: check_view_consistency(view, self.instances())) if self.auto_verify else None
        trigger = compile_trigger(views, names, refreshing=target is not None, recording=recording,
                                  verify=verify, last_sequence=self.database.last_sequence)
        self._triggers[key] = trigger
        return trigger

    def apply_deltas(self, txn_id: int, deltas: Mapping[str, Delta]) -> None:
        """Maintain every view from externally supplied net deltas.

        The commit pipeline calls the same entry point through its
        hook; this public seam exists for **base-free hosts**
        (``base_free=True`` followers and shard nodes): they hold no
        base-relation rows to commit against, so they decode shipped
        deltas and feed them here directly.  Stacked views, deferred
        composition, subscribers and statistics all behave exactly as
        for a local commit, all or nothing up to the same commit point.
        Callers own sequencing: deltas must arrive in commit order, and
        the database position must be advanced
        (:meth:`~repro.engine.database.Database.advance_sequence`) so
        ``last_refresh_sequence`` bookkeeping stays meaningful.
        """
        self.database._apply_commit(None, deltas, (self._on_commit,), txn_id)

    # ------------------------------------------------------------------
    # Self-maintainability
    # ------------------------------------------------------------------
    def self_maintainability(self, name: str) -> "SelfMaintainability":
        """Classify one registered view (see
        :func:`repro.scheduler.selfmaint.classify_self_maintainability`);
        the proof uses the database's declared constraints and keys."""
        definition = self._entry(name).view.definition
        from repro.scheduler.selfmaint import classify_self_maintainability

        return classify_self_maintainability(
            definition,
            self.database.constraints,
            self.database.keys,
        )

    def is_self_maintainable(self, name: str) -> bool:
        """Can this view be maintained from its contents + deltas alone?

        True exactly when a base-free host could carry the view: no
        maintenance step ever consults base-relation state.  Sound but
        not complete (a ``False`` may be conservative).
        """
        return self.self_maintainability(name).self_maintainable

    # ------------------------------------------------------------------
    # Refresh-side (deferred views)
    # ------------------------------------------------------------------
    def refresh(self, name: str) -> bool:
        """Bring a deferred view up to date; True when work was done.

        The composed deltas accumulated since the last refresh behave
        exactly like one large transaction's net effect, so the same
        filter + differential pipeline applies (the paper's closing
        observation that its approach "also applies to this
        environment").  Subscribers get the applied delta at the end.

        A quarantined view (any policy) is rebuilt instead, after the
        quarantined views it reads: its plan evaluates it anew, and the
        difference reaches its subscribers as one delta, so a replica
        kept from them still equals the view.
        """
        entry = self._entry(name)
        if entry.quarantined is not None:
            self._rebuild(entry)
            return True
        pending = entry.pending
        if not pending:
            entry.commits_since_refresh = 0
            entry.view.last_refresh_sequence = self.database.last_sequence()
            return False
        # The trigger clears the backlog once it has applied it: a
        # refresh that raises before that leaves the view stale and says
        # so.
        recorder = active_recorder()
        key = (entry, frozenset(pending), recorder is not None, self.auto_verify)
        trigger = self._triggers.get(key) or self._trigger(key, tuple(pending), entry, key[2])
        # Outside a commit: nothing here is undone.
        deliveries: list = []
        trigger(pending, recorder, [], deliveries)
        deliver(deliveries)
        return True

    def _rebuild(self, entry: _ViewEntry) -> None:
        """Re-evaluate a quarantined view and lift its quarantine."""
        for dep in sorted(entry.dependencies):
            upstream = self._entries.get(dep)
            if upstream is not None and upstream.quarantined is not None:
                self._rebuild(upstream)
        view = entry.view
        counted: Tally = []
        charged: Tally | None = [] if active_recorder() is not None else None
        stored = (entry.plan or self._recompile(entry)).evaluate(counted, charged)
        entry.row.settle(counted, charged)
        before = view.contents.counts()
        view.replace_contents(stored)
        inserted, deleted = net_counts(view.contents.counts(), before)
        entry.pending = {}
        entry.commits_since_refresh = 0
        view.last_refresh_sequence = self.database.last_sequence()
        entry.quarantined = None
        self._reach.clear()
        self._triggers.clear()
        if inserted or deleted:
            delta = Delta.adopt(view.contents.schema, inserted, deleted)
            deliver([(entry.subscribers, view, delta)])

    def pending_deltas(self, name: str) -> dict[str, Delta]:
        """A deferred view's composed, not-yet-applied deltas."""
        return dict(self._entry(name).pending)

    def backlog(self, name: str) -> dict[str, int]:
        """How stale one view is, as four observable measures.

        * ``pending_relations`` — relations with a composed pending
          delta (deferred views; 0 for immediate ones);
        * ``pending_delta_size`` — net tuples across those composed
          deltas (inserts plus deletes after cancellation);
        * ``commits_since_refresh`` — commits that touched the view's
          operands since the last refresh (composition may net the
          *deltas* away, but the commit count still ages the snapshot);
        * ``sequence_lag`` — log sequences between the database head
          and the view's ``last_refresh_sequence``.

        The `stats` server op and the CLI ``stats <view>`` line expose
        these, and the staleness-SLA scheduler prioritizes by them.
        """
        entry = self._entry(name)
        pending = entry.pending
        return {
            "pending_relations": len(pending),
            "pending_delta_size": sum(
                delta.insert_count() + delta.delete_count()
                for delta in pending.values()
            ),
            "commits_since_refresh": entry.commits_since_refresh,
            "sequence_lag": max(
                0,
                self.database.last_sequence()
                - entry.view.last_refresh_sequence,
            ),
        }

    # ------------------------------------------------------------------
    # Quiescent points
    # ------------------------------------------------------------------
    def quiesce(self) -> tuple[str, ...]:
        """Bring every view up to date; returns the names that changed.

        Immediate views are current unless quarantined, so this amounts
        to refreshing every deferred view's composed backlog and
        rebuilding every quarantined view.  Afterwards
        the maintainer is at a *quiescent point*: every registered view
        equals its definition evaluated against the current base state
        — the precondition :meth:`verify_all` checks, and the moment
        the simulation harness's oracle runs.
        """
        refreshed = []
        for name in self.view_names():
            entry = self._entries[name]
            if entry.policy is MaintenancePolicy.DEFERRED or entry.quarantined is not None:
                if self.refresh(name):
                    refreshed.append(name)
        return tuple(refreshed)

    def verify_all(
        self, raise_on_mismatch: bool = True
    ) -> dict[str, ConsistencyReport]:
        """Full-recompute oracle over every registered view.

        Each view's defining expression is evaluated from scratch, as
        SQL on ``sqlite3`` over the current base relations (and upstream
        views, for stacked definitions), each loaded once, and diffed — multiplicity counters
        included — against the maintained contents.  Only meaningful at
        a quiescent point (:meth:`quiesce` first, or no deferred
        backlog).  With ``raise_on_mismatch`` the first divergence
        raises :class:`~repro.errors.MaintenanceError`; otherwise the
        per-view reports are returned for inspection either way.
        """
        reports: dict[str, ConsistencyReport] = {}
        with SqliteOracle(self.instances()) as oracle:
            for name in self.view_names():
                reports[name] = check_view_consistency(
                    self._entries[name].view,
                    oracle,
                    raise_on_mismatch=raise_on_mismatch,
                )
        return reports

    def __repr__(self) -> str:
        return (
            f"<ViewMaintainer {len(self._entries)} views, "
            f"{sum(e.plan is not None for e in self._entries.values())} "
            "cached plans>"
        )
