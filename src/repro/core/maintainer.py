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
same cached plan, and there is one pipeline, run by one call per view
(:meth:`~repro.core.compiled.CompiledViewPlan.maintain`): screen
kernels, then row kernels, then (for aggregate views) the fold kernel;
what it counts is settled on the view's row once.  The per-tuple
functions the kernels mirror —
:func:`~repro.core.irrelevance.filter_delta`,
:func:`~repro.core.differential.compute_view_delta`,
:meth:`~repro.core.aggregates.AggregateState.fold` — are the reference
library the parity tests compare the maintainer against.

The registry is one record per view plus one index, *dependents*: a
relation or view name to the records whose definitions read it.  The
trivial case of Section 4's filter — the updated relation does not
occur in the view — is decided by that lookup, so a commit, a DDL
event and ``drop_view`` each touch only the views their subject
reaches, never the catalog.
"""

from __future__ import annotations

import contextlib
import enum
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.algebra.expressions import Expression
from repro.algebra.relation import Delta, Relation
from repro.core.codegen import MAX_CODEGEN_ROWS
from repro.core.compiled import CompiledViewPlan
from repro.core.truthtable import count_delta_rows
from repro.core.views import MaterializedView, ViewDefinition
from repro.engine.database import Database
from repro.errors import MaintenanceError, UnknownViewError
from repro.instrumentation import CostRecorder, Tally, active_recorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis import AnalysisReport
    from repro.core.consistency import ConsistencyReport
    from repro.scheduler.selfmaint import SelfMaintainability


class MaintenancePolicy(enum.Enum):
    """When a view is brought up to date."""

    #: Inside every committing transaction (the paper's main setting).
    IMMEDIATE = "immediate"
    #: On demand / periodically — snapshot refresh (Section 6, [AL80]).
    DEFERRED = "deferred"


class _ViewEntry:
    """Everything the maintainer keeps about one registered view."""

    __slots__ = (
        "view",
        "policy",
        "dependencies",
        "ordinal",
        "row",
        "plan",
        "pending",
        "commits_since_refresh",
        "subscribers",
    )

    def __init__(
        self,
        view: MaterializedView,
        policy: MaintenancePolicy,
        dependencies: frozenset[str],
        ordinal: int,
        row: CostRecorder,
        plan: CompiledViewPlan,
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
        self.plan: CompiledViewPlan | None = plan
        #: Deferred views: the composed, not yet applied operand deltas.
        self.pending: dict[str, Delta] = {}
        #: Commits that touched a deferred view's operands since its
        #: last refresh — the backlog measure staleness SLAs bound.
        #: (Distinct from len(pending): composition nets per relation.)
        self.commits_since_refresh = 0
        self.subscribers: list[Callable[[MaterializedView, Delta], None]] = []


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
        row = CostRecorder()
        plan = self._compile_plan(definition, referenced, row)
        counted: Tally = []
        charged: Tally | None = [] if active_recorder() is not None else None
        stored = plan.evaluate(counted, charged)
        row.settle(counted, charged)
        view = MaterializedView.from_stored(definition, stored)
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

        This is the rebuild-from-snapshot path used by crash recovery
        (:class:`repro.replication.recovery.Recovery`): a checkpoint
        carries each view's stored relation (multiplicity counters
        included), so after a restart the view is re-adopted
        byte-for-byte and the replayed write-ahead-log tail flows
        through the normal differential pipeline — the view is never
        recomputed from scratch.

        ``contents`` must match the definition's *stored* schema by
        attribute names — the visible schema for plain views, the SPJ
        core's schema for aggregate views (checkpoints persist the core
        support relation; visible group rows are derived and re-rendered
        here).  Rows are re-encoded against the catalog's domains.
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
        row = CostRecorder()
        plan = self._compile_plan(definition, referenced, row)
        adopted = Relation(expected)
        for values, count in contents.items():
            adopted.add(tuple(contents.schema.decode_values(values)), count)
        view = MaterializedView.from_stored(definition, adopted)
        if verify:
            from repro.core.consistency import check_view_consistency

            check_view_consistency(view, self.instances())
        return self._install_view(view, referenced, policy, plan, row)

    def _validated_definition(
        self, name: str, expression: Expression
    ) -> tuple[ViewDefinition, frozenset[str]]:
        """Shared registration checks for new and restored views."""
        if name in self._entries:
            raise MaintenanceError(f"view {name!r} is already defined")
        if name in self.database.relation_names():
            raise MaintenanceError(
                f"view name {name!r} collides with a base relation; views "
                "and relations share one namespace (stacked views resolve "
                "references through it)"
            )
        definition = ViewDefinition(name, expression, self._combined_catalog())
        referenced = frozenset(definition.normal_form.relation_names)
        for dep in sorted(referenced & self._entries.keys()):
            if self._entries[dep].policy is not MaintenancePolicy.IMMEDIATE:
                raise MaintenanceError(
                    f"view {name!r} references deferred view {dep!r}; "
                    "stacked views require IMMEDIATE upstream maintenance"
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
        view.last_refresh_sequence = self.database.log.last_sequence()
        entry = _ViewEntry(view, policy, referenced, self._next_ordinal, row, plan)
        self._next_ordinal += 1
        self._entries[view.definition.name] = entry
        for dep in referenced:
            self._dependents.setdefault(dep, []).append(entry)
        self._reach.clear()
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
            entry.row.count("plan_cache_invalidations")
        self._retired.add(entry.row)
        del self._entries[name]
        self._reach.clear()
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
            self._combined_catalog(),
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
        entry.plan = self._compile_plan(
            entry.view.definition, entry.dependencies, entry.row
        )
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
        index creation, relation drop/re-creation and anything else
        touching an operand invalidate too: the cheapest sound answer
        is to recompile, and compilation is exactly what keeping the
        plan made rare.  (A plan's own lazy index creation asks the
        operand relation directly and is not a DDL event.)

        Views and relations share one namespace, so creating a relation
        under a registered view's name is refused here (the database
        takes the relation back out): every view stacked on that name
        would otherwise read the relation's deltas as the view's.
        """
        if event == "create_relation" and relation_name in self._entries:
            raise MaintenanceError(
                f"relation name {relation_name!r} collides with a registered "
                "view; views and relations share one namespace (stacked "
                "views resolve references through it)"
            )
        self._invalidate_readers(relation_name)

    def _invalidate_readers(self, name: str) -> None:
        """Discard the kept plan of every view reading ``name``."""
        for entry in self._dependents.get(name, ()):
            if entry.plan is not None:
                entry.plan = None
                entry.row.count("plan_cache_invalidations")

    # ------------------------------------------------------------------
    # Combined catalogs (base relations + registered views)
    # ------------------------------------------------------------------
    def _combined_catalog(self):
        catalog = dict(self.database.schema_catalog())
        for view_name, entry in self._entries.items():
            catalog[view_name] = entry.view.contents.schema
        return catalog

    def instances(self) -> dict[str, Relation]:
        """Base relations plus every view's contents, by name.

        The mapping :func:`~repro.core.consistency.check_view_consistency`
        and :func:`~repro.algebra.evaluate.evaluate` take: a stacked
        view's definition names its upstream views like relations.
        """
        instances = dict(self.database.instances())
        for view_name, entry in self._entries.items():
            instances[view_name] = entry.view.contents
        return instances

    def subscribe(
        self, name: str, callback: Callable[[MaterializedView, Delta], None]
    ) -> None:
        """Receive every non-empty delta applied to view ``name``.

        Callbacks run right after the delta is applied (and after
        ``auto_verify``, when enabled), inside the commit for immediate
        views and inside ``refresh()`` for deferred ones.  This is the
        natural hook for alerters [BC79]: the view delta *is* the alert
        stream.
        """
        self._entry(name).subscribers.append(callback)

    def unsubscribe(
        self, name: str, callback: Callable[[MaterializedView, Delta], None]
    ) -> None:
        """Remove a previously registered subscriber (no-op if absent)."""
        entry = self._entries.get(name)
        if entry is not None:
            with contextlib.suppress(ValueError):
                entry.subscribers.remove(callback)

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

    def stats(self, name: str) -> dict[str, int]:
        """One view's maintenance counters: the ``view`` and
        ``plan_cache`` families of :mod:`repro.instrumentation`."""
        return self._entry(name).row.family("view", "plan_cache").as_dict()

    def all_stats(self) -> dict[str, dict[str, int]]:
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
        execute, served from the same cache.
        """
        return self.peek_plan(name).describe(changed_relations)

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

        Walks every row's join order for each single-relation update
        and for the update changing every operand (past the kernel row
        cap that shape is left out), and collects, for each OLD operand
        joined by equality links, the base relation or upstream view
        and link attributes — exactly the indexes the lazy path would
        create on first use.  Returns sorted ``(name, attributes)`` pairs.
        """
        plan = self.peek_plan(name)
        normal_form = plan.execution_normal_form
        width = len(normal_form.occurrences)
        shapes = [(i,) for i in range(width)]
        if 1 < width and count_delta_rows(width) <= MAX_CODEGEN_ROWS:
            shapes.append(tuple(range(width)))
        recommendations: set[tuple[str, tuple[str, ...]]] = set()
        for shape in shapes:
            for step in plan.planner_for(shape).old_probe_steps():
                occurrence = normal_form.occurrences[step.position]
                base_attrs = tuple(
                    occurrence.inverse[q] for q in step.link_attr_names
                )
                recommendations.add((occurrence.name, base_attrs))
        return tuple(sorted(recommendations))

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

    def report(self) -> str:
        """A formatted per-view maintenance summary table."""
        from repro.bench.reporting import format_table

        rows = []
        for name in self.view_names():
            entry = self._entries[name]
            row = entry.row
            rows.append(
                [
                    name,
                    entry.policy.value,
                    len(entry.view.contents),
                    row.get("transactions_seen"),
                    row.get("transactions_skipped"),
                    row.get("deltas_applied"),
                    row.get("tuples_screened"),
                    row.get("tuples_irrelevant"),
                ]
            )
        return format_table(
            [
                "view",
                "policy",
                "tuples",
                "seen",
                "skipped",
                "applied",
                "screened",
                "irrelevant",
            ],
            rows,
            title="view maintenance summary",
        )

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
                    if entry.ordinal not in found:
                        found[entry.ordinal] = entry
                        # A deferred view has no per-commit delta to
                        # pass on.
                        if entry.policy is MaintenancePolicy.IMMEDIATE:
                            names.append(entry.view.definition.name)
            reach = self._reach[name] = [found[o] for o in sorted(found)]
        return reach

    def _on_commit(self, txn_id: int, deltas: Mapping[str, Delta]) -> None:
        entries = self._entries
        # Operand deltas by name: the transaction's non-empty base
        # deltas, then every view delta as it is applied.  A registered
        # view's name never takes a base delta — what is stacked on it
        # reads the view.
        arrived = {
            name: delta
            for name, delta in deltas.items()
            if name not in entries and not delta.is_empty()
        }
        # The records those deltas can reach, in ascending ordinal:
        # upstream views are registered before anything that references
        # them, so every operand delta of a record — from the
        # transaction or from a view maintained before it — has arrived
        # by its turn.
        if len(arrived) == 1:
            reached = self._reach_of(next(iter(arrived)))
        else:
            merged = {e.ordinal: e for name in arrived for e in self._reach_of(name)}
            reached = [merged[ordinal] for ordinal in sorted(merged)]
        if not reached:
            return
        sequence = self.database.log.last_sequence()
        recording = active_recorder() is not None
        for entry in reached:
            effective = {
                dep: arrived[dep] for dep in entry.dependencies if dep in arrived
            }
            if not effective:
                # Reachable, but no operand changed in this commit.
                continue
            if entry.policy is MaintenancePolicy.IMMEDIATE:
                view_delta = self._maintain(entry, effective, recording, sequence)
                if view_delta is not None:
                    arrived[entry.view.definition.name] = view_delta
            else:
                entry.commits_since_refresh += 1
                pending = entry.pending
                for relation_name, delta in effective.items():
                    existing = pending.get(relation_name)
                    composed = (
                        delta if existing is None else existing.compose(delta)
                    )
                    if composed.is_empty():
                        pending.pop(relation_name, None)
                    else:
                        pending[relation_name] = composed

    def apply_deltas(self, txn_id: int, deltas: Mapping[str, Delta]) -> None:
        """Maintain every view from externally supplied net deltas.

        The commit pipeline calls the same entry point through its
        hook; this public seam exists for **base-free hosts**
        (``base_free=True`` followers and shard nodes): they hold no
        base-relation rows to commit against, so they decode shipped
        deltas and feed them here directly.  Stacked views, deferred
        composition, subscribers and statistics all behave exactly as
        for a local commit.  Callers own sequencing: deltas must arrive
        in commit order, and the database log must be advanced so
        ``last_refresh_sequence`` bookkeeping stays meaningful.
        """
        self._on_commit(txn_id, deltas)

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
        environment").
        """
        entry = self._entry(name)
        pending = entry.pending
        entry.commits_since_refresh = 0
        sequence = self.database.log.last_sequence()
        if not pending:
            entry.view.last_refresh_sequence = sequence
            return False
        entry.pending = {}
        self._maintain(entry, pending, active_recorder() is not None, sequence)
        return True

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
                self.database.log.last_sequence()
                - entry.view.last_refresh_sequence,
            ),
        }

    # ------------------------------------------------------------------
    # Quiescent points
    # ------------------------------------------------------------------
    def quiesce(self) -> tuple[str, ...]:
        """Bring every view up to date; returns the names that changed.

        Immediate views are always current, so this amounts to
        refreshing every deferred view's composed backlog.  Afterwards
        the maintainer is at a *quiescent point*: every registered view
        equals its definition evaluated against the current base state
        — the precondition :meth:`verify_all` checks, and the moment
        the simulation harness's oracle runs.
        """
        refreshed = []
        for name in self.view_names():
            if self._entries[name].policy is MaintenancePolicy.DEFERRED:
                if self.refresh(name):
                    refreshed.append(name)
        return tuple(refreshed)

    def verify_all(
        self, raise_on_mismatch: bool = True
    ) -> "dict[str, ConsistencyReport]":
        """Full-recompute oracle over every registered view.

        Each view's defining expression is evaluated from scratch
        against the current base relations (and upstream views, for
        stacked definitions) and diffed — multiplicity counters
        included — against the maintained contents.  Only meaningful at
        a quiescent point (:meth:`quiesce` first, or no deferred
        backlog).  With ``raise_on_mismatch`` the first divergence
        raises :class:`~repro.errors.MaintenanceError`; otherwise the
        per-view reports are returned for inspection either way.
        """
        from repro.core.consistency import check_view_consistency

        instances = self.instances()
        reports: dict[str, ConsistencyReport] = {}
        for name in self.view_names():
            reports[name] = check_view_consistency(
                self._entries[name].view,
                instances,
                raise_on_mismatch=raise_on_mismatch,
            )
        return reports

    # ------------------------------------------------------------------
    # The filter + differential pipeline
    # ------------------------------------------------------------------
    def _maintain(
        self,
        entry: _ViewEntry,
        deltas: Mapping[str, Delta],
        recording: bool,
        sequence: int,
    ) -> Delta | None:
        """Execute the compiled plan and apply what it returns: the
        applied view delta, ``None`` when the view did not change.  What
        the call counts is settled on the view's row once, raise or not;
        what it would only charge is not even tallied unless a recorder
        is active to receive it (``recording``).  ``sequence`` is the
        log position the view is brought up to.
        """
        view = entry.view
        plan = entry.plan
        counted: Tally = [("transactions_seen", 1)]
        charged: Tally | None = [] if recording else None
        try:
            # A hit except right after an invalidation (the miss
            # recompiles and keeps the new plan).
            if plan is None:
                counted += (("plan_cache_misses", 1),)
                plan = self._recompile(entry)
            else:
                counted += (("plan_cache_hits", 1),)
            view_delta = plan.maintain(
                deltas, view.aggregate_state, counted, charged
            )
            if view_delta is None:
                counted += (("transactions_skipped", 1),)
            else:
                counted += (
                    ("view_tuples_inserted", len(view_delta.inserted)),
                    ("view_tuples_deleted", len(view_delta.deleted)),
                )
                view.apply_delta(view_delta)
                counted += (("deltas_applied", 1),)
        finally:
            entry.row.settle(counted, charged)
        view.last_refresh_sequence = sequence
        if view_delta is None:
            return None

        if self.auto_verify:
            from repro.core.consistency import check_view_consistency

            check_view_consistency(view, self.instances())

        if view_delta.is_empty():
            return None
        for callback in entry.subscribers:
            callback(view, view_delta)
        return view_delta

    def __repr__(self) -> str:
        return (
            f"<ViewMaintainer {len(self._entries)} views, "
            f"{sum(e.plan is not None for e in self._entries.values())} "
            "cached plans>"
        )
