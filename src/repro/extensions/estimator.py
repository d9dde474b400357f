"""Adaptive strategy choice: differential vs complete re-evaluation.

The paper's conclusions: "Our differential view update algorithm does
not automatically provide the most efficient way of updating the view.
Therefore, a next step in this direction is to determine under what
circumstances differential re-evaluation is more efficient than
complete re-evaluation of the expression defining the view."

This module takes that step.  :class:`MaintenanceCostModel` estimates
both strategies' costs in abstract work units:

* differential ≈ ``c_diff · (2^k − 1) · |Δ|  +  prep`` where prep is
  the old-operand construction proportional to the touched relations'
  sizes;
* complete ≈ ``c_full · Σ|r_i|`` plus the expected output size.

The per-unit coefficients ``c_diff`` / ``c_full`` are *learned online*
from the operation counts each executed strategy actually charges
(exponentially weighted), so the model self-calibrates to the workload
instead of hard-coding constants.  :class:`AdaptiveMaintainer` wires
the model into the commit pipeline: early commits explore both
strategies; afterwards each commit runs whichever the model predicts
cheaper, and every observation refines the model.  Decisions are kept
for inspection as :class:`StrategyDecision` records.

Both strategies run one compiled plan (screen kernels, then the row
kernel or :meth:`~repro.core.compiled.CompiledViewPlan.evaluate`), and
a round observes those kernels' work tallies; DDL drops the plan.
"""

from __future__ import annotations

from typing import Mapping

from repro.algebra.expressions import Expression
from repro.algebra.relation import Delta
from repro.core.compiled import CompiledViewPlan
from repro.core.views import MaterializedView, ViewDefinition
from repro.engine.database import Database
from repro.errors import MaintenanceError, ViewDefinitionError
from repro.instrumentation import CostRecorder, Tally

#: Operation counters that constitute "work" for the model.
_WORK_COUNTERS = ("tuples_scanned", "join_probes", "tuples_emitted")


class StrategyDecision:
    """One commit's decision and its outcome."""

    __slots__ = ("chosen", "estimated_differential", "estimated_full",
                 "observed_work")

    def __init__(self, chosen: str, estimated_differential: float,
                 estimated_full: float, observed_work: int) -> None:
        self.chosen = chosen
        self.estimated_differential = estimated_differential
        self.estimated_full = estimated_full
        self.observed_work = observed_work

    def __repr__(self) -> str:
        return (
            f"<StrategyDecision {self.chosen} "
            f"(diff~{self.estimated_differential:.0f}, "
            f"full~{self.estimated_full:.0f}, saw {self.observed_work})>"
        )


class MaintenanceCostModel:
    """Online-calibrated cost estimates for the two strategies."""

    def __init__(self, smoothing: float = 0.3) -> None:
        if not 0 < smoothing <= 1:
            raise MaintenanceError("smoothing must be in (0, 1]")
        self.smoothing = smoothing
        #: Learned work units per (delta tuple × truth-table row).
        self.c_diff = 1.0
        #: Learned work units per base tuple for a full evaluation.
        self.c_full = 1.0

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def size_features(
        self, delta_tuples: int, changed_relations: int,
        touched_base_tuples: int, total_base_tuples: int,
    ) -> tuple[float, float]:
        """Return the raw size terms for both strategies.

        The differential term includes the old-operand preparation cost
        (a scan of each touched relation) — the dominant fixed cost of
        a truth-table evaluation — plus rows × delta work; the complete
        term is a scan of everything.
        """
        rows = (1 << changed_relations) - 1
        differential = touched_base_tuples + rows * max(1, delta_tuples)
        full = total_base_tuples
        return float(differential), float(full)

    def estimate(self, delta_tuples: int, changed_relations: int,
                 touched_base_tuples: int, total_base_tuples: int,
                 ) -> tuple[float, float]:
        """Calibrated cost estimates ``(differential, full)``."""
        diff_term, full_term = self.size_features(
            delta_tuples, changed_relations, touched_base_tuples,
            total_base_tuples,
        )
        return self.c_diff * diff_term, self.c_full * full_term

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def observe(self, strategy: str, size_term: float, observed_work: int) -> None:
        """Fold one observation into the chosen strategy's coefficient."""
        if size_term <= 0:
            return
        sample = observed_work / size_term
        if strategy == "differential":
            self.c_diff += self.smoothing * (sample - self.c_diff)
        elif strategy == "full":
            self.c_full += self.smoothing * (sample - self.c_full)
        else:  # pragma: no cover - defensive
            raise MaintenanceError(f"unknown strategy {strategy!r}")

    def __repr__(self) -> str:
        return f"<MaintenanceCostModel c_diff={self.c_diff:.3f} c_full={self.c_full:.3f}>"


class AdaptiveMaintainer:
    """Maintains one SPJ view, choosing the cheaper strategy per commit.

    Aggregate definitions are rejected with ``ViewDefinitionError``:
    both strategies work over the SPJ core and neither runs the fold
    stage, so an aggregate view belongs to :class:`ViewMaintainer`.

    Parameters
    ----------
    database, name, expression:
        As for :meth:`ViewMaintainer.define_view`.
    exploration:
        Number of initial maintenance rounds that alternate strategies
        regardless of the estimates, so both coefficients get calibrated
        before the model starts deciding.
    """

    def __init__(
        self,
        database: Database,
        name: str,
        expression: Expression,
        exploration: int = 4,
        model: MaintenanceCostModel | None = None,
    ) -> None:
        self.database = database
        self.exploration = exploration
        self.model = model if model is not None else MaintenanceCostModel()
        definition = ViewDefinition(name, expression, database.schema_catalog())
        if definition.aggregate is not None:
            # Both strategies here produce a delta or a relation over
            # the SPJ core; neither runs the fold stage that turns it
            # into group rows.
            raise ViewDefinitionError(
                f"AdaptiveMaintainer maintains SPJ views; {name!r} is an "
                "aggregate view (use ViewMaintainer)"
            )
        #: The always-on bag the plan counts into.
        self._counters = CostRecorder()
        #: The compiled plan; None from a DDL event to its next use.
        self._plan: CompiledViewPlan | None = None
        counted: Tally = []
        charged: Tally = []
        stored = self._compiled(definition).evaluate(counted, charged)
        self._counters.settle(counted, charged)
        self.view = MaterializedView.from_stored(definition, stored)
        #: Every maintenance round's decision, in commit order.
        self.decisions: list[StrategyDecision] = []
        self._rounds = 0
        database.add_commit_hook(self._on_commit)
        database.add_ddl_hook(self._on_ddl)

    # ------------------------------------------------------------------
    # Commit pipeline
    # ------------------------------------------------------------------
    def _compiled(self, definition: ViewDefinition) -> CompiledViewPlan:
        if self._plan is None:
            self._plan = CompiledViewPlan(
                definition, self.database, self._counters
            )
        return self._plan

    def _on_commit(self, txn_id: int, deltas: Mapping[str, Delta]) -> None:
        definition = self.view.definition
        names = definition.relation_names
        if not names & deltas.keys():
            return
        plan = self._compiled(definition)
        # The kernels' tallies are the work a round observes, so they
        # are kept whether or not a recorder is active to receive them.
        counted: Tally = []
        charged: Tally = []
        relevant: dict[str, Delta] = {}
        for relation_name, delta in deltas.items():
            if relation_name in names:
                screened = plan.screen(relation_name, delta, counted, charged)
                if screened is not None:
                    relevant[relation_name] = screened
        if not relevant:
            self._counters.settle(counted, charged)
            return

        normal_form = definition.normal_form
        delta_tuples = sum(
            len(d.inserted) + len(d.deleted) for d in relevant.values()
        )
        changed = len(
            [o for o in normal_form.occurrences if o.name in relevant]
        )
        touched_base = sum(
            len(self.database.relation(o.name)) for o in normal_form.occurrences
            if o.name in relevant
        )
        total_base = sum(
            len(self.database.relation(o.name)) for o in normal_form.occurrences
        )
        est_diff, est_full = self.model.estimate(
            delta_tuples, changed, touched_base, total_base
        )

        if self._rounds < self.exploration:
            chosen = "differential" if self._rounds % 2 == 0 else "full"
        else:
            chosen = "differential" if est_diff <= est_full else "full"
        self._rounds += 1

        if chosen == "differential":
            inserted, deleted = plan.compute_delta(relevant, counted, charged)
            self.view.apply_delta(
                Delta.adopt(self.view.contents.schema, inserted, deleted)
            )
        else:
            self.view.replace_contents(plan.evaluate(counted, charged))
            self.view.updates_applied += 1

        # Screening tallies none of the work counters.
        observed = sum(
            amount for metric, amount in charged if metric in _WORK_COUNTERS
        )
        diff_term, full_term = self.model.size_features(
            delta_tuples, changed, touched_base, total_base
        )
        known = (self.model.c_diff, self.model.c_full)
        self.model.observe(
            chosen, diff_term if chosen == "differential" else full_term, observed
        )
        self.decisions.append(
            StrategyDecision(chosen, est_diff, est_full, observed)
        )
        self._counters.settle(counted, charged)
        # An undone commit is taken back to what the model knew before.
        self.database.undo.append((self._undo, *known))

    def _undo(self, c_diff: float, c_full: float) -> None:
        """Take an undone commit back: re-derive the view from the
        restored base, uncounted, and forget the commit's decision."""
        plan = self._compiled(self.view.definition)
        self.view.replace_contents(plan.evaluate([], []))
        self.view.updates_applied -= 1
        self.model.c_diff, self.model.c_full = c_diff, c_full
        self.decisions.pop()
        self._rounds -= 1

    def _on_ddl(self, event: str, relation_name: str) -> None:
        definition = self.view.definition
        if event == "drop_relation" and relation_name in definition.relation_names:
            raise MaintenanceError(
                f"cannot drop relation {relation_name!r}: read by view "
                f"{definition.name!r}"
            )
        self._plan = None

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def strategy_counts(self) -> dict[str, int]:
        """How many rounds each strategy was chosen."""
        counts = {"differential": 0, "full": 0}
        for decision in self.decisions:
            counts[decision.chosen] += 1
        return counts

    def detach(self) -> None:
        """Stop maintaining."""
        self.database.remove_commit_hook(self._on_commit)
        self.database.remove_ddl_hook(self._on_ddl)

    def __repr__(self) -> str:
        counts = self.strategy_counts()
        return (
            f"<AdaptiveMaintainer {self.view.definition.name!r} "
            f"diff={counts['differential']} full={counts['full']} {self.model!r}>"
        )
