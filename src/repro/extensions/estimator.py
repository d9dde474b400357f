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
"""

from __future__ import annotations

from typing import Mapping

from repro.algebra.expressions import Expression
from repro.algebra.relation import Delta
from repro.core.differential import compute_view_delta
from repro.core.irrelevance import filter_delta
from repro.core.planner import evaluate_normal_form
from repro.core.views import MaterializedView, ViewDefinition
from repro.engine.database import Database
from repro.errors import MaintenanceError, ViewDefinitionError
from repro.instrumentation import CostRecorder, recording

#: Operation counters that constitute "work" for the model.
_WORK_COUNTERS = ("tuples_scanned", "join_probes", "tuples_emitted")


def _work(recorder: CostRecorder) -> int:
    return sum(recorder.get(name) for name in _WORK_COUNTERS)


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
        self.view = MaterializedView.from_stored(
            definition,
            evaluate_normal_form(definition.normal_form, database.instances()),
        )
        #: Every maintenance round's decision, in commit order.
        self.decisions: list[StrategyDecision] = []
        self._rounds = 0
        database.add_commit_hook(self._on_commit)

    # ------------------------------------------------------------------
    # Commit pipeline
    # ------------------------------------------------------------------
    def _on_commit(self, txn_id: int, deltas: Mapping[str, Delta]) -> None:
        normal_form = self.view.definition.normal_form
        touched = self.view.definition.relation_names & deltas.keys()
        if not touched:
            return

        relevant: dict[str, Delta] = {}
        for relation_name in touched:
            delta, _ = filter_delta(
                normal_form, relation_name, deltas[relation_name]
            )
            if not delta.is_empty():
                relevant[relation_name] = delta
        if not relevant:
            return

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

        recorder = CostRecorder()
        with recording(recorder):
            if chosen == "differential":
                view_delta = compute_view_delta(
                    normal_form, self.database.instances(), relevant
                )
                self.view.apply_delta(view_delta)
            else:
                self.view.replace_contents(
                    evaluate_normal_form(normal_form, self.database.instances())
                )
                self.view.updates_applied += 1

        observed = _work(recorder)
        diff_term, full_term = self.model.size_features(
            delta_tuples, changed, touched_base, total_base
        )
        self.model.observe(
            chosen, diff_term if chosen == "differential" else full_term, observed
        )
        self.decisions.append(
            StrategyDecision(chosen, est_diff, est_full, observed)
        )

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

    def __repr__(self) -> str:
        counts = self.strategy_counts()
        return (
            f"<AdaptiveMaintainer {self.view.definition.name!r} "
            f"diff={counts['differential']} full={counts['full']} {self.model!r}>"
        )
