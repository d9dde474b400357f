"""The paper's primary contribution.

* Section 4 — irrelevant-update detection: :mod:`normalize`,
  :mod:`graph`, :mod:`satisfiability`, :mod:`substitution`,
  :mod:`irrelevance`.
* Section 5 — differential re-evaluation: :mod:`counting`,
  :mod:`truthtable`, :mod:`planner`, :mod:`differential`.
* Compiled plans: :mod:`compiled`, :mod:`codegen` — the
  built-once/executed-often packaging of both sections.
* Orchestration: :mod:`views`, :mod:`maintainer`, :mod:`consistency`.
"""

from repro.core.satisfiability import (
    is_satisfiable,
    is_satisfiable_conjunction,
    solve_conjunction,
    solve_condition,
)
from repro.core.implication import (
    implies,
    minimize_condition,
    minimize_conjunction,
    conjunctions_equivalent,
    negate_atom,
)
from repro.core.substitution import (
    FormulaKind,
    classify_atom,
    split_conjunction,
    binding_for,
)
from repro.core.irrelevance import (
    RelevanceFilter,
    is_irrelevant_update,
    is_irrelevant_combination,
    filter_delta,
)
from repro.core.truthtable import DeltaRowChoice, enumerate_delta_rows, render_row
from repro.core.differential import (
    changed_positions_for,
    compute_view_delta,
    execute_planner,
)
from repro.core.compiled import CompiledViewPlan
from repro.core.views import ViewDefinition, MaterializedView
from repro.core.maintainer import ViewMaintainer, MaintenancePolicy
from repro.core.consistency import check_view_consistency

__all__ = [
    "implies",
    "minimize_condition",
    "minimize_conjunction",
    "conjunctions_equivalent",
    "negate_atom",
    "is_satisfiable",
    "is_satisfiable_conjunction",
    "solve_conjunction",
    "solve_condition",
    "FormulaKind",
    "classify_atom",
    "split_conjunction",
    "binding_for",
    "RelevanceFilter",
    "is_irrelevant_update",
    "is_irrelevant_combination",
    "filter_delta",
    "DeltaRowChoice",
    "enumerate_delta_rows",
    "render_row",
    "changed_positions_for",
    "compute_view_delta",
    "execute_planner",
    "CompiledViewPlan",
    "ViewDefinition",
    "MaterializedView",
    "ViewMaintainer",
    "MaintenancePolicy",
    "check_view_consistency",
]
