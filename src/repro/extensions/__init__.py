"""Extensions beyond the paper's core contribution.

Section 2 (previous work) and Section 6 (conclusions) point at
neighbouring applications of the same machinery, implemented here:

* :mod:`alerters` — Buneman & Clemons-style alerters [BC79] as
  first-class subscribers to maintained-view deltas.
* :mod:`estimator` — the conclusions' open question ("determine under
  what circumstances differential re-evaluation is more efficient than
  complete re-evaluation") operationalized as a cost-estimating
  maintainer policy.
* :mod:`union_views` — the SPJ class lifted to SPJU: views defined as a
  union of branches, maintained through the very distributivity over
  union that powers Section 5.

All of them run the compiled kernels.  Hammer & Sarin's integrity
assertions [HS78], which the paper says its results serve too, need no
extension: an assertion is a view of its error predicate that must stay
empty (``MaintenancePolicy.ASSERTION``), checked at the commit point.
"""

from repro.extensions.alerters import Alerter, AlertEvent, AlerterRegistry
from repro.extensions.estimator import (
    AdaptiveMaintainer,
    MaintenanceCostModel,
    StrategyDecision,
)
from repro.extensions.union_views import UnionView

__all__ = [
    "UnionView",
    "Alerter",
    "AlertEvent",
    "AlerterRegistry",
    "AdaptiveMaintainer",
    "MaintenanceCostModel",
    "StrategyDecision",
]
