"""Extensions beyond the paper's core contribution.

Section 2 (previous work) and Section 6 (conclusions) point at three
neighbouring applications of the same machinery, all implemented here:

* :mod:`assertions` — integrity-assertion monitoring in the style of
  Hammer & Sarin [HS78]; the paper notes "our results can be used in
  those contexts as well".
* :mod:`alerters` — Buneman & Clemons-style alerters [BC79] as
  first-class subscribers to maintained-view deltas.
* :mod:`estimator` — the conclusions' open question ("determine under
  what circumstances differential re-evaluation is more efficient than
  complete re-evaluation") operationalized as a cost-estimating
  maintainer policy.
* :mod:`union_views` — the SPJ class lifted to SPJU: views defined as a
  union of branches, maintained through the very distributivity over
  union that powers Section 5.

All but :mod:`assertions` run the compiled kernels (see its docstring).
"""

from repro.extensions.assertions import AssertionMonitor, IntegrityAssertion
from repro.extensions.alerters import Alerter, AlertEvent, AlerterRegistry
from repro.extensions.estimator import (
    AdaptiveMaintainer,
    MaintenanceCostModel,
    StrategyDecision,
)
from repro.extensions.union_views import UnionView

__all__ = [
    "UnionView",
    "AssertionMonitor",
    "IntegrityAssertion",
    "Alerter",
    "AlertEvent",
    "AlerterRegistry",
    "AdaptiveMaintainer",
    "MaintenanceCostModel",
    "StrategyDecision",
]
