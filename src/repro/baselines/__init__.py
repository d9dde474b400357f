"""Baselines the paper's mechanism is compared against.

* :mod:`full_reevaluation` — recompute the view from scratch on every
  commit ("complete re-evaluation", the cost the paper calls "often
  wasteful"), on the compiled kernels the differential maintainer runs.
* :mod:`key_projection` — Section 5.2's alternative (2): carry the
  underlying relation's key through the projection instead of a
  multiplicity counter.
"""

from repro.baselines.full_reevaluation import FullReevaluationMaintainer
from repro.baselines.key_projection import KeyProjectionView

__all__ = ["FullReevaluationMaintainer", "KeyProjectionView"]
