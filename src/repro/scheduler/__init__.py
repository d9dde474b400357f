"""Self-maintainability analysis and the staleness-SLA refresh scheduler.

The subsystem has two halves (see ``docs/scheduler.md``):

* :mod:`repro.scheduler.selfmaint` classifies each view definition as
  *self-maintainable* — updatable from the view's own counted contents
  plus the shipped delta, with no base-relation state consulted — or
  not.  Hosts that carry only self-maintainable views (a
  :class:`~repro.replication.follower.Follower` or a
  :class:`~repro.cluster.shard.ShardNode` with ``base_free=True``) drop
  their base-relation copies entirely.
* :mod:`repro.scheduler.refresh` schedules ``refresh()`` calls for
  deferred views against per-view staleness SLAs
  (:class:`~repro.scheduler.sla.StalenessSLA`), with batching and
  backpressure; :mod:`repro.scheduler.monitor` snapshots maintenance
  and scheduler counters over a virtual-clock window and renders
  deterministic JSON/HTML staleness reports.
"""

from repro.scheduler.monitor import Monitor, StalenessReport
from repro.scheduler.refresh import RefreshScheduler, TickClock
from repro.scheduler.selfmaint import (
    KIND_CONSTRAINT_EMPTY,
    KIND_JOIN,
    KIND_SINGLE_RELATION,
    SelfMaintainability,
    classify_self_maintainability,
)
from repro.scheduler.sla import StalenessSLA

__all__ = [
    "KIND_CONSTRAINT_EMPTY",
    "KIND_JOIN",
    "KIND_SINGLE_RELATION",
    "Monitor",
    "RefreshScheduler",
    "SelfMaintainability",
    "StalenessReport",
    "StalenessSLA",
    "TickClock",
    "classify_self_maintainability",
]
