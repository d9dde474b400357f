"""The staleness-SLA refresh scheduler for deferred views.

:class:`RefreshScheduler` owns the *when* of deferred maintenance: the
maintainer composes backlogs per commit (cheap), and the scheduler
decides which views to :meth:`~repro.core.maintainer.ViewMaintainer.refresh`
on each tick, most-overdue first, against their declared
:class:`~repro.scheduler.sla.StalenessSLA` bounds.

Time is a virtual integer clock (:class:`TickClock` — duck-compatible
with the simulation harness's ``SimClock``): the server advances it
once per committed transaction, the ``simulate`` harness per scheduled
event.  Nothing here reads ambient time, so a schedule replays
identically from a seed.

Scheduling policy
-----------------
* A view becomes **due** when its backlog or oldest-commit age reaches
  an SLA bound.  Due views are refreshed most-overdue first (excess
  over the bound, ties by name) — a priority queue rebuilt per tick
  from live backlog measures, because composition can both grow and
  *cancel* a backlog between ticks.
* At most ``batch_limit`` refreshes run per tick (**backpressure**):
  a refresh drains the whole composed backlog through one differential
  maintenance call, so bounding refreshes per tick bounds the
  maintenance work a single tick can inject into the commit path.
  Deferred-past-due views are counted and retried next tick.
* A due view observed *strictly beyond* a bound has missed its SLA;
  the miss is charged per view per tick (``scheduler_sla_violations``)
  whether or not this tick's batch then refreshes it.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Optional

from repro.errors import MaintenanceError, UnknownViewError
from repro.instrumentation import CostRecorder
from repro.scheduler.sla import StalenessSLA

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.maintainer import ViewMaintainer


class TickClock:
    """A monotonically advancing integer clock.

    The scheduler only reads ``.now``; any object with an integer
    ``now`` attribute works (the simulation harness passes its
    ``SimClock``).
    """

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0

    def advance(self, ticks: int = 1) -> int:
        """Move time forward; returns the new now."""
        if ticks < 0:
            raise ValueError("time only moves forward")
        self.now += ticks
        return self.now

    def __repr__(self) -> str:
        return f"<TickClock t={self.now}>"


class RefreshScheduler:
    """Drives ``refresh()`` for deferred views against staleness SLAs."""

    def __init__(
        self,
        maintainer: "ViewMaintainer",
        clock: Optional[TickClock] = None,
        batch_limit: int = 4,
    ) -> None:
        if batch_limit < 1:
            raise ValueError(f"batch_limit must be >= 1, got {batch_limit}")
        self.maintainer = maintainer
        self.clock = clock if clock is not None else TickClock()
        self.batch_limit = batch_limit
        #: Always-on totals: the ``scheduler`` family.
        self.totals = CostRecorder()
        self._slas: dict[str, StalenessSLA] = {}
        #: Tick at which the oldest unapplied commit was first observed.
        self._first_pending_tick: dict[str, int] = {}
        self._violations: dict[str, int] = {}

    # ------------------------------------------------------------------
    # SLA management
    # ------------------------------------------------------------------
    def declare_sla(self, name: str, sla: StalenessSLA) -> None:
        """Attach an SLA to a deferred view (re-declaring replaces it).

        Immediate views are always current, so declaring an SLA on one
        is a configuration error, not a no-op.
        """
        from repro.core.maintainer import MaintenancePolicy

        if self.maintainer.policy(name) is not MaintenancePolicy.DEFERRED:
            raise MaintenanceError(
                f"view {name!r} is maintained immediately; staleness SLAs "
                "apply to deferred views only"
            )
        self._slas[name] = sla
        self._violations.setdefault(name, 0)

    def drop_sla(self, name: str) -> bool:
        """Forget a view's SLA; returns True when one existed."""
        self._first_pending_tick.pop(name, None)
        return self._slas.pop(name, None) is not None

    def sla(self, name: str) -> Optional[StalenessSLA]:
        """The declared SLA for ``name`` (None when absent)."""
        return self._slas.get(name)

    def sla_names(self) -> tuple[str, ...]:
        """Views with declared SLAs, sorted."""
        return tuple(sorted(self._slas))

    def violations(self) -> dict[str, int]:
        """Per-view SLA-violation tick counts (views with SLAs only)."""
        return {name: self._violations.get(name, 0) for name in self.sla_names()}

    def counters(self) -> dict[str, int]:
        """The scheduler's totals, keyed without the ``scheduler_``
        prefix (the ``stats`` op's and the monitor's form)."""
        totals = self.totals.family("scheduler").as_dict()
        return {name.removeprefix("scheduler_"): n for name, n in totals.items()}

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def note_commit(self) -> None:
        """Record backlog arrival times after a commit.

        Stamps the current tick as the *first pending tick* of every
        SLA-tracked view whose backlog just became non-empty — the
        basis of the ``max_lag_ticks`` measure.  Called by the server
        after each commit and by :meth:`tick` itself (a tick observes
        before it schedules), so wiring ``note_commit`` everywhere is a
        precision improvement, not a correctness requirement.

        An SLA whose view has been dropped is forgotten here, with its
        pending tick and violation count: the view's name may be taken
        again by a view the SLA was never declared for.
        """
        for name in tuple(self._slas):
            try:
                backlog = self.maintainer.backlog(name)
            except UnknownViewError:
                self.drop_sla(name)
                self._violations.pop(name, None)
                continue
            if backlog["commits_since_refresh"] > 0:
                self._first_pending_tick.setdefault(name, self.clock.now)
            else:
                self._first_pending_tick.pop(name, None)

    def lag_ticks(self, name: str) -> int:
        """Age of the oldest unapplied commit, in ticks (0 when fresh)."""
        if name not in self._slas:
            raise UnknownViewError(f"no SLA declared for view {name!r}")
        first = self._first_pending_tick.get(name)
        return 0 if first is None else self.clock.now - first

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------
    def tick(self) -> tuple[str, ...]:
        """Refresh due views, most overdue first, up to ``batch_limit``.

        Returns the names refreshed this tick.  Deterministic: the
        queue order depends only on backlog measures, the clock, and
        view names.
        """
        count = self.totals.count
        count("scheduler_ticks")
        self.note_commit()

        queue: list[tuple[int, str]] = []
        for name in self.sla_names():
            sla = self._slas[name]
            backlog = self.maintainer.backlog(name)
            pending = backlog["commits_since_refresh"]
            lag = self.lag_ticks(name)
            if not sla.due(pending, lag):
                continue
            count("scheduler_due_views_seen")
            if sla.violated(pending, lag):
                self._violations[name] = self._violations.get(name, 0) + 1
                count("scheduler_sla_violations")
            heapq.heappush(queue, (-sla.overdue_by(pending, lag), name))

        refreshed: list[str] = []
        while queue and len(refreshed) < self.batch_limit:
            _, name = heapq.heappop(queue)
            pending = self.maintainer.backlog(name)["commits_since_refresh"]
            self.maintainer.refresh(name)
            self._first_pending_tick.pop(name, None)
            count("scheduler_refreshes")
            count("scheduler_refreshed_commits", pending)
            refreshed.append(name)
        if queue:
            count("scheduler_backpressure_deferrals", len(queue))
        return tuple(refreshed)

    def __repr__(self) -> str:
        return (
            f"<RefreshScheduler {len(self._slas)} SLAs, t={self.clock.now}, "
            f"batch_limit={self.batch_limit}>"
        )
