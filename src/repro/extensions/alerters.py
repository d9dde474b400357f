"""Alerters (Buneman & Clemons [BC79]) over maintained views.

An alerter monitors a database and reports when "a state of the
database, described by the view definition, has been reached".  With
the paper's maintenance machinery this reduces to subscribing to a
materialized view's deltas: every insert-tagged view tuple is a *raise*
event, every delete-tagged one a *clear* event — no polling, no
re-evaluation, and the Section 4 filter screens uninteresting updates
before they cost anything (exactly [BC79]'s emphasis on "efficient
detection of base relation updates that are of no interest").

Usage::

    registry = AlerterRegistry(db)
    registry.define(
        "overheat",
        BaseRef("sensor").join(BaseRef("reading"))
                         .select("value > threshold + 10"),
        on_event=print,
    )
    # ... commits fire AlertEvents synchronously ...
    print(registry.log)        # every event ever fired
"""

from __future__ import annotations

from typing import Callable

from repro.algebra.expressions import Expression
from repro.algebra.relation import Delta
from repro.core.maintainer import ViewMaintainer
from repro.core.views import MaterializedView
from repro.engine.database import Database
from repro.errors import MaintenanceError


class AlertEvent:
    """One alerter firing: a view tuple appeared or disappeared."""

    __slots__ = ("alerter", "kind", "values", "count")

    RAISED = "raised"
    CLEARED = "cleared"

    def __init__(self, alerter: str, kind: str, values: tuple, count: int) -> None:
        self.alerter = alerter
        self.kind = kind
        self.values = values
        self.count = count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlertEvent):
            return NotImplemented
        return (
            self.alerter == other.alerter
            and self.kind == other.kind
            and self.values == other.values
            and self.count == other.count
        )

    def __repr__(self) -> str:
        return f"<AlertEvent {self.alerter}:{self.kind} {self.values} x{self.count}>"


class Alerter:
    """One named alerter: a target view plus its event callback."""

    __slots__ = ("name", "view", "on_event", "events_fired")

    def __init__(
        self,
        name: str,
        view: MaterializedView,
        on_event: Callable[[AlertEvent], None] | None,
    ) -> None:
        self.name = name
        self.view = view
        self.on_event = on_event
        self.events_fired = 0

    def active_conditions(self) -> list[tuple]:
        """View tuples currently raised (the alerter's live alarms)."""
        return sorted(self.view.contents.value_tuples())

    def __repr__(self) -> str:
        return (
            f"<Alerter {self.name!r}: {len(self.view.contents)} active, "
            f"{self.events_fired} events fired>"
        )


class AlerterRegistry:
    """Manages alerters over one database.

    Owns a private :class:`ViewMaintainer` so the *target relations*
    ([BC79]'s term for the monitored queries) are maintained like any
    other materialized view; alert events are derived from the deltas
    the maintainer applies, count-faithfully (a tuple whose multiplicity
    rises from 0 raises; one whose multiplicity falls to 0 clears;
    intermediate count changes are not events).
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self._maintainer = ViewMaintainer(database)
        self._alerters: dict[str, Alerter] = {}
        #: Chronological log of every event fired by any alerter.
        self.log: list[AlertEvent] = []

    # ------------------------------------------------------------------
    # Definition
    # ------------------------------------------------------------------
    def define(
        self,
        name: str,
        target: Expression,
        on_event: Callable[[AlertEvent], None] | None = None,
    ) -> Alerter:
        """Register an alerter on a target-relation expression.

        Conditions already satisfied at definition time count as active
        alarms but do not fire events (the alerter reports *changes*).
        """
        if name in self._alerters:
            raise MaintenanceError(f"alerter {name!r} is already defined")
        view = self._maintainer.define_view(f"__alerter__{name}", target)
        alerter = Alerter(name, view, on_event)
        self._alerters[name] = alerter

        def deliver(view: MaterializedView, delta: Delta) -> None:
            self._deliver(alerter, delta)

        self._maintainer.subscribe(f"__alerter__{name}", deliver)
        return alerter

    def drop(self, name: str) -> None:
        """Remove an alerter and its target view."""
        if name not in self._alerters:
            raise MaintenanceError(f"no alerter named {name!r}")
        del self._alerters[name]
        self._maintainer.drop_view(f"__alerter__{name}")

    def alerter(self, name: str) -> Alerter:
        """The alerter registered under ``name``."""
        try:
            return self._alerters[name]
        except KeyError:
            raise MaintenanceError(f"no alerter named {name!r}") from None

    def alerter_names(self) -> tuple[str, ...]:
        """All alerter names, sorted."""
        return tuple(sorted(self._alerters))

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _deliver(self, alerter: Alerter, delta: Delta) -> None:
        counts = alerter.view.contents.count_map
        events: list[AlertEvent] = []
        for values, count in delta.inserted.items():
            # The delta is already applied: a raise happened iff the
            # tuple's count equals the inserted count (it was absent).
            if counts.get(values) == count:
                events.append(
                    AlertEvent(alerter.name, AlertEvent.RAISED, values, count)
                )
        for values, count in delta.deleted.items():
            if values not in counts:
                events.append(
                    AlertEvent(alerter.name, AlertEvent.CLEARED, values, count)
                )
        for event in sorted(events, key=lambda e: (e.kind, e.values)):
            alerter.events_fired += 1
            self.log.append(event)
            if alerter.on_event is not None:
                alerter.on_event(event)

    def detach(self) -> None:
        """Stop all monitoring."""
        self._maintainer.detach()

    def __repr__(self) -> str:
        return (
            f"<AlerterRegistry {len(self._alerters)} alerters, "
            f"{len(self.log)} events>"
        )
