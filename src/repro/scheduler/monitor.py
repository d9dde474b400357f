"""Staleness monitoring: windowed counter snapshots and reports.

:class:`Monitor` brackets a time window over one maintainer (and
optionally its :class:`~repro.scheduler.refresh.RefreshScheduler`):
:meth:`~Monitor.begin` snapshots every per-view maintenance counter and
the scheduler's counters, :meth:`~Monitor.report` diffs the live
counters against the snapshot and returns a
:class:`StalenessReport` — per-view staleness (backlog size, commits
since refresh, sequence and tick lag), SLA bounds and violations over
the window, and refresh cost (maintenance runs, tuples screened, view
tuples churned).

Reports render as JSON (:meth:`StalenessReport.as_json`) and as a
standalone HTML page (:meth:`StalenessReport.as_html`).  Both are
**deterministic**: every number derives from the virtual clock and the
instrumentation counters — no wall-clock timestamps, no ambient state —
so a seeded run produces byte-identical reports (CI uploads the HTML
as an artifact and may diff it).
"""

from __future__ import annotations

import html
import json
from typing import TYPE_CHECKING, Optional

from repro.errors import MaintenanceError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.maintainer import ViewMaintainer
    from repro.core.views import MaterializedView
    from repro.scheduler.refresh import RefreshScheduler

#: Per-view cost counters diffed over the window, in report order.
_COST_COUNTERS = (
    "transactions_seen",
    "transactions_skipped",
    "deltas_applied",
    "tuples_screened",
    "tuples_irrelevant",
    "view_tuples_inserted",
    "view_tuples_deleted",
)


class StalenessReport:
    """One rendered monitoring window (see module docstring)."""

    __slots__ = ("data",)

    def __init__(self, data: dict) -> None:
        self.data = data

    def as_json(self) -> str:
        """The report as pretty-printed JSON with sorted keys."""
        return json.dumps(self.data, sort_keys=True, indent=2)

    def as_html(self) -> str:
        """The report as a standalone HTML page (deterministic)."""
        window = self.data["window"]
        views: dict[str, dict] = self.data["views"]
        scheduler: Optional[dict] = self.data["scheduler"]
        out: list[str] = [
            "<!DOCTYPE html>",
            "<html><head><meta charset='utf-8'>",
            "<title>staleness report</title>",
            "<style>",
            "body{font-family:monospace;margin:2em;}",
            "table{border-collapse:collapse;margin-bottom:2em;}",
            "th,td{border:1px solid #999;padding:0.3em 0.7em;text-align:right;}",
            "th{background:#eee;}td.name{text-align:left;}",
            ".violated{background:#fdd;}.ok{background:#dfd;}",
            "</style></head><body>",
            "<h1>staleness report</h1>",
            f"<p>window: tick {window['start']} &rarr; tick {window['end']} "
            f"({window['ticks']} ticks)</p>",
        ]
        out.append("<h2>views</h2><table><tr>")
        for heading in (
            "view",
            "policy",
            "tuples",
            "pending relations",
            "pending delta size",
            "commits since refresh",
            "sequence lag",
            "lag ticks",
            "SLA",
            "violations",
            "maintenance runs",
            "tuples screened",
            "view tuples churned",
        ):
            out.append(f"<th>{html.escape(heading)}</th>")
        out.append("</tr>")
        for name in sorted(views):
            row = views[name]
            backlog = row["backlog"]
            cost = row["cost"]
            sla = row["sla"]
            sla_text = (
                "&mdash;"
                if sla is None
                else html.escape(
                    f"pending<={sla['max_pending_commits']} "
                    f"lag<={sla['max_lag_ticks']}"
                )
            )
            cls = "violated" if row["sla_violations"] else "ok"
            churn = cost["view_tuples_inserted"] + cost["view_tuples_deleted"]
            out.append(
                f"<tr class='{cls}'><td class='name'>{html.escape(name)}</td>"
                f"<td>{html.escape(row['policy'])}</td>"
                f"<td>{row['tuples']}</td>"
                f"<td>{backlog['pending_relations']}</td>"
                f"<td>{backlog['pending_delta_size']}</td>"
                f"<td>{backlog['commits_since_refresh']}</td>"
                f"<td>{backlog['sequence_lag']}</td>"
                f"<td>{row['lag_ticks']}</td>"
                f"<td>{sla_text}</td>"
                f"<td>{row['sla_violations']}</td>"
                f"<td>{cost['transactions_seen']}</td>"
                f"<td>{cost['tuples_screened']}</td>"
                f"<td>{churn}</td></tr>"
            )
        out.append("</table>")
        if scheduler is not None:
            out.append("<h2>scheduler</h2><table><tr>")
            for key in sorted(scheduler):
                out.append(f"<th>{html.escape(key)}</th>")
            out.append("</tr><tr>")
            for key in sorted(scheduler):
                out.append(f"<td>{scheduler[key]}</td>")
            out.append("</tr></table>")
        out.append("</body></html>")
        return "\n".join(out)

    def __repr__(self) -> str:
        window = self.data["window"]
        return (
            f"<StalenessReport {len(self.data['views'])} views, "
            f"ticks {window['start']}..{window['end']}>"
        )


class Monitor:
    """Snapshots counters at window start and diffs at window end."""

    def __init__(
        self,
        maintainer: "ViewMaintainer",
        scheduler: Optional["RefreshScheduler"] = None,
    ) -> None:
        self.maintainer = maintainer
        self.scheduler = scheduler
        self._window_start: Optional[int] = None
        self._base_stats: dict[str, dict[str, int]] = {}
        #: The view object each baseline row belongs to: a view dropped
        #: and re-defined under the same name inside the window is a
        #: new object whose counters restarted at zero.
        self._base_views: dict[str, "MaterializedView"] = {}
        self._base_scheduler: dict[str, int] = {}
        self._base_violations: dict[str, int] = {}

    def begin(self, now: int = 0) -> None:
        """Open a window at virtual tick ``now``."""
        self._window_start = now
        self._base_stats = self.maintainer.all_stats()
        self._base_views = {
            name: self.maintainer.view(name) for name in self._base_stats
        }
        if self.scheduler is not None:
            self._base_scheduler = self.scheduler.counters()
            self._base_violations = self.scheduler.violations()
        else:
            self._base_scheduler = {}
            self._base_violations = {}

    def report(self, now: int = 0) -> StalenessReport:
        """Close the window at tick ``now`` and render it.

        The window stays open — calling :meth:`report` again later
        yields a longer window over the same baseline.
        """
        if self._window_start is None:
            raise MaintenanceError("Monitor.report() before begin()")
        views: dict[str, dict] = {}
        for name in self.maintainer.view_names():
            stats = self.maintainer.stats(name)
            base = (
                self._base_stats[name]
                if self._base_views.get(name) is self.maintainer.view(name)
                else {}  # younger than the window: diffed against zero
            )
            cost = {
                key: stats[key] - base.get(key, 0) for key in _COST_COUNTERS
            }
            sla_dict = None
            lag_ticks = 0
            violations = 0
            if self.scheduler is not None:
                sla = self.scheduler.sla(name)
                if sla is not None:
                    sla_dict = sla.as_dict()
                    lag_ticks = self.scheduler.lag_ticks(name)
                    violations = self.scheduler.violations().get(
                        name, 0
                    ) - self._base_violations.get(name, 0)
            views[name] = {
                "policy": self.maintainer.policy(name).value,
                "tuples": len(self.maintainer.view(name).contents),
                "backlog": self.maintainer.backlog(name),
                "lag_ticks": lag_ticks,
                "sla": sla_dict,
                "sla_violations": violations,
                "cost": cost,
            }
        scheduler_delta: Optional[dict[str, int]] = None
        if self.scheduler is not None:
            live = self.scheduler.counters()
            scheduler_delta = {
                key: live[key] - self._base_scheduler.get(key, 0) for key in live
            }
        data = {
            "window": {
                "start": self._window_start,
                "end": now,
                "ticks": now - self._window_start,
            },
            "views": views,
            "scheduler": scheduler_delta,
        }
        return StalenessReport(data)
