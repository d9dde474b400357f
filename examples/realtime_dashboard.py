"""Real-time query support via materialized views ([GSV84] motivation).

Gardarin et al. considered materialized ("concrete") views for real-time
queries but discarded them "because of the lack of an efficient
algorithm to keep the concrete views up to date" — the gap this paper
fills.  This example plays that scenario out on an order-processing
database: a dashboard view of hot pending orders is kept materialized
while a stream of order transactions commits, and the cost of answering
the dashboard from the maintained view is compared against recomputing
the query on demand.

Run:  python examples/realtime_dashboard.py

With ``--monitor-json PATH`` and/or ``--monitor-html PATH`` the run
also maintains a *deferred* twin of the dashboard view under a
staleness SLA, driven by the refresh scheduler (docs/scheduler.md),
and writes the windowed staleness report.  The report derives only
from instrumentation counters and the virtual clock, so it is
byte-identical across runs — CI archives the HTML as an artifact.
"""

import argparse
import random
import time

from repro import BaseRef, ViewMaintainer, check_view_consistency
from repro.core.maintainer import MaintenancePolicy
from repro.scheduler import Monitor, RefreshScheduler, StalenessSLA, TickClock
from repro.workloads.scenarios import sales_scenario


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--monitor-json", metavar="PATH",
        help="write the staleness report as JSON to PATH",
    )
    parser.add_argument(
        "--monitor-html", metavar="PATH",
        help="write the staleness report as standalone HTML to PATH",
    )
    args = parser.parse_args(argv)
    monitoring = bool(args.monitor_json or args.monitor_html)

    scenario = sales_scenario(customers=300, orders=3000, seed=42)
    db = scenario.database
    rng = random.Random(7)

    maintainer = ViewMaintainer(db)
    view = maintainer.define_view(scenario.view_name, scenario.expression)
    print("Dashboard view:", scenario.expression)

    # The revenue rollup: a real aggregate view (docs/aggregates.md),
    # maintained differentially through per-group SUM/AVG accumulators
    # instead of re-grouping the orders table on every refresh.
    revenue_expr = BaseRef("orders").aggregate(
        ["status"],
        [
            ("count", None, "orders"),
            ("sum", "amount", "revenue"),
            ("avg", "amount", "avg_order"),
        ],
    )
    revenue = maintainer.define_view("revenue_by_status", revenue_expr)
    print("Rollup view:   ", revenue_expr)
    print(f"Initially {len(view.contents)} hot pending orders across "
          f"{len(revenue.contents)} status buckets.\n")

    clock = TickClock()
    scheduler = None
    monitor = None
    if monitoring:
        # A deferred twin of the dashboard under a staleness SLA: the
        # scheduler decides when its backlog is applied, and the
        # monitor reports how stale it was allowed to become.
        maintainer.define_view(
            f"{scenario.view_name}_deferred",
            scenario.expression,
            policy=MaintenancePolicy.DEFERRED,
        )
        scheduler = RefreshScheduler(maintainer, clock=clock, batch_limit=1)
        scheduler.declare_sla(
            f"{scenario.view_name}_deferred",
            StalenessSLA(max_pending_commits=10, max_lag_ticks=25),
        )
        monitor = Monitor(maintainer, scheduler)
        monitor.begin(clock.now)

    next_order_id = 3000

    def random_transaction() -> None:
        nonlocal next_order_id
        with db.transact() as txn:
            for _ in range(rng.randint(1, 5)):
                kind = rng.random()
                if kind < 0.5:
                    # New order arrives.
                    txn.insert(
                        "orders",
                        (
                            next_order_id,
                            rng.randrange(300),
                            rng.randint(1, 5000),
                            0,
                        ),
                    )
                    next_order_id += 1
                else:
                    # An existing order changes status (ships/cancels).
                    rows = sorted(db.relation("orders").value_tuples())
                    order = rng.choice(rows)
                    txn.update(
                        "orders", order, order[:3] + (rng.randint(1, 3),)
                    )

    # --- Drive the workload -------------------------------------------
    transactions = 200
    start = time.perf_counter()
    for _ in range(transactions):
        random_transaction()
        clock.advance(1)
        if scheduler is not None:
            scheduler.tick()
    maintained_seconds = time.perf_counter() - start

    stats = maintainer.stats(scenario.view_name)
    print(f"Committed {transactions} transactions.")
    print(
        f"Filter screened {stats['tuples_screened']} updated tuples, proved "
        f"{stats['tuples_irrelevant']} irrelevant "
        f"({100 * stats['tuples_irrelevant'] / max(1, stats['tuples_screened']):.0f}%)."
    )
    print(
        f"{stats['transactions_skipped']} transactions were skipped outright; "
        f"{stats['deltas_applied']} needed a differential update."
    )
    print(f"Dashboard now shows {len(view.contents)} hot pending orders.")
    print("Revenue by status (status, orders, revenue, avg order):")
    for row in sorted(revenue.contents.value_tuples()):
        print(f"  {row}")
    print(f"Total maintenance time: {maintained_seconds * 1000:.1f} ms "
          f"({maintained_seconds / transactions * 1e6:.0f} µs per transaction).\n")

    # --- Compare against recomputing the query on demand ---------------
    start = time.perf_counter()
    check_view_consistency(view, db.instances())  # raises on a difference
    recompute_seconds = time.perf_counter() - start
    check_view_consistency(revenue, db.instances())
    print(
        f"One from-scratch evaluation of the dashboard query (as SQL on "
        f"sqlite3, compared with the view) takes "
        f"{recompute_seconds * 1e3:.2f} ms — every dashboard refresh would "
        "pay that without maintenance; the maintained view answers in O(1)."
    )

    if monitor is not None:
        report = monitor.report(clock.now)
        if args.monitor_json:
            with open(args.monitor_json, "w", encoding="utf-8") as handle:
                handle.write(report.as_json() + "\n")
            print(f"\nWrote staleness report (JSON) to {args.monitor_json}")
        if args.monitor_html:
            with open(args.monitor_html, "w", encoding="utf-8") as handle:
                handle.write(report.as_html() + "\n")
            print(f"Wrote staleness report (HTML) to {args.monitor_html}")


if __name__ == "__main__":
    main()
