"""E18 — macro benchmark: the whole system under a realistic workload.

Four views — a selective SPJ view, a *stacked* view over it, a join
view against the product table, and a counted region-activity
projection — maintained simultaneously over a mixed order-flow stream
(inserts, status updates, price changes).  Compared against complete
re-evaluation of the same non-stacked views per transaction, with all
final states cross-checked.  This is the "downstream user" workload:
everything the repository provides, engaged at once.
"""

import time

from repro.algebra.evaluate import evaluate
from repro.baselines.full_reevaluation import FullReevaluationMaintainer
from repro.bench.reporting import format_table
from repro.core.consistency import compare_relations
from repro.core.maintainer import ViewMaintainer
from repro.workloads.orderflow import OrderFlow

TRANSACTIONS = 150


def test_e18_orderflow_macro(report, benchmark):
    # --- Differential maintenance of all four views --------------------
    flow = OrderFlow()
    maintainer = ViewMaintainer(flow.database)
    for name, expression in flow.view_definitions().items():
        maintainer.define_view(name, expression)
    start = time.perf_counter()
    for _ in flow.transactions(TRANSACTIONS):
        pass
    diff_seconds = time.perf_counter() - start

    # --- Baseline: recompute the three non-stacked views per txn -------
    baseline_flow = OrderFlow()
    baseline = FullReevaluationMaintainer(baseline_flow.database)
    definitions = baseline_flow.view_definitions()
    for name in ("open_lines", "pricey_open", "region_activity"):
        baseline.define_view(name, definitions[name])
    start = time.perf_counter()
    for _ in baseline_flow.transactions(TRANSACTIONS):
        pass
    full_seconds = time.perf_counter() - start

    # --- Cross-check every view ----------------------------------------
    for name in ("open_lines", "pricey_open", "region_activity"):
        assert (
            maintainer.view(name).contents == baseline.view(name).contents
        ), name
    # The stacked view against direct evaluation over combined instances.
    stacked_truth = evaluate(
        flow.view_definitions()["open_premium"],
        maintainer.instances(),
    )
    stacked_report = compare_relations(
        "open_premium", maintainer.view("open_premium").contents, stacked_truth
    )
    assert stacked_report.is_consistent(), stacked_report.summary()

    totals = {
        "screened": 0,
        "irrelevant": 0,
        "skipped": 0,
        "applied": 0,
    }
    for name in maintainer.view_names():
        stats = maintainer.stats(name)
        totals["screened"] += stats["tuples_screened"]
        totals["irrelevant"] += stats["tuples_irrelevant"]
        totals["skipped"] += stats["transactions_skipped"]
        totals["applied"] += stats["deltas_applied"]

    rows = [
        [
            "differential (4 views incl. stacked)",
            f"{diff_seconds / TRANSACTIONS * 1e3:.2f}",
            totals["applied"],
            f"{totals['irrelevant']}/{totals['screened']}",
            totals["skipped"],
        ],
        [
            "full re-eval (3 views)",
            f"{full_seconds / TRANSACTIONS * 1e3:.2f}",
            sum(baseline.recomputations.values()),
            "-",
            0,
        ],
    ]
    report(
        format_table(
            [
                "strategy",
                "ms per txn",
                "maintenance rounds",
                "irrelevant/screened",
                "txns skipped",
            ],
            rows,
            title=(
                f"E18  order-flow macro workload: {TRANSACTIONS} mixed "
                "txns over customer/product/lineitem"
            ),
        )
    )
    assert diff_seconds < full_seconds

    bench_flow = OrderFlow(lineitems=1000)
    bench_maintainer = ViewMaintainer(bench_flow.database)
    for name, expression in bench_flow.view_definitions().items():
        bench_maintainer.define_view(name, expression)
    stream = bench_flow.transactions(100_000)

    def one_txn():
        next(stream)

    benchmark(one_txn)
