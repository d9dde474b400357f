"""Operating a view fleet: the order-flow workload end to end.

The capstone demo: on a three-table order-processing database, this
script registers a fleet of views — including a *stacked* view defined
over another view — inspects their maintenance plans, applies the index
advisor's recommendations, streams mixed transactions through the
system, and reports what the Section 4 filter and the Section 5
differential machinery saved.

Run:  python examples/orderflow_operations.py
"""

from repro import ViewMaintainer, check_view_consistency
from repro.workloads.orderflow import OrderFlow


def main() -> None:
    flow = OrderFlow(customers=200, products=100, lineitems=2000)
    db = flow.database
    print(f"Loaded {flow!r}\n")

    maintainer = ViewMaintainer(db)
    for name, expression in flow.view_definitions().items():
        view = maintainer.define_view(name, expression)
        kind = (
            "stacked"
            if maintainer.dependencies(name) & set(maintainer.view_names())
            else "base"
        )
        print(f"defined {kind:<7} view {name:<16} ({len(view.contents)} tuples)")

    # --- Inspect a maintenance plan ------------------------------------
    print("\nPlan for maintaining 'pricey_open' when lineitem changes:")
    print(maintainer.explain("pricey_open", ["lineitem"]))

    # --- Index advisor ---------------------------------------------------
    print("\nIndex recommendations:")
    created = 0
    for name in maintainer.view_names():
        for relation, attrs in maintainer.recommended_indexes(name):
            print(f"  {name:<16} -> index on {relation}({', '.join(attrs)})")
        created += maintainer.create_recommended_indexes(name)
    print(f"  ({created} indexes created)")

    # --- Stream transactions ---------------------------------------------
    transactions = 300
    print(f"\nStreaming {transactions} mixed transactions ...")
    for _ in flow.transactions(transactions):
        pass

    print("\nPer-view maintenance statistics:")
    header = (
        f"{'view':<16} {'seen':>5} {'skipped':>8} {'applied':>8} "
        f"{'screened':>9} {'irrelevant':>11}"
    )
    print(header)
    print("-" * len(header))
    for name in maintainer.view_names():
        stats = maintainer.stats(name)
        print(
            f"{name:<16} {stats['transactions_seen']:>5} "
            f"{stats['transactions_skipped']:>8} {stats['deltas_applied']:>8} "
            f"{stats['tuples_screened']:>9} {stats['tuples_irrelevant']:>11}"
        )

    # --- Verify everything ------------------------------------------------
    for name in maintainer.view_names():
        report = check_view_consistency(
            maintainer.view(name),
            maintainer.instances(),
            raise_on_mismatch=False,
        )
        print(f"\n{report.summary()}", end="")
    print("\n\nAll views verified against from-scratch recomputation.")


if __name__ == "__main__":
    main()
