"""Snapshot refresh: deferred maintenance ([AL80], paper Section 6).

The paper's conclusions note that views may also be "updated
periodically or only on demand.  Such materialized views are known as
snapshots and their maintenance mechanism as snapshot refresh.  The
approach proposed in this paper also applies to this environment."

This example runs the same view under both policies side by side:

* ``live``   — IMMEDIATE: updated inside every commit;
* ``nightly`` — DEFERRED: commits only accumulate composed net deltas
  (insert-then-delete pairs cancel across transactions), and a
  ``refresh()`` call applies the whole backlog through the identical
  filter + differential pipeline.

Run:  python examples/snapshot_refresh.py
"""

import random

from repro import BaseRef, Database, ViewMaintainer, check_view_consistency
from repro.core.maintainer import MaintenancePolicy


def main() -> None:
    rng = random.Random(77)
    db = Database()
    db.create_relation(
        "account", ["acct", "branch"], [(i, i % 5) for i in range(50)]
    )
    db.create_relation(
        "balance", ["acct", "amount"], [(i, rng.randint(0, 900)) for i in range(50)]
    )

    expression = (
        BaseRef("account")
        .join(BaseRef("balance"))
        .select("amount >= 500 and branch <= 2")
        .project(["acct", "amount"])
    )

    maintainer = ViewMaintainer(db)
    live = maintainer.define_view("live", expression)
    nightly = maintainer.define_view(
        "nightly", expression, policy=MaintenancePolicy.DEFERRED
    )
    print(f"Both views start with {len(live.contents)} rich accounts.\n")

    def churn(transactions: int) -> None:
        for _ in range(transactions):
            with db.transact() as txn:
                acct = rng.randrange(50)
                rows = [
                    row
                    for row in db.relation("balance").value_tuples()
                    if row[0] == acct
                ]
                if rows:
                    txn.update(
                        "balance", rows[0], (acct, rng.randint(0, 900))
                    )

    for day in range(1, 4):
        churn(25)
        pending = maintainer.pending_deltas("nightly")
        backlog = sum(
            len(d.inserted) + len(d.deleted) for d in pending.values()
        )
        print(
            f"Day {day}: live view has {len(live.contents)} rows "
            f"(always fresh); nightly backlog = {backlog} net tuple "
            f"changes across {len(pending)} relation(s)."
        )
        maintainer.refresh("nightly")
        assert nightly.contents == live.contents
        print(
            f"         nightly refresh applied -> {len(nightly.contents)} "
            "rows, identical to the live view."
        )

    for name in ("live", "nightly"):
        report = check_view_consistency(
            maintainer.view(name), db.instances()
        )
        print(f"\nConsistency of {name!r}: {report.summary()}", end="")
    print()

    live_stats = maintainer.stats("live")
    nightly_stats = maintainer.stats("nightly")
    print(
        f"\nlive view:    {live_stats['deltas_applied']} differential updates "
        f"(one per relevant commit)"
    )
    print(
        f"nightly view: {nightly_stats['deltas_applied']} differential updates "
        f"(one per refresh — the composed-delta amortization of [AL80])"
    )


if __name__ == "__main__":
    main()
