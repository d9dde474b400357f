"""Durability and replication: WAL, crash recovery, and a follower.

The committed net-effect deltas the paper feeds to its view-update
mechanism are also a complete record of the database's history — so
they double as the unit of durability (write them to disk before
acknowledging the commit) and of replication (ship them to replicas
that maintain their own views).  This example runs the whole story:

1. a *leader* keeps two views current while every commit is appended to
   a write-ahead log, and takes one mid-stream checkpoint;
2. the process "crashes" (we simply abandon the objects);
3. *recovery* rebuilds base relations and both views from the
   checkpoint plus the WAL tail — the views catch up differentially
   through the normal commit pipeline, never by recomputation;
4. a *follower* boots from the same directory and maintains a view the
   leader never defined, from the shipped deltas alone.

Run:  python examples/durable_replication.py
"""

import random
import tempfile

from repro import (
    BaseRef,
    Database,
    DurabilityManager,
    Follower,
    MaintenancePolicy,
    ViewMaintainer,
    check_view_consistency,
    recover,
)

ORDERS_VIEW = (
    BaseRef("orders")
    .join(BaseRef("customers"))
    .select("amount >= 500 and region <= 2")
    .project(["cust", "amount"])
)
REGION_VIEW = BaseRef("customers").select("region = 1").project(["region"])


def build_leader(directory: str):
    rng = random.Random(7)
    db = Database()
    db.create_relation("customers", ["cust", "region"], [(i, i % 4) for i in range(40)])
    db.create_relation(
        "orders", ["cust", "amount"], [(i, rng.randint(0, 999)) for i in range(40)]
    )
    durability = DurabilityManager(db, directory)
    maintainer = ViewMaintainer(db)
    maintainer.define_view("big_orders", ORDERS_VIEW)
    maintainer.define_view(
        "region_counts", REGION_VIEW, policy=MaintenancePolicy.DEFERRED
    )
    # The WAL does not record schemas: the initial checkpoint is the
    # recovery starting point, so take it before the first transaction.
    durability.checkpoint(maintainer)
    return rng, db, durability, maintainer


def main() -> None:
    directory = tempfile.mkdtemp(prefix="repro-wal-")
    rng, db, durability, maintainer = build_leader(directory)

    def churn(transactions: int) -> None:
        for _ in range(transactions):
            with db.transact() as txn:
                cust = rng.randrange(40)
                txn.insert("orders", (cust, rng.randint(0, 999)))
                if rng.random() < 0.3:
                    txn.update("customers", (cust, cust % 4), (cust, rng.randrange(4)))

    churn(30)
    durability.checkpoint(maintainer)  # mid-stream: prunes covered segments
    churn(30)
    maintainer.refresh("region_counts")
    big = maintainer.view("big_orders").contents
    region = maintainer.view("region_counts").contents
    print(f"leader at WAL position {durability.position}:")
    print(f"  big_orders    {len(big)} tuples")
    print(f"  region_counts {region.total_count()} customers in region 1")

    # -- crash: the process dies without closing anything -------------
    del db, durability, maintainer

    # -- recovery -----------------------------------------------------
    def restore(recovery, fresh_maintainer):
        recovery.restore_view(fresh_maintainer, "big_orders", ORDERS_VIEW)
        recovery.restore_view(fresh_maintainer, "region_counts", REGION_VIEW)

    recovery, recovered = recover(directory, restore)
    recovered.refresh("region_counts")
    print(f"\nrecovered from checkpoint seq {recovery.checkpoint_sequence} "
          f"+ {recovery.last_sequence - recovery.checkpoint_sequence} replayed txns:")
    assert recovered.view("big_orders").contents == big
    assert recovered.view("region_counts").contents == region
    print("  both views match the pre-crash state, tuple for tuple")
    stats = recovered.stats("big_orders")
    print(f"  big_orders caught up differentially: "
          f"{stats['deltas_applied']} deltas, {stats['tuples_irrelevant']} updates "
          "screened as irrelevant")

    # -- follower -----------------------------------------------------
    follower = Follower(directory)
    follower.define_view(
        "cheap_orders",
        BaseRef("orders").select("amount < 100").project(["cust"]),
    )
    applied = follower.poll()
    cheap = follower.view("cheap_orders")
    print(f"\nfollower applied {applied} shipped records; its own view "
          f"'cheap_orders' has {len(cheap.contents)} tuples")
    check_view_consistency(cheap, follower.database.instances())
    print("follower view verified against its replica — maintained from "
          "deltas alone")


if __name__ == "__main__":
    main()
