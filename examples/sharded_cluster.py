"""A 3-shard cluster whose routing oracle provably silences one shard.

Stands up three shards over a key-range partition of ``orders`` and a
replicated ``regions`` table, with a view that restricts the join key
to the low end of the range.  Quantifying the paper's Theorem 4.1 over
each shard's declared key-range constraint, the coordinator *proves*
that shards 1 and 2 can never be affected by a ``regions`` delta — so
it never sends them one, and the ``cluster_deltas_skipped`` counter
records every send the proof avoided.

Run:  python examples/sharded_cluster.py
"""

from repro import BaseRef, Database
from repro.cluster import ClusterTopology, PartitionSpec, build_cluster


def main() -> None:
    # --- Topology: orders partitioned on its key, 3 shards ------------
    # Shard 0 owns K <= 9, shard 1 owns 10..19, shard 2 owns K >= 20.
    topology = ClusterTopology(3, [PartitionSpec("orders", "K", (9, 19))])

    # --- Genesis: the cluster's initial database, catalog included ----
    # Every shard is built from it: its slice of orders, a full copy of
    # regions, and the declared catalog (here one constraint; keys and
    # foreign keys travel the same way).
    genesis = Database()
    genesis.create_relation(
        "orders", ["K", "AMOUNT"], [(k, k * 10) for k in range(0, 30, 3)]
    )
    genesis.create_relation(
        "regions", ["RID", "POP"], [(rid, rid * 100) for rid in range(8)]
    )
    genesis.declare_constraint("regions", "RID >= 0")

    # The view joins orders to regions but pins K = RID and K <= 7:
    # every contributing orders row lives in shard 0's range, so on
    # shards 1 and 2 the view is provably empty — forever.
    views = [
        (
            "low_orders_by_region",
            BaseRef("orders")
            .join(BaseRef("regions"))
            .select("K = RID and K <= 7"),
        )
    ]

    coordinator = build_cluster(topology, genesis, views)

    print("Routing proofs derived at registration:")
    for line in coordinator.routing.describe():
        print(" ", line)

    # --- Commit deltas through the coordinator ------------------------
    print("\nCommitting: two orders (one per end of the key space) and")
    print("one regions row — the regions delta goes to shard 0 only.\n")
    for inserts in (
        {"orders": [[4, 40], [25, 250]]},
        {"regions": [[4, 444]]},
        {"regions": [[6, 666]]},
    ):
        txn_id = coordinator.submit(inserts=inserts)
        outcome = coordinator.outcome(txn_id)
        assert outcome is not None and outcome["status"] == "committed"
        print(f"  txn {txn_id} committed at cluster_seq {outcome['cluster_seq']}")

    print("\nMerged view contents:")
    print(coordinator.merged_relation("low_orders_by_region").pretty())

    counters = coordinator.recorder.counters
    sent = counters.get("cluster_deltas_sent", 0)
    skipped = counters.get("cluster_deltas_skipped", 0)
    print(f"Per-shard delta batches sent:    {sent}")
    print(f"Sends avoided by the oracle:     {skipped}")

    # The two regions transactions would each have broadcast to shards
    # 1 and 2; the Theorem 4.1 proofs skipped all four sends.
    assert skipped > 0, "the routing oracle should have skipped sends"
    assert skipped == 4
    print("\nThe skipped sends are machine-checked: each corresponds to a")
    print("satisfiability proof that the view condition conjoined with the")
    print("shard's key-range constraints is unsatisfiable (Theorem 4.1).")


if __name__ == "__main__":
    main()
