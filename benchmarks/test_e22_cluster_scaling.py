"""E22 — sharded-cluster scaling and the routed-vs-broadcast ablation.

Two questions about the cluster subsystem, answered on the same fixed
transaction stream:

* **Scaling** — the same committed workload on 1, 2 and 4 shards.
  Each transaction costs a full two-phase commit, so single-client
  latency does not *drop* with shards; what the table shows is the
  price of coordination (per-txn time vs. shard count) next to what
  sharding buys structurally: per-shard data volume and, with routing,
  network sends that grow sublinearly in the shard count.
* **Ablation** — analyzer-driven routing against broadcast on the
  widest cluster.  The routing oracle (Theorem 4.1 quantified over
  each shard's key-range constraints) must change *only* the send
  count: merged view contents are asserted identical, and the skipped
  sends are exactly the broadcast run's surplus.

Set ``REPRO_E22_SMOKE=1`` (CI does) to shrink the stream to a smoke
run of the same code paths.  The recorded full-size numbers are in
EXPERIMENTS.md (E22).
"""

import random
import time

from benchmarks.conftest import smoke_env
from repro.bench.reporting import format_table
from repro.cluster import build_cluster
from repro.simulation.sharded import VALUE_RANGE, cluster_workload

SMOKE = smoke_env("E22")

TXNS = 40 if SMOKE else 300
SHARD_COUNTS = (1, 2, 4)
ABLATION_SHARDS = 4


def _stream(count):
    """A seeded, always-committing transaction stream."""
    rng = random.Random(22)
    ops = []
    for _ in range(count):
        inserts, deletes = {}, {}
        for _ in range(rng.randint(1, 3)):
            relation = rng.choice(["r", "r", "s", "t"])
            row = [rng.randrange(VALUE_RANGE), rng.randrange(VALUE_RANGE)]
            target = deletes if rng.random() < 0.35 else inserts
            target.setdefault(relation, []).append(row)
        ops.append((inserts, deletes))
    return ops


def _run(shards, routed=True):
    topology, genesis, views = cluster_workload(shards)
    coordinator = build_cluster(topology, genesis, views, routed=routed)
    start = time.perf_counter()
    for inserts, deletes in _stream(TXNS):
        txn_id = coordinator.submit(inserts=inserts, deletes=deletes)
        outcome = coordinator.outcome(txn_id)
        assert outcome is not None and outcome["status"] == "committed"
    elapsed = time.perf_counter() - start
    return elapsed, coordinator


def test_e22_cluster_scaling(report, benchmark):
    runs = {}
    for shards in SHARD_COUNTS:
        runs[shards] = _run(shards)

    rows = []
    for shards, (elapsed, coordinator) in runs.items():
        counters = coordinator.recorder.counters
        rows.append(
            [
                shards,
                f"{elapsed / TXNS * 1e6:.0f}",
                counters.get("cluster_deltas_sent", 0),
                counters.get("cluster_deltas_skipped", 0),
                counters.get("cluster_routing_proofs", 0),
                f"{TXNS / elapsed:.0f}",
            ]
        )
    report(
        format_table(
            [
                "shards",
                "us per txn",
                "deltas sent",
                "deltas skipped",
                "routing proofs",
                "txns/s",
            ],
            rows,
            title=f"E22  cluster scaling ({TXNS} txns, routed)",
        )
    )

    # Every configuration agrees on merged base relations.  (The
    # workload's view definitions derive their selection cut from the
    # shard boundaries, so view contents are only comparable between
    # clusters of the same width — the ablation below does that.)
    reference = runs[SHARD_COUNTS[0]][1]
    for shards in SHARD_COUNTS[1:]:
        coordinator = runs[shards][1]
        for name in ("r", "s", "t"):
            assert (
                coordinator.merged_counts(name)[0]
                == reference.merged_counts(name)[0]
            ), (shards, name)
    # A single-shard cluster has nowhere to skip to; wider ones do.
    assert runs[1][1].recorder.counters.get("cluster_deltas_skipped", 0) == 0
    for shards in (2, 4):
        assert (
            runs[shards][1].recorder.counters.get("cluster_deltas_skipped", 0)
            > 0
        ), shards

    # -- routed vs broadcast on the widest cluster ---------------------
    routed_time, routed_coord = runs[ABLATION_SHARDS]
    broadcast_time, broadcast_coord = _run(ABLATION_SHARDS, routed=False)
    routed_counters = routed_coord.recorder.counters
    broadcast_counters = broadcast_coord.recorder.counters
    ablation_rows = [
        [
            "routed (Theorem 4.1 oracle)",
            f"{routed_time / TXNS * 1e6:.0f}",
            routed_counters.get("cluster_deltas_sent", 0),
            routed_counters.get("cluster_deltas_skipped", 0),
        ],
        [
            "broadcast (ablation)",
            f"{broadcast_time / TXNS * 1e6:.0f}",
            broadcast_counters.get("cluster_deltas_sent", 0),
            broadcast_counters.get("cluster_deltas_skipped", 0),
        ],
    ]
    report(
        format_table(
            ["delta routing", "us per txn", "deltas sent", "deltas skipped"],
            ablation_rows,
            title=(
                f"E22  routing ablation ({ABLATION_SHARDS} shards, "
                f"{TXNS} txns)"
            ),
        )
    )

    # Routing changes the send count and nothing else.
    for name in list(routed_coord.views) + ["r", "s", "t"]:
        assert (
            routed_coord.merged_counts(name)[0]
            == broadcast_coord.merged_counts(name)[0]
        ), name
    skipped = routed_counters.get("cluster_deltas_skipped", 0)
    assert skipped > 0
    assert broadcast_counters.get("cluster_deltas_skipped", 0) == 0
    assert (
        broadcast_counters["cluster_deltas_sent"]
        == routed_counters["cluster_deltas_sent"] + skipped
    )

    # One micro-benchmark sample: a routed cross-shard transaction.
    cluster = _run(2)[1]

    def one_txn():
        txn_id = cluster.submit(inserts={"r": [[0, 1], [5, 1]], "s": [[1, 1]]})
        assert cluster.outcome(txn_id)["status"] == "committed"

    benchmark(one_txn)
