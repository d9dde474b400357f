"""Workload sizes, transaction mixes and the metric tables of macrobench.

Everything a number in a result file depends on, other than the machine,
is fixed here: base-table sizes, the mix of every workload, how many
operations a timed segment holds, and how many transactions the traced
phase runs.  ``BENCHMARK.json`` at the repository root repeats the
workload and metric names (``test_macrobench.py`` asserts they agree).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Seconds one untraced run measures when ``--seconds`` is not given;
#: equals ``run_seconds`` in BENCHMARK.json.
RUN_SECONDS = 18

#: Share of a workload's operations that are reads of ``region_qty``,
#: unless the workload says otherwise.
READ_SHARE = 0.10

#: Operations hashed into ``stream_sha256`` (base rows are always hashed).
HASH_OPS = 200

#: Slices a timed segment is run in, the host's speed probed before each.
#: The disturbances seen on the VMs this runs on come and go within 20 to
#: 100 ms, so a slice should last about 10 ms.
SLICES_PER_SEGMENT = 16

#: Set-ups timed per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Share of ``--seconds`` the traced run spends on its untraced reference
#: phase (the denominator of ``trace.overhead_share``).
REFERENCE_SHARE = 0.3

FLUSH_POLICY = "commit"  # DurabilityManager(sync="commit"): fsync per commit


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    served: bool
    lineitems: int
    customers: int
    products: int
    #: kind -> share of the write transactions (reads come on top).
    mix: tuple[tuple[str, float], ...]
    #: Operations per timed segment; throughput is the median over segments.
    chunk_ops: int
    #: Write transactions in the traced phase at RUN_SECONDS (scales with
    #: ``--seconds``); fixed so that count-type layer metrics repeat exactly.
    #: Also the point of an untraced run at which peak RSS is read: the
    #: tables grow with every transaction, so reading it at the end would
    #: make a faster system look like a memory regression.
    trace_txns: int
    #: Unrelated relations / rows each / views each (catalog_wide only).
    aux_relations: int = 0
    aux_rows: int = 0
    aux_views_each: int = 0
    #: Served only: WAL records the set-up replays on top of the checkpoint.
    wal_tail: int = 0
    read_share: float = READ_SHARE

    def smoke(self) -> "Workload":
        """All counts ÷ 100 (with floors that keep every op class possible)."""
        return replace(
            self,
            lineitems=max(300, self.lineitems // 100),
            customers=max(30, self.customers // 100),
            products=max(15, self.products // 100),
            chunk_ops=max(10, self.chunk_ops // 10),
            trace_txns=max(20, self.trace_txns // 100),
            aux_relations=self.aux_relations // 10,
            wal_tail=self.wal_tail // 100,
        )


_OLTP_MIX = (("new", 0.5), ("ship", 0.3), ("cancel", 0.1), ("price", 0.1))

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="oltp_inproc",
            why="single-row txns in process, no WAL or wire: per-txn glue in "
            "engine and maintainer dominates, so glue removal shows here and "
            "server or WAL work cannot",
            served=False,
            lineitems=30_000,
            customers=3_000,
            products=1_500,
            mix=_OLTP_MIX,
            chunk_ops=400,
            trace_txns=9_000,
        ),
        Workload(
            name="oltp_served",
            why="same stream through a child serve process with WAL fsync per "
            "commit and a subscriber on every view: the only workload where "
            "server and replication do most of the work",
            served=True,
            lineitems=30_000,
            customers=3_000,
            products=1_500,
            mix=_OLTP_MIX,
            chunk_ops=200,
            trace_txns=3_000,
            wal_tail=2_000,
        ),
        Workload(
            name="batch_fanout",
            why="96-row lineitem batches (two thirds provably irrelevant) and "
            "price changes fanning out through the join: per-row screen, "
            "kernel, fold and coercion work shows here, per-txn glue does not",
            served=False,
            lineitems=30_000,
            customers=3_000,
            products=150,
            mix=(("batch", 0.8), ("price", 0.2)),
            chunk_ops=40,
            trace_txns=900,
        ),
        Workload(
            name="multi_relation",
            why="each txn inserts a customer and four of its lineitems (k=2 "
            "changed relations): the only workload evaluating truth-table rows "
            "with OLD operands, whose cost tracks the base size today",
            served=False,
            lineitems=10_000,
            customers=1_000,
            products=500,
            mix=(("order", 1.0),),
            chunk_ops=20,
            trace_txns=150,
            # A transaction takes 25 ms here: at one read in ten a run has
            # 70 reads and their median moves 17 % between runs.  Reads are
            # a thousand times cheaper, so half the operations cost nothing.
            read_share=0.5,
        ),
        Workload(
            name="catalog_wide",
            why="oltp stream plus 400 views over 100 unrelated relations, 1% of "
            "txns touching one: isolates dispatch cost that grows with the "
            "catalog, which a relation-to-views index removes",
            served=False,
            lineitems=20_000,
            customers=2_000,
            products=1_000,
            mix=(
                ("new", 0.495),
                ("ship", 0.297),
                ("cancel", 0.099),
                ("price", 0.099),
                ("aux", 0.01),
            ),
            chunk_ops=300,
            trace_txns=6_000,
            aux_relations=100,
            aux_rows=50,
            aux_views_each=4,
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end only: share of the parent's median the metric may worsen.
    bound: float | None = None
    #: Per-layer only: a count that must repeat exactly for the same seed.
    exact: bool = False


# A bound is per metric, so the noisiest workload sets it, and on the shared
# hosts this runs on the noisiest episode: an episode that slows the raw
# numbers by a third still moves the normalised ones by up to 8 %.  The
# bounds are two to three times that; README.md has the tables.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("commit_txn_per_s", "txn/s", "higher", 0.25),
    Metric("commit_p50_us", "us", "lower", 0.20),
    Metric("commit_p90_us", "us", "lower", 0.25),
    Metric("feed_p50_us", "us", "lower", 0.20),
    Metric("feed_p90_us", "us", "lower", 0.25),
    Metric("query_p50_us", "us", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)


def _t(name: str) -> Metric:
    return Metric(name, "us/txn", "lower")


def _c(name: str, unit: str = "1/txn", better: str = "lower") -> Metric:
    return Metric(name, unit, better, exact=True)


PER_LAYER: tuple[Metric, ...] = (
    # repro.server
    _t("server.wire_us"),
    _t("server.decode_us"),
    _t("server.encode_us"),
    _t("server.dispatch_self_us"),
    _t("server.feed_us"),
    _t("server.query_us"),
    _c("server.events_sent"),
    _c("server.bytes_out_per_txn", "B/txn"),
    _c("server.requests_failed", "count"),
    # repro.scheduler
    _t("scheduler.tick_us"),
    # repro.replication
    _t("wal.append_self_us"),
    _t("wal.fsync_us"),
    _c("wal.bytes_per_txn", "B/txn"),
    _c("wal.fsyncs_per_txn"),
    Metric("wal.replay_txn_per_s", "txn/s", "higher"),
    Metric("wal.checkpoint_load_s", "s", "lower"),
    # repro.engine
    _t("engine.txn_build_us"),
    _t("engine.net_effect_us"),
    _t("engine.key_check_us"),
    _t("engine.commit_self_us"),
    _c("engine.rows_per_txn"),
    _c("engine.index_probes"),
    # repro.core.maintainer
    _t("maintainer.dispatch_self_us"),
    _c("maintainer.views_maintained_per_txn"),
    _c("maintainer.txns_skipped_share", "ratio", "higher"),
    _c("maintainer.plan_cache_hit_share", "ratio", "higher"),
    # repro.core.irrelevance (the Section 4 screen)
    _t("screen.self_us"),
    _c("screen.tuples_per_txn"),
    Metric("screen.us_per_tuple", "us", "lower"),
    _c("screen.irrelevant_share", "ratio", "higher"),
    # repro.core.differential
    _t("differential.self_us"),
    _c("differential.truth_rows_per_txn"),
    _c("differential.tuples_scanned_per_txn"),
    _c("differential.join_probes_per_txn"),
    _c("differential.tuples_emitted_per_txn"),
    # repro.core.codegen
    _t("codegen.kernel_us"),
    Metric("codegen.kernel_share", "ratio", "higher"),
    _c("codegen.batch_rows_per_txn"),
    _c("codegen.fallback_tuples", "count"),
    _c("codegen.plans_compiled", "count"),
    # repro.core.aggregates
    _t("aggregates.fold_self_us"),
    _c("aggregates.rows_folded_per_txn"),
    _c("aggregates.groups_touched_per_txn"),
    # repro.core.views
    _t("views.apply_us"),
    _t("views.read_us"),
    _c("views.delta_rows_per_txn"),
    # validity of the table
    Metric("trace.overhead_share", "ratio", "lower"),
    Metric("trace.unattributed_share", "ratio", "lower"),
    Metric("trace.accounted_share", "ratio", "higher"),
    # load generator diagnostics (from the traced run's untraced reference phase)
    Metric("loadgen.commit_p99_us", "us", "lower"),
    Metric("loadgen.feed_p99_us", "us", "lower"),
    Metric("loadgen.segment_spread", "ratio", "lower"),
    Metric("loadgen.commit_samples", "count", "higher"),
    Metric("loadgen.feed_samples", "count", "higher"),
    Metric("loadgen.query_samples", "count", "higher"),
    _c("loadgen.traced_txns", "count", "higher"),
)

#: Per-layer self-time rows; with the unattributed time they sum to the
#: traced wall clock (``trace.accounted_share`` checks the sum).
SELF_TIME_ROWS: tuple[str, ...] = tuple(
    m.name for m in PER_LAYER if m.unit == "us/txn"
)
