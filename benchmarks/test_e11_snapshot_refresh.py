"""E11 — snapshot refresh vs immediate maintenance (§6, [AL80]).

The same view is maintained immediately (inside every commit) and as a
snapshot refreshed every k transactions, for several k.  Deferred
maintenance amortizes: composed deltas cancel churn (a tuple inserted
then deleted between refreshes costs nothing at refresh time) and each
refresh pays the truth-table machinery once.  The trade is staleness,
which the table reports as transactions-behind just before each
refresh.
"""

import random
import time

from repro.algebra.expressions import BaseRef
from repro.bench.reporting import format_table
from repro.core.maintainer import MaintenancePolicy, ViewMaintainer
from repro.engine.database import Database

TRANSACTIONS = 240
INTERVALS = [1, 8, 40]


def _make_db(seed=12):
    rng = random.Random(seed)
    db = Database()
    rows = {(i, rng.randint(0, 30)) for i in range(1500)}
    db.create_relation("r", ["A", "B"], sorted(rows))
    srows = {(b, rng.randint(0, 60)) for b in range(31)}
    db.create_relation("s", ["B", "C"], sorted(srows))
    return db


VIEW = BaseRef("r").join(BaseRef("s")).select("C >= 30").project(["A", "C"])


def _churny_stream(rng):
    """A stream with real churn: half the inserts are later deleted."""
    next_id = 10_000
    pending = []
    for _ in range(TRANSACTIONS):
        ops = []
        if pending and rng.random() < 0.5:
            ops.append(("delete", pending.pop()))
        row = (next_id, rng.randint(0, 30))
        next_id += 1
        ops.append(("insert", row))
        if rng.random() < 0.7:
            pending.append(row)
        yield ops


def _run(interval):
    db = _make_db()
    policy = (
        MaintenancePolicy.IMMEDIATE if interval == 1 else MaintenancePolicy.DEFERRED
    )
    maintainer = ViewMaintainer(db)
    view = maintainer.define_view("v", VIEW, policy=policy)
    rng = random.Random(interval)
    maintenance_seconds = 0.0
    staleness_samples = []
    for i, ops in enumerate(_churny_stream(rng), start=1):
        start = time.perf_counter()
        with db.transact() as txn:
            for op, row in ops:
                getattr(txn, op)("r", row)
        maintenance_seconds += time.perf_counter() - start
        if policy is MaintenancePolicy.DEFERRED and i % interval == 0:
            pending = maintainer.pending_deltas("v")
            staleness_samples.append(
                sum(len(d.inserted) + len(d.deleted) for d in pending.values())
            )
            start = time.perf_counter()
            maintainer.refresh("v")
            maintenance_seconds += time.perf_counter() - start
    if policy is MaintenancePolicy.DEFERRED:
        maintainer.refresh("v")
    from repro.core.consistency import check_view_consistency

    check_view_consistency(view, db.instances())
    stats = maintainer.stats("v")
    avg_staleness = (
        sum(staleness_samples) / len(staleness_samples)
        if staleness_samples
        else 0.0
    )
    return maintenance_seconds, stats, avg_staleness


def test_e11_snapshot_refresh(report, benchmark):
    rows = []
    per_txn = {}
    for interval in INTERVALS:
        seconds, stats, staleness = _run(interval)
        per_txn[interval] = seconds / TRANSACTIONS
        rows.append(
            [
                "immediate" if interval == 1 else f"every {interval} txns",
                f"{seconds / TRANSACTIONS * 1e6:.0f}",
                stats["deltas_applied"],
                f"{staleness:.1f}",
            ]
        )
    report(
        format_table(
            [
                "policy",
                "maintenance us/txn",
                "differential updates",
                "avg net backlog at refresh",
            ],
            rows,
            title=(
                "E11  snapshot refresh vs immediate maintenance "
                f"({TRANSACTIONS} churny transactions)"
            ),
        )
    )
    # Amortization: widely-spaced refreshes do strictly fewer
    # differential updates than immediate maintenance.
    assert rows[-1][2] < rows[0][2]

    db = _make_db()
    maintainer = ViewMaintainer(db)
    maintainer.define_view("v", VIEW, policy=MaintenancePolicy.DEFERRED)
    rng = random.Random(99)
    counter = [50_000]

    def batch_and_refresh():
        for _ in range(10):
            with db.transact() as txn:
                txn.insert("r", (counter[0], rng.randint(0, 30)))
                counter[0] += 1
        maintainer.refresh("v")

    benchmark(batch_and_refresh)
