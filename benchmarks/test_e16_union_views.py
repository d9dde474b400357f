"""E16 — union views: SPJ lifted to SPJU by distributivity.

Section 5's machinery is powered by the distributivity of σ, π and ⋈
over union; :mod:`repro.extensions.union_views` turns that same fact
into a larger maintainable view class.  The experiment maintains a
two-branch union view ("hot orders": big pending orders ∪ orders from
priority customers) under an order stream and compares against
recomputing both branches per transaction.
"""

import random
import time

from repro.algebra.expressions import BaseRef
from repro.bench.reporting import format_table
from repro.engine.database import Database
from repro.extensions.union_views import UnionView

TRANSACTIONS = 120


def _db(orders=3000, customers=300, seed=16):
    rng = random.Random(seed)
    db = Database()
    rows = set()
    while len(rows) < orders:
        rows.add(
            (len(rows), rng.randrange(customers), rng.randint(1, 5000),
             rng.randint(0, 3))
        )
    db.create_relation(
        "orders", ["order_id", "cust", "amount", "status"], sorted(rows)
    )
    db.create_relation(
        "priority", ["cust"], [(c,) for c in range(0, customers, 10)]
    )
    return db


def _branches():
    return [
        BaseRef("orders")
        .select("status = 0 and amount > 4000")
        .project(["order_id", "amount"]),
        BaseRef("orders")
        .join(BaseRef("priority"))
        .select("status = 0")
        .project(["order_id", "amount"]),
    ]


def _stream(db, seed=17):
    rng = random.Random(seed)
    next_id = 100_000
    for _ in range(TRANSACTIONS):
        with db.transact() as txn:
            txn.insert(
                "orders",
                (next_id, rng.randrange(300), rng.randint(1, 5000),
                 rng.randint(0, 3)),
            )
            next_id += 1


def test_e16_union_views(report, benchmark):
    # --- Differential union maintenance -------------------------------
    db = _db()
    view = UnionView(db, "hot", _branches())
    initial = len(view.contents)
    start = time.perf_counter()
    _stream(db)
    diff_seconds = time.perf_counter() - start
    view.verify()  # exact against branch-by-branch recomputation

    # --- Recompute-per-transaction baseline ----------------------------
    # Apply the same stream unmaintained, then time one full recompute:
    # a fresh union view over the final state, which evaluates both
    # branches once on their compiled kernels.  A recompute-per-
    # transaction policy pays that price every commit.
    db2 = _db()
    _stream(db2)
    start = time.perf_counter()
    baseline = UnionView(db2, "hot", _branches())
    one_recompute = time.perf_counter() - start
    assert baseline.contents == view.contents

    rows = [
        [
            "differential union (2 branches)",
            f"{diff_seconds / TRANSACTIONS * 1e6:.0f}",
            view.updates_applied,
        ],
        [
            "recompute both branches per txn (extrapolated)",
            f"{one_recompute * 1e6:.0f}",
            TRANSACTIONS,
        ],
    ]
    report(
        format_table(
            ["strategy", "us per txn", "maintenance rounds"],
            rows,
            title=(
                f"E16  union view (SPJU), |orders| = 3000, "
                f"{TRANSACTIONS} txns, started at {initial} tuples"
            ),
        )
    )
    assert diff_seconds / TRANSACTIONS < one_recompute

    db3 = _db()
    live = UnionView(db3, "hot", _branches())
    counter = [900_000]

    def one_txn():
        with db3.transact() as txn:
            txn.insert("orders", (counter[0], 5, 4500, 0))
            counter[0] += 1

    benchmark(one_txn)
