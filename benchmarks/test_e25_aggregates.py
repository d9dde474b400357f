"""E25 — differential aggregate maintenance vs full recompute.

Aggregate views (docs/aggregates.md) generalize the counted-relation
representation: each group carries COUNT/SUM/AVG accumulators and
per-value support counts for MIN/MAX, folded from the same Section 5
delta pipeline the SPJ views ride.  This experiment drives a
dashboard-shaped workload — a ``sales`` fact stream with occasional
corrections (deletes) against a static ``catalog`` dimension — through
two arms:

* **differential** — the maintainer: generated group-apply kernels
  fold each commit's core delta into the accumulators;
* **full recompute** — the naive baseline: re-evaluate every view
  expression from scratch after each commit, as a system without
  incremental maintenance would.

The experiment asserts byte-for-byte contents agreement between the
arms and — outside smoke runs — that differential maintenance beats
the recompute baseline in wall-clock terms.  (The kernel-vs-reference
fold parity this file used to carry as a third arm lives in
``tests/test_aggregates.py``.)

Set ``REPRO_E25_SMOKE=1`` (CI does) to shrink the stream to a smoke
run of the same code paths.  Set ``REPRO_E25_RECORD=1`` to append the
measured numbers to ``BENCH_E25.json`` at the repo root.
"""

import json
import random
import time
from datetime import date
from pathlib import Path

from benchmarks.conftest import record_env, smoke_env
from repro import BaseRef, Database, ViewMaintainer
from repro.algebra.evaluate import evaluate
from repro.bench.reporting import format_table
from repro.instrumentation import CostRecorder, recording

SMOKE = smoke_env("E25")
RECORD = record_env("E25")
TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_E25.json"

TXNS = 30 if SMOKE else 250
SEED_ROWS = 40 if SMOKE else 250
#: Timing repeats per arm; the minimum is reported (noise shrinks the
#: minimum toward the true cost, never below it).
REPEATS = 1 if SMOKE else 3

#: ``sales(G, P, M)`` — region, product, amount.  ``catalog(Q, C)`` —
#: product, category; static, so every commit's delta hits ``sales``.
REGIONS = 8
PRODUCTS = 20
AMOUNT_RANGE = (1, 500)

#: The dashboard: grouped totals, per-group extremes (the non-self-
#: maintainable class exercising support-count deletes), and a join
#: view rolled up by category — the aggregate sits on an SPJ core.
VIEWS = {
    "revenue": BaseRef("sales").aggregate(
        ["G"],
        [
            ("count", None, "orders"),
            ("sum", "M", "revenue"),
            ("avg", "M", "avg_order"),
        ],
    ),
    "extremes": BaseRef("sales").aggregate(
        ["G"], [("min", "M", "low"), ("max", "M", "high")]
    ),
    "by_category": BaseRef("sales")
    .product(BaseRef("catalog"))
    .select("P = Q")
    .project(["C", "M"])
    .aggregate(["C"], [("sum", "M", "revenue")]),
}


def _seeded_database():
    rng = random.Random(25)
    sales = set()
    while len(sales) < SEED_ROWS:
        sales.add(
            (
                rng.randrange(REGIONS),
                rng.randrange(PRODUCTS),
                rng.randint(*AMOUNT_RANGE),
            )
        )
    db = Database()
    db.create_relation("sales", ["G", "P", "M"], sorted(sales))
    db.create_relation(
        "catalog",
        ["Q", "C"],
        [(product, product % 5) for product in range(PRODUCTS)],
    )
    return db


def _churn(db, txns, seed):
    """A dashboard-shaped stream: sale events, occasional corrections."""
    rng = random.Random(seed)
    live = set(db.relation("sales").value_tuples())
    for _ in range(txns):
        with db.transact() as txn:
            for _ in range(rng.randint(1, 4)):
                if live and rng.random() < 0.25:
                    row = rng.choice(sorted(live))
                    txn.delete("sales", row)
                    live.discard(row)
                else:
                    row = (
                        rng.randrange(REGIONS),
                        rng.randrange(PRODUCTS),
                        rng.randint(*AMOUNT_RANGE),
                    )
                    txn.insert("sales", row)
                    live.add(row)


def _run_differential():
    """One maintained run; returns (seconds, counters, contents, stats)."""
    best = None
    for _ in range(REPEATS):
        db = _seeded_database()
        maintainer = ViewMaintainer(db)
        for name, expression in VIEWS.items():
            maintainer.define_view(name, expression)
        recorder = CostRecorder()
        start = time.perf_counter()
        with recording(recorder):
            _churn(db, TXNS, seed=9)
        elapsed = time.perf_counter() - start
        maintainer.verify_all()
        contents = {
            name: dict(maintainer.view(name).contents.counts())
            for name in VIEWS
        }
        stats = maintainer.codegen_stats().as_dict()
        if best is None or elapsed < best[0]:
            best = (elapsed, recorder.snapshot(), contents, stats)
    return best


def _run_recompute():
    """The naive baseline: full re-evaluation after every commit."""
    best = None
    for _ in range(REPEATS):
        db = _seeded_database()
        rng = random.Random(9)
        live = set(db.relation("sales").value_tuples())
        contents = {}
        start = time.perf_counter()
        for _ in range(TXNS):
            with db.transact() as txn:
                for _ in range(rng.randint(1, 4)):
                    if live and rng.random() < 0.25:
                        row = rng.choice(sorted(live))
                        txn.delete("sales", row)
                        live.discard(row)
                    else:
                        row = (
                            rng.randrange(REGIONS),
                            rng.randrange(PRODUCTS),
                            rng.randint(*AMOUNT_RANGE),
                        )
                        txn.insert("sales", row)
                        live.add(row)
            instances = db.instances()
            contents = {
                name: dict(evaluate(expression, instances).counts())
                for name, expression in VIEWS.items()
            }
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best[0]:
            best = (elapsed, contents)
    return best


#: The abstract work recorded with each trajectory entry — the SPJ
#: core's counters plus the aggregate fold's own two.
WORK_COUNTERS = (
    "tuples_scanned",
    "join_probes",
    "tuples_emitted",
    "tuples_ignored",
    "truth_table_rows",
    "delta_rows_evaluated",
    "subexpression_memo_hits",
    "differential_updates",
    "aggregate_rows_folded",
    "aggregate_groups_touched",
)


def _record(entry):
    trajectory = []
    if TRAJECTORY.exists():
        trajectory = json.loads(TRAJECTORY.read_text())
    trajectory.append(entry)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=2) + "\n")


def test_e25_aggregate_maintenance(report, benchmark):
    compiled_s, compiled_counters, compiled_views, compiled_stats = (
        _run_differential()
    )
    recompute_s, recompute_views = _run_recompute()

    # Byte-for-byte agreement between the arms.
    assert compiled_views == recompute_views
    assert compiled_counters.get("aggregate_rows_folded", 0) > 0
    assert compiled_counters.get("aggregate_groups_touched", 0) > 0

    # The kernels actually ran and never fell back.
    assert compiled_stats["codegen_plans_compiled"] > 0
    assert compiled_stats["codegen_batch_rows"] > 0
    assert compiled_stats["codegen_fallback_tuples"] == 0

    speedup = recompute_s / compiled_s if compiled_s else float("inf")
    rows = [
        [
            "differential",
            f"{compiled_s * 1e3:.1f}",
            compiled_counters.get("aggregate_rows_folded", 0),
            compiled_counters.get("aggregate_groups_touched", 0),
        ],
        ["full recompute", f"{recompute_s * 1e3:.1f}", "-", "-"],
    ]
    report(
        format_table(
            ["arm", "stream ms", "rows folded", "groups touched"],
            rows,
            title=(
                f"E25  aggregate maintenance ({TXNS} txns, "
                f"{speedup:.2f}x vs recompute)"
            ),
        )
    )

    # The headline claim — skipped in smoke runs, whose streams are too
    # short for wall-clock to dominate noise.
    if not SMOKE:
        assert compiled_s < recompute_s, (
            f"differential {compiled_s:.4f}s not faster than "
            f"recompute {recompute_s:.4f}s"
        )

    if RECORD:
        _record(
            {
                "experiment": "E25",
                "date": date.today().isoformat(),
                "smoke": SMOKE,
                "txns": TXNS,
                "differential_ms": round(compiled_s * 1e3, 2),
                "recompute_ms": round(recompute_s * 1e3, 2),
                "speedup_vs_recompute": round(speedup, 3),
                "codegen": compiled_stats,
                "work_counters": {
                    name: compiled_counters.get(name, 0)
                    for name in WORK_COUNTERS
                },
            }
        )

    # One micro-benchmark sample: a single sale event folded through
    # the generated group-apply kernels.
    bench_db = _seeded_database()
    bench_maintainer = ViewMaintainer(bench_db)
    for name, expression in VIEWS.items():
        bench_maintainer.define_view(name, expression)
    bench_rng = random.Random(1)

    def commit_once():
        with bench_db.transact() as txn:
            txn.insert(
                "sales",
                (
                    bench_rng.randrange(REGIONS),
                    bench_rng.randrange(PRODUCTS),
                    bench_rng.randint(*AMOUNT_RANGE),
                ),
            )

    benchmark(commit_once)
