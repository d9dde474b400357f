"""E23 — base-free hosting and the staleness-SLA refresh scheduler.

Two questions about the scheduler subsystem, on seeded streams:

* **Memory saving** — the same WAL shipped to a full follower and to a
  base-free follower hosting only self-maintainable views.  The
  base-free replica drops every base-relation copy after bootstrap and
  maintains its views from deltas alone, so the table shows base rows
  held (full) against rows dropped (base-free) with identical view
  contents asserted byte-for-byte.
* **SLA sweep** — one deferred view per staleness bound, all driven by
  a single scheduler over one commit stream.  Looser bounds amortize
  refreshes over more pending commits; with an adequate batch limit
  the scheduler refreshes every view *at* its bound, so SLA violations
  are 0 in the nominal rows.  A backpressured run (batch_limit=1,
  deliberately starved) is included as the ablation — its violation
  and deferral counts are the price of under-provisioning.

Set ``REPRO_E23_SMOKE=1`` (CI does) to shrink the streams to a smoke
run of the same code paths.  Set ``REPRO_E23_RECORD=1`` to append the
measured numbers to ``BENCH_E23.json`` at the repo root.
"""

import json
import random
import time
from datetime import date
from pathlib import Path

from benchmarks.conftest import env_flag, smoke_env
from repro import (
    BaseRef,
    Database,
    DurabilityManager,
    Follower,
    ViewMaintainer,
)
from repro.bench.reporting import format_table
from repro.core.maintainer import MaintenancePolicy
from repro.scheduler import RefreshScheduler, StalenessSLA, TickClock

SMOKE = smoke_env("E23")
RECORD = env_flag("REPRO_E23_RECORD")
TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_E23.json"

TXNS = 40 if SMOKE else 300
SEED_ROWS = 50 if SMOKE else 400
SLA_BOUNDS = (2, 8, 32)

#: Self-maintainable view shapes hosted by both followers.
FOLLOWER_VIEWS = {
    "hot": BaseRef("r").select("A <= 40"),
    "wide": BaseRef("r").select("A < B").project(["B"]),
    "tail": BaseRef("s").select("D >= 50"),
}


def _seeded_database():
    rng = random.Random(23)

    def distinct_rows(count):
        rows = set()
        while len(rows) < count:
            rows.add((rng.randrange(100), rng.randrange(100)))
        return sorted(rows)

    rows_r = distinct_rows(SEED_ROWS)
    rows_s = distinct_rows(SEED_ROWS)
    db = Database()
    db.create_relation("r", ["A", "B"], rows_r)
    db.create_relation("s", ["C", "D"], rows_s)
    return db


def _churn(db, txns, seed):
    """Commit a seeded stream of legal inserts and deletes."""
    rng = random.Random(seed)
    live = {name: set(db.relation(name).value_tuples()) for name in ("r", "s")}
    for _ in range(txns):
        with db.transact() as txn:
            for _ in range(rng.randint(1, 4)):
                name = rng.choice(["r", "r", "s"])
                if live[name] and rng.random() < 0.3:
                    row = rng.choice(sorted(live[name]))
                    txn.delete(name, row)
                    live[name].discard(row)
                else:
                    row = (rng.randrange(100), rng.randrange(100))
                    txn.insert(name, row)
                    live[name].add(row)


def _base_rows(database):
    return sum(
        len(database.relation(name)) for name in database.relation_names()
    )


def _run_followers(directory):
    db = _seeded_database()
    durability = DurabilityManager(db, str(directory))
    leader = ViewMaintainer(db)
    durability.checkpoint(leader)

    full = Follower(str(directory))
    bare = Follower(str(directory), base_free=True)
    for follower in (full, bare):
        for name, expression in FOLLOWER_VIEWS.items():
            follower.define_view(name, expression)

    _churn(db, TXNS, seed=5)
    timings = {}
    for label, follower in (("full", full), ("base-free", bare)):
        start = time.perf_counter()
        follower.poll()
        timings[label] = time.perf_counter() - start

    for name in FOLLOWER_VIEWS:
        assert (
            full.view(name).contents.counts()
            == bare.view(name).contents.counts()
        ), name
    assert bare.base_dropped
    assert _base_rows(bare.database) == 0
    return db, full, bare, timings


def _run_sla_sweep(batch_limit):
    db = _seeded_database()
    maintainer = ViewMaintainer(db)
    for bound in SLA_BOUNDS:
        maintainer.define_view(
            f"sla_{bound}",
            BaseRef("r").select("A <= 60"),
            policy=MaintenancePolicy.DEFERRED,
        )
    clock = TickClock()
    scheduler = RefreshScheduler(
        maintainer, clock=clock, batch_limit=batch_limit
    )
    for bound in SLA_BOUNDS:
        scheduler.declare_sla(
            f"sla_{bound}", StalenessSLA(max_pending_commits=bound)
        )

    rng = random.Random(9)
    live = set(db.relation("r").value_tuples())
    refreshed = {f"sla_{bound}": 0 for bound in SLA_BOUNDS}
    for _ in range(TXNS):
        with db.transact() as txn:
            if live and rng.random() < 0.3:
                row = rng.choice(sorted(live))
                txn.delete("r", row)
                live.discard(row)
            else:
                row = (rng.randrange(100), rng.randrange(100))
                txn.insert("r", row)
                live.add(row)
        clock.advance(1)
        for name in scheduler.tick():
            refreshed[name] += 1
    return scheduler, refreshed


def _record(entry):
    trajectory = []
    if TRAJECTORY.exists():
        trajectory = json.loads(TRAJECTORY.read_text())
    trajectory.append(entry)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=2) + "\n")


def test_e23_scheduler(report, benchmark, tmp_path):
    # -- base-free hosting: memory next to identical contents ----------
    db, full, bare, timings = _run_followers(tmp_path)
    dropped = bare.base_rows_dropped
    rows = [
        [
            "full",
            _base_rows(full.database),
            0,
            sum(len(full.view(name).contents) for name in FOLLOWER_VIEWS),
            f"{timings['full'] * 1e3:.1f}",
        ],
        [
            "base-free",
            _base_rows(bare.database),
            dropped,
            sum(len(bare.view(name).contents) for name in FOLLOWER_VIEWS),
            f"{timings['base-free'] * 1e3:.1f}",
        ],
    ]
    report(
        format_table(
            [
                "follower",
                "base rows held",
                "base rows dropped",
                "view rows",
                "catch-up ms",
            ],
            rows,
            title=f"E23  base-free hosting ({TXNS} txns, identical views)",
        )
    )
    assert dropped > 0

    # -- staleness-SLA sweep -------------------------------------------
    nominal, nominal_refreshed = _run_sla_sweep(batch_limit=len(SLA_BOUNDS))
    starved, _ = _run_sla_sweep(batch_limit=1)
    sweep_rows = []
    for bound in SLA_BOUNDS:
        name = f"sla_{bound}"
        refreshed = nominal_refreshed[name]
        sweep_rows.append(
            [
                bound,
                refreshed,
                f"{TXNS / max(1, refreshed):.1f}",
                nominal.violations().get(name, 0),
            ]
        )
    report(
        format_table(
            [
                "max pending commits",
                "refreshes",
                "commits amortized",
                "sla violations",
            ],
            sweep_rows,
            title=f"E23  staleness-SLA sweep ({TXNS} txns, nominal)",
        )
    )
    report(
        format_table(
            ["batch limit", "refreshes", "violations", "deferrals"],
            [
                [
                    len(SLA_BOUNDS),
                    nominal.counters()["refreshes"],
                    nominal.counters()["sla_violations"],
                    nominal.counters()["backpressure_deferrals"],
                ],
                [
                    1,
                    starved.counters()["refreshes"],
                    starved.counters()["sla_violations"],
                    starved.counters()["backpressure_deferrals"],
                ],
            ],
            title="E23  backpressure ablation",
        )
    )

    # Nominal provisioning refreshes at the bound, never beyond it.
    assert nominal.counters()["sla_violations"] == 0
    assert nominal.counters()["backpressure_deferrals"] == 0
    # Looser bounds amortize strictly more commits per refresh.
    refresh_counts = [row[1] for row in sweep_rows]
    assert refresh_counts == sorted(refresh_counts, reverse=True)

    if RECORD:
        _record(
            {
                "experiment": "E23",
                "date": date.today().isoformat(),
                "smoke": SMOKE,
                "txns": TXNS,
                "base_free": {
                    "full_base_rows": _base_rows(full.database),
                    "base_free_base_rows": _base_rows(bare.database),
                    "base_rows_dropped": dropped,
                    "full_catch_up_ms": round(timings["full"] * 1e3, 2),
                    "base_free_catch_up_ms": round(
                        timings["base-free"] * 1e3, 2
                    ),
                },
                "sla_sweep": {
                    str(bound): {
                        "refreshes": row[1],
                        "violations": row[3],
                    }
                    for bound, row in zip(SLA_BOUNDS, sweep_rows)
                },
                "nominal_violations": nominal.counters()["sla_violations"],
                "starved_violations": starved.counters()["sla_violations"],
            }
        )

    # One micro-benchmark sample: a commit plus a scheduler tick.
    bench_db = _seeded_database()
    bench_maintainer = ViewMaintainer(bench_db)
    bench_maintainer.define_view(
        "d",
        BaseRef("r").select("A <= 60"),
        policy=MaintenancePolicy.DEFERRED,
    )
    bench_clock = TickClock()
    bench_scheduler = RefreshScheduler(bench_maintainer, clock=bench_clock)
    bench_scheduler.declare_sla("d", StalenessSLA(max_pending_commits=4))
    bench_rng = random.Random(1)

    def commit_and_tick():
        with bench_db.transact() as txn:
            txn.insert(
                "r", (bench_rng.randrange(100), bench_rng.randrange(100))
            )
        bench_clock.advance(1)
        bench_scheduler.tick()

    benchmark(commit_and_tick)
