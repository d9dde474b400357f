"""E19 — WAL append overhead and replay/recovery throughput.

The write-ahead delta log makes every commit pay serialization (and,
under ``sync="commit"``, an fsync) to buy crash recovery.  The first
table prices that premium per transaction across sync modes, with the
counter families (`wal_bytes_written`, `wal_fsyncs`) explaining where
the time goes.  The second table measures the payoff path: replaying
the logged stream into a recovered database — views catching up
differentially through the normal commit pipeline — against the
leader's original maintenance cost for the same stream.
"""

import random
import shutil
import tempfile
import time

from repro.algebra.expressions import BaseRef
from repro.bench.reporting import format_table
from repro.core.maintainer import ViewMaintainer
from repro.engine.database import Database
from repro.instrumentation import CostRecorder, recording
from repro.replication.durability import DurabilityManager
from repro.replication.recovery import recover

TRANSACTIONS = 300

VIEW = BaseRef("r").join(BaseRef("s")).select("C >= 30").project(["A", "C"])


def _make_db(seed=19):
    rng = random.Random(seed)
    db = Database()
    rows = {(i, rng.randint(0, 30)) for i in range(800)}
    db.create_relation("r", ["A", "B"], sorted(rows))
    srows = {(b, rng.randint(0, 60)) for b in range(31)}
    db.create_relation("s", ["B", "C"], sorted(srows))
    return db


def _stream(rng, transactions=TRANSACTIONS):
    next_id = 10_000
    for _ in range(transactions):
        rows = [(next_id + k, rng.randint(0, 30)) for k in range(3)]
        next_id += 3
        yield rows


def _run_leader(directory, sync, with_views=True):
    db = _make_db()
    maintainer = None
    if with_views:
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", VIEW)
    durability = None
    if sync is not None:
        durability = DurabilityManager(db, directory, sync=sync)
        durability.checkpoint(maintainer)
    recorder = CostRecorder()
    rng = random.Random(7)
    start = time.perf_counter()
    with recording(recorder):
        for rows in _stream(rng):
            with db.transact() as txn:
                txn.insert_many("r", rows)
    seconds = time.perf_counter() - start
    if durability is not None:
        durability.close()
    return db, seconds, recorder


def test_e19_wal_replay(report, benchmark):
    # ------------------------------------------------------------------
    # Table 1: the per-commit durability premium, by sync mode.
    # ------------------------------------------------------------------
    rows = []
    directory = None
    for sync in (None, "never", "close", "commit"):
        workdir = tempfile.mkdtemp(prefix="repro-e19-")
        _, seconds, recorder = _run_leader(workdir, sync)
        rows.append(
            [
                "no WAL" if sync is None else f'sync="{sync}"',
                f"{seconds / TRANSACTIONS * 1e6:.0f}",
                recorder.get("wal_records_appended"),
                recorder.get("wal_bytes_written"),
                recorder.get("wal_fsyncs"),
            ]
        )
        if sync == "commit":
            directory = workdir  # keep the durable copy for table 2
        else:
            shutil.rmtree(workdir, ignore_errors=True)
    report(
        format_table(
            ["configuration", "us/txn", "records", "bytes", "fsyncs"],
            rows,
            title=(
                "E19a  WAL append premium "
                f"({TRANSACTIONS} transactions, immediate view maintenance)"
            ),
        )
    )
    # Every transaction was logged exactly once under every WAL config.
    assert all(row[2] == TRANSACTIONS for row in rows[1:])

    # ------------------------------------------------------------------
    # Table 2: replay throughput — recovery's differential catch-up.
    # ------------------------------------------------------------------
    replay_recorder = CostRecorder()
    start = time.perf_counter()
    with recording(replay_recorder):
        recovery, recovered = recover(
            directory, lambda rec, m: rec.restore_view(m, "v", VIEW)
        )
    replay_seconds = time.perf_counter() - start
    replayed = replay_recorder.get("log_replay_transactions")
    assert replayed == TRANSACTIONS
    stats = recovered.stats("v")
    assert stats["transactions_seen"] == TRANSACTIONS  # differential, not recomputed
    report(
        format_table(
            ["path", "transactions", "seconds", "txn/s", "records read"],
            [
                [
                    "recover (replay WAL tail)",
                    replayed,
                    f"{replay_seconds:.3f}",
                    f"{replayed / replay_seconds:.0f}",
                    replay_recorder.get("wal_records_read"),
                ]
            ],
            title="E19b  recovery replay throughput (views catch up differentially)",
        )
    )
    shutil.rmtree(directory, ignore_errors=True)

    # ------------------------------------------------------------------
    # The timed kernel: append + replay of a small fixed stream.
    # ------------------------------------------------------------------
    def append_and_replay():
        workdir = tempfile.mkdtemp(prefix="repro-e19-bench-")
        try:
            db = _make_db()
            maintainer = ViewMaintainer(db)
            maintainer.define_view("v", VIEW)
            with DurabilityManager(db, workdir, sync="never") as durability:
                durability.checkpoint(maintainer)
                rng = random.Random(11)
                for rows in _stream(rng, transactions=20):
                    with db.transact() as txn:
                        txn.insert_many("r", rows)
            recover(workdir, lambda rec, m: rec.restore_view(m, "v", VIEW))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    benchmark(append_and_replay)
