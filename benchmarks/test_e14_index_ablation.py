"""E14 — design-choice ablation: index probes for OLD operands.

The differential algorithm's per-transaction cost is dominated by
preparing and probing the large OLD operands.  The maintainer answers
those probes from lazily-created persistent hash indexes (each kept in
step by the relation that carries it) instead of re-hashing each base
relation on every transaction.  This experiment runs the same small-transaction
stream through the reference function ``compute_view_delta`` with and
without an ``index_probe`` hook — the hook reading the indexes the
maintainer binds (``tests.reference.index_probe_for``) — and reports per-transaction
time and tuples scanned: the scanned count collapses with the probe
because only matching keys are ever touched.
"""

import random
import time

from repro.algebra.expressions import BaseRef
from repro.bench.reporting import format_table
from repro.core.maintainer import ViewMaintainer
from repro.core.views import MaterializedView, ViewDefinition
from repro.engine.database import Database
from repro.instrumentation import CostRecorder, recording
from tests.reference import compute_view_delta, evaluate_normal_form, index_probe_for

TRANSACTIONS = 100
BASE = 6000


def _make_db(seed=14):
    rng = random.Random(seed)
    db = Database()
    rows = {(i, rng.randint(0, 500)) for i in range(BASE)}
    db.create_relation("r", ["A", "B"], sorted(rows))
    srows = {(b, rng.randint(0, 500)) for b in range(501)}
    db.create_relation("s", ["B", "C"], sorted(srows))
    return db


VIEW = BaseRef("r").join(BaseRef("s")).select("C >= 100").project(["A", "C"])


def _run(probe_indexes):
    db = _make_db()
    definition = ViewDefinition("v", VIEW, db.schema_catalog())
    view = MaterializedView.from_stored(
        definition, evaluate_normal_form(definition.normal_form, db.instances())
    )
    def maintain(txn_id, deltas):
        instances = db.instances()
        probe = (
            index_probe_for(definition.normal_form, instances, deltas)
            if probe_indexes
            else None
        )
        view.apply_delta(
            compute_view_delta(
                definition.normal_form,
                instances,
                deltas,
                index_probe=probe,
            )
        )

    db.add_commit_hook(maintain)
    rng = random.Random(5)
    recorder = CostRecorder()
    start = time.perf_counter()
    with recording(recorder):
        for i in range(TRANSACTIONS):
            with db.transact() as txn:
                txn.insert("r", (BASE + i, rng.randint(0, 500)))
    elapsed = time.perf_counter() - start
    return elapsed, recorder, view


def test_e14_index_ablation(report, benchmark):
    indexed_time, indexed_rec, indexed_view = _run(True)
    scan_time, scan_rec, scan_view = _run(False)
    assert indexed_view.contents == scan_view.contents

    rows = [
        [
            "lazy hash indexes",
            f"{indexed_time / TRANSACTIONS * 1e6:.0f}",
            indexed_rec.get("tuples_scanned"),
            indexed_rec.get("index_probes"),
        ],
        [
            "re-hash per transaction",
            f"{scan_time / TRANSACTIONS * 1e6:.0f}",
            scan_rec.get("tuples_scanned"),
            scan_rec.get("index_probes"),
        ],
    ]
    report(
        format_table(
            ["old-operand strategy", "us per txn", "tuples scanned", "index probes"],
            rows,
            title=(
                f"E14  OLD-operand index ablation "
                f"(|r| = {BASE}, {TRANSACTIONS} single-insert txns)"
            ),
        )
    )
    assert indexed_rec.get("index_probes") > 0
    assert scan_rec.get("index_probes") == 0
    assert indexed_rec.get("tuples_scanned") < scan_rec.get("tuples_scanned")
    assert indexed_time < scan_time

    db = _make_db()
    maintainer = ViewMaintainer(db)
    maintainer.define_view("v", VIEW)
    counter = [100_000]

    def one_txn():
        with db.transact() as txn:
            txn.insert("r", (counter[0], counter[0] % 500))
            counter[0] += 1

    benchmark(one_txn)
