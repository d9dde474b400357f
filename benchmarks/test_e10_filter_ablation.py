"""E10 — ablating the Section 4 filter: end-to-end benefit.

Runs the same update stream through the paper's reference pipeline
twice — ``compute_view_delta`` over deltas screened by a
``RelevanceFilter`` (Section 4 before Section 5) and over the
unscreened deltas — while sweeping the fraction of updates that are
provably irrelevant to the view.  The view condition bounds A below 100, so inserts drawn from
A ∈ [200, 400] are screenable.  Reported: time per transaction and
differential updates actually performed.  The filter's payoff grows
linearly with the irrelevant fraction; at 0% it costs only the
screening overhead.  (The maintainer always screens; the ablation is a
property of the two reference functions.)
"""

import random
import time

from repro.algebra.expressions import BaseRef
from repro.bench.reporting import format_table
from repro.core.differential import compute_view_delta
from repro.core.irrelevance import RelevanceFilter
from repro.core.planner import evaluate_normal_form
from repro.core.views import MaterializedView, ViewDefinition
from repro.engine.database import Database
from repro.instrumentation import CostRecorder, recording

FRACTIONS = [0.0, 0.5, 0.9, 1.0]
TRANSACTIONS = 150


def _make_db():
    rng = random.Random(10)
    db = Database()
    rows = {(rng.randint(0, 99), rng.randint(0, 50)) for _ in range(2000)}
    db.create_relation("r", ["A", "B"], sorted(rows))
    srows = {(rng.randint(0, 50), rng.randint(0, 50)) for _ in range(500)}
    db.create_relation("s", ["B", "C"], sorted(srows))
    return db


VIEW = (
    BaseRef("r")
    .join(BaseRef("s"))
    .select("A < 100 and C >= 10")
    .project(["A", "C"])
)


def _run(irrelevant_fraction, use_filter, seed=20):
    """Returns (seconds per txn, differential updates, txns skipped, view)."""
    db = _make_db()
    definition = ViewDefinition("v", VIEW, db.schema_catalog())
    view = MaterializedView.from_stored(
        definition, evaluate_normal_form(definition.normal_form, db.instances())
    )
    normal_form = definition.normal_form
    # Algorithm 4.1 is amortized: the invariant split and its APSP are
    # built once per view, then reused for every screened tuple.
    screen = RelevanceFilter(normal_form, "r", db.relation("r").schema)
    skipped = [0]

    def maintain(txn_id, deltas):
        delta = deltas.get("r")
        if delta is None:  # a duplicate insert commits as a net no-op
            return
        if use_filter:
            delta, _ = screen.screen_delta(delta)
            if delta.is_empty():
                skipped[0] += 1
                return
        view.apply_delta(
            compute_view_delta(normal_form, db.instances(), {"r": delta})
        )

    db.add_commit_hook(maintain)
    rng = random.Random(seed)
    recorder = CostRecorder()
    start = time.perf_counter()
    with recording(recorder):
        for i in range(TRANSACTIONS):
            with db.transact() as txn:
                if rng.random() < irrelevant_fraction:
                    # Provably irrelevant: A >= 200 violates A < 100.
                    txn.insert(
                        "r", (rng.randint(200, 400), rng.randint(0, 50))
                    )
                else:
                    txn.insert("r", (rng.randint(0, 99), rng.randint(0, 50)))
    elapsed = time.perf_counter() - start
    return (
        elapsed / TRANSACTIONS,
        recorder.get("differential_updates"),
        skipped[0],
        view,
    )


def test_e10_filter_ablation(report, benchmark):
    rows = []
    for fraction in FRACTIONS:
        filtered_time, filtered_updates, skipped, filtered_view = _run(
            fraction, True
        )
        unfiltered_time, unfiltered_updates, _, unfiltered_view = _run(
            fraction, False
        )
        assert filtered_view.contents == unfiltered_view.contents
        rows.append(
            [
                f"{fraction:.0%}",
                f"{filtered_time * 1e6:.0f}",
                f"{unfiltered_time * 1e6:.0f}",
                filtered_updates,
                unfiltered_updates,
                skipped,
            ]
        )
    report(
        format_table(
            [
                "irrelevant frac",
                "with filter us/txn",
                "no filter us/txn",
                "diff updates (filter)",
                "diff updates (none)",
                "txns skipped",
            ],
            rows,
            title=(
                "E10  Section 4 filter ablation — skipped transactions "
                "grow with the irrelevant fraction"
            ),
        )
    )
    # At 100% irrelevant updates, the screened pipeline performs no
    # differential updates at all; the unscreened one does one per txn.
    last = rows[-1]
    assert last[3] == 0
    # Nearly one differential update per transaction without the filter
    # (the odd duplicate insert commits as a net no-op and is exempt).
    assert last[4] >= TRANSACTIONS - 5
    # And it must be faster there.
    assert float(last[1]) < float(last[2])

    benchmark(lambda: _run(0.9, True, seed=21))
