"""E9 — when is differential cheaper than complete re-evaluation?

The paper's conclusions pose exactly this: "a next step in this
direction is to determine under what circumstances differential
re-evaluation is more efficient than complete re-evaluation of the
expression defining the view."  This experiment answers it empirically:
sweep the update-batch size as a fraction of the base relation and
report both strategies' times and the winner — the crossover sits where
the delta stops being small relative to the base.
"""

import time

from repro.algebra.expressions import BaseRef, to_normal_form
from repro.algebra.relation import Delta
from repro.bench.reporting import format_table
from repro.workloads.generators import generate_chain_database
from tests.reference import compute_view_delta, evaluate_normal_form

BASE = 3000
FRACTIONS = [0.001, 0.01, 0.05, 0.2, 0.5, 1.0]


def _setting(fraction):
    db, names = generate_chain_database(2, BASE, value_range=(0, 300), seed=3)
    expr = BaseRef(names[0]).join(BaseRef(names[1]))
    nf = to_normal_form(expr, db.schema_catalog())
    schema = db.relation("r1").schema
    count = max(1, int(BASE * fraction))
    inserted = [(10_000 + i, i % 300) for i in range(count)]
    deltas = {"r1": Delta(schema, inserted=inserted)}
    for values in inserted:
        db.relation("r1").add(values)
    return db, nf, deltas


def _time(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_e9_crossover(report, benchmark):
    rows = []
    winners = []
    for fraction in FRACTIONS:
        db, nf, deltas = _setting(fraction)
        diff_seconds = _time(
            lambda: compute_view_delta(nf, db.instances(), deltas)
        )
        full_seconds = _time(
            lambda: evaluate_normal_form(nf, db.instances())
        )
        winner = "differential" if diff_seconds < full_seconds else "full"
        winners.append((fraction, winner))
        rows.append(
            [
                f"{fraction:.3f}",
                f"{diff_seconds * 1e3:.2f}",
                f"{full_seconds * 1e3:.2f}",
                f"{full_seconds / diff_seconds:.2f}",
                winner,
            ]
        )
    report(
        format_table(
            [
                "|delta| / |base|",
                "differential ms",
                "full re-eval ms",
                "full/diff ratio",
                "winner",
            ],
            rows,
            title=(
                "E9  differential vs complete re-evaluation crossover "
                f"(2-way join, |base| = {BASE})"
            ),
        )
    )
    # Shape assertions: differential wins clearly at tiny deltas, and
    # its advantage shrinks monotonically-ish toward whole-relation
    # deltas (at fraction 1.0 the delta rows redo all the work and
    # more, so full re-evaluation is at least competitive).
    assert winners[0][1] == "differential"
    first_ratio = float(rows[0][3])
    last_ratio = float(rows[-1][3])
    assert first_ratio > 3 * last_ratio

    db, nf, deltas = _setting(0.01)
    benchmark(lambda: compute_view_delta(nf, db.instances(), deltas))
