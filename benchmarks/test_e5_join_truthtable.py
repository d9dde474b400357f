"""E5 — the Section 5.3 truth table for p = 3, and its payoff.

Reproduces the paper's 8-row table for V = r1 ⋈ r2 ⋈ r3 verbatim, shows
the row selection for the paper's example transaction (insertions to r1
and r2 only → rows 3, 5, 7), and measures the differential update
against complete re-evaluation of the 3-way join.  The differential runs
as the planner evaluates it: the delta telescoped to one term per
changed relation, ``i_r1 ⋈ pre_r2 ⋈ r3`` and ``r1 ⋈ i_r2 ⋈ r3`` (the
paper's three rows net to the same view delta, ``tests/test_delta_terms.py``).
"""

import time

from repro.algebra.expressions import BaseRef, to_normal_form
from repro.algebra.relation import Delta
from repro.bench.reporting import format_table
from repro.core.truthtable import enumerate_delta_rows, full_truth_table, render_row
from repro.instrumentation import CostRecorder, recording
from repro.workloads.generators import generate_chain_database
from tests.reference import compute_view_delta, evaluate, evaluate_normal_form

NAMES = ["r1", "r2", "r3"]


def test_e5_paper_table_and_row_selection(report, benchmark):
    # --- The 8-row table, exactly as printed --------------------------
    table_rows = []
    for i, row in enumerate(full_truth_table(3), start=1):
        bits = " ".join(str(c.value) for c in row)
        table_rows.append([i, bits, render_row(row, NAMES)])
    report(
        format_table(
            ["row", "B1 B2 B3", "subexpression"],
            table_rows,
            title="E5a  Section 5.3 truth table for p = 3 (verbatim)",
        )
    )

    # --- Row selection for the paper's transaction --------------------
    selected = list(enumerate_delta_rows(3, [0, 1]))
    rendered = [render_row(r, NAMES) for r in selected]
    assert rendered == [
        "r1 ⋈ i_r2 ⋈ r3",
        "i_r1 ⋈ r2 ⋈ r3",
        "i_r1 ⋈ i_r2 ⋈ r3",
    ]
    report(
        format_table(
            ["evaluated subexpression"],
            [[text] for text in rendered],
            title=(
                "E5b  insertions to r1, r2 only -> rows 3, 5, 7 "
                "(paper's selection; row 1 is the current view)"
            ),
        )
    )
    benchmark(lambda: list(enumerate_delta_rows(3, [0, 1])))


def test_e5_differential_vs_full_join(report, benchmark):
    db, names = generate_chain_database(3, 4000, value_range=(0, 400), seed=2)
    expr = BaseRef(names[0]).join(BaseRef(names[1])).join(BaseRef(names[2]))
    nf = to_normal_form(expr, db.schema_catalog())

    # A small transaction inserting into r1 and r2 (the paper's case).
    r1 = db.relation("r1").schema
    r2 = db.relation("r2").schema
    deltas = {
        "r1": Delta(r1, inserted=[(1000 + i, i % 400) for i in range(10)]),
        "r2": Delta(r2, inserted=[(i % 400, 1000 + i) for i in range(10)]),
    }
    for name in ("r1", "r2"):
        for values in deltas[name].inserted:
            db.relation(name).add(values)

    rec_diff = CostRecorder()
    start = time.perf_counter()
    with recording(rec_diff):
        view_delta = compute_view_delta(nf, db.instances(), deltas)
    diff_seconds = time.perf_counter() - start

    rec_full = CostRecorder()
    start = time.perf_counter()
    with recording(rec_full):
        full = evaluate_normal_form(nf, db.instances())
    full_seconds = time.perf_counter() - start

    # Correctness: old view + delta == recomputation.
    old_instances = {n: db.relation(n).copy() for n in db.relation_names()}
    for name in ("r1", "r2"):
        for values in deltas[name].inserted:
            old_instances[name].discard(values)
    old_view = evaluate_normal_form(nf, old_instances)
    view_delta.apply_to(old_view)
    assert old_view == full

    speedup = full_seconds / diff_seconds
    report(
        format_table(
            ["strategy", "time", "tuples scanned", "join probes", "rows"],
            [
                [
                    "differential (2 terms)",
                    f"{diff_seconds * 1e3:.2f} ms",
                    rec_diff.get("tuples_scanned"),
                    rec_diff.get("join_probes"),
                    rec_diff.get("delta_rows_evaluated"),
                ],
                [
                    "complete re-evaluation",
                    f"{full_seconds * 1e3:.2f} ms",
                    rec_full.get("tuples_scanned"),
                    rec_full.get("join_probes"),
                    1,
                ],
            ],
            title=(
                "E5c  3-way join, |r_i| = 4000, 20 inserted tuples — "
                f"differential speedup x{speedup:.0f}"
            ),
        )
    )
    assert rec_diff.get("delta_rows_evaluated") == 2
    assert speedup > 2

    benchmark(lambda: compute_view_delta(nf, db.instances(), deltas))
