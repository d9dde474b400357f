"""E13 — re-using partial subexpressions across truth-table rows.

Section 5.3: "a new feature of our problem is the possibility of saving
computation by re-using partial subexpressions appearing in multiple
rows within the table.  Efficient solutions are being investigated."

Until the planner telescoped the join delta, its answer was prefix
memoization over the table's 2^k − 1 delta-rooted rows: rows opening
with the same delta shared that prefix.  The delta now telescopes to k
terms, one per changed relation, each opening with its own delta — so
no two share a prefix, and there is nothing left to memoize.  The
experiment updates k relations of a chain join simultaneously and
reports, per k, the table's row count, the terms evaluated, memo hits,
join probes and wall time of the per-tuple reference walker
(``tests/reference.py``), which walks the terms the kernels run.  The
join probes are set beside what the memoized table made on the same
setting (795 / 923 / 1 605 for k = 2 / 3 / 4, EXPERIMENTS.md).
"""

import time

from repro.algebra.expressions import BaseRef, to_normal_form
from repro.algebra.relation import Delta
from repro.bench.reporting import format_table
from repro.instrumentation import METRICS, CostRecorder, recording
from repro.workloads.generators import generate_chain_database
from tests.reference import compute_view_delta

P = 4  # relations in the chain
CARD = 800
#: Join probes of the memoized truth table on this setting, per k.
TABLE_PROBES = {2: 795, 3: 923, 4: 1605}


def _setting(k):
    db, names = generate_chain_database(P, CARD, value_range=(0, 120), seed=8)
    expr = BaseRef(names[0])
    for name in names[1:]:
        expr = expr.join(BaseRef(name))
    nf = to_normal_form(expr, db.schema_catalog())
    deltas = {}
    for name in names[:k]:
        schema = db.relation(name).schema
        inserted = [(5000 + i, (7 * i) % 120) for i in range(15)]
        deltas[name] = Delta(schema, inserted=inserted)
        for values in inserted:
            db.relation(name).add(values)
    return db, nf, deltas


def _measure(k):
    db, nf, deltas = _setting(k)
    recorder = CostRecorder()
    start = time.perf_counter()
    with recording(recorder):
        compute_view_delta(nf, db.instances(), deltas)
    return time.perf_counter() - start, recorder


def test_e13_subexpression_sharing(report, benchmark):
    assert "subexpression_memo_hits" not in METRICS
    rows = []
    for k in (2, 3, 4):
        seconds, recorder = _measure(k)
        assert recorder.get("truth_table_rows") == k
        assert recorder.get("join_probes") <= TABLE_PROBES[k]
        rows.append(
            [
                k,
                2**k - 1,
                k,
                recorder.get("join_probes"),
                TABLE_PROBES[k],
                f"{seconds * 1e3:.1f}",
            ]
        )
    report(
        format_table(
            [
                "changed k",
                "table rows 2^k-1",
                "terms",
                "probes (terms)",
                "probes (memoized table)",
                "ms (terms)",
            ],
            rows,
            title=(
                "E13  the telescoped delta: k terms share no prefix "
                f"(chain join, p = {P})"
            ),
        )
    )

    db, nf, deltas = _setting(3)
    benchmark(lambda: compute_view_delta(nf, db.instances(), deltas))
