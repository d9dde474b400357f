"""E13 — re-using partial subexpressions across truth-table rows.

Section 5.3: "a new feature of our problem is the possibility of saving
computation by re-using partial subexpressions appearing in multiple
rows within the table.  Efficient solutions are being investigated."

Our planner's solution is prefix memoization over the rows' join
orders: every row starts at its lowest delta and grows along the
equality links, and rows whose orders begin with the same (position,
choice) prefix share that prefix's result.  The experiment updates k
relations of a chain join
simultaneously (2^k − 1 rows) with sharing on and off and reports join
probes, memo hits and wall time — identical results, strictly less
work with sharing, growing with k.  It runs the per-tuple reference
walker (``tests/reference.py``), where sharing is a switch; the
generated row kernels always share.
"""

import time

from repro.algebra.expressions import BaseRef, to_normal_form
from repro.algebra.relation import Delta
from repro.bench.reporting import format_table
from repro.instrumentation import CostRecorder, recording
from repro.workloads.generators import generate_chain_database
from tests.reference import compute_view_delta

P = 4  # relations in the chain
CARD = 800


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


def _measure(k, share):
    db, nf, deltas = _setting(k)
    recorder = CostRecorder()
    start = time.perf_counter()
    with recording(recorder):
        out = compute_view_delta(
            nf, db.instances(), deltas, share_subexpressions=share
        )
    return time.perf_counter() - start, recorder, out


def test_e13_subexpression_sharing(report, benchmark):
    rows = []
    for k in (2, 3, 4):
        shared_time, shared_rec, shared_out = _measure(k, True)
        solo_time, solo_rec, solo_out = _measure(k, False)
        assert shared_out == solo_out
        assert shared_rec.get("join_probes") <= solo_rec.get("join_probes")
        rows.append(
            [
                k,
                2**k - 1,
                shared_rec.get("subexpression_memo_hits"),
                shared_rec.get("join_probes"),
                solo_rec.get("join_probes"),
                f"{shared_time * 1e3:.1f}",
                f"{solo_time * 1e3:.1f}",
            ]
        )
    report(
        format_table(
            [
                "changed k",
                "rows 2^k-1",
                "memo hits",
                "probes (shared)",
                "probes (unshared)",
                "ms (shared)",
                "ms (unshared)",
            ],
            rows,
            title=(
                "E13  partial-subexpression re-use across truth-table rows "
                f"(chain join, p = {P})"
            ),
        )
    )
    # Memo hits must actually occur and grow with k.
    hits = [row[2] for row in rows]
    assert hits[0] > 0 and hits[-1] > hits[0]

    db, nf, deltas = _setting(3)
    benchmark(
        lambda: compute_view_delta(
            nf, db.instances(), deltas, share_subexpressions=True
        )
    )
