"""E4 — project views: counting (§5.2 alt 1) vs key projection (alt 2)
vs full re-evaluation.

Example 5.1 shows why projection breaks naive differential deletion;
the paper fixes it with multiplicity counters and mentions carrying the
base key as the rejected alternative.  The experiment maintains
``V = π_B(r)`` under a mixed insert/delete stream three ways and
reports per-update cost and stored-view size — alternative (2) pays
storage (one stored tuple per base tuple) and query-time aggregation,
which is exactly why the paper picks (1).
"""

import random
import time

from repro.algebra.relation import Delta, Relation
from repro.algebra.schema import RelationSchema
from repro.baselines.key_projection import KeyProjectionView
from repro.bench.reporting import format_table
from repro.core.counting import maintain_project_view
from tests.reference import project_relation

SCHEMA = RelationSchema(["A", "B"])
BASE_SIZE = 3000
UPDATES = 1500


def _base_rows(seed=3):
    rng = random.Random(seed)
    rows = set()
    while len(rows) < BASE_SIZE:
        rows.add((rng.randint(0, 100_000), rng.randint(0, 40)))
    return sorted(rows)


def _update_stream(rows, seed=4):
    rng = random.Random(seed)
    live = set(rows)
    stream = []
    for _ in range(UPDATES):
        if rng.random() < 0.5 and live:
            row = next(iter(live))
            live.discard(row)
            stream.append(("delete", row))
        else:
            row = (rng.randint(0, 100_000), rng.randint(0, 40))
            if row in live:
                continue
            live.add(row)
            stream.append(("insert", row))
    return stream


def test_e4_project_view_strategies(benchmark, report):
    rows = _base_rows()
    stream = _update_stream(rows)

    # --- Strategy 1: §5.2 counting ------------------------------------
    base = Relation.from_rows(SCHEMA, rows)
    counted = project_relation(base, ["B"])
    start = time.perf_counter()
    for op, row in stream:
        delta = (
            Delta(SCHEMA, inserted=[row])
            if op == "insert"
            else Delta(SCHEMA, deleted=[row])
        )
        if op == "insert":
            base.add(row)
        else:
            base.discard(row)
        maintain_project_view(counted, delta, ["B"])
    counting_seconds = time.perf_counter() - start
    assert counted == project_relation(base, ["B"])
    counting_size = len(counted)

    # --- Strategy 2: key projection ------------------------------------
    base2 = Relation.from_rows(SCHEMA, rows)
    keyed = KeyProjectionView(SCHEMA, ["B"], key=["A"])
    keyed.materialize(base2)
    start = time.perf_counter()
    for op, row in stream:
        delta = (
            Delta(SCHEMA, inserted=[row])
            if op == "insert"
            else Delta(SCHEMA, deleted=[row])
        )
        keyed.apply_delta(delta)
    keyed_seconds = time.perf_counter() - start
    keyed_size = len(keyed)
    # Query-time cost of alternative (2): aggregate on read.
    start = time.perf_counter()
    keyed_query = keyed.query()
    keyed_query_seconds = time.perf_counter() - start
    assert keyed_query == counted

    # --- Strategy 3: full re-evaluation ---------------------------------
    base3 = Relation.from_rows(SCHEMA, rows)
    start = time.perf_counter()
    for op, row in stream:
        if op == "insert":
            base3.add(row)
        else:
            base3.discard(row)
        recomputed = project_relation(base3, ["B"])
    full_seconds = time.perf_counter() - start
    assert recomputed == counted

    per = len(stream)
    rows_out = [
        [
            "counting (paper alt 1)",
            f"{counting_seconds / per * 1e6:.1f}",
            counting_size,
            "0 (view is the answer)",
        ],
        [
            "key projection (alt 2)",
            f"{keyed_seconds / per * 1e6:.1f}",
            keyed_size,
            f"{keyed_query_seconds * 1e3:.2f} ms aggregation",
        ],
        [
            "full re-evaluation",
            f"{full_seconds / per * 1e6:.1f}",
            counting_size,
            "0 (just recomputed)",
        ],
    ]
    report(
        format_table(
            ["strategy", "us per update", "stored tuples", "query-time cost"],
            rows_out,
            title=(
                f"E4  project view π_B(r), |r|={BASE_SIZE}, "
                f"{per} updates — counting: cheap updates, minimal "
                "storage, zero-cost reads"
            ),
        )
    )
    assert counting_seconds < full_seconds  # the paper's whole point
    assert keyed_size > counting_size  # alt 2 stores one tuple per base row

    def counting_run():
        b = Relation.from_rows(SCHEMA, rows[:500])
        v = project_relation(b, ["B"])
        for op, row in stream[:200]:
            if op == "insert" and row not in b:
                b.add(row)
                maintain_project_view(v, Delta(SCHEMA, inserted=[row]), ["B"])
            elif op == "delete" and row in b:
                b.discard(row)
                maintain_project_view(v, Delta(SCHEMA, deleted=[row]), ["B"])

    benchmark(counting_run)
