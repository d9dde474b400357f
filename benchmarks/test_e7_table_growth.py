"""E7 — truth-table construction is O(2^k), independent of p.

The paper: "In practice, it is not necessary to build a table with 2^p
rows ... Assuming that only k such relations were modified, building
the table can be done in time O(2^k)."

Two sweeps: rows produced as k grows (p fixed), and construction time
as p grows (k fixed) — the latter must stay flat in row count.  Beside
the table, the first sweep counts what maintenance plans instead: the
delta telescoped to one term per modified relation, k where the table
has 2^k − 1.
"""

import time

from repro.algebra.expressions import BaseRef, to_normal_form
from repro.algebra.schema import RelationSchema
from repro.bench.reporting import format_table
from repro.core.planner import RowPlanner
from repro.core.truthtable import enumerate_delta_rows


def _build(p, k):
    return list(enumerate_delta_rows(p, range(k)))


def _chain(p):
    """The normal form of a p-relation chain join."""
    catalog = {f"r{i}": RelationSchema([f"K{i}", f"K{i + 1}"]) for i in range(p)}
    expression = BaseRef("r0")
    for i in range(1, p):
        expression = expression.join(BaseRef(f"r{i}"))
    return to_normal_form(expression, catalog)


def test_e7_growth_in_k(report, benchmark):
    p = 16
    chain = _chain(p)
    rows = []
    timings = {}
    for k in range(1, 11):
        start = time.perf_counter()
        built = _build(p, k)
        timings[k] = time.perf_counter() - start
        assert len(built) == 2**k - 1
        terms = len(RowPlanner(chain, range(k)).chains)
        assert terms == k
        rows.append([k, len(built), f"{timings[k] * 1e6:.0f} us", terms])
    report(
        format_table(
            ["modified relations k", "rows built (2^k - 1)", "time", "terms planned (k)"],
            rows,
            title=f"E7a  truth-table growth in k (p = {p} fixed)",
        )
    )
    # Doubling behaviour: each +1 in k roughly doubles the rows.
    assert timings[10] > timings[5]

    benchmark(lambda: _build(p, 8))


def test_e7_independent_of_p(report, benchmark):
    k = 3
    rows = []
    for p in (4, 16, 64, 256):
        start = time.perf_counter()
        built = _build(p, k)
        elapsed = time.perf_counter() - start
        assert len(built) == 2**k - 1
        rows.append([p, len(built), f"{elapsed * 1e6:.0f} us"])
    report(
        format_table(
            ["view relations p", "rows built", "time"],
            rows,
            title=(
                "E7b  row count is independent of p (k = 3 fixed) — "
                "never 2^p"
            ),
        )
    )
    benchmark(lambda: _build(256, k))
