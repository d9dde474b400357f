"""E12 — Theorem 4.2: joint irrelevance of tuple combinations.

The paper proves that a *set* of tuples inserted across relations can
be jointly irrelevant even when each tuple is individually relevant
(its substituted condition is satisfiable, but not by *these*
partners).  The experiment inserts random (t_r, t_s) pairs into the
Example 4.1 view, counts how many pairs the single-tuple filter keeps
but the Theorem 4.2 combination test discards, and verifies every
jointly-irrelevant verdict against actual evaluation on the empty
database seeded with just that pair.
"""

import random

from repro.algebra.expressions import BaseRef, to_normal_form
from repro.algebra.relation import Relation
from repro.algebra.schema import RelationSchema
from repro.bench.reporting import format_table
from repro.core.irrelevance import (
    is_irrelevant_combination,
    is_irrelevant_update,
)
from tests.reference import evaluate

CATALOG = {
    "r": RelationSchema(["A", "B"]),
    "s": RelationSchema(["C", "D"]),
}
EXPR = (
    BaseRef("r")
    .product(BaseRef("s"))
    .select("A < 10 and C > 5 and B = C")
    .project(["A", "D"])
)


def test_e12_joint_irrelevance(report, benchmark):
    nf = to_normal_form(EXPR, CATALOG)
    rng = random.Random(40)
    pairs = [
        (
            (rng.randint(0, 15), rng.randint(0, 15)),
            (rng.randint(0, 15), rng.randint(0, 15)),
        )
        for _ in range(500)
    ]

    both_individually_relevant = 0
    jointly_irrelevant = 0
    for t_r, t_s in pairs:
        r_rel = not is_irrelevant_update(nf, "r", t_r, CATALOG["r"])
        s_rel = not is_irrelevant_update(nf, "s", t_s, CATALOG["s"])
        if not (r_rel and s_rel):
            continue
        both_individually_relevant += 1
        if is_irrelevant_combination(nf, {"r": t_r, "s": t_s}, CATALOG):
            jointly_irrelevant += 1
            # Oracle: inserting exactly this pair into an empty database
            # must leave the view empty.
            instances = {
                "r": Relation.from_rows(CATALOG["r"], [t_r]),
                "s": Relation.from_rows(CATALOG["s"], [t_s]),
            }
            assert len(evaluate(EXPR, instances)) == 0

    report(
        format_table(
            ["population", "count"],
            [
                ["random (t_r, t_s) pairs", len(pairs)],
                ["both tuples individually relevant", both_individually_relevant],
                [
                    "of those, jointly irrelevant (Theorem 4.2 catch)",
                    jointly_irrelevant,
                ],
            ],
            title=(
                "E12  multi-tuple irrelevance — combinations the "
                "single-tuple filter cannot discard"
            ),
        )
    )
    # The whole point of Theorem 4.2: the joint test catches extra work.
    assert jointly_irrelevant > 0

    sample = pairs[:100]
    benchmark(
        lambda: [
            is_irrelevant_combination(nf, {"r": t_r, "s": t_s}, CATALOG)
            for t_r, t_s in sample
        ]
    )
