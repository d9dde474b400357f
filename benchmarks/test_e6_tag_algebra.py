"""E6 — the Section 5.3 tag tables, reproduced and exercised.

Prints the paper's two tag tables (the 9-row join table and the 3-row
select/project table) from the per-tuple reference's combination rules
(``tests/reference.py``, the tables the generated row kernels implement),
checks them cell by cell against the transcribed paper tables, and
verifies on random tagged relations that the tagged join equals the
set-algebra expansion ``(r − d ∪ i) ⋈ (s − d' ∪ i')``.  The benchmark
measures the tagged join on mixed-tag operands.
"""

import random

from repro.algebra.relation import Relation
from repro.algebra.schema import RelationSchema
from repro.algebra.tags import Tag
from repro.bench.reporting import format_table
from tests.reference import (
    JOIN_TAG_TABLE,
    UNARY_TAG_TABLE,
    TaggedRelation,
    combine_join_tags,
    join_relations,
    tagged_join,
    unary_tag,
)

PAPER_JOIN_TABLE = [
    ("insert", "insert", "insert"),
    ("insert", "delete", "ignore"),
    ("insert", "old", "insert"),
    ("delete", "insert", "ignore"),
    ("delete", "delete", "delete"),
    ("delete", "old", "delete"),
    ("old", "insert", "insert"),
    ("old", "delete", "delete"),
    ("old", "old", "old"),
]


def _random_tagged(schema, rng, size):
    """A tagged relation plus its before/after set-algebra reading."""
    tagged = TaggedRelation(schema)
    before, after = set(), set()
    seen = set()
    for _ in range(size):
        values = (rng.randint(0, 6), rng.randint(0, 6))
        if values in seen:
            continue
        seen.add(values)
        tag = rng.choice((Tag.OLD, Tag.INSERT, Tag.DELETE))
        tagged.add(values, tag)
        if tag in (Tag.OLD, Tag.DELETE):
            before.add(values)
        if tag in (Tag.OLD, Tag.INSERT):
            after.add(values)
    return tagged, before, after


def test_e6_tag_tables(report, benchmark):
    # --- Join tag table -------------------------------------------------
    rows = []
    for left_name, right_name, expected_name in PAPER_JOIN_TABLE:
        left, right = Tag(left_name), Tag(right_name)
        got = combine_join_tags(left, right)
        assert got.value == expected_name
        rows.append([left_name, right_name, got.value, expected_name])
    assert len(JOIN_TAG_TABLE) == 9
    report(
        format_table(
            ["r1", "r2", "r1 ⋈ r2 (impl)", "paper"],
            rows,
            title="E6a  join tag table (Section 5.3) — all 9 cells match",
        )
    )

    # --- Unary tag table -------------------------------------------------
    unary_rows = []
    for tag in (Tag.INSERT, Tag.DELETE, Tag.OLD):
        got = unary_tag(tag)
        assert got is tag
        unary_rows.append([tag.value, got.value, tag.value])
    assert len(UNARY_TAG_TABLE) == 3
    report(
        format_table(
            ["r", "σ(r) / π(r) (impl)", "paper"],
            unary_rows,
            title="E6b  select/project tag table — all 3 cells match",
        )
    )

    # --- Semantics on random data ----------------------------------------
    rng = random.Random(66)
    r_schema = RelationSchema(["A", "B"])
    s_schema = RelationSchema(["B", "C"])
    checked = 0
    for _ in range(50):
        left, left_before, left_after = _random_tagged(r_schema, rng, 12)
        right, right_before, right_after = _random_tagged(s_schema, rng, 12)
        joined = tagged_join(left, right)
        want_before = join_relations(
            Relation.from_rows(r_schema, left_before),
            Relation.from_rows(s_schema, right_before),
        )
        want_after = join_relations(
            Relation.from_rows(r_schema, left_after),
            Relation.from_rows(s_schema, right_after),
        )
        got_before, got_after = set(), set()
        for values, tag, count in joined.items():
            assert count == 1
            if tag in (Tag.OLD, Tag.DELETE):
                got_before.add(values)
            if tag in (Tag.OLD, Tag.INSERT):
                got_after.add(values)
        assert got_before == set(want_before.value_tuples())
        assert got_after == set(want_after.value_tuples())
        checked += 1
    assert checked == 50

    big_left, _, _ = _random_tagged(r_schema, rng, 2000)
    big_right, _, _ = _random_tagged(s_schema, rng, 2000)
    benchmark(lambda: tagged_join(big_left, big_right))
