"""Unit tests for the counted and tagged evaluation operators."""

import pytest

from repro.algebra.conditions import Condition
from repro.algebra.expressions import BaseRef
from repro.algebra.relation import Relation
from repro.algebra.schema import RelationSchema
from repro.algebra.tags import Tag
from tests.reference import (
    TaggedRelation,
    compile_condition,
    evaluate,
    join_relations,
    product_relations,
    project_relation,
    rename_relation,
    select_relation,
    tagged_join,
    tagged_product,
    tagged_project,
    tagged_select,
)


@pytest.fixture
def r():
    return Relation.from_rows(
        RelationSchema(["A", "B"]), [(1, 10), (2, 10), (3, 20)]
    )


@pytest.fixture
def s():
    return Relation.from_rows(RelationSchema(["B", "C"]), [(10, 7), (20, 8)])


class TestCompileCondition:
    def test_true_false(self):
        schema = RelationSchema(["A"])
        assert compile_condition(Condition.true(), schema)((1,))
        assert not compile_condition(Condition.false(), schema)((1,))

    def test_single_conjunct(self):
        schema = RelationSchema(["A", "B"])
        pred = compile_condition(Condition.coerce("A < B + 1"), schema)
        assert pred((5, 5))
        assert not pred((6, 5))

    def test_dnf(self):
        schema = RelationSchema(["A"])
        pred = compile_condition(Condition.coerce("A < 0 or A > 10"), schema)
        assert pred((-1,)) and pred((11,)) and not pred((5,))

    def test_constant_left_side(self):
        schema = RelationSchema(["A"])
        pred = compile_condition(Condition.coerce("3 < A"), schema)
        assert pred((4,)) and not pred((3,))

    def test_ground_atom(self):
        schema = RelationSchema(["A"])
        from repro.algebra.conditions import Atom

        pred = compile_condition(Condition.of_atoms([Atom(1, "<", 2)]), schema)
        assert pred((0,))


class TestCountedOperators:
    def test_select_preserves_counts(self, r):
        r.add((1, 10))  # count 2
        out = select_relation(r, Condition.coerce("B = 10"))
        assert out.count_of((1, 10)) == 2
        assert (3, 20) not in out

    def test_project_sums_counts(self, r):
        out = project_relation(r, ["B"])
        assert out.count_of((10,)) == 2
        assert out.count_of((20,)) == 1

    def test_project_reorders(self, r):
        out = project_relation(r, ["B", "A"])
        assert (10, 1) in out

    def test_join_multiplies_counts(self, r, s):
        r.add((1, 10))  # (1,10) count 2
        out = join_relations(r, s)
        assert out.schema.names == ("A", "B", "C")
        assert out.count_of((1, 10, 7)) == 2
        assert out.count_of((3, 20, 8)) == 1

    def test_join_no_shared_is_product(self):
        a = Relation.from_rows(RelationSchema(["A"]), [(1,), (2,)])
        b = Relation.from_rows(RelationSchema(["B"]), [(5,)])
        out = join_relations(a, b)
        assert len(out) == 2

    def test_join_build_side_choice_is_transparent(self, r, s):
        # join picks the smaller side to hash; result must not depend
        # on which side that is.
        big = Relation.from_rows(
            RelationSchema(["B", "C"]), [(10, i) for i in range(10)]
        )
        assert join_relations(r, big) == join_relations(r, big)
        left = join_relations(r, s)
        # reversed operands give same tuples modulo column order
        right = join_relations(s, r)
        assert len(left) == len(right)

    def test_product(self, r):
        t = Relation.from_rows(RelationSchema(["X"]), [(1,), (2,)])
        out = product_relations(r, t)
        assert len(out) == 6
        assert out.schema.names == ("A", "B", "X")

    def test_rename(self, r):
        out = rename_relation(r, {"A": "Z"})
        assert out.schema.names == ("Z", "B")
        assert (1, 10) in out


class TestEvaluateTree:
    def test_full_expression(self, r, s):
        instances = {"r": r, "s": s}
        expr = (
            BaseRef("r").join(BaseRef("s")).select("C > 7").project(["A"])
        )
        out = evaluate(expr, instances)
        assert out.counts() == {(3,): 1}

    def test_projection_counts_through_tree(self, r, s):
        instances = {"r": r, "s": s}
        expr = BaseRef("r").join(BaseRef("s")).project(["C"])
        out = evaluate(expr, instances)
        assert out.count_of((7,)) == 2  # two A values share B=10

    def test_rename_in_tree(self, r):
        out = evaluate(BaseRef("r").rename({"B": "Z"}), {"r": r})
        assert out.schema.names == ("A", "Z")

    def test_validates_before_evaluating(self, r):
        from repro.errors import ExpressionError

        with pytest.raises(ExpressionError):
            evaluate(BaseRef("r").select("Z < 1"), {"r": r})


class TestTaggedOperators:
    def _tagged(self, schema_names, items):
        t = TaggedRelation(RelationSchema(schema_names))
        for values, tag, count in items:
            t.add(values, tag, count)
        return t

    def test_tagged_select_keeps_tags(self):
        t = self._tagged(
            ["A"], [((1,), Tag.INSERT, 1), ((2,), Tag.DELETE, 1), ((3,), Tag.OLD, 1)]
        )
        out = tagged_select(t, Condition.coerce("A <= 2"))
        assert out.count_of((1,), Tag.INSERT) == 1
        assert out.count_of((2,), Tag.DELETE) == 1
        assert out.count_of((3,), Tag.OLD) == 0

    def test_tagged_project_sums_per_tag(self):
        t = self._tagged(
            ["A", "B"],
            [
                ((1, 10), Tag.INSERT, 1),
                ((2, 10), Tag.INSERT, 1),
                ((3, 10), Tag.DELETE, 1),
            ],
        )
        out = tagged_project(t, ["B"])
        assert out.count_of((10,), Tag.INSERT) == 2
        assert out.count_of((10,), Tag.DELETE) == 1

    def test_tagged_join_combines_tags(self):
        left = self._tagged(["A", "B"], [((1, 10), Tag.INSERT, 1)])
        right = self._tagged(
            ["B", "C"], [((10, 7), Tag.OLD, 1), ((10, 8), Tag.DELETE, 1)]
        )
        out = tagged_join(left, right)
        assert out.count_of((1, 10, 7), Tag.INSERT) == 1
        # insert x delete -> ignore: must not emerge.
        assert len(out) == 1

    def test_tagged_join_multiplies_counts(self):
        left = self._tagged(["A", "B"], [((1, 10), Tag.OLD, 2)])
        right = self._tagged(["B", "C"], [((10, 7), Tag.OLD, 3)])
        out = tagged_join(left, right)
        assert out.count_of((1, 10, 7), Tag.OLD) == 6

    def test_tagged_product_ignores_opposites(self):
        left = self._tagged(["A"], [((1,), Tag.INSERT, 1)])
        right = self._tagged(["B"], [((2,), Tag.DELETE, 1), ((3,), Tag.OLD, 1)])
        out = tagged_product(left, right)
        assert out.count_of((1, 3), Tag.INSERT) == 1
        assert len(out) == 1
