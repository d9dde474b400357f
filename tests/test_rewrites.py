"""Unit tests for condition simplification and selection pushdown."""

import random

import pytest

from repro.algebra.conditions import parse_condition
from repro.algebra.expressions import BaseRef, Select
from repro.algebra.relation import Relation
from repro.algebra.rewrites import is_spj, push_selections, simplify_condition
from repro.algebra.schema import RelationSchema
from tests.reference import evaluate


@pytest.fixture
def catalog():
    return {
        "r": RelationSchema(["A", "B"]),
        "s": RelationSchema(["B", "C"]),
        "t": RelationSchema(["D", "E"]),
    }


@pytest.fixture
def instances(catalog):
    rng = random.Random(5)
    out = {}
    for name, schema in catalog.items():
        rows = {
            tuple(rng.randint(0, 6) for _ in schema.names) for _ in range(15)
        }
        out[name] = Relation.from_rows(schema, sorted(rows))
    return out


class TestSimplifyCondition:
    def test_drops_ground_true(self):
        assert str(simplify_condition(parse_condition("3 < 5 and A > 2"))) == "A > 2"

    def test_kills_disjunct_with_ground_false(self):
        c = simplify_condition(parse_condition("7 < 5 and A > 2 or B < 1"))
        assert str(c) == "B < 1"

    def test_all_disjuncts_dead_gives_false(self):
        assert simplify_condition(parse_condition("7 < 5")).is_false()

    def test_all_atoms_true_gives_true(self):
        assert simplify_condition(parse_condition("3 < 5 and 1 = 1")).is_true()

    def test_dedupes_atoms(self):
        c = simplify_condition(parse_condition("A > 2 and A > 2"))
        assert len(c.disjuncts[0].atoms) == 1

    def test_keeps_distinct_atoms(self):
        c = simplify_condition(parse_condition("A > 2 and A > 3"))
        assert len(c.disjuncts[0].atoms) == 2


class TestIsSpj:
    def test_spj_expressions(self):
        assert is_spj(BaseRef("r").select("A < 1").project(["A"]))
        assert is_spj(BaseRef("r").join(BaseRef("s")))
        assert is_spj(BaseRef("r").rename({"A": "X"}))


class TestPushSelections:
    def test_pushes_single_side_atoms_below_join(self, catalog):
        expr = BaseRef("r").join(BaseRef("s")).select("A < 3 and C > 2")
        pushed = push_selections(expr, catalog)
        text = str(pushed)
        # Both atoms moved inside the join operands.
        assert text.index("A < 3") < text.index("join")
        assert "select" in str(pushed)

    def test_cross_side_atom_stays_at_join(self, catalog):
        expr = BaseRef("r").join(BaseRef("s")).select("A < C")
        pushed = push_selections(expr, catalog)
        # The atom spans both sides: it must sit above the join.
        assert isinstance(pushed, Select)

    def test_disjunction_not_split(self, catalog):
        expr = BaseRef("r").select("A < 1 or B > 5")
        pushed = push_selections(expr, catalog)
        assert isinstance(pushed, Select)
        assert len(pushed.condition.disjuncts) == 2

    def test_pushdown_through_project(self, catalog):
        expr = BaseRef("r").project(["A"]).select("A < 3")
        pushed = push_selections(expr, catalog)
        # Selection ends up below the projection.
        text = str(pushed)
        assert text.index("select") > text.index("project")

    def test_pushdown_through_rename(self, catalog):
        expr = BaseRef("r").rename({"A": "X"}).select("X < 3")
        pushed = push_selections(expr, catalog)
        # The pushed atom is rewritten to the underlying name A.
        assert "A < 3" in str(pushed)

    @pytest.mark.parametrize(
        "make_expr",
        [
            lambda: BaseRef("r").join(BaseRef("s")).select("A < 3 and C > 2"),
            lambda: BaseRef("r").join(BaseRef("s")).select("A < C"),
            lambda: BaseRef("r").select("A < 1 or B > 5"),
            lambda: BaseRef("r").project(["A"]).select("A < 3"),
            lambda: BaseRef("r").rename({"A": "X"}).select("X < 3 and B = 2"),
            lambda: (
                BaseRef("r")
                .join(BaseRef("s"))
                .select("A <= B + 1 and C >= 2")
                .project(["A", "C"])
            ),
            lambda: BaseRef("r").product(BaseRef("t")).select("A < D and E > 1"),
            lambda: BaseRef("r").select("3 < 5 and A >= 0"),
        ],
    )
    def test_pushdown_preserves_counted_semantics(
        self, make_expr, catalog, instances
    ):
        expr = make_expr()
        pushed = push_selections(expr, catalog)
        assert evaluate(expr, instances) == evaluate(pushed, instances)
