"""Unit tests for the evaluate-only Union and Difference operators."""

import pytest

from repro.algebra.expressions import (
    BaseRef,
    Difference,
    Union,
    to_normal_form,
)
from repro.algebra.relation import Relation
from repro.algebra.schema import RelationSchema
from repro.errors import ExpressionError, MaintenanceError
from tests.reference import evaluate


@pytest.fixture
def catalog():
    return {
        "r": RelationSchema(["A", "B"]),
        "s": RelationSchema(["A", "B"]),
        "t": RelationSchema(["X"]),
    }


@pytest.fixture
def instances(catalog):
    return {
        "r": Relation.from_rows(catalog["r"], [(1, 1), (2, 2)]),
        "s": Relation.from_rows(catalog["s"], [(2, 2), (3, 3)]),
        "t": Relation.from_rows(catalog["t"], [(9,)]),
    }


class TestUnion:
    def test_counts_add(self, instances):
        out = evaluate(BaseRef("r").union(BaseRef("s")), instances)
        assert out.count_of((2, 2)) == 2
        assert out.count_of((1, 1)) == 1
        assert out.count_of((3, 3)) == 1

    def test_schema_mismatch_rejected(self, catalog):
        with pytest.raises(ExpressionError):
            Union(BaseRef("r"), BaseRef("t")).schema(catalog)

    def test_union_of_projections(self, instances):
        expr = BaseRef("r").project(["A"]).union(BaseRef("s").project(["A"]))
        out = evaluate(expr, instances)
        assert out.count_of((2,)) == 2

    def test_rejected_by_normal_form_with_pointer(self, catalog):
        with pytest.raises(ExpressionError, match="UnionView"):
            to_normal_form(BaseRef("r").union(BaseRef("s")), catalog)

    def test_str(self):
        assert "union" in str(BaseRef("r").union(BaseRef("s")))


class TestDifference:
    def test_counts_subtract(self, instances):
        out = evaluate(BaseRef("r").difference(BaseRef("s").select("A = 2")), instances)
        assert out.counts() == {(1, 1): 1}

    def test_negative_counts_rejected(self, instances):
        # s has (3,3) which r lacks: counted difference undefined.
        with pytest.raises(MaintenanceError):
            evaluate(BaseRef("r").difference(BaseRef("s")), instances)

    def test_schema_mismatch_rejected(self, catalog):
        with pytest.raises(ExpressionError):
            Difference(BaseRef("r"), BaseRef("t")).schema(catalog)

    def test_rejected_by_normal_form(self, catalog):
        with pytest.raises(ExpressionError, match="outside the SPJ class"):
            to_normal_form(BaseRef("r").difference(BaseRef("s")), catalog)

    def test_counted_distributivity_demo(self, instances):
        """π(r − r₂) = π(r) − π(r₂) — the §5.2 identity, now expressible
        directly in the expression language."""
        r2_rows = [(1, 1)]
        instances["r2"] = Relation.from_rows(
            RelationSchema(["A", "B"]), r2_rows
        )
        left = evaluate(
            BaseRef("r").difference(BaseRef("r2")).project(["B"]), instances
        )
        right = evaluate(
            BaseRef("r").project(["B"]).difference(
                BaseRef("r2").project(["B"])
            ),
            instances,
        )
        assert left == right

    def test_base_names_and_walk(self, catalog):
        expr = BaseRef("r").union(BaseRef("s")).difference(BaseRef("r"))
        assert expr.base_names() == ("r", "s", "r")
        assert len(list(expr.walk())) == 5
