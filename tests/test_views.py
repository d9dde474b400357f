"""Unit tests for view definitions and materializations."""

import pytest

from repro.algebra.expressions import BaseRef
from repro.algebra.relation import Delta
from repro.algebra.schema import RelationSchema
from repro.core.views import MaterializedView, ViewDefinition
from repro.errors import ExpressionError, ViewDefinitionError
from tests.reference import evaluate_normal_form


@pytest.fixture
def catalog():
    return {
        "r": RelationSchema(["A", "B"]),
        "s": RelationSchema(["B", "C"]),
    }


class TestViewDefinition:
    def test_builds_normal_form(self, catalog):
        d = ViewDefinition("v", BaseRef("r").join(BaseRef("s")), catalog)
        assert d.relation_names == {"r", "s"}
        assert d.output_schema().names == ("A", "B", "C")

    def test_invalid_name(self, catalog):
        with pytest.raises(ViewDefinitionError):
            ViewDefinition("", BaseRef("r"), catalog)

    def test_invalid_expression(self, catalog):
        with pytest.raises(ExpressionError):
            ViewDefinition("v", BaseRef("zzz"), catalog)

    def test_self_join_relation_names_deduped(self, catalog):
        expr = BaseRef("r").join(BaseRef("r").rename({"A": "A2", "B": "B2"}))
        d = ViewDefinition("v", expr, catalog)
        assert d.relation_names == {"r"}
        assert len(d.normal_form.occurrences) == 2


class TestMaterializedView:
    def _view(self, catalog):
        from repro.algebra.relation import Relation

        instances = {
            "r": Relation.from_rows(catalog["r"], [(1, 10), (2, 20)]),
            "s": Relation.from_rows(catalog["s"], [(10, 5)]),
        }
        definition = ViewDefinition("v", BaseRef("r").join(BaseRef("s")), catalog)
        stored = evaluate_normal_form(definition.normal_form, instances)
        return MaterializedView.from_stored(definition, stored), instances

    def test_materialize(self, catalog):
        view, _ = self._view(catalog)
        assert view.contents.counts() == {(1, 10, 5): 1}
        assert len(view) == 1
        assert view.updates_applied == 0

    def test_materialized_contents_are_private(self, catalog):
        view, instances = self._view(catalog)
        instances["r"].add((9, 9))
        assert (9, 9, 9) not in view.contents

    def test_apply_delta(self, catalog):
        view, _ = self._view(catalog)
        delta = Delta(
            view.definition.output_schema(),
            inserted=[(2, 20, 7)],
            deleted=[(1, 10, 5)],
        )
        view.apply_delta(delta)
        assert view.contents.counts() == {(2, 20, 7): 1}
        assert view.updates_applied == 1

    def test_empty_delta_does_not_count_as_update(self, catalog):
        view, _ = self._view(catalog)
        view.apply_delta(Delta(view.definition.output_schema()))
        assert view.updates_applied == 0

    def test_repr(self, catalog):
        view, _ = self._view(catalog)
        assert "v" in repr(view)
