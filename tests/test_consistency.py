"""Unit tests for the consistency checker."""

import pytest

from repro.algebra.expressions import BaseRef
from repro.algebra.relation import Relation
from repro.algebra.schema import RelationSchema
from repro.core.consistency import (
    check_view_consistency,
    compare_relations,
)
from repro.core.views import MaterializedView, ViewDefinition
from repro.errors import MaintenanceError
from tests.reference import evaluate_normal_form


@pytest.fixture
def setting():
    catalog = {"r": RelationSchema(["A", "B"])}
    instances = {"r": Relation.from_rows(catalog["r"], [(1, 10), (2, 10)])}
    definition = ViewDefinition("v", BaseRef("r").project(["B"]), catalog)
    view = MaterializedView.from_stored(
        definition, evaluate_normal_form(definition.normal_form, instances)
    )
    return view, instances


class TestCompareRelations:
    def test_identical(self):
        schema = RelationSchema(["A"])
        a = Relation.from_counts(schema, {(1,): 2})
        b = Relation.from_counts(schema, {(1,): 2})
        report = compare_relations("v", a, b)
        assert report.is_consistent()
        assert "consistent" in report.summary()

    def test_missing_and_unexpected(self):
        schema = RelationSchema(["A"])
        maintained = Relation.from_counts(schema, {(1,): 1})
        truth = Relation.from_counts(schema, {(2,): 1})
        report = compare_relations("v", maintained, truth)
        assert report.missing == {(2,): 1}
        assert report.unexpected == {(1,): 1}
        assert not report.is_consistent()

    def test_count_mismatch(self):
        schema = RelationSchema(["A"])
        maintained = Relation.from_counts(schema, {(1,): 1})
        truth = Relation.from_counts(schema, {(1,): 3})
        report = compare_relations("v", maintained, truth)
        assert report.count_mismatches == {(1,): (1, 3)}


class TestCheckViewConsistency:
    def test_fresh_view_is_consistent(self, setting):
        view, instances = setting
        report = check_view_consistency(view, instances)
        assert report.is_consistent()

    def test_corruption_raises(self, setting):
        view, instances = setting
        view.contents.add((42,))
        with pytest.raises(MaintenanceError):
            check_view_consistency(view, instances)

    def test_corruption_reported_without_raise(self, setting):
        view, instances = setting
        view.contents.add((42,))
        report = check_view_consistency(view, instances, raise_on_mismatch=False)
        assert not report.is_consistent()
        assert (42,) in report.unexpected

    def test_count_corruption_detected(self, setting):
        view, instances = setting
        view.contents.add((10,))  # bump the counter from 2 to 3
        report = check_view_consistency(view, instances, raise_on_mismatch=False)
        assert report.count_mismatches == {(10,): (3, 2)}
