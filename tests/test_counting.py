"""Unit and property tests for Section 5.2 multiplicity counting."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.relation import Delta, Relation
from repro.algebra.schema import RelationSchema
from repro.core.counting import (
    maintain_project_view,
    project_delta,
)
from repro.errors import MaintenanceError
from tests.reference import counted_projection_distributes, project_relation


@pytest.fixture
def schema():
    return RelationSchema(["A", "B"])


class TestExample51:
    """The paper's Example 5.1: r = {(1,10), (2,10), (3,20)}, V = π_B(r)."""

    def _view(self, schema):
        r = Relation.from_rows(schema, [(1, 10), (2, 10), (3, 20)])
        return project_relation(r, ["B"])

    def test_initial_counts(self, schema):
        view = self._view(schema)
        assert view.count_of((10,)) == 2
        assert view.count_of((20,)) == 1

    def test_easy_deletion(self, schema):
        # delete(R, {(3,20)}): view loses 20.
        view = self._view(schema)
        maintain_project_view(view, Delta(schema, deleted=[(3, 20)]), ["B"])
        assert (20,) not in view
        assert view.count_of((10,)) == 2

    def test_hard_deletion_kept_by_counter(self, schema):
        # delete(R, {(1,10)}): naive set semantics would wrongly drop
        # 10 from the view; the counter keeps it (count 2 -> 1).
        view = self._view(schema)
        maintain_project_view(view, Delta(schema, deleted=[(1, 10)]), ["B"])
        assert view.count_of((10,)) == 1

    def test_second_deletion_removes(self, schema):
        view = self._view(schema)
        maintain_project_view(view, Delta(schema, deleted=[(1, 10)]), ["B"])
        maintain_project_view(view, Delta(schema, deleted=[(2, 10)]), ["B"])
        assert (10,) not in view

    def test_insert_increments(self, schema):
        view = self._view(schema)
        maintain_project_view(view, Delta(schema, inserted=[(9, 10)]), ["B"])
        assert view.count_of((10,)) == 3

    def test_schema_mismatch_rejected(self, schema):
        view = self._view(schema)
        with pytest.raises(MaintenanceError):
            maintain_project_view(view, Delta(schema), ["A"])


class TestProjectDelta:
    def test_counts_aggregate(self, schema):
        delta = Delta(schema, inserted=[(1, 10), (2, 10)], deleted=[(3, 20)])
        ins, dels = project_delta(delta, ["B"])
        assert ins == {(10,): 2}
        assert dels == {(20,): 1}


class TestDistributivity:
    """π_X(r1 − r2) = π_X(r1) − π_X(r2) under counted semantics — the
    identity the §5.2 redefinition restores."""

    def test_paper_counterexample_now_holds(self, schema):
        r1 = Relation.from_rows(schema, [(1, 10), (2, 10), (3, 20)])
        r2 = Relation.from_rows(schema, [(1, 10)])
        assert counted_projection_distributes(r1, r2, ["B"])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_counted_relations(self, data):
        schema = RelationSchema(["A", "B"])
        rows = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=4),
                    st.integers(min_value=0, max_value=4),
                ),
                min_size=0,
                max_size=12,
            )
        )
        r1 = Relation(schema)
        for row in rows:
            r1.add(row)
        # r2: a random counted sub-multiset of r1.
        r2 = Relation(schema)
        for values, count in r1.items():
            take = data.draw(st.integers(min_value=0, max_value=count))
            if take:
                r2.add(values, count=take)
        assert counted_projection_distributes(r1, r2, ["B"])

    def test_view_counts_match_recomputation_under_updates(self, schema):
        """Differentially maintained project-view counts stay equal to
        the from-scratch projection across a random update stream."""
        rng = random.Random(77)
        base = Relation(schema)
        for _ in range(10):
            row = (rng.randint(0, 5), rng.randint(0, 3))
            if row not in base:
                base.add(row)
        view = project_relation(base, ["B"])
        for _ in range(60):
            current = set(base.value_tuples())
            row = (rng.randint(0, 5), rng.randint(0, 3))
            if row in current:
                delta = Delta(schema, deleted=[row])
                base.discard(row)
            else:
                delta = Delta(schema, inserted=[row])
                base.add(row)
            maintain_project_view(view, delta, ["B"])
            assert view == project_relation(base, ["B"])
