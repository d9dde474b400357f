"""Unit tests for counted relations, deltas and tagged relations."""

import pytest

from repro.algebra.relation import Delta, Relation, TaggedRelation
from repro.algebra.schema import RelationSchema
from repro.algebra.tags import Tag
from repro.errors import MaintenanceError, SchemaError


@pytest.fixture
def schema():
    return RelationSchema(["A", "B"])


class TestRelation:
    def test_add_and_count(self, schema):
        r = Relation(schema)
        r.add((1, 2))
        r.add((1, 2))
        assert len(r) == 1
        assert r.count_of((1, 2)) == 2
        assert r.total_count() == 2

    def test_from_rows_mixed_shapes(self, schema):
        r = Relation.from_rows(schema, [(1, 2), {"A": 3, "B": 4}])
        assert (1, 2) in r and (3, 4) in r

    def test_discard_decrements_then_removes(self, schema):
        r = Relation.from_rows(schema, [(1, 2), (1, 2), (3, 4)])
        r.discard((1, 2))
        assert r.count_of((1, 2)) == 1
        r.discard((1, 2))
        assert (1, 2) not in r
        assert len(r) == 1

    def test_discard_below_zero_raises(self, schema):
        r = Relation.from_rows(schema, [(1, 2)])
        with pytest.raises(MaintenanceError):
            r.discard((1, 2), count=2)
        with pytest.raises(MaintenanceError):
            r.discard((9, 9))

    def test_nonpositive_counts_rejected(self, schema):
        r = Relation(schema)
        with pytest.raises(MaintenanceError):
            r.add((1, 2), count=0)
        with pytest.raises(MaintenanceError):
            r.add((1, 2), count=-1)
        r.add((1, 2))
        with pytest.raises(MaintenanceError):
            r.discard((1, 2), count=0)

    def test_from_counts_rejects_nonpositive(self, schema):
        with pytest.raises(MaintenanceError):
            Relation.from_counts(schema, {(1, 2): 0})

    def test_copy_is_independent(self, schema):
        r = Relation.from_rows(schema, [(1, 2)])
        c = r.copy()
        c.add((3, 4))
        assert (3, 4) not in r

    def test_union_adds_counts(self, schema):
        a = Relation.from_counts(schema, {(1, 2): 2})
        b = Relation.from_counts(schema, {(1, 2): 1, (3, 4): 1})
        u = a.union(b)
        assert u.count_of((1, 2)) == 3
        assert u.count_of((3, 4)) == 1

    def test_difference_subtracts_counts(self, schema):
        a = Relation.from_counts(schema, {(1, 2): 3, (3, 4): 1})
        b = Relation.from_counts(schema, {(1, 2): 1, (3, 4): 1})
        d = a.difference(b)
        assert d.count_of((1, 2)) == 2
        assert (3, 4) not in d

    def test_difference_negative_raises(self, schema):
        a = Relation.from_counts(schema, {(1, 2): 1})
        b = Relation.from_counts(schema, {(1, 2): 2})
        with pytest.raises(MaintenanceError):
            a.difference(b)

    def test_schema_mismatch_raises(self, schema):
        other = Relation(RelationSchema(["X", "Y"]))
        with pytest.raises(SchemaError):
            Relation(schema).union(other)

    def test_equality_includes_counts(self, schema):
        a = Relation.from_counts(schema, {(1, 2): 1})
        b = Relation.from_counts(schema, {(1, 2): 2})
        assert a != b
        assert a == Relation.from_counts(schema, {(1, 2): 1})

    def test_unhashable(self, schema):
        with pytest.raises(TypeError):
            hash(Relation(schema))

    def test_rows_iteration(self, schema):
        r = Relation.from_rows(schema, [(1, 2)])
        (row,) = list(r.rows())
        assert row["A"] == 1 and row["B"] == 2

    def test_pretty_renders_counts(self, schema):
        r = Relation.from_counts(schema, {(1, 2): 2})
        text = r.pretty()
        assert "x2" in text and "A" in text

    def test_pretty_truncates(self, schema):
        r = Relation.from_rows(schema, [(i, i) for i in range(30)])
        assert "more" in r.pretty(limit=5)


class TestDelta:
    def test_counts_and_disjointness(self, schema):
        d = Delta(schema, inserted=[(1, 2)], deleted=[(3, 4)])
        assert d.insert_count() == 1
        assert d.delete_count() == 1
        assert not d.is_empty()

    def test_overlap_rejected(self, schema):
        with pytest.raises(MaintenanceError):
            Delta(schema, inserted=[(1, 2)], deleted=[(1, 2)])

    def test_from_counts_overlap_rejected(self, schema):
        with pytest.raises(MaintenanceError):
            Delta.from_counts(schema, {(1, 2): 1}, {(1, 2): 1})

    def test_apply_to(self, schema):
        r = Relation.from_rows(schema, [(3, 4)])
        Delta(schema, inserted=[(1, 2)], deleted=[(3, 4)]).apply_to(r)
        assert (1, 2) in r and (3, 4) not in r

    def test_apply_to_is_all_or_nothing(self, schema):
        r = Relation.from_counts(schema, {(3, 4): 2, (5, 6): 1})
        before = r.counts()
        uncovered = Delta.from_counts(schema, {(1, 2): 1}, {(3, 4): 2, (5, 6): 2})
        with pytest.raises(MaintenanceError, match="only 1 present"):
            uncovered.apply_to(r)
        assert r.counts() == before
        for inserted, deleted in (({(1, 2): 0}, {(3, 4): 1}), ({}, {(3, 4): 1, (5, 6): 0})):
            with pytest.raises(MaintenanceError, match="count must be positive"):
                Delta.from_counts(schema, inserted, deleted).apply_to(r)
            assert r.counts() == before

    def test_apply_to_checks_schema_names(self, schema):
        r = Relation.from_rows(schema, [(3, 4)])
        with pytest.raises(SchemaError):
            Delta(RelationSchema(["A", "C"]), inserted=[(1, 2)]).apply_to(r)
        assert r.counts() == {(3, 4): 1}

    def test_tagged_items(self, schema):
        d = Delta(schema, inserted=[(1, 2)], deleted=[(3, 4)])
        tags = {tag for _, tag, _ in d.tagged_items()}
        assert tags == {Tag.INSERT, Tag.DELETE}

    def test_compose_cancels_insert_then_delete(self, schema):
        first = Delta(schema, inserted=[(1, 2)])
        second = Delta(schema, deleted=[(1, 2)])
        assert first.compose(second).is_empty()

    def test_compose_cancels_delete_then_insert(self, schema):
        first = Delta(schema, deleted=[(1, 2)])
        second = Delta(schema, inserted=[(1, 2)])
        assert first.compose(second).is_empty()

    def test_compose_accumulates_distinct(self, schema):
        first = Delta(schema, inserted=[(1, 2)])
        second = Delta(schema, inserted=[(3, 4)], deleted=[(5, 6)])
        combined = first.compose(second)
        assert combined.inserted.keys() == {(1, 2), (3, 4)}
        assert combined.deleted.keys() == {(5, 6)}

    def test_compose_schema_mismatch(self, schema):
        other = Delta(RelationSchema(["X", "Y"]))
        with pytest.raises(SchemaError):
            Delta(schema).compose(other)

    def test_compose_equals_sequential_application(self, schema):
        base = Relation.from_rows(schema, [(0, 0), (1, 1), (2, 2)])
        d1 = Delta(schema, inserted=[(3, 3)], deleted=[(0, 0)])
        d2 = Delta(schema, inserted=[(0, 0)], deleted=[(3, 3), (1, 1)])
        sequential = base.copy()
        d1.apply_to(sequential)
        d2.apply_to(sequential)
        composed = base.copy()
        d1.compose(d2).apply_to(composed)
        assert sequential == composed


class TestTaggedRelation:
    def test_from_relation_tags_old(self, schema):
        r = Relation.from_counts(schema, {(1, 2): 2})
        t = TaggedRelation.from_relation(r)
        assert t.count_of((1, 2), Tag.OLD) == 2

    def test_from_delta(self, schema):
        d = Delta(schema, inserted=[(1, 2)], deleted=[(3, 4)])
        t = TaggedRelation.from_delta(d)
        assert t.count_of((1, 2), Tag.INSERT) == 1
        assert t.count_of((3, 4), Tag.DELETE) == 1

    def test_add_ignores_ignore(self, schema):
        t = TaggedRelation(schema)
        t.add((1, 2), Tag.IGNORE)
        assert t.is_empty()

    def test_add_accumulates_per_tag(self, schema):
        t = TaggedRelation(schema)
        t.add((1, 2), Tag.INSERT)
        t.add((1, 2), Tag.INSERT, 2)
        t.add((1, 2), Tag.DELETE)
        assert t.count_of((1, 2), Tag.INSERT) == 3
        assert t.count_of((1, 2), Tag.DELETE) == 1

    def test_nonpositive_count_rejected(self, schema):
        with pytest.raises(MaintenanceError):
            TaggedRelation(schema).add((1, 2), Tag.INSERT, 0)

    def test_to_delta_drops_old_and_cancels(self, schema):
        t = TaggedRelation(schema)
        t.add((1, 2), Tag.OLD, 5)
        t.add((3, 4), Tag.INSERT, 2)
        t.add((3, 4), Tag.DELETE, 1)
        t.add((5, 6), Tag.DELETE, 1)
        d = t.to_delta()
        assert d.inserted == {(3, 4): 1}
        assert d.deleted == {(5, 6): 1}

    def test_to_delta_full_cancellation(self, schema):
        t = TaggedRelation(schema)
        t.add((1, 2), Tag.INSERT, 2)
        t.add((1, 2), Tag.DELETE, 2)
        assert t.to_delta().is_empty()

    def test_merge(self, schema):
        a = TaggedRelation(schema)
        a.add((1, 2), Tag.INSERT)
        b = TaggedRelation(schema)
        b.add((1, 2), Tag.INSERT)
        b.add((3, 4), Tag.OLD)
        a.merge(b)
        assert a.count_of((1, 2), Tag.INSERT) == 2
        assert a.count_of((3, 4), Tag.OLD) == 1

    def test_merge_schema_mismatch(self, schema):
        with pytest.raises(SchemaError):
            TaggedRelation(schema).merge(TaggedRelation(RelationSchema(["X"])))
