"""Property tests: algebraic laws of the counted-relation operations.

The §5 correctness arguments lean on union/difference behaving like a
commutative monoid with cancellation under counted semantics; these
tests pin those laws, plus the TaggedRelation → Delta collapse
invariants, over random inputs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.relation import Delta, Relation
from repro.algebra.schema import RelationSchema
from repro.algebra.tags import Tag
from tests.reference import TaggedRelation

SCHEMA = RelationSchema(["A", "B"])

counted = st.dictionaries(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
    ),
    st.integers(min_value=1, max_value=3),
    max_size=8,
)


def _rel(counts):
    return Relation.from_counts(SCHEMA, counts) if counts else Relation(SCHEMA)


class TestUnionLaws:
    @settings(max_examples=200, deadline=None)
    @given(counted, counted)
    def test_commutative(self, a, b):
        assert _rel(a).union(_rel(b)) == _rel(b).union(_rel(a))

    @settings(max_examples=200, deadline=None)
    @given(counted, counted, counted)
    def test_associative(self, a, b, c):
        left = _rel(a).union(_rel(b)).union(_rel(c))
        right = _rel(a).union(_rel(b).union(_rel(c)))
        assert left == right

    @settings(max_examples=100, deadline=None)
    @given(counted)
    def test_empty_identity(self, a):
        assert _rel(a).union(Relation(SCHEMA)) == _rel(a)
        assert Relation(SCHEMA).union(_rel(a)) == _rel(a)

    @settings(max_examples=200, deadline=None)
    @given(counted, counted)
    def test_total_counts_add(self, a, b):
        combined = _rel(a).union(_rel(b))
        assert combined.total_count() == _rel(a).total_count() + _rel(b).total_count()


class TestDifferenceLaws:
    @settings(max_examples=200, deadline=None)
    @given(counted, counted)
    def test_union_then_difference_cancels(self, a, b):
        assert _rel(a).union(_rel(b)).difference(_rel(b)) == _rel(a)

    @settings(max_examples=100, deadline=None)
    @given(counted)
    def test_self_difference_is_empty(self, a):
        out = _rel(a).difference(_rel(a))
        assert len(out) == 0

    @settings(max_examples=100, deadline=None)
    @given(counted)
    def test_empty_difference_identity(self, a):
        assert _rel(a).difference(Relation(SCHEMA)) == _rel(a)


class TestTaggedCollapse:
    tagged_entries = st.lists(
        st.tuples(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=3),
            ),
            st.sampled_from([Tag.OLD, Tag.INSERT, Tag.DELETE]),
            st.integers(min_value=1, max_value=3),
        ),
        max_size=12,
    )

    @settings(max_examples=200, deadline=None)
    @given(tagged_entries)
    def test_to_delta_ignores_old_and_nets_counts(self, entries):
        tagged = TaggedRelation(SCHEMA)
        net: dict[tuple, int] = {}
        for values, tag, count in entries:
            tagged.add(values, tag, count)
            if tag is Tag.INSERT:
                net[values] = net.get(values, 0) + count
            elif tag is Tag.DELETE:
                net[values] = net.get(values, 0) - count
        delta = tagged.to_delta()
        for values, signed in net.items():
            if signed > 0:
                assert delta.inserted.get(values) == signed
            elif signed < 0:
                assert delta.deleted.get(values) == -signed
            else:
                assert values not in delta.inserted
                assert values not in delta.deleted

    @settings(max_examples=200, deadline=None)
    @given(tagged_entries)
    def test_to_delta_sides_disjoint(self, entries):
        tagged = TaggedRelation(SCHEMA)
        for values, tag, count in entries:
            tagged.add(values, tag, count)
        delta = tagged.to_delta()
        assert not (delta.inserted.keys() & delta.deleted.keys())

    @settings(max_examples=100, deadline=None)
    @given(tagged_entries)
    def test_merge_then_collapse_equals_collapse_of_concat(self, entries):
        half = len(entries) // 2
        first, second = TaggedRelation(SCHEMA), TaggedRelation(SCHEMA)
        for values, tag, count in entries[:half]:
            first.add(values, tag, count)
        for values, tag, count in entries[half:]:
            second.add(values, tag, count)
        merged = TaggedRelation(SCHEMA)
        merged.merge(first)
        merged.merge(second)
        everything = TaggedRelation(SCHEMA)
        for values, tag, count in entries:
            everything.add(values, tag, count)
        assert merged.to_delta() == everything.to_delta()


class TestDeltaApplication:
    @settings(max_examples=200, deadline=None)
    @given(counted, st.data())
    def test_apply_then_invert_restores(self, a, data):
        base = _rel(a)
        # Draw a valid delta for the state: delete a sub-multiset,
        # insert something disjoint from the remainder.
        deleted = {}
        for values, count in base.items():
            take = data.draw(st.integers(min_value=0, max_value=count))
            if take:
                deleted[values] = take
        inserted = {
            (9, 9): data.draw(st.integers(min_value=1, max_value=2))
        }
        delta = Delta.from_counts(SCHEMA, inserted, deleted)
        modified = base.copy()
        delta.apply_to(modified)
        inverse = Delta.from_counts(SCHEMA, deleted, inserted)
        inverse.apply_to(modified)
        assert modified == base
