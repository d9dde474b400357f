"""Property tests for the delta algebra (net effects and composition)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.relation import Delta, Relation
from repro.algebra.schema import RelationSchema

SCHEMA = RelationSchema(["A"])

rows = st.tuples(st.integers(min_value=0, max_value=6))
row_sets = st.lists(rows, max_size=8, unique=True).map(set)


@st.composite
def states_and_deltas(draw, chain_length: int = 3):
    """A base state plus a chain of deltas, each valid for the state it
    applies to (inserts absent tuples, deletes present ones)."""
    state = draw(row_sets)
    initial = set(state)
    deltas = []
    for _ in range(chain_length):
        candidates = sorted(state)
        deletions = set()
        if candidates:
            deletions = set(
                draw(
                    st.lists(
                        st.sampled_from(candidates), max_size=3, unique=True
                    )
                )
            )
        insert_pool = draw(row_sets)
        insertions = {r for r in insert_pool if r not in state}
        delta = Delta(SCHEMA, inserted=sorted(insertions), deleted=sorted(deletions))
        deltas.append(delta)
        state = (state - deletions) | insertions
    return initial, deltas, state


class TestComposition:
    @settings(max_examples=200, deadline=None)
    @given(states_and_deltas())
    def test_compose_equals_sequential(self, scenario):
        initial, deltas, final = scenario
        combined = deltas[0]
        for later in deltas[1:]:
            combined = combined.compose(later)
        relation = Relation.from_rows(SCHEMA, sorted(initial))
        combined.apply_to(relation)
        assert set(relation.value_tuples()) == final

    @settings(max_examples=200, deadline=None)
    @given(states_and_deltas(chain_length=3))
    def test_compose_is_associative(self, scenario):
        _, (d1, d2, d3), _ = scenario
        left = d1.compose(d2).compose(d3)
        right = d1.compose(d2.compose(d3))
        assert left == right

    @settings(max_examples=100, deadline=None)
    @given(states_and_deltas(chain_length=1))
    def test_empty_delta_is_identity(self, scenario):
        _, (delta,), _ = scenario
        empty = Delta(SCHEMA)
        assert delta.compose(empty) == delta
        assert empty.compose(delta) == delta

    @settings(max_examples=200, deadline=None)
    @given(states_and_deltas())
    def test_composed_sides_stay_disjoint(self, scenario):
        _, deltas, _ = scenario
        combined = deltas[0]
        for later in deltas[1:]:
            combined = combined.compose(later)
        assert not (combined.inserted.keys() & combined.deleted.keys())

    @settings(max_examples=100, deadline=None)
    @given(states_and_deltas(chain_length=2))
    def test_inverse_cancels(self, scenario):
        """A delta followed by its inverse nets to nothing."""
        _, (delta, _), _ = scenario
        inverse = Delta.from_counts(SCHEMA, delta.deleted, delta.inserted)
        assert delta.compose(inverse).is_empty()

