"""Unit tests for hash indexes and the relation that owns them."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import BaseRef
from repro.algebra.relation import Delta, HashIndex, Relation
from repro.algebra.schema import RelationSchema
from repro.core.maintainer import ViewMaintainer
from repro.engine.database import Database
from repro.errors import MaintenanceError, SchemaError
from tests.reference import evaluate


@pytest.fixture
def relation():
    return Relation.from_rows(
        RelationSchema(["A", "B"]), [(1, 10), (2, 10), (3, 20)]
    )


class TestHashIndex:
    def test_probe_single_attribute(self, relation):
        index = HashIndex(relation, ["B"])
        assert index.probe((10,)) == {(1, 10), (2, 10)}
        assert index.probe((20,)) == {(3, 20)}
        assert index.probe((99,)) == frozenset()

    def test_probe_composite_key(self, relation):
        index = HashIndex(relation, ["A", "B"])
        assert index.probe((1, 10)) == {(1, 10)}
        assert index.probe((1, 20)) == frozenset()

    def test_key_count(self, relation):
        assert len(HashIndex(relation, ["B"])) == 2

    def test_empty_attribute_list_rejected(self, relation):
        with pytest.raises(SchemaError):
            HashIndex(relation, [])

    def test_unknown_attribute_rejected(self, relation):
        with pytest.raises(SchemaError):
            HashIndex(relation, ["Z"])

    def test_apply_delta(self, relation):
        index = relation.index_on(["B"])
        delta = Delta(relation.schema, inserted=[(4, 20)], deleted=[(1, 10)])
        delta.apply_to(relation)
        assert index.probe((20,)) == {(3, 20), (4, 20)}
        assert index.probe((10,)) == {(2, 10)}

    def test_delta_removing_last_key_entry(self, relation):
        index = relation.index_on(["B"])
        Delta(relation.schema, deleted=[(3, 20)]).apply_to(relation)
        assert index.probe((20,)) == frozenset()
        assert len(index) == 1

    def test_remove_unknown_row_is_noop(self, relation):
        index = relation.index_on(["B"])
        with pytest.raises(MaintenanceError, match="only 0 present"):
            relation.discard((9, 99))
        assert len(index) == 2
        assert index._stale_key(relation) is None

    def test_probe_many(self, relation):
        index = HashIndex(relation, ["B"])
        rows = set(index.probe_many([(10,), (20,)]))
        assert rows == {(1, 10), (2, 10), (3, 20)}


class TestIndexManager:
    """A relation manages its own indexes (there is no registry beside
    the data): get-or-build, a read-only listing, a private drop, and
    every mutator keeping each index in step."""

    def test_create_is_idempotent(self, relation):
        a = relation.index_on(["B"])
        b = relation.index_on(("B",))
        assert a is b
        assert len(relation.indexes) == 1

    def test_lookup(self, relation):
        relation.index_on(["B"])
        assert relation.indexes.get(("B",)) is not None
        assert relation.indexes.get(("A",)) is None
        with pytest.raises(TypeError):
            relation.indexes[("A",)] = relation.indexes[("B",)]

    def test_indexes_on(self, relation):
        relation.index_on(["A"])
        relation.index_on(["B"])
        assert set(relation.indexes) == {("A",), ("B",)}
        assert dict(relation.copy().indexes) == {}

    def test_drop(self, relation):
        relation.index_on(["B"])
        assert relation._drop_index(["B"])
        assert not relation._drop_index(["B"])
        assert dict(relation.indexes) == {}

    def test_apply_deltas_routes_by_relation(self, relation):
        index = relation.index_on(["B"])
        other = Relation(RelationSchema(["X"]))
        other_index = other.index_on(["X"])
        Delta(relation.schema, inserted=[(9, 30)]).apply_to(relation)
        Delta(other.schema, inserted=[(1,)]).apply_to(other)
        assert index.probe((30,)) == {(9, 30)}
        assert other_index.probe((1,)) == {(1,)}
        assert index.probe((1,)) == frozenset()

    def test_every_mutator_keeps_the_index_in_step(self, relation):
        index = relation.index_on(["B"])
        relation.add((4, 20))
        relation.add((4, 20))  # a second copy: still one indexed tuple
        assert index.probe((20,)) == {(3, 20), (4, 20)}
        relation.discard((4, 20))  # the counter only drops to one
        assert index.probe((20,)) == {(3, 20), (4, 20)}
        relation.discard((4, 20))
        assert index.probe((20,)) == {(3, 20)}
        relation.assign(
            Relation.from_rows(relation.schema, [(7, 70), (8, 70)])
        )
        assert relation.index_on(["B"]) is index
        assert index.probe((70,)) == {(7, 70), (8, 70)}
        assert index.probe((10,)) == frozenset()
        assert relation.clear() == 2
        assert len(index) == 0
        assert index._stale_key(relation) is None

    def test_failed_delta_leaves_relation_and_indexes_alone(self, relation):
        index = relation.index_on(["B"])
        before = relation.counts()
        bad = Delta(relation.schema, inserted=[(4, 20)], deleted=[(9, 99)])
        with pytest.raises(MaintenanceError):
            bad.apply_to(relation)
        assert relation.counts() == before
        assert index._stale_key(relation) is None
        assert index.probe((20,)) == {(3, 20)}


class TestIndexThroughDatabase:
    def test_index_stays_consistent_under_random_commits(self):
        import random

        db = Database()
        db.create_relation("r", ["A", "B"], [(i, i % 3) for i in range(10)])
        index = db.create_index("r", ["B"])
        rng = random.Random(17)
        for _ in range(40):
            with db.transact() as txn:
                for _ in range(rng.randint(1, 4)):
                    row = (rng.randint(0, 20), rng.randint(0, 3))
                    if rng.random() < 0.5:
                        txn.insert("r", row)
                    else:
                        txn.delete("r", row)
            # Index contents must equal a scan-built answer.
            for key in range(4):
                expected = {
                    values
                    for values in db.relation("r").value_tuples()
                    if values[1] == key
                }
                assert index.probe((key,)) == expected

    def test_failing_base_apply_leaves_relation_and_indexes_untouched(self):
        db = Database()
        relation = db.create_relation("r", ["A", "B"], [(1, 10), (2, 10)])
        index = db.create_index("r", ["B"])
        seen = []
        db.add_commit_hook(lambda txn_id, deltas: seen.append(txn_id))
        # The first delete is covered (and would empty a bucket with the
        # second); the third names a row the relation does not hold.
        bad = Delta(
            relation.schema, inserted=[(3, 30)], deleted=[(1, 10), (2, 10), (9, 99)]
        )
        with pytest.raises(MaintenanceError, match="only 0 present"):
            db._apply_commit(db.begin(), {"r": bad})
        assert relation.counts() == {(1, 10): 1, (2, 10): 1}
        assert index.probe((10,)) == {(1, 10), (2, 10)}
        assert index._stale_key(relation) is None
        assert db.last_sequence() == 0 and seen == []


# ----------------------------------------------------------------------
# One index home: whatever changes a stored relation — base relation or
# view contents, through the commit pipeline or around it — every index
# it carries equals a rebuild from its count map afterwards.
# ----------------------------------------------------------------------
#: ``p`` is a bag (r's key is projected away), ``st`` is stacked on it,
#: ``kt`` probes the keyed relation's key index.
STREAM_VIEWS = {
    "p": BaseRef("r").project(["B"]),
    "st": BaseRef("t").product(BaseRef("p")).select("E = B"),
    "kt": BaseRef("k").product(BaseRef("t")).select("K = E"),
}
STREAM_TABLES = {"r": ["A", "B"], "t": ["E", "F"], "k": ["K", "V"]}

_relation_st = st.sampled_from(sorted(STREAM_TABLES))
_row_st = st.tuples(st.integers(0, 7), st.integers(0, 3))
_attrs_st = st.sampled_from([(0,), (1,), (0, 1)])
_step_st = st.one_of(
    st.tuples(
        st.just("commit"),
        st.lists(st.tuples(_relation_st, _row_st, st.booleans()), min_size=1, max_size=4),
    ),
    st.tuples(st.just("add"), _relation_st, _row_st),
    st.tuples(st.just("discard"), _relation_st, _row_st),
    st.tuples(st.just("clear"), _relation_st),
    st.tuples(st.just("replace_contents"), st.sampled_from(sorted(STREAM_VIEWS))),
    st.tuples(st.just("create_index"), _relation_st, _attrs_st),
    st.tuples(st.just("drop_index"), _relation_st, _attrs_st),
    st.tuples(st.just("drop_view")),
)


class TestEveryIndexEqualsARebuild:
    def _legal_insert(self, db, name, row, staged):
        """Sets stay sets, and ``k`` keeps its key."""
        held = set(db.relation(name).value_tuples()) | staged[name]
        if name == "k" and any(values[0] == row[0] for values in held):
            return False
        return row not in held

    def _resync(self, maintainer):
        """A change made around the commit pipeline reached no view."""
        for name, expression in STREAM_VIEWS.items():
            maintainer.view(name).replace_contents(
                evaluate(expression, maintainer.instances())
            )

    def _run(self, db, maintainer, step):
        kind = step[0]
        if kind == "commit":
            staged = {name: set() for name in STREAM_TABLES}
            with db.transact() as txn:
                for name, row, delete in step[1]:
                    live = sorted(db.relation(name).value_tuples())
                    if delete:
                        if live:
                            txn.delete(name, live[row[0] % len(live)])
                    elif self._legal_insert(db, name, row, staged):
                        txn.insert(name, row)
                        staged[name].add(row)
        elif kind == "add":
            if self._legal_insert(db, step[1], step[2], {step[1]: set()}):
                db.relation(step[1]).add(step[2])
                self._resync(maintainer)
        elif kind == "discard":
            if step[2] in db.relation(step[1]):
                db.relation(step[1]).discard(step[2])
                self._resync(maintainer)
        elif kind == "clear":
            db.relation(step[1]).clear()
            self._resync(maintainer)
        elif kind == "replace_contents":
            self._resync(maintainer)
        elif kind in ("create_index", "drop_index"):
            attributes = [STREAM_TABLES[step[1]][i] for i in step[2]]
            getattr(db, kind)(step[1], attributes)
        else:
            maintainer.drop_view("st")
            assert not maintainer.view("p").contents.indexes
            maintainer.define_view("st", STREAM_VIEWS["st"])

    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(_step_st, min_size=1, max_size=12))
    @example(
        steps=[
            # The bag rule: p's counter for (0,) falls 2 -> 1 -> 0.
            ("commit", [("r", (0, 0), True)]),
            ("commit", [("r", (0, 0), True)]),
            ("drop_view",),
            ("commit", [("t", (1, 3), False), ("r", (7, 1), False)]),
        ]
    )
    def test_over_mixed_streams(self, steps):
        db = Database()
        db.create_relation("r", ["A", "B"], [(a, a % 3) for a in range(6)])
        db.create_relation("t", ["E", "F"], [(0, 0), (1, 1), (2, 3)])
        db.create_relation("k", ["K", "V"], [(0, 1), (1, 1), (2, 0)])
        db.declare_key("k", ["K"])
        maintainer = ViewMaintainer(db)
        for name, expression in STREAM_VIEWS.items():
            maintainer.define_view(name, expression)
        # Every operand indexed from the first step on, p's bag included.
        assert maintainer.create_recommended_indexes("st") == 2  # t(E), p(B)
        for step in steps:
            self._run(db, maintainer, step)
            for name, relation in maintainer.instances().items():
                for attrs, index in relation.indexes.items():
                    assert index._stale_key(relation) is None, (step, name, attrs)
            maintainer.verify_all()
