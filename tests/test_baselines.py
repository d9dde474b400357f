"""Unit tests for the baseline maintainers."""

import random

import pytest

from repro.algebra.expressions import BaseRef
from repro.algebra.relation import Delta, Relation
from repro.algebra.schema import RelationSchema
from repro.baselines.full_reevaluation import FullReevaluationMaintainer
from repro.baselines.key_projection import KeyProjectionView
from repro.core.maintainer import ViewMaintainer
from repro.engine.database import Database
from repro.errors import MaintenanceError, SchemaError, UnknownViewError

from tests.conftest import run_random_transactions
from tests.reference import evaluate, project_relation


@pytest.fixture
def db():
    database = Database()
    database.create_relation("r", ["A", "B"], [(1, 10), (2, 10), (3, 20)])
    database.create_relation("s", ["B", "C"], [(10, 1), (20, 2)])
    return database


class TestFullReevaluation:
    def test_recomputes_on_every_touching_commit(self, db):
        m = FullReevaluationMaintainer(db)
        view = m.define_view("v", BaseRef("r").join(BaseRef("s")))
        with db.transact() as txn:
            txn.insert("r", (4, 20))
        assert (4, 20, 2) in view.contents
        assert m.recomputations["v"] == 1

    def test_skips_untouched_views(self, db):
        db.create_relation("other", ["X"], [(1,)])
        m = FullReevaluationMaintainer(db)
        m.define_view("v", BaseRef("r"))
        with db.transact() as txn:
            txn.insert("other", (2,))
        assert m.recomputations["v"] == 0

    def test_duplicate_name_rejected(self, db):
        m = FullReevaluationMaintainer(db)
        m.define_view("v", BaseRef("r"))
        with pytest.raises(MaintenanceError):
            m.define_view("v", BaseRef("r"))

    def test_unknown_view(self, db):
        with pytest.raises(UnknownViewError):
            FullReevaluationMaintainer(db).view("zzz")

    def test_detach(self, db):
        m = FullReevaluationMaintainer(db)
        m.define_view("v", BaseRef("r"))
        m.detach()
        with db.transact() as txn:
            txn.insert("r", (9, 30))
        assert m.recomputations["v"] == 0

    def test_agrees_with_differential_maintainer(self, db):
        """The two maintainers are independent implementations; they
        must agree on arbitrary update streams."""
        expr = BaseRef("r").join(BaseRef("s")).select("C >= 1").project(["A", "C"])
        diff = ViewMaintainer(db)
        full = FullReevaluationMaintainer(db)
        a = diff.define_view("a", expr)
        b = full.define_view("b", expr)
        rng = random.Random(21)
        run_random_transactions(db, rng, 40)
        assert a.contents == b.contents


class TestFullReevaluationDdl:
    """The maintainer keeps compiled plans, which hold the live operand
    relations and the indexes they probe: DDL must not leave one stale."""

    EXPR = BaseRef("r").join(BaseRef("s")).select("C >= 1").project(["A", "C"])

    def test_a_dropped_index_is_not_probed(self, db):
        db.create_index("s", ["B"])
        m = FullReevaluationMaintainer(db)
        view = m.define_view("v", self.EXPR)
        db.apply(inserts={"r": [(4, 20)]})
        assert db.drop_index("s", ["B"])
        db.apply(inserts={"s": [(30, 3)]})  # the dropped index misses it
        db.apply(inserts={"r": [(5, 30)]})
        assert view.contents == evaluate(self.EXPR, db.instances())

    def test_a_recreated_operand_is_read(self, db):
        m = FullReevaluationMaintainer(db)
        view = m.define_view("v", self.EXPR)
        db.drop_relation("s")
        db.create_relation("s", ["B", "C"], [(10, 7), (20, 8), (30, 9)])
        db.apply(inserts={"r": [(4, 30)]})
        assert view.contents == evaluate(self.EXPR, db.instances())
        assert (4, 9) in view.contents


class TestKeyProjection:
    @pytest.fixture
    def schema(self):
        return RelationSchema(["A", "B"])

    def test_materialize_and_query(self, schema):
        base = Relation.from_rows(schema, [(1, 10), (2, 10), (3, 20)])
        view = KeyProjectionView(schema, ["B"], key=["A"])
        view.materialize(base)
        assert len(view) == 3  # stores key-widened tuples
        assert view.query() == project_relation(base, ["B"])

    def test_deletion_is_unambiguous(self, schema):
        # The paper's point: with the key carried, deleting (1, 10)
        # needs no counting — it removes exactly one stored tuple.
        base = Relation.from_rows(schema, [(1, 10), (2, 10)])
        view = KeyProjectionView(schema, ["B"], key=["A"])
        view.materialize(base)
        view.apply_delta(Delta(schema, deleted=[(1, 10)]))
        assert view.query().count_of((10,)) == 1

    def test_insert(self, schema):
        view = KeyProjectionView(schema, ["B"], key=["A"])
        view.materialize(Relation(schema))
        view.apply_delta(Delta(schema, inserted=[(1, 10)]))
        assert view.query().count_of((10,)) == 1

    def test_every_stored_tuple_has_count_one(self, schema):
        # "Alternative (2) becomes a special case of alternative (1) in
        # which every tuple in the view has a counter value of one."
        base = Relation.from_rows(schema, [(1, 10), (2, 10), (3, 20)])
        view = KeyProjectionView(schema, ["B"], key=["A"])
        view.materialize(base)
        assert all(count == 1 for _, count in view.contents.items())

    def test_key_already_in_projection(self, schema):
        view = KeyProjectionView(schema, ["A", "B"], key=["A"])
        assert view.stored_schema.names == ("A", "B")

    def test_unknown_attribute_rejected(self, schema):
        with pytest.raises(SchemaError):
            KeyProjectionView(schema, ["Z"], key=["A"])

    def test_counted_base_rejected(self, schema):
        base = Relation(schema)
        base.add((1, 10), count=2)
        view = KeyProjectionView(schema, ["B"], key=["A"])
        with pytest.raises(MaintenanceError):
            view.materialize(base)

    def test_schema_mismatch_rejected(self, schema):
        view = KeyProjectionView(schema, ["B"], key=["A"])
        with pytest.raises(SchemaError):
            view.materialize(Relation(RelationSchema(["X", "Y"])))

    def test_matches_counting_view_under_random_updates(self, schema):
        rng = random.Random(33)
        base = Relation(schema)
        for _ in range(8):
            row = (rng.randint(0, 20), rng.randint(0, 4))
            if row not in base:
                base.add(row)
        view = KeyProjectionView(schema, ["B"], key=["A"])
        view.materialize(base)
        for _ in range(60):
            row = (rng.randint(0, 20), rng.randint(0, 4))
            if row in base:
                base.discard(row)
                view.apply_delta(Delta(schema, deleted=[row]))
            else:
                base.add(row)
                view.apply_delta(Delta(schema, inserted=[row]))
            assert view.query() == project_relation(base, ["B"])
