"""Unit and property tests for differentially maintained union views."""

import random

import pytest

from repro.algebra.expressions import BaseRef
from repro.engine.database import Database
from repro.errors import MaintenanceError, SchemaError
from repro.extensions.union_views import UnionView

from tests.conftest import run_random_transactions


@pytest.fixture
def db():
    database = Database()
    database.create_relation(
        "orders", ["order_id", "cust", "amount"], [(1, 7, 100), (2, 8, 9000)]
    )
    database.create_relation("priority", ["cust"], [(7,)])
    return database


def _branches():
    big = BaseRef("orders").select("amount > 5000").project(["order_id"])
    from_priority = (
        BaseRef("orders").join(BaseRef("priority")).project(["order_id"])
    )
    return [big, from_priority]


class TestConstruction:
    def test_materializes_union_of_branches(self, db):
        view = UnionView(db, "hot", _branches())
        # order 1 via priority, order 2 via amount.
        assert view.contents.counts() == {(1,): 1, (2,): 1}

    def test_counts_add_across_branches(self, db):
        with db.transact() as txn:
            txn.insert("orders", (3, 7, 9999))  # big AND priority
        view = UnionView(db, "hot", _branches())
        assert view.contents.count_of((3,)) == 2

    def test_empty_branch_list_rejected(self, db):
        with pytest.raises(MaintenanceError):
            UnionView(db, "v", [])

    def test_mismatched_schemas_rejected(self, db):
        with pytest.raises(SchemaError):
            UnionView(
                db,
                "v",
                [
                    BaseRef("orders").project(["order_id"]),
                    BaseRef("orders").project(["cust"]),
                ],
            )

    def test_relation_names_cover_all_branches(self, db):
        view = UnionView(db, "hot", _branches())
        assert view.relation_names == {"orders", "priority"}


class TestMaintenance:
    def test_insert_through_one_branch(self, db):
        view = UnionView(db, "hot", _branches())
        with db.transact() as txn:
            txn.insert("orders", (3, 9, 8000))
        assert view.contents.count_of((3,)) == 1
        view.verify()

    def test_insert_through_both_branches(self, db):
        view = UnionView(db, "hot", _branches())
        with db.transact() as txn:
            txn.insert("orders", (3, 7, 8000))
        assert view.contents.count_of((3,)) == 2
        view.verify()

    def test_losing_one_branch_keeps_tuple(self, db):
        view = UnionView(db, "hot", _branches())
        with db.transact() as txn:
            txn.insert("orders", (3, 7, 8000))
        with db.transact() as txn:
            txn.delete("priority", (7,))  # drops the priority support
        assert view.contents.count_of((3,)) == 1
        view.verify()

    def test_irrelevant_updates_screened_per_branch(self, db):
        view = UnionView(db, "hot", _branches())
        with db.transact() as txn:
            # cheap order from a non-priority customer: irrelevant to
            # the amount branch; the join branch cannot be screened
            # state-independently, so maintenance may still run — but
            # the view must not change.
            txn.insert("orders", (4, 9, 5))
        assert view.contents.count_of((4,)) == 0
        view.verify()

    def test_untouched_commit_ignored(self, db):
        db.create_relation("other", ["X"], [(1,)])
        view = UnionView(db, "hot", _branches())
        before = view.updates_applied
        with db.transact() as txn:
            txn.insert("other", (2,))
        assert view.updates_applied == before

    def test_detach(self, db):
        view = UnionView(db, "hot", _branches())
        view.detach()
        with db.transact() as txn:
            txn.insert("orders", (3, 9, 8000))
        assert view.contents.count_of((3,)) == 0

    def test_verify_detects_corruption(self, db):
        view = UnionView(db, "hot", _branches())
        view.contents.add((999,))
        with pytest.raises(MaintenanceError):
            view.verify()


class TestDdl:
    """Each branch is a view with a compiled plan, which holds the live
    operand relations and the indexes it probes: DDL must not leave one
    stale."""

    def test_a_dropped_index_is_not_probed(self, db):
        view = UnionView(db, "hot", _branches())
        db.apply(inserts={"orders": [(3, 9, 10)]})  # binds priority(cust)
        assert db.drop_index("priority", ["cust"])
        db.apply(inserts={"priority": [(9,)]})  # the dropped index misses it
        db.apply(inserts={"orders": [(4, 9, 20)]})
        assert view.contents.count_of((4,)) == 1
        view.verify()

    def test_dropping_an_operand_is_refused(self, db):
        view = UnionView(db, "hot", _branches())
        with pytest.raises(MaintenanceError, match="cannot drop relation"):
            db.drop_relation("priority")
        db.apply(inserts={"orders": [(3, 7, 10)]})
        assert view.contents.count_of((3,)) == 1
        view.verify()


class TestRandomizedSoak:
    def test_union_view_matches_recomputation(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [(i, i % 4) for i in range(10)])
        db.create_relation("s", ["B", "C"], [(i % 4, i) for i in range(10)])
        branches = [
            BaseRef("r").select("A <= 4").project(["B"]),
            BaseRef("r").join(BaseRef("s")).select("C >= 3").project(["B"]),
        ]
        view = UnionView(db, "u", branches)
        rng = random.Random(88)
        for _ in range(25):
            run_random_transactions(db, rng, 2)
            view.verify()

