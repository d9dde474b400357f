"""Tests for views defined over other views (stacked maintenance).

A registered view can serve as a base relation for further views: the
maintainer propagates each commit's deltas down the dependency chain,
feeding every downstream view the *view delta* its upstream just
applied.  Counted semantics carries through — an upstream projection's
multiplicity changes are deltas like any other.
"""

import random

import pytest

from repro.algebra.expressions import BaseRef
from repro.core.consistency import check_view_consistency
from repro.core.maintainer import MaintenancePolicy, ViewMaintainer
from repro.engine.database import Database
from repro.errors import MaintenanceError

from tests.conftest import run_random_transactions


@pytest.fixture
def db():
    database = Database()
    database.create_relation("r", ["A", "B"], [(i, i % 4) for i in range(12)])
    database.create_relation("s", ["B", "C"], [(i % 4, i) for i in range(12)])
    return database


@pytest.fixture
def maintainer(db):
    return ViewMaintainer(db, auto_verify=True)


class TestDefinition:
    def test_view_over_view(self, maintainer):
        maintainer.define_view("joined", BaseRef("r").join(BaseRef("s")))
        stacked = maintainer.define_view(
            "hot", BaseRef("joined").select("C >= 6")
        )
        assert len(stacked.contents) > 0

    def test_three_level_chain(self, maintainer):
        maintainer.define_view("l1", BaseRef("r").join(BaseRef("s")))
        maintainer.define_view("l2", BaseRef("l1").select("C >= 3"))
        l3 = maintainer.define_view("l3", BaseRef("l2").project(["A"]))
        assert l3.definition.relation_names == {"l2"}

    def test_deferred_upstream_rejected(self, maintainer):
        maintainer.define_view(
            "snap", BaseRef("r"), policy=MaintenancePolicy.DEFERRED
        )
        with pytest.raises(MaintenanceError):
            maintainer.define_view("over", BaseRef("snap").select("A < 5"))

    def test_drop_with_dependants_rejected(self, maintainer):
        maintainer.define_view("base_view", BaseRef("r"))
        maintainer.define_view("over", BaseRef("base_view").select("A < 5"))
        with pytest.raises(MaintenanceError):
            maintainer.drop_view("base_view")
        maintainer.drop_view("over")
        maintainer.drop_view("base_view")  # now fine

    def test_unknown_reference_still_rejected(self, maintainer):
        from repro.errors import ExpressionError

        with pytest.raises(ExpressionError):
            maintainer.define_view("v", BaseRef("no_such_thing"))


class TestPropagation:
    def test_insert_flows_through_chain(self, db, maintainer):
        maintainer.define_view("joined", BaseRef("r").join(BaseRef("s")))
        hot = maintainer.define_view("hot", BaseRef("joined").select("C >= 100"))
        assert len(hot.contents) == 0
        with db.transact() as txn:
            txn.insert("r", (99, 0))
            txn.insert("s", (0, 500))
        assert hot.contents.count_of((99, 0, 500)) == 1

    def test_delete_flows_through_chain(self, db, maintainer):
        maintainer.define_view("joined", BaseRef("r").join(BaseRef("s")))
        hot = maintainer.define_view("hot", BaseRef("joined").select("C >= 6"))
        target = next(iter(hot.contents.value_tuples()))
        with db.transact() as txn:
            txn.delete("r", (target[0], target[1]))
        assert target not in hot.contents

    def test_counted_upstream_deltas(self, db, maintainer):
        """A projection upstream produces counted deltas; the stacked
        view must track count changes, not just presence."""
        maintainer.define_view("proj", BaseRef("r").project(["B"]))
        over = maintainer.define_view("over", BaseRef("proj").select("B >= 0"))
        before = over.contents.count_of((0,))
        with db.transact() as txn:
            txn.insert("r", (50, 0))  # raises the count of B = 0
        assert over.contents.count_of((0,)) == before + 1

    def test_join_of_two_views(self, db, maintainer):
        maintainer.define_view("ra", BaseRef("r").select("A <= 6"))
        maintainer.define_view("sa", BaseRef("s").select("C <= 6"))
        both = maintainer.define_view("both", BaseRef("ra").join(BaseRef("sa")))
        with db.transact() as txn:
            txn.insert("r", (5, 1))
            txn.insert("s", (1, 5))
        check_view_consistency(both, maintainer.instances())

    def test_upstream_skip_skips_downstream(self, db, maintainer):
        maintainer.define_view("narrow", BaseRef("r").select("A < 0"))
        maintainer.define_view("over", BaseRef("narrow").project(["B"]))
        stats = maintainer.stats("over")
        with db.transact() as txn:
            txn.insert("r", (100, 1))  # irrelevant to 'narrow'
        # The upstream view never changed, so the stacked view saw no
        # delta at all — not even a screened one.
        assert stats["transactions_seen"] == 0

    def test_deferred_downstream_over_immediate_upstream(self, db, maintainer):
        maintainer.define_view("joined", BaseRef("r").join(BaseRef("s")))
        snap = maintainer.define_view(
            "snap",
            BaseRef("joined").select("C >= 6").project(["A"]),
            policy=MaintenancePolicy.DEFERRED,
        )
        with db.transact() as txn:
            txn.insert("r", (99, 0))
            txn.insert("s", (0, 500))
        # Upstream is current, downstream is stale until refresh.
        assert (99,) not in snap.contents
        maintainer.refresh("snap")
        assert (99,) in snap.contents
        check_view_consistency(snap, maintainer.instances())


class TestRandomizedStack:
    def test_long_random_run_stays_consistent(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [(i, i % 4) for i in range(12)])
        db.create_relation("s", ["B", "C"], [(i % 4, i) for i in range(12)])
        # auto_verify re-derives every view (including stacked ones)
        # from scratch after each commit.
        maintainer = ViewMaintainer(db, auto_verify=True)
        maintainer.define_view(
            "l1", BaseRef("r").join(BaseRef("s")).project(["A", "C"])
        )
        maintainer.define_view("l2", BaseRef("l1").select("C >= 4"))
        maintainer.define_view("l3", BaseRef("l2").project(["A"]))
        rng = random.Random(7)
        run_random_transactions(db, rng, 50)
        # auto_verify already checked every commit; one more explicit
        # end-to-end pass for good measure.
        for name in ("l1", "l2", "l3"):
            check_view_consistency(
                maintainer.view(name), maintainer.instances()
            )
